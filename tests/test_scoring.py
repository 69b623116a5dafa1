import numpy as np
import pytest

from moe_pathfinder.model import (
    MoEConfig,
    MoELayer,
    MoEModel,
    SampleBatch,
    expert_outputs,
    gen_data,
    gen_model,
    layer_states,
    model_forward,
    route,
)
from moe_pathfinder.harness import ExperimentConfig, experiment_data, experiment_model
from moe_pathfinder.errors import FormatError
from moe_pathfinder.numerics import load_tensor, save_tensor, softmax_rows
from moe_pathfinder.scoring import (
    LOG_CLAMP,
    activation_strength,
    graph_from_scores,
    load_graph,
    reconstruction_loss,
    save_graph,
    score_sample,
    score_samples,
)
from moe_pathfinder.numerics import Rng
from moe_pathfinder.planner import top_m_paths_dp
from oracles import random_sample_graph


def fields(graph):
    """The graph's activation, routing, recon_loss and importance, each L x N_e."""
    return np.moveaxis(graph.scores, 1, 0)


def test_activation_strength_zero_expert():
    layer = MoELayer(experts=np.array([np.zeros((3, 3)), np.eye(3)]), router=np.zeros((2, 3)))
    h = np.random.default_rng(0).standard_normal((4, 3))
    a = activation_strength(expert_outputs(layer, h))
    assert a[0] == 0.0


def test_activation_strength_identity_unit_rows():
    h = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
    layer = MoELayer(experts=np.array([np.eye(2)]), router=np.zeros((1, 2)))
    assert activation_strength(expert_outputs(layer, h))[0] == pytest.approx(1.0, rel=1e-12)


def test_activation_strength_matches_per_token_oracle():
    rng = np.random.default_rng(1)
    experts = rng.standard_normal((3, 5, 5))
    layer = MoELayer(experts=experts, router=rng.standard_normal((3, 5)))
    h = rng.standard_normal((7, 5))
    a = activation_strength(expert_outputs(layer, h))
    for i, w in enumerate(experts):
        norms = [np.sqrt(np.sum((w @ h[k]) ** 2)) for k in range(7)]
        assert a[i] == pytest.approx(sum(norms) / 7, rel=1e-12)


def test_mean_routing_zero_router_uniform():
    layer = MoELayer(experts=np.array([np.eye(3)] * 4), router=np.zeros((4, 3)))
    r = route(layer, np.random.default_rng(2).standard_normal((6, 3))).mean(axis=0)
    assert np.allclose(r, 0.25, atol=1e-15)


def test_mean_routing_single_token_and_mean():
    rng = np.random.default_rng(3)
    router = rng.standard_normal((3, 4))
    layer = MoELayer(experts=np.array([np.eye(4)] * 3), router=router)

    h1 = rng.standard_normal((1, 4))
    row = np.exp(router @ h1[0] - (router @ h1[0]).max())
    assert np.allclose(route(layer, h1).mean(axis=0), row / row.sum(), rtol=1e-12)

    # two tokens with opposite logits average the two softmax rows
    h2 = np.vstack([h1[0], -h1[0]])
    z_pos, z_neg = router @ h1[0], -(router @ h1[0])
    rows = []
    for z in (z_pos, z_neg):
        e = np.exp(z - z.max())
        rows.append(e / e.sum())
    assert np.allclose(route(layer, h2).mean(axis=0), (rows[0] + rows[1]) / 2, rtol=1e-12)


def test_reconstruction_loss_single_expert_zero():
    cfg = MoEConfig(num_layers=2, experts_per_layer=1, hidden_dim=4, top_k=1, nonlinearity="none")
    model = gen_model(cfg, 5)
    x = gen_data(cfg, 1, 3, 6)[0]
    trace = model_forward(model, x)
    losses = reconstruction_loss(
        expert_outputs(model.layers[0], trace.hidden_states[0]), trace.layer_outputs[0]
    )
    assert losses[0] == 0.0


def test_reconstruction_loss_duplicate_experts_equal():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((4, 4))
    layer = MoELayer(experts=np.array([w, w]), router=rng.standard_normal((2, 4)))
    h = rng.standard_normal((5, 4))
    y = rng.standard_normal((5, 4))
    losses = reconstruction_loss(expert_outputs(layer, h), y)
    assert losses[0] == losses[1]


def test_reconstruction_loss_matches_explicit_loop():
    rng = np.random.default_rng(8)
    experts = rng.standard_normal((2, 3, 3))
    layer = MoELayer(experts=experts, router=rng.standard_normal((2, 3)))
    h = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 3))
    losses = reconstruction_loss(expert_outputs(layer, h), y)
    for i, w in enumerate(experts):
        want = sum(np.sum((y[k] - w @ h[k]) ** 2) for k in range(6)) / 6
        assert losses[i] == pytest.approx(want, rel=1e-12)


def _zero_router_model(layer_experts, top_k=1):
    # linear layers whose zero routers tie every expert, so each token goes
    # to the lowest-index experts
    d = layer_experts[0][0].shape[0]
    cfg = MoEConfig(num_layers=len(layer_experts), experts_per_layer=len(layer_experts[0]),
                    hidden_dim=d, top_k=top_k, nonlinearity="none")
    return MoEModel(cfg, [MoELayer(np.array(ws), np.zeros((len(ws), d))) for ws in layer_experts])


def test_importance_interior_uniform_and_ln2():
    # layer 1 is interior; layer 0 passes the token through unchanged
    eye = np.eye(2)
    x = SampleBatch(np.array([[1.0, 0.0]]))
    same = _zero_router_model([[eye, eye], [eye, eye], [eye, eye]])
    assert np.allclose(fields(score_sample(same, x))[3][1], 0.5, atol=1e-15)
    # expert 0 (zero) is selected, so expert 1's loss is |sqrt(ln 2) x|^2 = ln 2
    apart = _zero_router_model([[eye, eye], [0 * eye, np.sqrt(np.log(2.0)) * eye], [eye, eye]])
    e = fields(score_sample(apart, x))[3][1]
    assert np.allclose(e, [2 / 3, 1 / 3], rtol=1e-12)


def test_importance_first_layer_uniform_factors():
    # equal losses and uniform routing: (1/n) * (1/n) per expert
    n = 4
    model = _zero_router_model([[np.eye(3)] * n] * 2)
    x = SampleBatch(np.random.default_rng(9).standard_normal((5, 3)))
    e = fields(score_sample(model, x))[3][0]
    assert np.allclose(e, 1.0 / n**2, atol=1e-15)


def scoring_oracle(model, trace):
    """Re-derive every graph quantity from the trace with plain loops."""
    L = model.config.num_layers
    n = model.config.experts_per_layer
    a = np.zeros((L, n))
    r = np.zeros((L, n))
    losses = np.zeros((L, n))
    for l, layer in enumerate(model.layers):
        h = trace.hidden_states[l]
        y = trace.layer_outputs[l]
        n_tok = h.shape[0]
        for i, w in enumerate(layer.experts):
            a[l, i] = sum(np.sqrt(np.sum((h[k] @ w.T) ** 2)) for k in range(n_tok)) / n_tok
            losses[l, i] = sum(np.sum((y[k] - h[k] @ w.T) ** 2) for k in range(n_tok)) / n_tok
        for k in range(n_tok):
            z = layer.router @ h[k]
            ez = np.exp(z - z.max())
            r[l] += ez / ez.sum()
        r[l] /= n_tok

    def sm(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    imp = np.zeros((L, n))
    for l in range(L):
        base = sm(-losses[l])
        if l == 0:
            imp[l] = base * r[0]
        elif l == L - 1:
            imp[l] = base * a[L - 1]
        else:
            imp[l] = base
    trans = [np.array([[a[l, i] * r[l + 1, j] for j in range(n)] for i in range(n)]) for l in range(L - 1)]
    return a, r, losses, imp, trans


def test_score_sample_matches_full_rederivation():
    cfg = MoEConfig(num_layers=3, experts_per_layer=3, hidden_dim=5, top_k=2)
    for seed in range(3):
        model = gen_model(cfg, seed)
        x = gen_data(cfg, 1, 6, 50 + seed)[0]
        graph = score_sample(model, x)
        a, r, losses, imp, trans = scoring_oracle(model, model_forward(model, x))
        for got, want in zip(fields(graph), (a, r, losses, imp)):
            assert np.allclose(got, want, rtol=1e-12)
        for l in range(2):
            assert np.allclose(graph.log_edge[l], np.log(trans[l]), rtol=1e-12)
        assert np.allclose(graph.log_node, np.log(np.maximum(imp, LOG_CLAMP)), rtol=1e-12)


def per_expert_score_trace(model, trace):
    """Scoring of a forward trace as it was before the batched product: one
    matrix product and two einsums per expert, each on its own d x d array."""
    L = model.config.num_layers
    scores = []
    for l, layer in enumerate(model.layers):
        h = trace.hidden_states[l]
        y = trace.layer_outputs[l]
        outs = [h @ w.copy().T for w in layer.experts]
        act = np.array([np.sqrt(np.einsum("ij,ij->i", o, o)).mean() for o in outs])
        routing = trace.routing_probs[l].mean(axis=0)
        losses = []
        for o in outs:
            diff = y - o
            losses.append(np.einsum("ij,ij->i", diff, diff).mean())
        losses = np.array(losses)
        imp = softmax_rows(-losses[None, :])[0]
        if l == 0:
            imp = imp * routing
        elif l == L - 1:
            imp = imp * act
        scores.append([act, routing, losses, imp])
    return graph_from_scores(np.array(scores))


def _desk_family(seed, n):
    cfg = ExperimentConfig()
    return experiment_model(cfg, seed), experiment_data(cfg, n, seed + 100, seed + 200)


def _raw_family(seed, n):
    cfg = MoEConfig(num_layers=6, experts_per_layer=8, hidden_dim=32, top_k=2)
    return gen_model(cfg, seed), gen_data(cfg, n, 32, seed + 200)


def _wide_family(seed, n):
    cfg = ExperimentConfig(
        moe=MoEConfig(num_layers=7, experts_per_layer=12, hidden_dim=16, top_k=2))
    return experiment_model(cfg, seed), experiment_data(cfg, n, seed + 100, seed + 200)


@pytest.mark.parametrize("family", [_desk_family, _raw_family, _wide_family],
                         ids=["desk", "raw", "L7-N12-d16"])
def test_batched_score_trace_equals_per_expert_loop_bit_for_bit(family):
    for seed in (1, 2, 3):
        model, samples = family(seed, 4)
        for x in samples:
            # score_sample reuses its forward's expert outputs; the loop reads
            # the same forward's trace, so every float must agree
            got = score_sample(model, x)
            want = per_expert_score_trace(model, model_forward(model, x))
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got.node_scores.tobytes() == want.node_scores.tobytes()


def per_sample_scores(model, x):
    """score_sample as it was before scoring stacked samples into blocks: one
    forward per sample, and each statistic a mean over all of its rows."""
    L = model.config.num_layers
    scores = []
    for l, (y, _, p, outs, _) in enumerate(layer_states(model, x.tokens)):
        act = np.sqrt(np.einsum("nij,nij->ni", outs, outs)).mean(axis=1)
        routing = p.mean(axis=0)
        diff = y - outs
        losses = np.einsum("nij,nij->ni", diff, diff).mean(axis=1)
        imp = softmax_rows(-losses[None, :])[0]
        if l == 0:
            imp = imp * routing
        elif l == L - 1:
            imp = imp * act
        scores.append([act, routing, losses, imp])
    return graph_from_scores(np.array(scores))


@pytest.mark.parametrize("family", [_desk_family, _raw_family, _wide_family],
                         ids=["desk", "raw", "L7-N12-d16"])
def test_score_samples_matches_per_sample_scoring(monkeypatch, family):
    # 40 samples of 32 tokens are blocks of 512, 512 and 256 rows; products
    # over a block round differently from per-sample ones, a few ulps at most
    model, samples = family(4, 40)
    rows = []

    def spy(model, h):
        rows.append(h.shape[0])
        return layer_states(model, h)

    monkeypatch.setattr("moe_pathfinder.scoring.layer_states", spy)
    got = score_samples(model, samples)
    assert rows == [512, 512, 256]
    cfg = model.config
    assert got.shape == (len(samples), cfg.num_layers, 4, cfg.experts_per_layer)
    for row, x in zip(got, samples):
        g, want = graph_from_scores(row), per_sample_scores(model, x)
        np.testing.assert_allclose(g.scores, want.scores, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(g.node_scores, want.node_scores, rtol=1e-12, atol=0.0)
        assert ([p.experts for p in top_m_paths_dp(g, 16).paths]
                == [p.experts for p in top_m_paths_dp(want, 16).paths])


def test_score_sample_rank1_exact():
    # each edge log(a_i * r_j) splits into a_i's term on the node before it
    # and r_j's term on the node after it, added after the importance term
    cfg = MoEConfig(num_layers=4, experts_per_layer=3, hidden_dim=4, top_k=1)
    model = gen_model(cfg, 9)
    x = gen_data(cfg, 1, 4, 10)[0]
    graph = score_sample(model, x)
    for l, (act, routing, _, imp) in enumerate(graph.scores):
        want = np.log(np.maximum(imp, LOG_CLAMP))
        if l < 3:
            want = want + np.log(np.maximum(act, LOG_CLAMP))
        if l > 0:
            want = want + np.log(np.maximum(routing, LOG_CLAMP))
        assert graph.node_scores[l].tobytes() == want.tobytes()


def test_score_sample_normalization():
    cfg = MoEConfig(num_layers=4, experts_per_layer=4, hidden_dim=6, top_k=2)
    model = gen_model(cfg, 14)
    x = gen_data(cfg, 1, 8, 15)[0]
    graph = score_sample(model, x)
    for l, (_, routing, _, imp) in enumerate(graph.scores):
        assert abs(routing.sum() - 1.0) <= 1e-12
        if 0 < l < 3:
            assert abs(imp.sum() - 1.0) <= 1e-12
            assert np.all(imp > 0)


def test_score_sample_duplicate_expert_symmetry():
    rng = np.random.default_rng(16)
    w = rng.standard_normal((3, 3))
    cfg = MoEConfig(num_layers=3, experts_per_layer=2, hidden_dim=3, top_k=1)
    model = gen_model(cfg, 17)
    model.layers[1] = MoELayer(experts=np.array([w, w]), router=np.zeros((2, 3)))
    graph = score_sample(model, SampleBatch(rng.standard_normal((4, 3))))
    act, _, losses, imp = graph.scores[1]
    assert act[0] == act[1]
    assert losses[0] == losses[1]
    assert imp[0] == imp[1]


def test_score_sample_single_expert_chain_log_weight():
    cfg = MoEConfig(num_layers=2, experts_per_layer=1, hidden_dim=3, top_k=1)
    model = gen_model(cfg, 18)
    graph = score_sample(model, gen_data(cfg, 1, 4, 19)[0])
    act, routing, _, imp = fields(graph)
    expected = np.log(imp[0, 0]) + np.log(act[0, 0] * routing[1, 0]) + np.log(imp[1, 0])
    total = graph.node_scores[0][0] + graph.node_scores[1][0]
    assert total == pytest.approx(expected, rel=1e-12)


def test_activation_scale_covariance_on_frozen_trace():
    cfg = MoEConfig(num_layers=3, experts_per_layer=3, hidden_dim=4, top_k=2)
    model = gen_model(cfg, 20)
    trace = model_forward(model, gen_data(cfg, 1, 5, 21)[0])
    h = trace.hidden_states[1]
    layer = model.layers[1]
    base = activation_strength(expert_outputs(layer, h))
    # power-of-two scaling is exact in floating point
    doubled = MoELayer(experts=2.0 * layer.experts, router=layer.router)
    assert np.array_equal(activation_strength(expert_outputs(doubled, h)), 2.0 * base)
    tripled = MoELayer(experts=3.0 * layer.experts, router=layer.router)
    assert np.allclose(activation_strength(expert_outputs(tripled, h)), 3.0 * base, rtol=1e-12)


def test_score_sample_pure():
    cfg = MoEConfig(num_layers=3, experts_per_layer=4, hidden_dim=6, top_k=2)
    model = gen_model(cfg, 22)
    x = gen_data(cfg, 1, 7, 23)[0]
    g1, g2 = score_sample(model, x), score_sample(model, x)
    assert g1.node_scores.tobytes() == g2.node_scores.tobytes()


def test_graph_save_load_roundtrip(tmp_path):
    cfg = MoEConfig(num_layers=3, experts_per_layer=3, hidden_dim=4, top_k=1)
    model = gen_model(cfg, 24)
    graph = score_sample(model, gen_data(cfg, 1, 4, 25)[0])
    name = save_graph(graph, tmp_path, "sample0000")
    assert [p.name for p in tmp_path.iterdir()] == [name] == ["sample0000.tnsr"]
    assert load_tensor(tmp_path / name).tobytes() == graph.scores.tobytes()
    back = load_graph(tmp_path, name)
    assert back.num_layers == graph.num_layers
    assert back.scores.tobytes() == graph.scores.tobytes()
    assert back.node_scores.tobytes() == graph.node_scores.tobytes()


@pytest.mark.parametrize("shape", [(0, 4, 3), (3, 4, 0), (3, 3, 3), (3, 4), (2, 3, 4, 3)])
def test_load_graph_rejects_a_blob_not_l_by_4_by_n_e(tmp_path, shape):
    save_tensor(tmp_path / "g.tnsr", np.full(shape, 0.5))
    with pytest.raises(FormatError, match="g.tnsr has shape"):
        load_graph(tmp_path, "g.tnsr")


def per_layer_node_scores(scores, use_importance=True, use_transition=True):
    """graph_from_scores's node scores as they were summed before a graph
    held one score array: a loop over layers, each vector its own array."""
    L, _, n = scores.shape
    node_scores = np.zeros((L, n))
    for l in range(L):
        act, routing, _, imp = (np.array(v) for v in scores[l])
        if use_importance:
            node_scores[l] += np.log(np.maximum(imp, LOG_CLAMP))
        if use_transition and l < L - 1:
            node_scores[l] += np.log(np.maximum(act, LOG_CLAMP))
        if use_transition and l > 0:
            node_scores[l] += np.log(np.maximum(routing, LOG_CLAMP))
    return node_scores


def _oracle_graphs():
    # scored graphs of three families, and random ones down to a single layer
    for family in (_desk_family, _raw_family, _wide_family):
        model, samples = family(5, 3)
        yield from map(graph_from_scores, score_samples(model, samples))
    rng = Rng(31)
    for L, n in ((1, 3), (2, 2), (4, 5), (6, 12)):
        yield random_sample_graph(L, n, rng)


_SIGNALS = [(True, True), (True, False), (False, True)]


def test_graph_from_scores_equals_per_layer_loop():
    for g in _oracle_graphs():
        for signals in _SIGNALS:
            got = graph_from_scores(g.scores, *signals).node_scores
            assert np.array_equal(got, per_layer_node_scores(g.scores, *signals))


def test_log_edge_equals_per_layer_outer_products():
    for g in _oracle_graphs():
        act, routing, _, _ = fields(g)
        L, n = act.shape
        want = [np.log(np.maximum(np.outer(act[l], routing[l + 1]), LOG_CLAMP))
                for l in range(L - 1)]
        assert g.log_edge.shape == (L - 1, n, n)
        assert np.array_equal(g.log_edge, np.array(want).reshape(L - 1, n, n))

    def edge_is(a, r, want):
        scores = np.ones((2, 4, len(a)))
        scores[0, 0], scores[1, 1] = a, r
        got = graph_from_scores(scores).log_edge[0]
        return np.array_equal(got, np.log(np.maximum(want, LOG_CLAMP)))

    # a zero activation zeroes its row, down to the log clamp
    assert edge_is([1.0, 0.0], [0.3, 0.7], [[0.3, 0.7], [0.0, 0.0]])
    assert edge_is([0.5, 0.5], [0.5, 0.5], np.full((2, 2), 0.25))
    assert edge_is([1.0, 2.0], [0.25, 0.75], [[0.25, 0.75], [0.5, 1.5]])
