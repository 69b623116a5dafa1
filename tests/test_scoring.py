import numpy as np
import pytest

from moe_pathfinder.model import (
    MoEConfig,
    MoELayer,
    MoEModel,
    SampleBatch,
    gen_data,
    gen_model,
    model_forward,
)
from moe_pathfinder.scoring import (
    LOG_CLAMP,
    activation_strength,
    importance_scores,
    load_graph,
    reconstruction_loss,
    routing_preference,
    save_graph,
    score_sample,
    transition_intensity,
)


def test_activation_strength_zero_expert():
    layer = MoELayer(experts=[np.zeros((3, 3)), np.eye(3)], router=np.zeros((2, 3)))
    h = np.random.default_rng(0).standard_normal((4, 3))
    a = activation_strength(layer, h)
    assert a[0] == 0.0


def test_activation_strength_identity_unit_rows():
    h = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
    layer = MoELayer(experts=[np.eye(2)], router=np.zeros((1, 2)))
    assert activation_strength(layer, h)[0] == pytest.approx(1.0, rel=1e-12)


def test_activation_strength_matches_per_token_oracle():
    rng = np.random.default_rng(1)
    experts = [rng.standard_normal((5, 5)) for _ in range(3)]
    layer = MoELayer(experts=experts, router=rng.standard_normal((3, 5)))
    h = rng.standard_normal((7, 5))
    a = activation_strength(layer, h)
    for i, w in enumerate(experts):
        norms = [np.sqrt(np.sum((w @ h[k]) ** 2)) for k in range(7)]
        assert a[i] == pytest.approx(sum(norms) / 7, rel=1e-12)


def test_routing_preference_zero_router_uniform():
    layer = MoELayer(experts=[np.eye(3)] * 4, router=np.zeros((4, 3)))
    r = routing_preference(layer, np.random.default_rng(2).standard_normal((6, 3)))
    assert np.allclose(r, 0.25, atol=1e-15)


def test_routing_preference_single_token_and_mean():
    rng = np.random.default_rng(3)
    router = rng.standard_normal((3, 4))
    layer = MoELayer(experts=[np.eye(4)] * 3, router=router)

    h1 = rng.standard_normal((1, 4))
    row = np.exp(router @ h1[0] - (router @ h1[0]).max())
    assert np.allclose(routing_preference(layer, h1), row / row.sum(), rtol=1e-12)

    # two tokens with opposite logits average the two softmax rows
    h2 = np.vstack([h1[0], -h1[0]])
    z_pos, z_neg = router @ h1[0], -(router @ h1[0])
    rows = []
    for z in (z_pos, z_neg):
        e = np.exp(z - z.max())
        rows.append(e / e.sum())
    assert np.allclose(routing_preference(layer, h2), (rows[0] + rows[1]) / 2, rtol=1e-12)


def test_transition_intensity_cases():
    one_hot = np.array([1.0, 0.0])
    r = np.array([0.3, 0.7])
    t = transition_intensity(one_hot, r)
    assert np.array_equal(t[1], [0.0, 0.0])

    t = transition_intensity(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert np.all(t == 0.25)

    t = transition_intensity(np.array([1.0, 2.0]), np.array([0.25, 0.75]))
    assert np.array_equal(t, [[0.25, 0.75], [0.5, 1.5]])


def test_reconstruction_loss_single_expert_zero():
    cfg = MoEConfig(num_layers=2, experts_per_layer=1, hidden_dim=4, top_k=1, nonlinearity="none")
    model = gen_model(cfg, 5)
    x = gen_data(cfg, 1, 3, 6)[0]
    trace = model_forward(model, x)
    losses = reconstruction_loss(model.layers[0], trace.hidden_states[0], trace.layer_outputs[0])
    assert losses[0] == 0.0


def test_reconstruction_loss_duplicate_experts_equal():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((4, 4))
    layer = MoELayer(experts=[w, w.copy()], router=rng.standard_normal((2, 4)))
    h = rng.standard_normal((5, 4))
    y = rng.standard_normal((5, 4))
    losses = reconstruction_loss(layer, h, y)
    assert losses[0] == losses[1]


def test_reconstruction_loss_matches_explicit_loop():
    rng = np.random.default_rng(8)
    experts = [rng.standard_normal((3, 3)) for _ in range(2)]
    layer = MoELayer(experts=experts, router=rng.standard_normal((2, 3)))
    h = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 3))
    losses = reconstruction_loss(layer, h, y)
    for i, w in enumerate(experts):
        want = sum(np.sum((y[k] - w @ h[k]) ** 2) for k in range(6)) / 6
        assert losses[i] == pytest.approx(want, rel=1e-12)


def test_importance_interior_uniform_and_ln2():
    assert np.allclose(importance_scores(np.full(4, 2.5), "interior"), 0.25, atol=1e-15)
    e = importance_scores(np.array([0.0, np.log(2.0)]), "interior")
    assert np.allclose(e, [2 / 3, 1 / 3], rtol=1e-12)


def test_importance_first_layer_uniform_factors():
    n = 4
    e = importance_scores(
        np.ones(n), "first", routing_first=np.full(n, 1.0 / n)
    )
    assert np.allclose(e, 1.0 / n**2, atol=1e-15)


def test_importance_requires_context():
    with pytest.raises(ValueError):
        importance_scores(np.ones(2), "first")
    with pytest.raises(ValueError):
        importance_scores(np.ones(2), "last")
    with pytest.raises(ValueError):
        importance_scores(np.ones(2), "edge")


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
        for l in range(3):
            s = graph.layer_scores[l]
            assert np.allclose(s.activation, a[l], rtol=1e-12)
            assert np.allclose(s.routing, r[l], rtol=1e-12)
            assert np.allclose(s.recon_loss, losses[l], rtol=1e-12)
            assert np.allclose(s.importance, imp[l], rtol=1e-12)
        for l in range(2):
            assert np.allclose(graph.transitions[l], trans[l], rtol=1e-12)
        assert np.allclose(graph.log_node, np.log(np.maximum(imp, LOG_CLAMP)), rtol=1e-12)


def test_score_sample_rank1_exact():
    cfg = MoEConfig(num_layers=4, experts_per_layer=3, hidden_dim=4, top_k=1)
    model = gen_model(cfg, 9)
    x = gen_data(cfg, 1, 4, 10)[0]
    graph = score_sample(model, x)
    for l, t in enumerate(graph.transitions):
        a = graph.layer_scores[l].activation
        r = graph.layer_scores[l + 1].routing
        for i in range(3):
            for j in range(3):
                assert t[i, j] == a[i] * r[j]  # identical float expression


def test_score_sample_normalization():
    cfg = MoEConfig(num_layers=4, experts_per_layer=4, hidden_dim=6, top_k=2)
    model = gen_model(cfg, 14)
    x = gen_data(cfg, 1, 8, 15)[0]
    graph = score_sample(model, x)
    for l, s in enumerate(graph.layer_scores):
        assert abs(s.routing.sum() - 1.0) <= 1e-12
        if 0 < l < 3:
            assert abs(s.importance.sum() - 1.0) <= 1e-12
            assert np.all(s.importance > 0)


def test_score_sample_duplicate_expert_symmetry():
    rng = np.random.default_rng(16)
    w = rng.standard_normal((3, 3))
    cfg = MoEConfig(num_layers=3, experts_per_layer=2, hidden_dim=3, top_k=1)
    model = gen_model(cfg, 17)
    model.layers[1] = MoELayer(experts=[w, w.copy()], router=np.zeros((2, 3)))
    graph = score_sample(model, SampleBatch(rng.standard_normal((4, 3))))
    s = graph.layer_scores[1]
    assert s.activation[0] == s.activation[1]
    assert s.recon_loss[0] == s.recon_loss[1]
    assert s.importance[0] == s.importance[1]


def test_score_sample_single_expert_chain_log_weight():
    cfg = MoEConfig(num_layers=2, experts_per_layer=1, hidden_dim=3, top_k=1)
    model = gen_model(cfg, 18)
    graph = score_sample(model, gen_data(cfg, 1, 4, 19)[0])
    expected = (
        np.log(graph.layer_scores[0].importance[0])
        + np.log(graph.transitions[0][0, 0])
        + np.log(graph.layer_scores[1].importance[0])
    )
    total = graph.log_node[0][0] + graph.log_edge[0][0][0] + graph.log_node[1][0]
    assert total == pytest.approx(expected, rel=1e-12)


def test_activation_scale_covariance_on_frozen_trace():
    cfg = MoEConfig(num_layers=3, experts_per_layer=3, hidden_dim=4, top_k=2)
    model = gen_model(cfg, 20)
    trace = model_forward(model, gen_data(cfg, 1, 5, 21)[0])
    h = trace.hidden_states[1]
    layer = model.layers[1]
    base = activation_strength(layer, h)
    # power-of-two scaling is exact in floating point
    doubled = MoELayer(experts=[2.0 * w for w in layer.experts], router=layer.router)
    assert np.array_equal(activation_strength(doubled, h), 2.0 * base)
    tripled = MoELayer(experts=[3.0 * w for w in layer.experts], router=layer.router)
    assert np.allclose(activation_strength(tripled, h), 3.0 * base, rtol=1e-12)


def test_score_sample_pure():
    cfg = MoEConfig(num_layers=3, experts_per_layer=4, hidden_dim=6, top_k=2)
    model = gen_model(cfg, 22)
    x = gen_data(cfg, 1, 7, 23)[0]
    g1, g2 = score_sample(model, x), score_sample(model, x)
    assert g1.log_node.tobytes() == g2.log_node.tobytes()
    assert g1.log_edge.tobytes() == g2.log_edge.tobytes()


def test_graph_save_load_roundtrip(tmp_path):
    cfg = MoEConfig(num_layers=3, experts_per_layer=3, hidden_dim=4, top_k=1)
    model = gen_model(cfg, 24)
    graph = score_sample(model, gen_data(cfg, 1, 4, 25)[0])
    name = save_graph(graph, tmp_path, "sample0000")
    assert [p.name for p in tmp_path.iterdir()] == [name]
    back = load_graph(tmp_path, name)
    assert back.num_layers == graph.num_layers
    for sa, sb in zip(graph.layer_scores, back.layer_scores):
        assert np.array_equal(sa.activation, sb.activation)
        assert np.array_equal(sa.importance, sb.importance)
    for ta, tb in zip(graph.transitions, back.transitions):
        assert ta.tobytes() == tb.tobytes()
    assert np.array_equal(back.log_node, graph.log_node)
    assert np.array_equal(back.log_edge, graph.log_edge)
