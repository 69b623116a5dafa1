import json
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from moe_pathfinder.errors import FormatError, InvariantError
from moe_pathfinder.harness import (
    ExperimentConfig, eval_masks, experiment_data, experiment_model, random_mask,
)
from moe_pathfinder.model import (
    MoEConfig,
    MoELayer,
    MoEModel,
    SampleBatch,
    expert_outputs,
    gen_data,
    gen_model,
    layer_forward,
    layer_states,
    load_model,
    model_forward,
    retained_ids,
    route,
    save_model,
)
from moe_pathfinder.numerics import Rng, load_tensor, save_tensor, softmax_rows
from moe_pathfinder.pruner import PruneMask, apply_mask
from moe_pathfinder.scoring import score_samples

MASK64 = (1 << 64) - 1


def small_config(**kw):
    base = dict(num_layers=3, experts_per_layer=4, hidden_dim=6, top_k=2, nonlinearity="tanh")
    base.update(kw)
    return MoEConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        MoEConfig(num_layers=1, experts_per_layer=2, hidden_dim=4, top_k=1)
    with pytest.raises(ValueError):
        MoEConfig(num_layers=2, experts_per_layer=2, hidden_dim=4, top_k=3)
    with pytest.raises(ValueError):
        MoEConfig(num_layers=2, experts_per_layer=2, hidden_dim=4, top_k=1, nonlinearity="relu")


def test_route_zero_router_uniform():
    layer = MoELayer(experts=np.array([np.eye(3)] * 2), router=np.zeros((2, 3)))
    probs = route(layer, np.random.default_rng(0).standard_normal((5, 3)))
    assert np.allclose(probs, 0.5)


def test_route_single_expert():
    layer = MoELayer(experts=np.array([np.eye(3)]), router=np.ones((1, 3)))
    probs = route(layer, np.random.default_rng(1).standard_normal((4, 3)))
    assert np.array_equal(probs, np.ones((4, 1)))


def test_route_matches_hand_softmax():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 5))
    router = rng.standard_normal((3, 5))
    layer = MoELayer(experts=np.array([np.eye(5)] * 3), router=router)
    probs = route(layer, h)
    for k in range(2):
        logits = np.array([sum(h[k, t] * router[j, t] for t in range(5)) for j in range(3)])
        e = np.exp(logits - logits.max())
        assert np.allclose(probs[k], e / e.sum(), rtol=1e-12)


def dense_gather_oracle(layer, h, top_k, retained=None):
    # full probs, explicit per-token top-k with lowest-index tie-break,
    # renormalized gates over the selection
    n_experts = len(layer.experts)
    retained = sorted(retained) if retained is not None else list(range(n_experts))
    out = np.zeros_like(h)
    selections = []
    for k in range(h.shape[0]):
        logits = layer.router @ h[k]
        z = np.array([logits[i] if i in retained else -np.inf for i in range(n_experts)])
        e = np.exp(z - z[retained].max())
        p = e / e.sum()
        k_eff = min(top_k, len(retained))
        chosen = sorted(range(n_experts), key=lambda i: (-p[i], i))[:k_eff]
        gates = p[chosen] / p[chosen].sum()
        for g, i in zip(gates, chosen):
            out[k] += g * (layer.experts[i] @ h[k])
        selections.append(sorted(chosen))
    return out, selections


def test_layer_forward_single_expert_exact():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 4))
    layer = MoELayer(experts=w[None], router=rng.standard_normal((1, 4)))
    h = rng.standard_normal((3, 4))
    y, selected, _, _ = layer_forward(layer, h, top_k=1)
    assert np.array_equal(y, h @ w.T)
    assert np.array_equal(selected, np.zeros((3, 1), dtype=int))


def test_layer_forward_uniform_router_full_topk_is_mean():
    rng = np.random.default_rng(4)
    experts = rng.standard_normal((3, 4, 4))
    layer = MoELayer(experts=experts, router=np.zeros((3, 4)))
    h = rng.standard_normal((5, 4))
    y, _, _, _ = layer_forward(layer, h, top_k=3)
    mean = sum(h @ w.T for w in experts) / 3.0
    assert np.allclose(y, mean, rtol=1e-12)


def test_layer_forward_matches_dense_gather_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        experts = rng.standard_normal((4, 6, 6))
        layer = MoELayer(experts=experts, router=rng.standard_normal((4, 6)))
        h = rng.standard_normal((2, 6))
        y, selected, _, _ = layer_forward(layer, h, top_k=2)
        want_y, want_sel = dense_gather_oracle(layer, h, 2)
        assert np.allclose(y, want_y, rtol=1e-10, atol=1e-12)
        assert [list(row) for row in selected] == want_sel


def per_expert_gather_loop(layer, h, top_k):
    """layer_forward as it was before the stacked expert product: one
    product per selected expert on its gathered rows, scattered into a
    zeroed output."""
    probs = softmax_rows(h @ layer.router.T)
    k = min(top_k, len(layer.experts))
    selected = np.sort(np.argsort(-probs, axis=1, kind="stable")[:, :k], axis=1)
    gates = np.take_along_axis(probs, selected, axis=1)
    gates = gates / gates.sum(axis=1, keepdims=True)
    out = np.zeros((h.shape[0], h.shape[1]))
    for i in np.unique(selected):
        rows, cols = np.nonzero(selected == i)
        out[rows] += gates[rows, cols, None] * (h[rows] @ layer.experts[i].T)
    return out, selected


def _assert_kernel_matches_loop(layer, h, top_k):
    # the stacked product rounds a row by the product's row count, so the
    # mix may move by a few ulps; the selection may not move at all
    y, selected, _, _ = layer_forward(layer, h, top_k)
    want_y, want_sel = per_expert_gather_loop(layer, h, top_k)
    assert selected.tobytes() == want_sel.tobytes()
    assert np.allclose(y, want_y, rtol=1e-12, atol=1e-14)


def _family_models(family, seed):
    if family == "raw":
        cfg = MoEConfig(num_layers=6, experts_per_layer=8, hidden_dim=32, top_k=2)
        return gen_model(cfg, seed), gen_data(cfg, 4, 32, seed + 200)
    cfg = ExperimentConfig()
    if family == "L7-N12-d16":
        cfg = ExperimentConfig(
            moe=MoEConfig(num_layers=7, experts_per_layer=12, hidden_dim=16, top_k=2))
    return experiment_model(cfg, seed), experiment_data(cfg, 4, seed + 100, seed + 200)


@pytest.mark.parametrize("family", ["desk", "raw", "L7-N12-d16"])
def test_layer_forward_matches_per_expert_gather_loop_on_model_families(family):
    for seed in (1, 2, 3):
        model, samples = _family_models(family, seed)
        for x in samples:
            h = x.tokens
            for layer, (*_, h_next) in zip(model.layers, layer_states(model, h)):
                _assert_kernel_matches_loop(layer, h, model.config.top_k)
                h = h_next


def test_layer_forward_matches_per_expert_gather_loop_on_random_layers():
    # with this seed 11 of the 40 layers differ from the loop in some bit
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_experts, d, rows = rng.integers(1, 17), rng.integers(4, 65), rng.integers(1, 1025)
        bound = 1.0 / np.sqrt(d)
        layer = MoELayer(experts=rng.uniform(-bound, bound, (n_experts, d, d)),
                         router=rng.uniform(-bound, bound, (n_experts, d)))
        h = rng.uniform(-1.0, 1.0, (rows, d))
        for top_k in range(1, n_experts + 1):
            _assert_kernel_matches_loop(layer, h, top_k)


def row_wise_layer_forward(layer, h, top_k):
    """layer_forward as it was before routing ran along the token axis: a
    softmax, a stable argsort, a sort and a gate sum per token row."""
    logits = h @ layer.router.T
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    k = min(top_k, len(layer.experts))
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    selected = np.sort(order, axis=1)
    gates = np.take_along_axis(probs, selected, axis=1)
    gates = gates / gates.sum(axis=1, keepdims=True)
    outs = expert_outputs(layer, h)
    mixed = outs[selected, np.arange(h.shape[0])[:, None]]
    return np.einsum("tk,tkd->td", gates, mixed), selected, probs, outs


def _random_router(rng, n, d):
    router = rng.uniform(-1.0, 1.0, (n, d))
    kind = rng.integers(4)
    if kind == 1:  # two twin rows: their probabilities tie exactly
        router[rng.integers(n)] = router[rng.integers(n)]
    elif kind == 2:  # every probability ties
        router[:] = 0.0
    elif kind == 3:  # the first half all alike
        router[: (n + 1) // 2] = router[0]
    return router


def test_layer_forward_is_bit_identical_to_the_row_wise_kernel():
    rng = np.random.default_rng(23)
    shapes = [(40, 4, 1024), (1, 3, 7), (8, 5, 0)]
    shapes += [(rng.integers(1, 41), rng.integers(1, 17), rng.integers(1, 1025))
               for _ in range(14)]
    for n, d, rows in shapes:
        layer = MoELayer(experts=rng.uniform(-1.0, 1.0, (n, d, d)),
                         router=_random_router(rng, n, d))
        h = rng.uniform(-1.0, 1.0, (rows, d))
        h[: rows // 8] = 0.0  # zero tokens tie every expert too
        for top_k in range(1, n + 1):
            got = layer_forward(layer, h, top_k)
            assert got[2].flags.c_contiguous
            for a, b in zip(got, row_wise_layer_forward(layer, h, top_k)):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


def test_layer_forward_sorts_no_rows(monkeypatch):
    rng = np.random.default_rng(24)
    layer = MoELayer(experts=rng.uniform(-1.0, 1.0, (6, 4, 4)),
                     router=rng.uniform(-1.0, 1.0, (6, 4)))
    h = rng.uniform(-1.0, 1.0, (32, 4))
    want = row_wise_layer_forward(layer, h, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("layer_forward sorted a row")

    for name in ("argsort", "sort", "take_along_axis"):
        monkeypatch.setattr(np, name, refuse)
    got = layer_forward(layer, h, 3)
    monkeypatch.undo()
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_masked_forward_respects_retained_set():
    rng = np.random.default_rng(6)
    cfg = MoEConfig(num_layers=2, experts_per_layer=4, hidden_dim=5, top_k=2, nonlinearity="none")
    layer = MoELayer(experts=rng.standard_normal((4, 5, 5)),
                     router=rng.standard_normal((4, 5)))
    identity = MoELayer(experts=np.array([np.eye(5)] * 4), router=np.zeros((4, 5)))
    model = MoEModel(cfg, [layer, identity])
    h = rng.standard_normal((8, 5))
    for retained in [{0}, {1, 3}, {0, 2, 3}]:
        keep = np.ones((2, 4), dtype=bool)
        keep[0] = [i in retained for i in range(4)]
        pruned, kept = apply_mask(model, PruneMask(keep))
        ids = np.array(kept[0])
        assert ids.tolist() == sorted(retained)
        y, selected, probs, outs, _ = next(layer_states(pruned, h))
        # selected indexes the kept experts; mapped through kept, it names ids
        assert set(np.unique(ids[selected])) <= retained
        # the expert outputs are the kept experts' only, in id order
        assert outs.tobytes() == expert_outputs(layer.subset(ids), h).tobytes()
        assert probs.shape == (8, len(retained))
        want_y, want_sel = dense_gather_oracle(layer, h, 2, retained)
        assert np.allclose(y, want_y, rtol=1e-10, atol=1e-12)
        assert [list(row) for row in ids[selected]] == want_sel
        trace = model_forward(model, SampleBatch(h), mask=PruneMask(keep))
        assert trace.layer_outputs[0].tobytes() == y.tobytes()
        assert trace.selected_experts[0].tobytes() == selected.tobytes()


def test_mask_check_rejects_an_empty_layer_naming_it():
    model = gen_model(small_config(), 1)
    keep = np.ones((3, 4), dtype=bool)
    keep[2] = False
    with pytest.raises(InvariantError, match="layer 2 fully pruned"):
        retained_ids(model, PruneMask(keep))
    with pytest.raises(InvariantError, match="layer 2 fully pruned"):
        model_forward(model, gen_data(small_config(), 1, 2, 1)[0], mask=PruneMask(keep))


def test_mask_of_another_shape_is_rejected():
    cfg = small_config()
    model = gen_model(cfg, 17)
    samples = gen_data(cfg, 2, 3, 18)
    for shape in [(2, 4), (3, 6), (4, 4)]:
        mask = PruneMask(np.ones(shape, dtype=bool))
        with pytest.raises(ValueError, match="does not match model"):
            model_forward(model, samples[0], mask=mask)
        with pytest.raises(ValueError, match="does not match model"):
            eval_masks(model, [mask], samples)


def test_mask_check_rejects_a_pruned_model():
    # a pruned layer holds fewer experts than the mask grid's columns
    model = gen_model(small_config(), 19)
    keep = np.ones((3, 4), dtype=bool)
    keep[1, 0] = False
    pruned, _ = apply_mask(model, PruneMask(keep))
    with pytest.raises(ValueError, match=r"\[4, 3, 4\] experts"):
        retained_ids(pruned, PruneMask(np.ones((3, 4), dtype=bool)))
    assert [ids.tolist() for ids in retained_ids(model, PruneMask(keep))] == [
        [0, 1, 2, 3], [1, 2, 3], [0, 1, 2, 3]]


def test_subset_keeps_experts_and_router_rows_in_order():
    model = gen_model(small_config(), 20)
    layer = model.layers[0]
    sub = layer.subset(np.array([1, 3]))
    assert sub.experts.tobytes() == np.stack([layer.experts[1], layer.experts[3]]).tobytes()
    assert sub.router.tobytes() == layer.router[[1, 3]].tobytes()
    # apply_mask builds its layers with subset: writing to them leaves the source as is
    before = [(l.experts.tobytes(), l.router.tobytes()) for l in model.layers]
    keep = np.ones((3, 4), dtype=bool)
    keep[0, [0, 2]] = False
    pruned, _ = apply_mask(model, PruneMask(keep))
    for l in pruned.layers:
        l.experts[...] = 0.0
        l.router[...] = 0.0
    assert [(l.experts.tobytes(), l.router.tobytes()) for l in model.layers] == before


def test_layer_forward_tie_breaks_to_lower_index():
    # identical router rows make all probabilities exactly equal
    layer = MoELayer(experts=np.array([np.eye(3) * (i + 1) for i in range(3)]),
                     router=np.ones((3, 3)))
    _, selected, _, _ = layer_forward(layer, np.ones((2, 3)), top_k=2)
    assert np.array_equal(selected, [[0, 1], [0, 1]])


def test_model_forward_identity_chain():
    cfg = MoEConfig(num_layers=2, experts_per_layer=2, hidden_dim=3, top_k=2, nonlinearity="none")
    layers = [
        MoELayer(experts=np.array([np.eye(3), np.eye(3)]), router=np.zeros((2, 3)))
        for _ in range(2)
    ]
    model = MoEModel(cfg, layers)
    x = SampleBatch(np.random.default_rng(7).standard_normal((4, 3)))
    trace = model_forward(model, x)
    assert np.allclose(trace.hidden_states[2], x.tokens, rtol=1e-12)
    for probs in trace.routing_probs:
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_model_forward_all_true_mask_identical():
    cfg = small_config()
    model = gen_model(cfg, 11)
    x = gen_data(cfg, 1, 5, 12)[0]
    full = model_forward(model, x)
    masked = model_forward(model, x, mask=PruneMask(np.ones((3, 4), dtype=bool)))
    for a, b in zip(full.hidden_states, masked.hidden_states):
        assert np.array_equal(a, b)
    for a, b in zip(full.selected_experts, masked.selected_experts):
        assert np.array_equal(a, b)


def test_model_forward_own_selection_mask_exact():
    # retaining exactly what the full model selects reproduces its output
    cfg = small_config()
    for seed in range(5):
        model = gen_model(cfg, seed)
        x = gen_data(cfg, 1, 6, 100 + seed)[0]
        full = model_forward(model, x)
        keep = np.zeros((cfg.num_layers, cfg.experts_per_layer), dtype=bool)
        for l, sel in enumerate(full.selected_experts):
            keep[l, np.unique(sel)] = True
        pruned = model_forward(model, x, mask=PruneMask(keep))
        diff = np.abs(full.hidden_states[-1] - pruned.hidden_states[-1])
        assert diff.max() <= 1e-12


def test_model_forward_runs_the_router_once_per_layer(monkeypatch):
    cfg = small_config()
    model = gen_model(cfg, 13)
    x = gen_data(cfg, 1, 5, 14)[0]
    keep = np.ones((cfg.num_layers, cfg.experts_per_layer), dtype=bool)
    keep[:, 1] = False

    def second_router_pass(layer, h):
        raise AssertionError("model_forward ran the router outside layer_forward")

    monkeypatch.setattr("moe_pathfinder.model.route", second_router_pass)
    full = model_forward(model, x)
    masked = model_forward(model, x, mask=PruneMask(keep))
    monkeypatch.undo()
    pruned, _ = apply_mask(model, PruneMask(keep))
    for l, layer in enumerate(model.layers):
        # unmasked, the trace holds exactly the full routing softmax
        assert full.routing_probs[l].tobytes() == route(layer, full.hidden_states[l]).tobytes()
        # masked, exactly the pruned layer's: over the retained experts only
        assert masked.routing_probs[l].tobytes() == route(
            pruned.layers[l], masked.hidden_states[l]).tobytes()
        assert masked.routing_probs[l].shape == (5, cfg.experts_per_layer - 1)


def test_model_forward_rejects_wrong_width():
    model = gen_model(small_config(), 1)
    with pytest.raises(ValueError):
        model_forward(model, SampleBatch(np.ones((2, 5))))


def test_layer_states_yields_what_model_forward_records():
    cfg = small_config()
    model = gen_model(cfg, 15)
    x = gen_data(cfg, 1, 5, 16)[0]
    keep = np.ones((cfg.num_layers, cfg.experts_per_layer), dtype=bool)
    keep[:, 0] = False
    for mask, n_kept in ((None, 4), (PruneMask(keep), 3)):
        trace = model_forward(model, x, mask=mask)
        forwarded = model if mask is None else apply_mask(model, mask)[0]
        states = list(layer_states(forwarded, x.tokens))
        assert len(states) == cfg.num_layers
        for l, (y, selected, probs, outs, h) in enumerate(states):
            assert y.tobytes() == trace.layer_outputs[l].tobytes()
            assert outs.shape == (n_kept, 5, cfg.hidden_dim)
            assert selected.tobytes() == trace.selected_experts[l].tobytes()
            assert probs.tobytes() == trace.routing_probs[l].tobytes()
            assert h.tobytes() == trace.hidden_states[l + 1].tobytes()


def _desk_block():
    # the 16 desk eval samples of 32 tokens, stacked: one 512-row eval block
    cfg = ExperimentConfig()
    model = experiment_model(cfg, 3)
    samples = experiment_data(cfg, cfg.n_eval_samples, 5000, 2000)
    block = SampleBatch(np.concatenate([s.tokens for s in samples]))
    assert block.tokens.shape[0] == 512
    masks = [
        random_mask(cfg.moe.num_layers, cfg.moe.experts_per_layer, fraction, seed)
        for fraction in (0.125, 0.25, 0.5, 0.75) for seed in range(3)
    ]
    return model, samples, block, masks


def test_masked_forward_on_a_block_equals_the_materialized_model_bit_for_bit():
    model, _, block, masks = _desk_block()
    for mask in masks:
        masked = model_forward(model, block, mask=mask)
        materialized = model_forward(apply_mask(model, mask)[0], block)
        for field in ("hidden_states", "layer_outputs", "routing_probs", "selected_experts"):
            got, want = getattr(masked, field), getattr(materialized, field)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()


def test_stacked_forward_selects_what_per_sample_forwards_select():
    model, samples, block, masks = _desk_block()
    for mask in [None, *masks]:
        stacked = model_forward(model, block, mask=mask)
        per_sample = [model_forward(model, s, mask=mask) for s in samples]
        for l, selected in enumerate(stacked.selected_experts):
            assert np.array_equal(
                selected, np.concatenate([t.selected_experts[l] for t in per_sample])
            )


@pytest.mark.parametrize("run", ["eval_masks", "score_samples", "model_forward"])
def test_one_layers_expert_outputs_are_alive_at_a_time(monkeypatch, run):
    # each product is the largest array of a forward; before the next one
    # starts, every earlier one must be freed
    model, samples, block, masks = _desk_block()
    products, alive_at_start = [], []

    def tracked(layer, h):
        alive_at_start.append(sum(ref() is not None for ref in products))
        out = expert_outputs(layer, h)
        products.append(weakref.ref(out))
        return out

    monkeypatch.setattr("moe_pathfinder.model.expert_outputs", tracked)
    if run == "eval_masks":
        eval_masks(model, masks[:2], samples)
    elif run == "score_samples":
        score_samples(model, samples)
    else:
        model_forward(model, block)
    L = model.config.num_layers
    assert len(products) == {"eval_masks": 3 * L}.get(run, L)
    assert alive_at_start == [0] * len(products)


def test_gen_model_deterministic_and_seed_sensitive():
    cfg = small_config()
    a, b = gen_model(cfg, 42), gen_model(cfg, 42)
    for la, lb in zip(a.layers, b.layers):
        assert la.router.tobytes() == lb.router.tobytes()
        for wa, wb in zip(la.experts, lb.experts):
            assert wa.tobytes() == wb.tobytes()
    c = gen_model(cfg, 43)
    assert a.layers[0].router.tobytes() != c.layers[0].router.tobytes()


def splitmix64_reference(seed, count):
    out, state = [], seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_gen_model_golden_stream_seed42():
    # documented draw order: per layer router row-major, then experts 0..N_e-1
    cfg = MoEConfig(num_layers=2, experts_per_layer=2, hidden_dim=2, top_k=1, nonlinearity="none")
    model = gen_model(cfg, 42)
    bound = 1.0 / np.sqrt(2.0)
    n_draws = 2 * (2 * 2 + 2 * 2 * 2)
    u64 = splitmix64_reference(42, n_draws)
    expected = [-bound + 2 * bound * ((v >> 11) * 2.0**-53) for v in u64]
    got = []
    for layer in model.layers:
        got.extend(layer.router.ravel())
        for w in layer.experts:
            got.extend(w.ravel())
    assert got == expected


def test_gen_data_deterministic_and_in_bounds():
    cfg = small_config()
    a = gen_data(cfg, 3, 4, 9)
    b = gen_data(cfg, 3, 4, 9)
    for sa, sb in zip(a, b):
        assert sa.tokens.tobytes() == sb.tokens.tobytes()
    bound = 1.0 / np.sqrt(cfg.hidden_dim)
    assert all(np.all(np.abs(s.tokens) <= bound) for s in a)


def family_model_recipe(cfg: MoEConfig, seed, expert_scale, router_gain):
    """(router, experts) per layer by the two-step recipe: the raw draw (one
    stream; per layer the router, then the experts, row-major), then
    router_gain * and expert_scale *."""
    rng, d, n = Rng(seed), cfg.hidden_dim, cfg.experts_per_layer
    bound = 1.0 / np.sqrt(d)
    layers = []
    for _ in range(cfg.num_layers):
        router = rng.uniform_array((n, d), -bound, bound)
        experts = rng.uniform_array((n, d, d), -bound, bound)
        layers.append((router_gain * router, expert_scale * experts))
    return layers


def family_data_recipe(cfg: MoEConfig, n_samples, tokens, seed, clusters, radius, centers_seed):
    """Each sample's tokens: raw uniform draws, or with clusters, the center
    of cluster i mod clusters (all clusters drawn) plus per-sample noise."""
    d = cfg.hidden_dim
    bound = 1.0 / np.sqrt(d)
    if clusters == 0:
        return list(Rng(seed).uniform_array((n_samples, tokens, d), -bound, bound))
    centers = Rng(centers_seed).uniform_array((clusters, d), -bound, bound)
    noise = Rng(seed).uniform_array((n_samples, tokens, d), -radius * bound, radius * bound)
    return [centers[i % clusters][None, :] + noise[i] for i in range(n_samples)]


FAMILIES = {
    "default": ExperimentConfig(),
    "raw": ExperimentConfig(expert_scale=1.0, router_gain=1.0, data_clusters=0),
    "one-cluster": ExperimentConfig(data_clusters=1),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_generators_equal_the_two_step_family_recipe(family, seed):
    cfg = FAMILIES[family]
    moe, n, T = cfg.moe, 16, cfg.tokens_per_sample
    want_layers = family_model_recipe(moe, seed, cfg.expert_scale, cfg.router_gain)
    want_tokens = family_data_recipe(
        moe, n, T, seed + 200, cfg.data_clusters, cfg.cluster_radius, seed + 100)
    models = [gen_model(moe, seed, cfg.expert_scale, cfg.router_gain)]
    datas = [gen_data(moe, n, T, seed + 200, cfg.data_clusters, cfg.cluster_radius, seed + 100)]
    if family == "raw":  # the defaults draw the raw family
        models.append(gen_model(moe, seed))
        datas.append(gen_data(moe, n, T, seed + 200))
    for model in models:
        for layer, (router, experts) in zip(model.layers, want_layers, strict=True):
            assert layer.router.tobytes() == router.tobytes()
            assert layer.experts.tobytes() == experts.tobytes()
    for samples in datas:
        assert [s.tokens.tobytes() for s in samples] == [t.tobytes() for t in want_tokens]


def test_gen_data_draws_only_the_centers_its_samples_use():
    # 10**13 centers would not fit in memory; sample i uses center i, a
    # leading row of the row-major draw, so it is the draw of 5 centers
    cfg = small_config()
    huge = gen_data(cfg, 5, 3, 7, clusters=10**13, centers_seed=8)
    want = gen_data(cfg, 5, 3, 7, clusters=5, centers_seed=8)
    assert [s.tokens.tobytes() for s in huge] == [s.tokens.tobytes() for s in want]


def test_save_load_roundtrip_bit_identical(tmp_path):
    model = gen_model(small_config(), 21)
    save_model(model, tmp_path)
    back = load_model(tmp_path)
    assert back.config == model.config
    for la, lb in zip(model.layers, back.layers):
        assert la.router.tobytes() == lb.router.tobytes()
        for wa, wb in zip(la.experts, lb.experts):
            assert wa.tobytes() == wb.tobytes()


def test_save_model_writes_model_json_over_one_weights_blob(tmp_path):
    # each expert in layer order, its router row over its matrix; a pruned
    # model lists its layers' own counts
    model = gen_model(small_config(), 25)
    pruned, _ = apply_mask(model, PruneMask(np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 1]], bool)))
    for i, (m, counts) in enumerate([(model, [4, 4, 4]), (pruned, [3, 1, 4])]):
        out = tmp_path / str(i)
        save_model(m, out)
        assert sorted(p.name for p in out.iterdir()) == ["model.json", "weights.tnsr"]
        index = json.loads((out / "model.json").read_text())
        assert index == {"config": asdict(m.config), "counts": counts, "weights": "weights.tnsr"}
        want = [np.concatenate([layer.router[i][None], layer.experts[i]])
                for layer in m.layers for i in range(len(layer.router))]
        assert load_tensor(out / "weights.tnsr").tobytes() == np.stack(want).tobytes()


def test_load_model_truncated_blob(tmp_path):
    model = gen_model(small_config(), 22)
    save_model(model, tmp_path)
    blob = tmp_path / "weights.tnsr"
    blob.write_bytes(blob.read_bytes()[:-9])
    with pytest.raises(FormatError, match="unexpected end of tensor payload"):
        load_model(tmp_path)


def test_load_model_blob_of_another_shape_names_both_files(tmp_path):
    model = gen_model(small_config(), 23)
    save_model(model, tmp_path)
    # layer 0's experts, of rank 3 but (4, 6, 6), not (12, 7, 6)
    save_tensor(tmp_path / "weights.tnsr", model.layers[0].experts)
    with pytest.raises(FormatError, match=r"shape \(4, 6, 6\), not \(12, 7, 6\)") as info:
        load_model(tmp_path)
    assert all(str(tmp_path / name) in str(info.value) for name in ("weights.tnsr", "model.json"))


def _grow(w):
    # one more expert: a copy of the first
    return np.concatenate([w, w[:1]])


# (the layer-1 fault save_model meets, its message, the same fault in a
# saved directory, and load_model's message): a count out of range is the
# one fault the blob layout can hold, and both meet it with one message
@pytest.mark.parametrize("fault, texts, damage, load_texts", [
    pytest.param(lambda l: MoELayer(l.experts, l.router[:, :-1]),
                 ("layer 1 router has shape", "(4, 5)", "(n, 6)"),
                 lambda counts, w: (counts, w[:, :, :-1]), ("(12, 7, 5)", "(12, 7, 6)"),
                 id="router-too-narrow"),
    pytest.param(lambda l: MoELayer(l.experts[:-1], l.router),
                 ("layer 1 experts have shape", "(3, 6, 6)", "(4, 6, 6)"),
                 lambda counts, w: (counts, np.delete(w, 7, axis=0)), ("(11, 7, 6)", "(12, 7, 6)"),
                 id="experts-disagree-with-router"),
    pytest.param(lambda l: MoELayer(_grow(l.experts), _grow(l.router)),
                 ("layer 1 holds 5 experts", "experts_per_layer 4"),
                 lambda counts, w: ([4, 5, 4], np.insert(w, 4, w[4], axis=0)),
                 ("layer 1 holds 5 experts", "experts_per_layer 4"),
                 id="more-than-experts-per-layer"),
])
def test_save_and_load_reject_a_bad_layer_with_one_message(tmp_path, fault, texts, damage,
                                                            load_texts):
    model = gen_model(small_config(), 24)
    d = tmp_path / "loaded"
    save_model(model, d)
    model.layers[1] = fault(model.layers[1])
    with pytest.raises(ValueError) as saved:
        save_model(model, tmp_path / "saved")
    assert not (tmp_path / "saved" / "model.json").exists()
    assert all(text in str(saved.value) for text in texts), saved.value

    # the fault in the saved blob, and in the counts model.json lists
    index = json.loads((d / "model.json").read_text())
    index["counts"], weights = damage(index["counts"], load_tensor(d / "weights.tnsr"))
    save_tensor(d / "weights.tnsr", weights)
    (d / "model.json").write_text(json.dumps(index))
    with pytest.raises(FormatError) as loaded:
        load_model(d)
    err = str(loaded.value)
    assert all(text in err for text in load_texts), err
    assert all(str(d / name) in err for name in ("weights.tnsr", "model.json")), err


def test_load_model_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_model(tmp_path)
