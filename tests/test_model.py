import json

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
from moe_pathfinder.pruner import PruneMask, apply_mask

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
    layer = MoELayer(experts=[np.eye(3)] * 2, router=np.zeros((2, 3)))
    probs = route(layer, np.random.default_rng(0).standard_normal((5, 3)))
    assert np.allclose(probs, 0.5)


def test_route_single_expert():
    layer = MoELayer(experts=[np.eye(3)], router=np.ones((1, 3)))
    probs = route(layer, np.random.default_rng(1).standard_normal((4, 3)))
    assert np.array_equal(probs, np.ones((4, 1)))


def test_route_matches_hand_softmax():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 5))
    router = rng.standard_normal((3, 5))
    layer = MoELayer(experts=[np.eye(5)] * 3, router=router)
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
    layer = MoELayer(experts=[w], router=rng.standard_normal((1, 4)))
    h = rng.standard_normal((3, 4))
    y, selected, _ = layer_forward(layer, h, top_k=1)
    assert np.array_equal(y, h @ w.T)
    assert np.array_equal(selected, np.zeros((3, 1), dtype=int))


def test_layer_forward_uniform_router_full_topk_is_mean():
    rng = np.random.default_rng(4)
    experts = [rng.standard_normal((4, 4)) for _ in range(3)]
    layer = MoELayer(experts=experts, router=np.zeros((3, 4)))
    h = rng.standard_normal((5, 4))
    y, _, _ = layer_forward(layer, h, top_k=3)
    mean = sum(h @ w.T for w in experts) / 3.0
    assert np.allclose(y, mean, rtol=1e-12)


def test_layer_forward_matches_dense_gather_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        experts = [rng.standard_normal((6, 6)) for _ in range(4)]
        layer = MoELayer(experts=experts, router=rng.standard_normal((4, 6)))
        h = rng.standard_normal((2, 6))
        y, selected, _ = layer_forward(layer, h, top_k=2)
        want_y, want_sel = dense_gather_oracle(layer, h, 2)
        assert np.allclose(y, want_y, rtol=1e-10, atol=1e-12)
        assert [list(row) for row in selected] == want_sel


def test_masked_forward_respects_retained_set():
    rng = np.random.default_rng(6)
    cfg = MoEConfig(num_layers=2, experts_per_layer=4, hidden_dim=5, top_k=2, nonlinearity="none")
    layer = MoELayer(experts=[rng.standard_normal((5, 5)) for _ in range(4)],
                     router=rng.standard_normal((4, 5)))
    model = MoEModel(cfg, [layer, MoELayer(experts=[np.eye(5)] * 4, router=np.zeros((4, 5)))])
    h = rng.standard_normal((8, 5))
    for retained in [{0}, {1, 3}, {0, 2, 3}]:
        keep = np.ones((2, 4), dtype=bool)
        keep[0] = [i in retained for i in range(4)]
        y, selected, probs, _ = next(layer_states(model, h, PruneMask(keep)))
        assert set(np.unique(selected)) <= retained
        assert np.all(probs[:, [i for i in range(4) if i not in retained]] == 0.0)
        want_y, want_sel = dense_gather_oracle(layer, h, 2, retained)
        assert np.allclose(y, want_y, rtol=1e-10, atol=1e-12)
        assert [list(row) for row in selected] == want_sel
        trace = model_forward(model, SampleBatch(h), mask=PruneMask(keep))
        assert trace.layer_outputs[0].tobytes() == y.tobytes()


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
            eval_masks(model, [None, mask], samples)


def test_mask_check_rejects_a_pruned_model():
    # a pruned layer holds fewer experts than the mask grid's columns
    model = gen_model(small_config(), 19)
    keep = np.ones((3, 4), dtype=bool)
    keep[1, 0] = False
    pruned, _ = apply_mask(model, PruneMask(keep))
    with pytest.raises(ValueError, match=r"\[4, 3, 4\] experts"):
        retained_ids(pruned, PruneMask.all_true(3, 4))
    assert [ids.tolist() for ids in retained_ids(model, PruneMask(keep))] == [
        [0, 1, 2, 3], [1, 2, 3], [0, 1, 2, 3]]


def test_subset_keeps_experts_and_router_rows_in_order():
    model = gen_model(small_config(), 20)
    layer = model.layers[0]
    sub = layer.subset(np.array([1, 3]))
    assert [w is layer.experts[i] for w, i in zip(sub.experts, [1, 3])] == [True, True]
    assert sub.router.tobytes() == layer.router[[1, 3]].tobytes()
    assert not np.shares_memory(sub.router, layer.router)


def test_layer_forward_tie_breaks_to_lower_index():
    # identical router rows make all probabilities exactly equal
    layer = MoELayer(experts=[np.eye(3) * (i + 1) for i in range(3)], router=np.ones((3, 3)))
    _, selected, _ = layer_forward(layer, np.ones((2, 3)), top_k=2)
    assert np.array_equal(selected, [[0, 1], [0, 1]])


def test_model_forward_identity_chain():
    cfg = MoEConfig(num_layers=2, experts_per_layer=2, hidden_dim=3, top_k=2, nonlinearity="none")
    layers = [
        MoELayer(experts=[np.eye(3), np.eye(3)], router=np.zeros((2, 3)))
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
    masked = model_forward(model, x, mask=PruneMask.all_true(3, 4))
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
    for l, layer in enumerate(model.layers):
        # unmasked, the trace holds exactly the full routing softmax
        assert full.routing_probs[l].tobytes() == route(layer, full.hidden_states[l]).tobytes()
        # masked, the softmax the layer gated with: over the retained experts
        assert np.all(masked.routing_probs[l][:, 1] == 0.0)
        assert np.allclose(masked.routing_probs[l].sum(axis=1), 1.0, atol=1e-12)


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
    for mask in (None, PruneMask(keep)):
        trace = model_forward(model, x, mask=mask)
        states = list(layer_states(model, x.tokens, mask))
        assert len(states) == cfg.num_layers
        for l, (y, selected, probs, h) in enumerate(states):
            assert y.tobytes() == trace.layer_outputs[l].tobytes()
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
        pruned, kept = apply_mask(model, mask)
        materialized = model_forward(pruned, block)
        for a, b in zip(masked.hidden_states, materialized.hidden_states):
            assert a.tobytes() == b.tobytes()
        for l, ids in enumerate(kept):
            assert np.array_equal(masked.selected_experts[l],
                                  np.array(ids)[materialized.selected_experts[l]])
            assert masked.routing_probs[l][:, ids].tobytes() == materialized.routing_probs[l].tobytes()


def test_stacked_forward_selects_what_per_sample_forwards_select():
    model, samples, block, masks = _desk_block()
    for mask in [None, *masks]:
        stacked = model_forward(model, block, mask=mask)
        per_sample = [model_forward(model, s, mask=mask) for s in samples]
        for l, selected in enumerate(stacked.selected_experts):
            assert np.array_equal(
                selected, np.concatenate([t.selected_experts[l] for t in per_sample])
            )


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


def test_save_load_roundtrip_bit_identical(tmp_path):
    model = gen_model(small_config(), 21)
    save_model(model, tmp_path)
    back = load_model(tmp_path)
    assert back.config == model.config
    for la, lb in zip(model.layers, back.layers):
        assert la.router.tobytes() == lb.router.tobytes()
        for wa, wb in zip(la.experts, lb.experts):
            assert wa.tobytes() == wb.tobytes()


def test_load_model_truncated_blob(tmp_path):
    model = gen_model(small_config(), 22)
    save_model(model, tmp_path)
    blob = tmp_path / "layer1.expert2.tnsr"
    blob.write_bytes(blob.read_bytes()[:-9])
    with pytest.raises(FormatError, match="unexpected end of tensor payload"):
        load_model(tmp_path)


def test_load_model_wrong_router_shape_names_layer(tmp_path):
    model = gen_model(small_config(), 23)
    save_model(model, tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    # point layer 2's router at an expert blob of the wrong shape
    manifest["layers"][2]["router"] = "layer0.expert0.tnsr"
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="layer 2"):
        load_model(tmp_path)


def test_load_model_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_model(tmp_path)
