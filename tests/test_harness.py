import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from moe_pathfinder.harness import (
    ExperimentConfig,
    comparison_csv,
    derive_seeds,
    eval_mask,
    eval_masks,
    experiment_data,
    experiment_model,
    export_heatmap,
    map_jobs,
    pathfinder_mask,
    planted_model,
    planted_recovery_trial,
    random_mask,
    run_comparison,
)
from moe_pathfinder.model import (
    MoEConfig, SampleBatch, gen_data, gen_model, layer_states, model_forward,
)
from moe_pathfinder.numerics import Rng
from moe_pathfinder.planner import random_sample_graph, top_m_paths_bruteforce, top_m_paths_dp
from moe_pathfinder.pruner import PruneMask
from moe_pathfinder.scoring import graph_from_scores

TINY = ExperimentConfig(
    moe=MoEConfig(num_layers=2, experts_per_layer=3, hidden_dim=6, top_k=1),
    model_seeds=(0, 1),
    pool_size=8,
    tokens_per_sample=4,
    calibration_k=2,
    n_eval_samples=3,
    target_retention=0.5,
    n_random_masks=3,
)


def test_random_mask_full_fraction_is_all_true():
    mask = random_mask(4, 5, 1.0, seed=0)
    assert np.all(mask.keep)


def test_random_mask_min_fraction_one_per_layer():
    mask = random_mask(6, 8, 1.0 / 8.0, seed=1)
    assert np.array_equal(mask.keep.sum(axis=1), np.ones(6))


def test_random_mask_seed_deterministic():
    a = random_mask(5, 6, 0.5, seed=42)
    b = random_mask(5, 6, 0.5, seed=42)
    assert np.array_equal(a.keep, b.keep)
    c = random_mask(5, 6, 0.5, seed=43)
    assert not np.array_equal(a.keep, c.keep)


def test_ablate_graph_identity_when_both_on():
    g = random_sample_graph(3, 3, Rng(2))
    out = graph_from_scores(g.layer_scores, True, True)
    assert out.node_scores.tobytes() == g.node_scores.tobytes()


def test_ablate_graph_rejects_both_off():
    g = random_sample_graph(3, 3, Rng(3))
    with pytest.raises(ValueError):
        graph_from_scores(g.layer_scores, False, False)


def test_ablate_transition_off_decouples_layers():
    # without edges the best path is the per-layer argmax of importance
    rng = Rng(4)
    for _ in range(10):
        g = random_sample_graph(4, 3, rng)
        out = graph_from_scores(g.layer_scores, use_importance=True, use_transition=False)
        best = top_m_paths_dp(out, 1).paths[0]
        want = tuple(int(np.argmax(g.log_node[l])) for l in range(4))
        assert best.experts == want


def test_ablate_importance_off_ranks_by_transition_products():
    rng = Rng(5)
    for _ in range(5):
        g = random_sample_graph(3, 3, rng)
        out = graph_from_scores(g.layer_scores, use_importance=False, use_transition=True)
        got = top_m_paths_dp(out, 27)
        # independent ranking by linear-domain transition products
        import itertools

        a = [s.activation for s in g.layer_scores]
        r = [s.routing for s in g.layer_scores]
        scored = []
        for seq in itertools.product(range(3), repeat=3):
            prod = (a[0][seq[0]] * r[1][seq[1]]) * (a[1][seq[1]] * r[2][seq[2]])
            scored.append((seq, prod))
        scored.sort(key=lambda t: (-t[1], t[0]))
        assert [p.experts for p in got.paths] == [s[0] for s in scored]


def test_eval_mask_all_true_is_exactly_zero():
    cfg = MoEConfig(num_layers=3, experts_per_layer=4, hidden_dim=5, top_k=2)
    model = gen_model(cfg, 6)
    samples = gen_data(cfg, 4, 5, 7)
    result = eval_mask(model, PruneMask.all_true(3, 4), samples)
    assert result.mean_final_error == 0.0
    assert all(e == 0.0 for e in result.per_layer_errors)


def two_forwards_per_mask(model, mask, eval_samples):
    # oracle: the evaluation loop that eval_masks replaced, which reran the
    # full forward for every mask
    L = model.config.num_layers
    layer_errs = np.zeros(L)
    for sample in eval_samples:
        full = model_forward(model, sample)
        pruned = model_forward(model, sample, mask=mask)
        for l in range(1, L + 1):
            diff = full.hidden_states[l] - pruned.hidden_states[l]
            layer_errs[l - 1] += float(np.sum(diff * diff)) / sample.tokens.shape[0]
    layer_errs /= len(eval_samples)
    retention = 1.0 if mask is None else mask.retention_fraction()
    return float(layer_errs[-1]), [float(e) for e in layer_errs], retention


def _desk_model_and_masks():
    # a desk model with the unmasked forward, an all-true mask, a pathfinder
    # mask and five random masks
    cfg = ExperimentConfig()
    moe = cfg.moe
    model = experiment_model(cfg, 1)
    calib = experiment_data(cfg, cfg.calibration_k, 5000, 1000)
    pf, _ = pathfinder_mask(model, calib, cfg.target_retention)
    masks = [None, PruneMask.all_true(moe.num_layers, moe.experts_per_layer), pf] + [
        random_mask(moe.num_layers, moe.experts_per_layer, 0.5, seed) for seed in range(5)
    ]
    return cfg, model, masks


def _eval_fields(result):
    return result.mean_final_error, result.per_layer_errors, result.retention_fraction


def test_eval_masks_on_one_sample_equals_two_forwards_per_mask_bit_for_bit():
    # one sample is one block of its own rows, so nothing rounds differently
    cfg, model, masks = _desk_model_and_masks()
    samples = experiment_data(cfg, 1, 5000, 2000)
    got = eval_masks(model, masks, samples)
    assert [_eval_fields(r) for r in got] == [
        two_forwards_per_mask(model, mask, samples) for mask in masks
    ]


def _ragged_samples(cfg):
    # 1..600 tokens: blocks of 340, 600 (one sample above the block size),
    # 255 and 260 rows
    long = experiment_data(replace(cfg, tokens_per_sample=600), 8, 5000, 2000)
    return [SampleBatch(s.tokens[:n]) for s, n in zip(long, (1, 7, 32, 300, 600, 5, 250, 260))]


@pytest.mark.parametrize("make_samples, block_rows", [
    pytest.param(lambda cfg: experiment_data(cfg, 4, 5000, 2000), [128], id="4-samples"),
    pytest.param(lambda cfg: experiment_data(cfg, 40, 5000, 2000), [512, 512, 256],
                 id="40-samples-3-blocks"),
    pytest.param(_ragged_samples, [340, 600, 255, 260], id="ragged-tokens"),
])
def test_eval_masks_matches_two_forwards_per_mask(monkeypatch, make_samples, block_rows):
    # stacked products round differently from per-sample ones; the gap is a
    # few ulps, far inside rel 1e-12
    cfg, model, masks = _desk_model_and_masks()
    samples = make_samples(cfg)
    full_rows = []

    def spy(model, h, mask=None):
        if mask is None:
            full_rows.append(h.shape[0])
        return layer_states(model, h, mask)

    monkeypatch.setattr("moe_pathfinder.harness.layer_states", spy)
    got = eval_masks(model, masks, samples)
    # per block: its full forward, then the forward for mask None
    assert full_rows == [n for n in block_rows for _ in range(2)]
    assert len(got) == len(masks)
    for result, mask in zip(got, masks):
        mean, per_layer, retention = two_forwards_per_mask(model, mask, samples)
        assert result.mean_final_error == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert result.per_layer_errors == pytest.approx(per_layer, rel=1e-12, abs=0.0)
        assert result.retention_fraction == retention


def test_eval_mask_is_the_one_mask_case_of_eval_masks():
    cfg, model, masks = _desk_model_and_masks()
    samples = experiment_data(cfg, cfg.n_eval_samples, 5000, 2000)
    together = eval_masks(model, masks, samples)
    for mask, result in zip(masks, together):
        assert eval_mask(model, mask, samples) == result


def test_eval_masks_memory_is_bounded_by_one_block():
    cfg, model, masks = _desk_model_and_masks()
    samples = experiment_data(cfg, 64, 5000, 2000)

    def peak(n):
        tracemalloc.start()
        try:
            eval_masks(model, masks[2:4], samples[:n])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(16), peak(64)
    assert large <= 1.25 * small, (small, large)


def test_eval_monotone_under_nested_masks_when_selections_coincide():
    cfg = MoEConfig(num_layers=3, experts_per_layer=4, hidden_dim=5, top_k=2)
    model = gen_model(cfg, 8)
    calib = gen_data(cfg, 4, 6, 9)
    eval_samples = gen_data(cfg, 3, 6, 10)
    small, _ = pathfinder_mask(model, calib, 1.0 / 4.0)
    big, _ = pathfinder_mask(model, calib, 0.5)
    if not np.all(big.keep >= small.keep):
        pytest.skip("masks not nested for this seed")
    coincide = True
    for s in eval_samples:
        a = model_forward(model, s, mask=small).selected_experts
        b = model_forward(model, s, mask=big).selected_experts
        if not all(np.array_equal(x, y) for x, y in zip(a, b)):
            coincide = False
    err_small = eval_mask(model, small, eval_samples).mean_final_error
    err_big = eval_mask(model, big, eval_samples).mean_final_error
    if coincide:
        assert err_big <= err_small + 1e-12
    else:
        print(f"selections shifted; errors small={err_small:.3e} big={err_big:.3e}")


def test_derive_seeds_stable():
    assert derive_seeds(5, 3) == derive_seeds(5, 3)
    assert derive_seeds(5, 3) != derive_seeds(6, 3)


def test_run_comparison_reproducible_csv():
    a = run_comparison(TINY)
    b = run_comparison(TINY)
    assert comparison_csv(a) == comparison_csv(b)
    assert len(a.outcomes) == 2
    for o in a.outcomes:
        assert len(o.random_errors) == 3


def test_run_comparison_parallel_matches_serial():
    serial = run_comparison(TINY, jobs=1)
    parallel = run_comparison(TINY, jobs=2)
    assert comparison_csv(serial) == comparison_csv(parallel)


class _RecordingPool:
    # stands in for ProcessPoolExecutor: records max_workers, starts nothing
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, n_items, want_pool", [
    (64, 8, [8]), (3, 8, [3]), (64, 1, []), (4, 0, []), (1, 8, []),
])
def test_map_jobs_starts_at_most_one_worker_per_item(monkeypatch, jobs, n_items, want_pool):
    monkeypatch.setattr("moe_pathfinder.harness.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert map_jobs(abs, [-i for i in range(n_items)], jobs) == list(range(n_items))
    assert _RecordingPool.sizes == want_pool


def test_run_comparison_full_retention_ties():
    cfg = ExperimentConfig(
        moe=TINY.moe,
        model_seeds=(0,),
        pool_size=6,
        tokens_per_sample=4,
        calibration_k=2,
        n_eval_samples=2,
        target_retention=1.0,
        n_random_masks=2,
    )
    report = run_comparison(cfg)
    o = report.outcomes[0]
    assert o.pathfinder_error == 0.0
    assert o.random_median == 0.0
    assert o.win


def test_experiment_config_needs_a_signal():
    with pytest.raises(ValueError):
        ExperimentConfig(use_importance=False, use_transition=False)


def test_planted_model_structure():
    cfg = MoEConfig(num_layers=3, experts_per_layer=4, hidden_dim=8, top_k=2)
    model, planted, samples = planted_model(cfg, seed=0)
    assert len(planted) == 3
    for l, p in enumerate(planted):
        norms = [np.linalg.norm(w) for w in model.layers[l].experts]
        assert norms[p] == max(norms)
        assert norms[p] > 5 * np.median([n for i, n in enumerate(norms) if i != p])
    for s in samples:
        assert np.all(s.tokens >= 0)


def test_planted_recovery_small():
    cfg = MoEConfig(num_layers=4, experts_per_layer=4, hidden_dim=8, top_k=2)
    hits = [planted_recovery_trial(cfg, seed) for seed in range(3)]
    assert all(pf for pf, _ in hits)


def test_export_heatmap_roundtrip(tmp_path):
    counts = np.array([[1, 0], [0, 1]])
    path = tmp_path / "heatmap.csv"
    export_heatmap(counts, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    back = np.zeros((2, 2), dtype=int)
    for row in rows:
        back[int(row["layer"]), int(row["expert"])] = int(row["count"])
    assert np.array_equal(back, counts)
    assert back.sum(axis=1).tolist() == counts.sum(axis=1).tolist()
