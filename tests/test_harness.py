import csv
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moe_pathfinder import harness
from moe_pathfinder.calibration import build_calibration_set
from moe_pathfinder.cli import load_data
from moe_pathfinder.harness import (
    ExperimentConfig,
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
    MoEConfig, SampleBatch, apply_mask, gen_data, gen_model, layer_states, load_model,
    model_forward, sample_blocks, save_model,
)
from moe_pathfinder.numerics import Rng, save_tensor
from moe_pathfinder.planner import top_m_paths_dp
from moe_pathfinder.pruner import PruneMask, target_sparsity_search
from moe_pathfinder.scoring import graph_from_scores, score_samples
from oracles import random_sample_graph, top_m_paths_bruteforce

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_random_mask_keeps_the_count_a_kept_fraction_names():
    # 28 of 4 x 25 kept is 0.28, and 0.28 * 25 is 7.000000000000001 in floats
    for seed in range(5):
        assert random_mask(4, 25, 0.28, seed).keep.sum(axis=1).tolist() == [7] * 4
    # a product that is not an integer still rounds up
    assert random_mask(2, 10, 0.25, seed=0).keep.sum(axis=1).tolist() == [3, 3]


def test_compare_keeps_the_count_a_retention_names(monkeypatch):
    # 0.28 of 4 x 25 is 28.000000000000004 in floats: the search keeps 28,
    # and every random mask 7 per layer, the same count rule for both
    drawn = []

    def spy(*args):
        drawn.append(random_mask(*args))
        return drawn[-1]

    monkeypatch.setattr("moe_pathfinder.harness.random_mask", spy)
    config = ExperimentConfig(moe=MoEConfig(num_layers=4, experts_per_layer=25, hidden_dim=32,
                                            top_k=2),
                              model_seeds=(0,), target_retention=0.28, n_random_masks=3)
    (outcome,) = run_comparison(config).outcomes
    assert outcome.retention_fraction == 0.28
    assert len(drawn) == 3
    for mask in drawn:
        assert mask.keep.sum(axis=1).tolist() == [7] * 4


def test_random_mask_seed_deterministic():
    a = random_mask(5, 6, 0.5, seed=42)
    b = random_mask(5, 6, 0.5, seed=42)
    assert np.array_equal(a.keep, b.keep)
    c = random_mask(5, 6, 0.5, seed=43)
    assert not np.array_equal(a.keep, c.keep)


def test_ablate_graph_identity_when_both_on():
    g = random_sample_graph(3, 3, Rng(2))
    out = graph_from_scores(g.scores, True, True)
    assert out.node_scores.tobytes() == g.node_scores.tobytes()


def test_ablate_graph_rejects_both_off():
    g = random_sample_graph(3, 3, Rng(3))
    with pytest.raises(ValueError):
        graph_from_scores(g.scores, False, False)


def test_ablate_transition_off_decouples_layers():
    # without edges the best path is the per-layer argmax of importance
    rng = Rng(4)
    for _ in range(10):
        g = random_sample_graph(4, 3, rng)
        out = graph_from_scores(g.scores, use_importance=True, use_transition=False)
        best = top_m_paths_dp(out, 1).paths[0]
        want = tuple(int(np.argmax(g.log_node[l])) for l in range(4))
        assert best.experts == want


def test_ablate_importance_off_ranks_by_transition_products():
    rng = Rng(5)
    for _ in range(5):
        g = random_sample_graph(3, 3, rng)
        out = graph_from_scores(g.scores, use_importance=False, use_transition=True)
        got = top_m_paths_dp(out, 27)
        # independent ranking by linear-domain transition products
        import itertools

        a, r = g.scores[:, 0], g.scores[:, 1]
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
    result = eval_mask(model, PruneMask(np.ones((3, 4), dtype=bool)), samples)
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
    return float(layer_errs[-1]), [float(e) for e in layer_errs], mask.retention_fraction()


def _desk_model_and_masks():
    # a desk model with an all-true mask, a pathfinder mask and five random ones
    cfg = ExperimentConfig()
    moe = cfg.moe
    model = experiment_model(cfg, 1)
    calib = experiment_data(cfg, cfg.calibration_k, 5000, 1000)
    pf, _ = pathfinder_mask(model, calib, cfg.target_retention)
    masks = [PruneMask(np.ones((moe.num_layers, moe.experts_per_layer), dtype=bool)), pf] + [
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
    # 1..600 tokens, no two neighbours of one length: each sample is a block
    # of its own, 600 rows being above the block size
    long = experiment_data(replace(cfg, tokens_per_sample=600), 8, 5000, 2000)
    return [SampleBatch(s.tokens[:n]) for s, n in zip(long, (1, 7, 32, 300, 600, 5, 250, 260))]


@pytest.mark.parametrize("make_samples, block_rows", [
    pytest.param(lambda cfg: experiment_data(cfg, 4, 5000, 2000), [128], id="4-samples"),
    pytest.param(lambda cfg: experiment_data(cfg, 40, 5000, 2000), [512, 512, 256],
                 id="40-samples-3-blocks"),
    pytest.param(_ragged_samples, [1, 7, 32, 300, 600, 5, 250, 260], id="ragged-tokens"),
])
def test_eval_masks_matches_two_forwards_per_mask(monkeypatch, make_samples, block_rows):
    # stacked products round differently from per-sample ones; the gap is a
    # few ulps, far inside rel 1e-12
    cfg, model, masks = _desk_model_and_masks()
    samples = make_samples(cfg)
    full_rows = []

    def spy(forwarded, h):
        if forwarded is model:
            full_rows.append(h.shape[0])
        return layer_states(forwarded, h)

    monkeypatch.setattr("moe_pathfinder.harness.layer_states", spy)
    got = eval_masks(model, masks, samples)
    # per block, one full forward: every mask runs its pruned model
    assert full_rows == block_rows
    assert len(got) == len(masks)
    for result, mask in zip(got, masks):
        mean, per_layer, retention = two_forwards_per_mask(model, mask, samples)
        assert result.mean_final_error == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert result.per_layer_errors == pytest.approx(per_layer, rel=1e-12, abs=0.0)
        assert result.retention_fraction == retention


def per_slice_eval_masks(model, masks, eval_samples):
    """eval_masks as it was before the gaps became reshape row sums: one sum
    per sample's row slice, added in sample order."""
    layer_errs = np.zeros((len(masks), model.config.num_layers))
    for block in sample_blocks(eval_samples):
        x = np.concatenate([s.tokens for s in block])
        bounds = np.cumsum([0] + [s.tokens.shape[0] for s in block]).tolist()
        rows = list(zip(bounds, bounds[1:]))
        full = [h for *_, h in layer_states(model, x)]
        for errs, mask in zip(layer_errs, masks):
            for l, (*_, h) in enumerate(layer_states(apply_mask(model, mask)[0], x)):
                sq = full[l] - h
                sq *= sq
                for a, b in rows:
                    errs[l] += float(np.sum(sq[a:b])) / (b - a)
    layer_errs /= len(eval_samples)
    return [(float(e[-1]), [float(v) for v in e]) for e in layer_errs]


@pytest.mark.parametrize("make_samples", [
    pytest.param(lambda cfg: experiment_data(cfg, 40, 5000, 2000), id="40-samples-3-blocks"),
    pytest.param(_ragged_samples, id="ragged-tokens"),
])
def test_eval_gap_reduction_equals_per_slice_sums_bit_for_bit(make_samples):
    cfg, model, masks = _desk_model_and_masks()
    samples = make_samples(cfg)
    got = [(r.mean_final_error, r.per_layer_errors) for r in eval_masks(model, masks, samples)]
    assert got == per_slice_eval_masks(model, masks, samples)


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
    kept_small, kept_big = apply_mask(model, small)[1], apply_mask(model, big)[1]
    for s in eval_samples:
        # a masked trace selects kept-expert indices; compare parent ids
        a = model_forward(model, s, mask=small).selected_experts
        b = model_forward(model, s, mask=big).selected_experts
        if not all(np.array_equal(np.array(ks)[x], np.array(kb)[y])
                   for ks, kb, x, y in zip(kept_small, kept_big, a, b)):
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


def test_run_comparison_reproducible_outcomes():
    # repr writes each float exactly, so equal reprs are bit-identical outcomes
    a = run_comparison(TINY)
    b = run_comparison(TINY)
    assert repr(a.outcomes) == repr(b.outcomes)
    assert len(a.outcomes) == 2
    for o in a.outcomes:
        assert len(o.random_errors) == 3


def test_run_comparison_parallel_matches_serial():
    serial = run_comparison(TINY, jobs=1)
    parallel = run_comparison(TINY, jobs=2)
    assert repr(serial.outcomes) == repr(parallel.outcomes)


class _RecordingPool:
    # stands in for ProcessPoolExecutor: records max_workers, starts nothing
    sizes = []

    def __init__(self, max_workers, mp_context=None, initializer=None):
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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert map_jobs(abs, [-i for i in range(n_items)], jobs) == list(range(n_items))
    assert _RecordingPool.sizes == want_pool


def test_map_jobs_workers_run_one_blas_thread_and_the_parent_keeps_its_own(monkeypatch):
    # real spawned workers: each reports the BLAS thread variables it started with
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    assert map_jobs(os.getenv, names, 2) == ["1", "1", "1"]
    assert [os.environ.get(name) for name in names] == ["2", None, ""]


def _worker_state(_):
    return os.getpid(), np.geterr()


def test_map_jobs_workers_run_under_the_callers_error_state():
    # real spawned workers: an overflow raises in a worker exactly when it
    # would in the caller, and each reports the caller's state, whatever it is
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            map_jobs(np.square, [1e200, 1e200], 2)
    for state in ({}, {"over": "raise", "divide": "ignore", "under": "warn", "invalid": "print"}):
        with np.errstate(**state):
            reports = map_jobs(_worker_state, range(4), 2)
            assert [errs for _, errs in reports] == [np.geterr()] * 4
        assert os.getpid() not in {pid for pid, _ in reports}


def test_importing_the_program_loads_no_worker_pool():
    # a run that never starts a pool does not pay for its modules
    code = ("import sys, moe_pathfinder.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent.futures.process', "
            "'multiprocessing'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out == "[]\n"


def test_a_comparison_loads_no_masked_arrays(tmp_path):
    # np.median imports numpy.ma on its first call; the random-mask median must not
    code = ("import sys; from moe_pathfinder.cli import main; "
            f"code = main(['compare', '--seed', '0', '--trials', '1', '-o', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("n", range(1, 42))
def test_median_equals_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    ties = rng.choice(spread[:3], n)  # at most three values, so the middle two often tie
    for values in (spread, ties, np.abs(spread), np.full(n, 1e-300)):
        values = values.tolist()
        assert harness._median(values).hex() == float(np.median(values)).hex()


def test_a_seed_frees_the_samples_calibration_passed_over_before_eval(monkeypatch):
    # TINY draws the clustered family, where each sample owns its tokens
    # array; the raw family draws every sample as a view into one array, so
    # holding a chosen sample would hold the whole pool
    owners, chosen, alive = [], [], []

    def data(*args):
        samples = experiment_data(*args)
        owners.append([weakref.ref(s.tokens if s.tokens.base is None else s.tokens.base)
                       for s in samples])
        return samples

    def calibrate(*args):
        calib = build_calibration_set(*args)
        chosen.append(sorted(calib.sample_ids))
        return calib

    def evaluate(*args):
        alive.append([i for i, ref in enumerate(owners[0]) if ref() is not None])
        return eval_masks(*args)

    monkeypatch.setattr(harness, "experiment_data", data)
    monkeypatch.setattr(harness, "build_calibration_set", calibrate)
    monkeypatch.setattr(harness, "eval_masks", evaluate)
    for config in (TINY, replace(TINY, data_clusters=0)):
        owners.clear(), chosen.clear(), alive.clear()
        run_comparison(replace(config, model_seeds=(0,)))
        assert len(owners[0]) == TINY.pool_size and len(chosen[0]) == TINY.calibration_k
        # no array holding a sample calibration passed over is alive
        assert set(alive[0]) <= set(chosen[0]), config.data_clusters


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


@pytest.mark.parametrize("field, value", [
    pytest.param("n_random_masks", 0, id="no-random-masks"),
    pytest.param("n_eval_samples", 0, id="no-eval-samples"),
    pytest.param("tokens_per_sample", 0, id="no-tokens"),
    pytest.param("m_max", 0, id="m-max-0"),
    pytest.param("model_seeds", (), id="no-model-seeds"),
    pytest.param("target_retention", 0.0, id="retention-0"),
    pytest.param("target_retention", 1.5, id="retention-above-1"),
    pytest.param("target_retention", float("nan"), id="retention-nan"),
])
def test_experiment_config_refuses_a_run_it_cannot_make(field, value):
    # each used to fail deep inside run_comparison, or return an empty report
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


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


def _staged_replay(cfg: ExperimentConfig, i: int, tmp_path) -> tuple[float, int]:
    """compare's seed cfg.model_seeds[i], rerun as a staged run would: the
    one generator pair with the family's parameters and compare's derived
    seeds, every model and data set written and read back, then calibrate,
    score the calibration samples, search and eval.  (error, m_used)."""
    n = len(cfg.model_seeds)
    pool_seed, eval_seed, centers_seed = (
        derive_seeds(base, n)[i] for base in (cfg.data_seed, cfg.eval_seed, cfg.centers_seed))
    save_model(gen_model(cfg.moe, cfg.model_seeds[i], cfg.expert_scale, cfg.router_gain),
               tmp_path / "model")
    model = load_model(tmp_path / "model")

    def staged_data(name, n_samples, seed):
        samples = gen_data(cfg.moe, n_samples, cfg.tokens_per_sample, seed,
                           cfg.data_clusters, cfg.cluster_radius, centers_seed)
        save_tensor(tmp_path / name, np.stack([s.tokens for s in samples]))
        return load_data(tmp_path / name)

    pool = staged_data("pool", cfg.pool_size, pool_seed)
    calib = build_calibration_set(pool, cfg.calibration_k, cfg.kmeans_seed)
    graphs = [graph_from_scores(s, cfg.use_importance, cfg.use_transition)
              for s in score_samples(model, [pool[j] for j in calib.sample_ids])]
    mask, report = target_sparsity_search(graphs, cfg.target_retention)
    result = eval_mask(model, mask, staged_data("eval", cfg.n_eval_samples, eval_seed))
    return result.mean_final_error, report.m_used


@pytest.mark.parametrize("cfg", [
    pytest.param(ExperimentConfig(model_seeds=(0, 1, 2)), id="default-seeds-0-2"),
    pytest.param(ExperimentConfig(model_seeds=(0,), expert_scale=1.0, router_gain=1.0,
                                  data_clusters=0), id="raw-seed-0"),
    pytest.param(ExperimentConfig(model_seeds=(0, 1, 2), use_importance=False),
                 id="no-importance-seeds-0-2"),
    pytest.param(ExperimentConfig(model_seeds=(0, 1, 2), use_transition=False),
                 id="no-transition-seeds-0-2"),
])
def test_staged_run_reproduces_compare_bit_for_bit(cfg, tmp_path):
    outcomes = run_comparison(cfg).outcomes
    for i, o in enumerate(outcomes):
        error, m_used = _staged_replay(cfg, i, tmp_path / f"seed{i}")
        assert error.hex() == o.pathfinder_error.hex() and m_used == o.m_used
