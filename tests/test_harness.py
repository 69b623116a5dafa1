import csv

import numpy as np
import pytest

from moe_pathfinder.harness import (
    ExperimentConfig,
    comparison_csv,
    derive_seeds,
    eval_mask,
    export_heatmap,
    pathfinder_mask,
    planted_model,
    planted_recovery_trial,
    random_mask,
    run_comparison,
)
from moe_pathfinder.model import MoEConfig, gen_data, gen_model, model_forward
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
