"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from moe_pathfinder.cli import main as cli_main
from moe_pathfinder.harness import (
    ExperimentConfig,
    experiment_data,
    experiment_model,
    pathfinder_mask,
    planted_recovery_trial,
    run_comparison,
)
from moe_pathfinder.calibration import build_calibration_set
from moe_pathfinder.model import MoEConfig, gen_data, gen_model, model_forward
from moe_pathfinder.numerics import Rng
from moe_pathfinder.planner import top_m_paths_dp
from moe_pathfinder.pruner import (
    PruneMask,
    apply_mask,
    mask_from_pathsets,
    selection_frequency,
    target_sparsity_search,
)
from moe_pathfinder.scoring import graph_from_scores, score_sample
from oracles import oracle_selfcheck, top_m_paths_bruteforce

DESK = MoEConfig(num_layers=6, experts_per_layer=8, hidden_dim=32, top_k=2)


def report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {name}{'  (' + extra + ')' if extra else ''}")
    assert ok, f"criterion {num} failed: {name} {extra}"


def random_small_config(rng):
    return MoEConfig(
        num_layers=2 + rng.randrange(4),
        experts_per_layer=2 + rng.randrange(3),
        hidden_dim=4 + rng.randrange(5),
        top_k=1 + rng.randrange(2),
    )


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    passes, mismatches = oracle_selfcheck(100, seed=20240101)
    elapsed = time.monotonic() - start
    ok = passes == 100 and not mismatches and elapsed < 10.0
    report(1, "DP equals brute force on 100 random graphs", ok, f"{elapsed:.1f}s")


def test_criterion_2_rank1_transitions():
    # rank-1 transitions make the paper's node-plus-edge path weight the sum
    # of the per-node scores, for every path of every graph
    rng = Rng(2)
    worst = 0.0
    for trial in range(20):
        cfg = random_small_config(rng)
        model = gen_model(cfg, rng.next_u64())
        x = gen_data(cfg, 1, 4, rng.next_u64())[0]
        graph = score_sample(model, x)
        L, n = cfg.num_layers, cfg.experts_per_layer
        edge_sum, node_sum = graph.log_node[0], graph.node_scores[0]
        for l in range(1, L):
            grid = (1,) * (l - 1) + (n, n)
            edge_sum = edge_sum[..., None] + graph.log_edge[l - 1].reshape(grid) + graph.log_node[l]
            node_sum = node_sum[..., None] + graph.node_scores[l]
        worst = max(worst, float(np.max(np.abs(node_sum - edge_sum) / np.abs(edge_sum))))
    report(2, "node scores sum to the node-plus-edge log weight of every path",
           worst <= 1e-12, f"worst relative gap {worst:.1e}")


def test_criterion_3_normalization():
    rng = Rng(3)
    worst = 0.0
    for trial in range(10):
        cfg = random_small_config(rng)
        model = gen_model(cfg, rng.next_u64())
        x = gen_data(cfg, 1, 5, rng.next_u64())[0]
        graph = score_sample(model, x)
        for l, (_, routing, _, imp) in enumerate(graph.scores):
            worst = max(worst, abs(routing.sum() - 1.0))
            if 0 < l < cfg.num_layers - 1:
                worst = max(worst, abs(imp.sum() - 1.0))
    report(3, "routing and interior importance sum to 1", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_4_masked_forward_exactness():
    rng = Rng(4)
    worst_own = 0.0
    worst_apply = 0.0
    for trial in range(20):
        cfg = random_small_config(rng)
        model = gen_model(cfg, rng.next_u64())
        x = gen_data(cfg, 1, 5, rng.next_u64())[0]
        full = model_forward(model, x)
        keep = np.zeros((cfg.num_layers, cfg.experts_per_layer), dtype=bool)
        for l, sel in enumerate(full.selected_experts):
            keep[l, np.unique(sel)] = True
        mask = PruneMask(keep)
        masked = model_forward(model, x, mask=mask)
        worst_own = max(worst_own, float(np.max(np.abs(full.hidden_states[-1] - masked.hidden_states[-1]))))
        pruned, _ = apply_mask(model, mask)
        materialized = model_forward(pruned, x)
        worst_apply = max(
            worst_apply,
            float(np.max(np.abs(masked.hidden_states[-1] - materialized.hidden_states[-1]))),
        )
    ok = worst_own <= 1e-12 and worst_apply <= 1e-12
    report(4, "own-selection mask and materialized pruning are exact",
           ok, f"own {worst_own:.2e}, apply {worst_apply:.2e}")


def test_criterion_5_m1_and_monotone_retention():
    config = ExperimentConfig()
    model = experiment_model(config, 0)
    sample = experiment_data(config, 1, centers_seed=5000, noise_seed=1)[0]
    graph = score_sample(model, sample)
    sets_by_m = {}
    for m in (1, 2, 5, 50):
        mask = mask_from_pathsets([top_m_paths_dp(graph, m)], DESK.experts_per_layer)
        sets_by_m[m] = [set(np.flatnonzero(row)) for row in mask.keep]
    single = sets_by_m[1]
    ok = all(len(s) == 1 for s in single) and sum(len(s) for s in single) == DESK.num_layers
    ms = (1, 2, 5, 50)
    for small, big in zip(ms, ms[1:]):
        for l in range(DESK.num_layers):
            if not sets_by_m[small][l] <= sets_by_m[big][l]:
                ok = False
    report(5, "m=1 keeps one expert per layer; retained sets monotone in m", ok)


def test_criterion_6_planted_recovery():
    start = time.monotonic()
    pf_hits, rand_hits = 0, 0
    for seed in range(10):
        pf, rand = planted_recovery_trial(DESK, seed)
        pf_hits += pf
        rand_hits += rand
    elapsed = time.monotonic() - start
    ok = pf_hits == 10 and rand_hits <= 2 and elapsed < 60.0
    report(6, "planted experts recovered 10/10 by pathfinder, <=2/10 by random",
           ok, f"pathfinder {pf_hits}/10, random {rand_hits}/10, {elapsed:.1f}s")


def test_criterion_7_pathfinder_vs_random():
    start = time.monotonic()
    config = ExperimentConfig()  # desk defaults: L=6 Ne=8 d=32 topk=2, K=8, 16 eval, 0.5
    result = run_comparison(config)
    elapsed = time.monotonic() - start
    ok = result.wins >= 8 and elapsed < 300.0
    report(7, "pathfinder error <= random-median in >= 8/10 seeds",
           ok, f"wins {result.wins}/10, {elapsed:.1f}s")


def test_criterion_8_ablation_structure():
    rng = Rng(8)
    ok = True
    # transition off: layers decouple into per-layer argmax of importance
    config = ExperimentConfig()
    for seed in range(5):
        model = experiment_model(config, seed)
        sample = experiment_data(config, 1, centers_seed=777, noise_seed=seed)[0]
        graph = score_sample(model, sample)
        best = top_m_paths_dp(graph_from_scores(graph.scores, True, False), 1).paths[0]
        want = tuple(int(np.argmax(graph.log_node[l])) for l in range(graph.num_layers))
        if best.experts != want:
            ok = False
    # importance off: ranking is by transition products alone (L=3, N_e=3)
    import itertools

    small_cfg = MoEConfig(num_layers=3, experts_per_layer=3, hidden_dim=6, top_k=1)
    for seed in range(5):
        model = gen_model(small_cfg, seed)
        x = gen_data(small_cfg, 1, 5, 900 + seed)[0]
        graph = score_sample(model, x)
        got = top_m_paths_dp(graph_from_scores(graph.scores, False, True), 27)
        a, r = graph.scores[:, 0], graph.scores[:, 1]
        scored = []
        for seq in itertools.product(range(3), repeat=3):
            prod = (a[0][seq[0]] * r[1][seq[1]]) * (a[1][seq[1]] * r[2][seq[2]])
            scored.append((seq, prod))
        scored.sort(key=lambda t: (-t[1], t[0]))
        if [p.experts for p in got.paths] != [s[0] for s in scored]:
            ok = False
    report(8, "ablations decouple exactly as additive separability predicts", ok)


def test_criterion_9_heatmap_bookkeeping():
    config = ExperimentConfig(data_clusters=10, calibration_k=10, pool_size=60)
    model = experiment_model(config, 3)
    pool = experiment_data(config, config.pool_size, centers_seed=123, noise_seed=456)
    calib = build_calibration_set(pool, 10, config.kmeans_seed)
    pathsets = [top_m_paths_dp(score_sample(model, pool[i]), 100) for i in calib.sample_ids]
    counts = selection_frequency(pathsets, DESK.num_layers, DESK.experts_per_layer)
    sums = counts.sum(axis=1)
    ok = len(pathsets) == 10 and all(len(ps.paths) == 100 for ps in pathsets)
    ok = ok and np.all(sums == 1000)
    report(9, "10 clusters x top-100 paths: every layer row sums to 1000", ok, f"sums {sums.tolist()}")


def run_pipeline(base):
    model = base / "model"
    data = base / "data.tnsr"
    graphs = base / "graphs"
    paths = base / "paths"
    pruned = base / "pruned"
    heatmap = base / "heatmap.csv"
    cmp_dir = base / "cmp"
    calls = [
        ["gen-model", "--layers", "4", "--experts", "6", "--dim", "16", "--topk", "2",
         "--seed", "11", "-o", str(model)],
        ["gen-data", "--model", str(model), "--samples", "12", "--tokens", "8",
         "--seed", "12", "-o", str(data)],
        ["calibrate", "--data", str(data), "--k", "4", "--seed", "13", "-o", str(base / "calib.json")],
        ["score", "--model", str(model), "--data", str(data),
         "--calibration", str(base / "calib.json"), "-o", str(graphs)],
        ["plan", "--graphs", str(graphs), "--m", "3", "-o", str(paths)],
        ["prune", "--graphs", str(graphs), "--target-retention", "0.5",
         "--model", str(model), "-o", str(pruned)],
        ["eval", "--model", str(model), "--mask", str(pruned / "mask.json"),
         "--data", str(data), "-o", str(base / "eval.json")],
        ["heatmap", "--paths", str(paths), "-o", str(heatmap)],
        ["compare", "--layers", "2", "--experts", "3", "--dim", "6", "--topk", "1",
         "--seed", "0", "--trials", "2", "--pool", "8", "--tokens", "4", "--k", "2",
         "--eval-samples", "2", "--random-masks", "3", "-o", str(cmp_dir)],
    ]
    for argv in calls:
        assert cli_main(argv) == 0, f"pipeline stage failed: {argv[0]}"
    return {
        "mask": (pruned / "mask.json").read_bytes(),
        "report": (pruned / "report.json").read_bytes(),
        "eval": (base / "eval.json").read_bytes(),
        "heatmap": heatmap.read_bytes(),
        "summary": (cmp_dir / "summary.json").read_bytes(),
    }


def test_criterion_10_reproducibility(tmp_path):
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    run1.mkdir()
    run2.mkdir()
    first = run_pipeline(run1)
    second = run_pipeline(run2)
    ok = first == second
    report(10, "re-running the pipeline yields byte-identical artifacts", ok)
