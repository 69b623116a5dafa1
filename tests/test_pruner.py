import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_pathfinder.errors import InvariantError
from moe_pathfinder.model import (
    MoEConfig,
    gen_data,
    gen_model,
    load_model,
    model_forward,
    save_model,
)
from moe_pathfinder.numerics import Rng
from moe_pathfinder.planner import PathSet, PrefixPath, top_m_paths_dp
from moe_pathfinder.pruner import (
    PruneMask,
    RetentionReport,
    apply_mask,
    kept_count,
    load_mask,
    mask_from_pathsets,
    save_mask,
    save_report,
    selection_frequency,
    target_sparsity_search,
)
from oracles import random_sample_graph
from test_planner import rank1_graphs


def pathset_of(*seqs, m=None):
    return PathSet(m=m or len(seqs), paths=[PrefixPath(tuple(s), 0.0) for s in seqs])


def test_experts_from_paths_single_path():
    mask = mask_from_pathsets([pathset_of([2, 0, 1])], 3)
    assert np.array_equal(mask.keep, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_experts_from_paths_divergence_at_one_layer():
    mask = mask_from_pathsets([pathset_of([0, 1, 2], [0, 3, 2])], 4)
    assert np.array_equal(mask.keep, [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]])


def test_experts_from_paths_exhaustive_covers_everything():
    g = random_sample_graph(3, 2, Rng(0))
    assert mask_from_pathsets([top_m_paths_dp(g, 8)], 2).keep.all()


def test_experts_from_paths_empty_rejected():
    with pytest.raises(ValueError):
        mask_from_pathsets([PathSet(m=1, paths=[])], 3)
    with pytest.raises(ValueError):
        mask_from_pathsets([pathset_of([0, 1]), PathSet(m=1, paths=[])], 3)
    with pytest.raises(ValueError):
        mask_from_pathsets([], 3)


def test_mask_from_pathsets_single_and_disjoint():
    single = mask_from_pathsets([pathset_of([0, 1])], experts_per_layer=3)
    assert np.array_equal(single.keep, [[True, False, False], [False, True, False]])

    two = mask_from_pathsets([pathset_of([0, 1]), pathset_of([2, 0])], experts_per_layer=3)
    assert two.retained_total() == 4
    assert np.array_equal(two.keep, [[True, False, True], [True, True, False]])


def test_mask_from_pathsets_absorption():
    a = [pathset_of([0, 1])]
    b = [pathset_of([0, 1], [2, 2])]
    union = mask_from_pathsets(a + b, experts_per_layer=3)
    only_b = mask_from_pathsets(b, experts_per_layer=3)
    assert np.array_equal(union.keep, only_b.keep)


def test_union_mask_consistency_with_paths():
    # both directions: every path expert is retained, every retained expert
    # is on some path (pre-trim)
    rng = Rng(99)
    pathsets = [top_m_paths_dp(random_sample_graph(4, 3, rng), 3) for _ in range(4)]
    mask = mask_from_pathsets(pathsets, 3)
    on_paths = np.zeros((4, 3), dtype=bool)
    for ps in pathsets:
        for p in ps.paths:
            for l, i in enumerate(p.experts):
                on_paths[l, i] = True
    assert np.array_equal(mask.keep, on_paths)


def test_selection_frequency_single_path():
    counts = selection_frequency([pathset_of([1, 0, 2])], 3, 3)
    assert counts.sum() == 3
    assert np.array_equal(counts.sum(axis=1), [1, 1, 1])
    assert counts[0, 1] == counts[1, 0] == counts[2, 2] == 1


def test_selection_frequency_row_sums_equal_total_paths():
    rng = Rng(3)
    pathsets = [top_m_paths_dp(random_sample_graph(4, 3, rng), 5) for _ in range(6)]
    counts = selection_frequency(pathsets, 4, 3)
    total = sum(len(ps.paths) for ps in pathsets)
    assert np.all(counts.sum(axis=1) == total)


def test_selection_frequency_uniform_graph_combinatorics():
    # uniform weights, exhaustive m: each cell is hit N_e^(L-1) times
    from test_planner import graph_from_vectors

    g = graph_from_vectors(np.ones((3, 2)))
    ps = top_m_paths_dp(g, 8)
    counts = selection_frequency([ps], 3, 2)
    assert np.all(counts == 4)


def test_selection_frequency_rejects_paths_of_another_depth():
    with pytest.raises(ValueError, match="3 layers"):
        selection_frequency([pathset_of([0, 1, 2], [0, 1])], 3, 3)
    with pytest.raises(ValueError, match="2 layers"):
        mask_from_pathsets([pathset_of([0, 1]), pathset_of([0, 1, 2])], 3)


def test_target_search_single_sample_m1():
    g = random_sample_graph(4, 4, Rng(5))
    mask, report = target_sparsity_search([g], target_retention=0.25)
    assert report.m_used == 1
    assert report.retained_total == 4
    assert mask.keep.sum(axis=1).tolist() == [1, 1, 1, 1]
    assert report.trimmed == []


def test_target_search_full_retention():
    graphs = [random_sample_graph(3, 3, Rng(seed)) for seed in range(3)]
    mask, report = target_sparsity_search(graphs, target_retention=1.0)
    assert mask.retention_fraction() == 1.0
    assert np.all(mask.keep)


def test_target_search_hits_exact_budget():
    rng = Rng(6)
    graphs = [random_sample_graph(4, 4, rng) for _ in range(5)]
    mask, report = target_sparsity_search(graphs, target_retention=0.5)
    assert report.retained_total == int(np.ceil(0.5 * 4 * 4))
    assert report.retention_fraction == 0.5
    assert all(c >= 1 for c in report.retained_per_layer)
    # smallest sufficient m: one step down must fall short of the target
    if report.m_used > 1:
        smaller = [top_m_paths_dp(g, report.m_used - 1) for g in graphs]
        frac = mask_from_pathsets(smaller, 4).retention_fraction()
        assert frac < 0.5


def test_target_search_trim_is_least_frequent_first():
    # one shared dominant path plus per-sample noise; trimmed experts must
    # be off the dominant path
    rng = Rng(7)
    graphs = [random_sample_graph(3, 3, rng) for _ in range(6)]
    mask, report = target_sparsity_search(graphs, target_retention=0.5)
    if report.trimmed:
        pathsets = [top_m_paths_dp(g, report.m_used) for g in graphs]
        freq = selection_frequency(pathsets, 3, 3)
        kept_freqs = freq[mask.keep]
        trimmed_freqs = [freq[l, i] for l, i in report.trimmed]
        assert max(trimmed_freqs) <= min(kept_freqs)


def bisection_search_reference(graphs, target_retention, m_max=65536):
    """The sparsity search as it was before the lockstep pass: re-plan every
    sample at m = 1, 2, 4, ... until the union keeps the kept_count, then
    bisect for the smallest such m, and trim as target_sparsity_search does."""
    L, n = graphs[0].num_layers, graphs[0].experts_per_layer
    target_count = kept_count(target_retention, L * n)

    def retention_at(m):
        pathsets = [top_m_paths_dp(g, m) for g in graphs]
        return mask_from_pathsets(pathsets, n), pathsets

    m = 1
    mask, pathsets = retention_at(m)
    if mask.retained_total() < target_count:
        lo = m
        while True:
            if m >= m_max:
                raise InvariantError(
                    f"target retention {target_retention} unreachable with m_max={m_max}: "
                    f"best achievable fraction is {mask.retention_fraction():.6f}"
                )
            m = min(m * 2, m_max)
            mask, pathsets = retention_at(m)
            if mask.retained_total() >= target_count:
                break
            lo = m
        hi = m
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            cand_mask, cand_sets = retention_at(mid)
            if cand_mask.retained_total() >= target_count:
                hi, mask, pathsets = mid, cand_mask, cand_sets
            else:
                lo = mid
        m = hi

    trimmed = []
    if mask.retained_total() > target_count:
        freq = selection_frequency(pathsets, L, n)
        kept = [(l, i) for l in range(L) for i in range(n) if mask.keep[l, i]]
        kept.sort(key=lambda li: (freq[li[0], li[1]], -li[0], -li[1]))
        per_layer = mask.keep.sum(axis=1)
        for l, i in kept:
            if mask.retained_total() <= target_count:
                break
            if per_layer[l] <= 1:
                continue
            mask.keep[l, i] = False
            per_layer[l] -= 1
            trimmed.append((l, i))
    return mask, RetentionReport.from_mask(mask, m, len(graphs), trimmed)


def _search_outcome(search, graphs, target, m_max):
    """The search's error, or the bytes of the mask and report files that
    `prune` would write from its result."""
    try:
        mask, report = search(graphs, target, m_max=m_max)
    except InvariantError as e:
        return str(e)
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp, "mask.json"), Path(tmp, "report.json")]
        save_mask(mask, files[0])
        save_report(report, files[1])
        return [f.read_bytes() for f in files]


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(rank1_graphs(shape), min_size=1, max_size=4)
    ),
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([1, 2, 3, 5, 65536]),
)
@settings(max_examples=200, deadline=None)
def test_target_search_equals_bisection_reference(graphs, target, m_max):
    assert _search_outcome(target_sparsity_search, graphs, target, m_max) == _search_outcome(
        bisection_search_reference, graphs, target, m_max
    )


def test_target_search_keeps_the_count_a_retention_names():
    # 0.28 of 4 x 25 is 28.000000000000004 in floats; the union overshoots
    # 28 and the trim stops at 28, where harness.random_mask keeps 7 a layer
    graphs = [random_sample_graph(4, 25, Rng(seed)) for seed in range(6)]
    mask, report = target_sparsity_search(graphs, 0.28)
    assert report.trimmed
    assert mask.retained_total() == report.retained_total == 28
    assert report.retention_fraction == 0.28


def test_pruner_prunes_through_the_model_modules_apply_mask():
    from moe_pathfinder import model, pruner

    assert pruner.apply_mask is model.apply_mask


def test_target_search_unreachable_reports_fraction():
    g = random_sample_graph(3, 3, Rng(8))
    with pytest.raises(InvariantError, match="achievable"):
        target_sparsity_search([g], target_retention=1.0, m_max=1)


def test_target_search_rejects_bad_inputs():
    g = random_sample_graph(3, 3, Rng(9))
    with pytest.raises(ValueError):
        target_sparsity_search([], 0.5)
    with pytest.raises(ValueError):
        target_sparsity_search([g], 0.0)
    with pytest.raises(ValueError):
        target_sparsity_search([g], 1.5)
    with pytest.raises(ValueError, match="disagree"):
        target_sparsity_search([g, random_sample_graph(3, 4, Rng(9))], 0.5)


@pytest.mark.parametrize("m_max", [0, -3])
def test_target_search_refuses_a_cap_below_one(m_max):
    # the first path alone meets 0.25 of 2 x 3 experts, so the cap was never read
    g = random_sample_graph(2, 3, Rng(9))
    with pytest.raises(ValueError, match="m_max"):
        target_sparsity_search([g], 0.25, m_max=m_max)


def small_model(seed=0):
    cfg = MoEConfig(num_layers=3, experts_per_layer=4, hidden_dim=5, top_k=2)
    return gen_model(cfg, seed)


def test_apply_mask_all_true_identity():
    model = small_model(1)
    pruned, kept = apply_mask(model, PruneMask(np.ones((3, 4), dtype=bool)))
    assert kept == [[0, 1, 2, 3]] * 3
    assert [len(layer.experts) for layer in pruned.layers] == [4, 4, 4]
    assert pruned.config == model.config
    for la, lb in zip(model.layers, pruned.layers):
        assert la.router.tobytes() == lb.router.tobytes()
        for wa, wb in zip(la.experts, lb.experts):
            assert wa.tobytes() == wb.tobytes()


def test_apply_mask_single_retained_expert():
    cfg = MoEConfig(num_layers=2, experts_per_layer=2, hidden_dim=3, top_k=1)
    model = gen_model(cfg, 2)
    keep = np.array([[False, True], [False, True]])
    pruned, kept = apply_mask(model, PruneMask(keep))
    assert kept == [[1], [1]]
    assert pruned.layers[0].router.shape == (1, 3)
    x = gen_data(cfg, 1, 4, 3)[0]
    got = model_forward(pruned, x).hidden_states[-1]
    # always routing to expert 1 of the original model
    h = x.tokens
    for layer in model.layers:
        h = np.tanh(h @ layer.experts[1].T)
    assert np.allclose(got, h, atol=1e-12)


def test_apply_mask_matches_masked_forward():
    rng = Rng(11)
    for seed in range(5):
        model = small_model(seed)
        keep = np.zeros((3, 4), dtype=bool)
        for l in range(3):
            n_keep = 1 + rng.randrange(4)
            for i in sorted(rng.randrange(4) for _ in range(n_keep)):
                keep[l, i] = True
        mask = PruneMask(keep)
        pruned, _ = apply_mask(model, mask)
        x = gen_data(model.config, 1, 6, 50 + seed)[0]
        a = model_forward(model, x, mask=mask).hidden_states[-1]
        b = model_forward(pruned, x).hidden_states[-1]
        assert np.max(np.abs(a - b)) <= 1e-12


def test_pruned_model_save_load_roundtrip_uneven_counts(tmp_path):
    model = small_model(5)
    keep = np.array([[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 1]], dtype=bool)
    pruned, _ = apply_mask(model, PruneMask(keep))
    save_model(pruned, tmp_path)
    back = load_model(tmp_path)
    assert back.config == pruned.config
    assert [len(layer.experts) for layer in back.layers] == [3, 1, 3]
    for la, lb in zip(pruned.layers, back.layers):
        assert la.router.tobytes() == lb.router.tobytes()
        assert la.experts.tobytes() == lb.experts.tobytes()
    x = gen_data(model.config, 1, 6, 51)[0]
    a, b = model_forward(pruned, x), model_forward(back, x)
    for ha, hb in zip(a.hidden_states, b.hidden_states):
        assert ha.tobytes() == hb.tobytes()


def test_apply_mask_empty_layer_rejected():
    model = small_model(4)
    keep = np.ones((3, 4), dtype=bool)
    keep[1] = False
    with pytest.raises(InvariantError, match="layer 1"):
        apply_mask(model, PruneMask(keep))


def test_apply_mask_shape_mismatch_rejected():
    model = small_model(5)
    with pytest.raises(ValueError):
        apply_mask(model, PruneMask(np.ones((2, 4), dtype=bool)))


def test_mask_layer_counts_are_independent():
    # cross-layer heterogeneity: per-layer retained counts can all differ
    keep = np.array(
        [
            [True, False, False, False],
            [True, True, False, False],
            [True, True, True, False],
        ]
    )
    mask = PruneMask(keep)
    assert mask.keep.sum(axis=1).tolist() == [1, 2, 3]


def test_mask_json_roundtrip(tmp_path):
    keep = np.array([[True, False], [False, True], [True, True]])
    path = tmp_path / "mask.json"
    save_mask(PruneMask(keep), path)
    back = load_mask(path)
    assert np.array_equal(back.keep, keep)


def test_target_search_draws_m_used_paths_from_each_stream(monkeypatch):
    import moe_pathfinder.pruner as pruner
    from moe_pathfinder.planner import ranked_paths

    drawn = []

    def counted(graph):
        drawn.append(0)
        k = len(drawn) - 1
        for p in ranked_paths(graph):
            drawn[k] += 1
            yield p

    monkeypatch.setattr(pruner, "ranked_paths", counted)
    rng = Rng(6)
    graphs = [random_sample_graph(4, 4, rng) for _ in range(3)]
    _, report = pruner.target_sparsity_search(graphs, target_retention=0.9)
    assert report.m_used == 8
    assert drawn == [report.m_used] * len(graphs)
