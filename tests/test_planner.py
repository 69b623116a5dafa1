import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_pathfinder.errors import InvariantError
from moe_pathfinder.harness import ablate_graph
from moe_pathfinder.numerics import Rng
from moe_pathfinder.planner import (
    PathSet,
    PrefixPath,
    load_pathset,
    oracle_selfcheck,
    path_log_weight,
    random_sample_graph,
    save_pathset,
    top_m_paths_bruteforce,
    top_m_paths_dp,
    with_twin,
)
from moe_pathfinder.scoring import LayerScore, SampleGraph, clamped_log, graph_from_scores


def graph_from_weights(node, edges):
    """SampleGraph from explicit linear node weights (L x N_e) and edge
    matrices (L-1 of N_e x N_e)."""
    node = np.asarray(node, dtype=np.float64)
    L, n = node.shape
    edges = [np.asarray(e, dtype=np.float64) for e in edges]
    scores = [
        LayerScore(np.ones(n), np.full(n, 1.0 / n), np.zeros(n), node[l].copy())
        for l in range(L)
    ]
    log_edge = (
        np.stack([clamped_log(e) for e in edges]) if edges else np.zeros((0, n, n))
    )
    return SampleGraph(L, n, scores, edges, clamped_log(node), log_edge)


def test_path_log_weight_unit_weights():
    g = graph_from_weights(np.ones((3, 2)), [np.ones((2, 2))] * 2)
    assert path_log_weight(g, [0, 1, 0]) == 0.0


def test_path_log_weight_hand_case():
    g = graph_from_weights(np.ones((2, 1)), [np.array([[0.5]])])
    assert path_log_weight(g, [0, 0]) == pytest.approx(np.log(0.5), rel=1e-15)


def test_path_log_weight_matches_linear_product():
    rng = Rng(1)
    for _ in range(30):
        L, n = 2 + rng.randrange(3), 2 + rng.randrange(3)
        node = np.array([[rng.uniform(0.05, 2.0) for _ in range(n)] for _ in range(L)])
        edges = [
            np.array([[rng.uniform(0.05, 2.0) for _ in range(n)] for _ in range(n)])
            for _ in range(L - 1)
        ]
        g = graph_from_weights(node, edges)
        path = [rng.randrange(n) for _ in range(L)]
        linear = 1.0
        for l, i in enumerate(path):
            linear *= node[l][i]
        for l in range(L - 1):
            linear *= edges[l][path[l]][path[l + 1]]
        assert path_log_weight(g, path) == pytest.approx(np.log(linear), rel=1e-9)


def test_path_log_weight_rejects_bad_paths():
    g = graph_from_weights(np.ones((3, 2)), [np.ones((2, 2))] * 2)
    with pytest.raises(ValueError):
        path_log_weight(g, [0, 1])
    with pytest.raises(ValueError):
        path_log_weight(g, [0, 1, 5])


def test_dp_equals_bruteforce_on_random_graphs():
    rng = Rng(2024)
    for _ in range(40):
        L, n = 2 + rng.randrange(4), 2 + rng.randrange(3)
        g = random_sample_graph(L, n, rng)
        for m in (1, 3, 10, n**L):
            dp = top_m_paths_dp(g, m)
            bf = top_m_paths_bruteforce(g, m)
            assert [p.experts for p in dp.paths] == [p.experts for p in bf.paths]
            for a, b in zip(dp.paths, bf.paths):
                assert a.log_weight == b.log_weight  # same accumulation order


# 0.0 hits the 1e-300 log clamp; the dyadic values make exact ties between
# paths through different experts
_VALUES = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 2.0))


@st.composite
def rank1_graphs(draw):
    """Rank-1 graphs with N_e^L <= 256, some experts copied onto others
    (twins), under one of the three signal sets of ablate_graph."""
    L, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def vector():
        return np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))

    g = graph_from_scores([LayerScore(vector(), vector(), np.zeros(n), vector()) for _ in range(L)])
    copies = st.tuples(st.integers(0, L - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    for l, src, dst in draw(st.lists(copies, max_size=3)):
        g = with_twin(g, l, src, dst)
    signals = draw(st.sampled_from([(True, True), (False, True), (True, False)]))
    return ablate_graph(g, *signals)


@given(rank1_graphs())
@settings(max_examples=300, deadline=None)
def test_dp_equals_bruteforce_with_twins_clamps_and_ablations(g):
    n, L = g.experts_per_layer, g.num_layers
    ranking = top_m_paths_bruteforce(g, n**L).paths
    for m in (1, 3, 10, n**L):
        dp = top_m_paths_dp(g, m).paths
        bf = ranking[:m]
        assert [p.experts for p in dp] == [p.experts for p in bf]
        assert [p.log_weight.hex() for p in dp] == [p.log_weight.hex() for p in bf]


def test_all_equal_graph_returns_lexicographic_first_quickly():
    L, n = 12, 32
    g = graph_from_weights(np.ones((L, n)), [np.ones((n, n))] * (L - 1))
    start = time.monotonic()
    ps = top_m_paths_dp(g, 8)
    elapsed = time.monotonic() - start
    assert [p.experts for p in ps.paths] == [(0,) * (L - 1) + (i,) for i in range(8)]
    assert all(p.log_weight == 0.0 for p in ps.paths)
    assert elapsed < 1.0


def test_dp_m1_is_exhaustive_argmax():
    rng = Rng(7)
    for _ in range(10):
        g = random_sample_graph(3, 4, rng)
        best = top_m_paths_dp(g, 1).paths[0]
        scored = [
            (path_log_weight(g, seq), seq)
            for seq in itertools.product(range(4), repeat=3)
        ]
        want = max(scored, key=lambda t: (t[0], tuple(-i for i in t[1])))
        assert best.experts == want[1]
        assert best.log_weight == want[0]


def test_dp_exhaustive_m_returns_all_paths_sorted():
    g = random_sample_graph(3, 2, Rng(8))
    ps = top_m_paths_dp(g, 999999)
    assert len(ps.paths) == 8
    keys = [p.sort_key() for p in ps.paths]
    assert keys == sorted(keys)
    assert len({p.experts for p in ps.paths}) == 8


def test_uniform_graph_ties_break_lexicographically():
    g = graph_from_weights(np.ones((3, 3)), [np.ones((3, 3))] * 2)
    ps = top_m_paths_dp(g, 4)
    assert [p.experts for p in ps.paths] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
    ]
    assert all(p.log_weight == 0.0 for p in ps.paths)


def test_pathset_monotone_in_m():
    rng = Rng(9)
    for _ in range(10):
        g = random_sample_graph(4, 3, rng)
        small = top_m_paths_dp(g, 3).paths
        large = top_m_paths_dp(g, 9).paths
        assert large[: len(small)] == small


def test_all_paths_have_full_length():
    g = random_sample_graph(5, 2, Rng(10))
    for p in top_m_paths_dp(g, 6).paths:
        assert len(p.experts) == 5


def test_layer_shift_invariance():
    rng = Rng(11)
    g = random_sample_graph(4, 3, rng)
    base = top_m_paths_dp(g, 5)
    c = 2.75
    shifted_node = g.log_node.copy()
    shifted_node[2] += c
    g2 = SampleGraph(
        g.num_layers, g.experts_per_layer, g.layer_scores, g.transitions,
        shifted_node, g.log_edge,
    )
    shifted = top_m_paths_dp(g2, 5)
    assert [p.experts for p in shifted.paths] == [p.experts for p in base.paths]
    for a, b in zip(shifted.paths, base.paths):
        assert a.log_weight == pytest.approx(b.log_weight + c, rel=1e-12)


def test_bruteforce_counts_and_cap():
    g = graph_from_weights(np.ones((2, 2)), [np.ones((2, 2))])
    ps = top_m_paths_bruteforce(g, 999)
    assert len(ps.paths) == 4
    assert [p.experts for p in top_m_paths_bruteforce(g, 2).paths] == [(0, 0), (0, 1)]
    with pytest.raises(InvariantError, match="cap"):
        top_m_paths_bruteforce(g, 1, cap=3)


def test_m_must_be_positive():
    g = graph_from_weights(np.ones((2, 2)), [np.ones((2, 2))])
    with pytest.raises(ValueError):
        top_m_paths_dp(g, 0)
    with pytest.raises(ValueError):
        top_m_paths_bruteforce(g, 0)


def test_oracle_selfcheck_passes():
    passes, mismatches = oracle_selfcheck(25, seed=5)
    assert passes == 25
    assert mismatches == []


def test_pathset_json_roundtrip(tmp_path):
    ps = PathSet(m=3, paths=[PrefixPath((0, 2, 1), -1.5), PrefixPath((1, 0, 0), -2.25)])
    path = tmp_path / "paths.json"
    save_pathset(ps, path)
    back = load_pathset(path)
    assert back == ps
