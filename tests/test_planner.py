import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_pathfinder.errors import InvariantError
from moe_pathfinder.harness import ExperimentConfig, experiment_data, experiment_model
from moe_pathfinder.numerics import Rng, save_json
from moe_pathfinder.planner import PathSet, PrefixPath, load_pathset, ranked_paths, top_m_paths_dp
from moe_pathfinder.scoring import SampleGraph, graph_from_scores, score_sample
import oracles
from oracles import (
    oracle_selfcheck,
    path_log_weight,
    random_sample_graph,
    sort_key,
    top_m_paths_bruteforce,
    with_twin,
)


def graph_from_vectors(importance, activation=None, routing=None):
    """SampleGraph from linear per-layer importance, activation and routing
    vectors (each L x N_e); activation and routing default to all ones."""
    importance = np.asarray(importance, dtype=np.float64)
    L, n = importance.shape
    activation = np.ones((L, n)) if activation is None else np.asarray(activation, dtype=np.float64)
    routing = np.ones((L, n)) if routing is None else np.asarray(routing, dtype=np.float64)
    return graph_from_scores(np.stack([activation, routing, np.zeros((L, n)), importance], axis=1))


def test_path_log_weight_unit_weights():
    g = graph_from_vectors(np.ones((3, 2)))
    assert path_log_weight(g, [0, 1, 0]) == 0.0


def test_path_log_weight_hand_case():
    g = graph_from_vectors(np.ones((2, 1)), activation=[[0.5], [1.0]])
    assert path_log_weight(g, [0, 0]) == pytest.approx(np.log(0.5), rel=1e-15)


def test_path_log_weight_matches_linear_product():
    rng = Rng(1)
    for _ in range(30):
        L, n = 2 + rng.randrange(3), 2 + rng.randrange(3)
        imp, act, rout = (rng.uniform_array((L, n), 0.05, 2.0) for _ in range(3))
        g = graph_from_vectors(imp, act, rout)
        path = [rng.randrange(n) for _ in range(L)]
        linear = 1.0
        for l, i in enumerate(path):
            linear *= imp[l][i]
        for l in range(L - 1):
            linear *= act[l][path[l]] * rout[l + 1][path[l + 1]]
        assert path_log_weight(g, path) == pytest.approx(np.log(linear), rel=1e-9)


def test_path_log_weight_rejects_bad_paths():
    g = graph_from_vectors(np.ones((3, 2)))
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


def per_layer_random_scores(num_layers, n, rng):
    """random_sample_graph's scores as they were drawn before a graph held one
    score array: one scalar draw at a time, layer by layer."""
    def draws(lo, hi):
        return np.array([lo + (hi - lo) * rng.uniform() for _ in range(n)])

    scores = []
    for _ in range(num_layers):
        activation = draws(0.0, 2.0)
        routing = draws(0.05, 1.0)
        routing = routing / routing.sum()
        importance = draws(0.01, 1.0)
        scores.append([activation, routing, np.zeros(n), importance])
    return np.array(scores)


def test_random_sample_graph_equals_scalar_draws():
    # every seeded planner and pruner test reads these graphs
    for seed in (0, 1, 7, 2024, 2**63 + 5):
        for L, n in ((1, 1), (2, 3), (5, 4), (3, 9), (7, 12), (2, 33)):
            rng, ref = Rng(seed), Rng(seed)
            g = random_sample_graph(L, n, rng)
            assert g.scores.tobytes() == per_layer_random_scores(L, n, ref).tobytes()
            assert rng.next_u64() == ref.next_u64()


def test_with_twin_copies_one_expert_column():
    g = random_sample_graph(3, 4, Rng(12))
    before = g.scores.copy()
    twin = with_twin(g, 1, 0, 2)
    want = before.copy()
    want[1, :, 2] = before[1, :, 0]
    assert np.array_equal(twin.scores, want)
    assert np.array_equal(g.scores, before)
    assert path_log_weight(twin, [1, 0, 3]) == path_log_weight(twin, [1, 2, 3])


# 0.0 hits the 1e-300 log clamp, and a product of two 1e-200s falls below
# it; the dyadic values make exact ties between paths through different experts
_VALUES = st.one_of(
    st.just(0.0), st.sampled_from([1e-200, 0.5, 1.0, 2.0]), st.floats(0.01, 2.0)
)


@st.composite
def rank1_graphs(draw, shape=None):
    """Rank-1 graphs with N_e^L <= 256 (L x N_e fixed by shape if given), some
    experts copied onto others (twins), under one of the three signal sets of
    graph_from_scores."""
    L, n = shape or (draw(st.integers(1, 4)), draw(st.integers(1, 4)))

    def vector():
        return np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))

    g = graph_from_scores(np.array([[vector(), vector(), np.zeros(n), vector()] for _ in range(L)]))
    copies = st.tuples(st.integers(0, L - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    for l, src, dst in draw(st.lists(copies, max_size=3)):
        g = with_twin(g, l, src, dst)
    signals = draw(st.sampled_from([(True, True), (False, True), (True, False)]))
    return graph_from_scores(g.scores, *signals)


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
    stream = list(ranked_paths(g))
    assert [p.experts for p in stream] == [p.experts for p in ranking]
    assert [p.log_weight.hex() for p in stream] == [p.log_weight.hex() for p in ranking]


def test_product_below_the_clamp_ranks_by_the_true_sum():
    # every a_i * r_j underflows below 1e-300, so every clamped log edge is
    # log(1e-300) and the edge view ties all four paths; the node scores keep
    # log a_i + log r_j, which puts (1, 1) first and (0, 0) last
    g = graph_from_vectors(
        np.ones((2, 2)), activation=[[1e-200, 1e-160], [1.0, 1.0]],
        routing=[[1.0, 1.0], [1e-200, 1e-160]],
    )
    assert np.all(g.log_edge == np.log(1e-300))
    ranking = top_m_paths_bruteforce(g, 4).paths
    assert [p.experts for p in ranking] == [(1, 1), (0, 1), (1, 0), (0, 0)]
    assert ranking[0].log_weight == pytest.approx(2 * np.log(1e-160), rel=1e-15)
    planned = top_m_paths_dp(g, 4).paths
    assert [p.experts for p in planned] == [p.experts for p in ranking]
    assert [p.log_weight.hex() for p in planned] == [p.log_weight.hex() for p in ranking]


def edge_weighted_top_m(graph, m):
    """The paper's ranking: node plus edge log weights (log_node, log_edge)
    summed over all N_e^L sequences at once, ties to the smaller sequence."""
    log_node, log_edge = graph.log_node, graph.log_edge
    L, n = log_node.shape
    w = log_node[0]
    for l in range(1, L):
        w = w[..., None] + log_edge[l - 1].reshape((1,) * (l - 1) + (n, n)) + log_node[l]
    flat = w.ravel()
    order = np.lexsort((np.arange(flat.size), -flat))[:m]
    return [tuple(int(i) for i in np.unravel_index(k, w.shape)) for k in order], flat[order]


def test_scored_graphs_rank_as_the_edge_weighted_graph():
    config = ExperimentConfig()
    for seed in range(10):
        model = experiment_model(config, seed)
        sample = experiment_data(config, 1, centers_seed=config.centers_seed, noise_seed=seed)[0]
        graph = score_sample(model, sample)
        seqs, weights = edge_weighted_top_m(graph, 64)
        planned = top_m_paths_dp(graph, 64).paths
        assert [p.experts for p in planned] == seqs
        assert np.allclose([p.log_weight for p in planned], weights, rtol=1e-12, atol=0.0)


def test_all_equal_graph_returns_lexicographic_first_quickly():
    L, n = 12, 32
    g = graph_from_vectors(np.ones((L, n)))
    start = time.monotonic()
    ps = top_m_paths_dp(g, 8)
    elapsed = time.monotonic() - start
    assert [p.experts for p in ps.paths] == [(0,) * (L - 1) + (i,) for i in range(8)]
    assert all(p.log_weight == 0.0 for p in ps.paths)
    assert elapsed < 1.0


def test_scores_that_tie_only_after_rounding_leave_in_sequence_order():
    # a < b, yet a + 600 == b + 600: the class of expert 0 at layer 0 weighs
    # less than expert 1's until layer 1 is added, so it must be expanded
    # before any of the four tied paths leaves
    a = 0.1
    b = float(np.nextafter(a, 1.0))
    assert a < b and a + 600.0 == b + 600.0
    g = SampleGraph(np.zeros((2, 4, 2)), np.array([[a, b], [600.0, 600.0]]))
    ranking = top_m_paths_bruteforce(g, 4).paths
    assert [p.experts for p in ranking] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    stream = list(ranked_paths(g))
    assert [(p.experts, p.log_weight.hex()) for p in stream] == [
        (p.experts, p.log_weight.hex()) for p in ranking
    ]


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
    keys = [sort_key(p) for p in ps.paths]
    assert keys == sorted(keys)
    assert len({p.experts for p in ps.paths}) == 8


def test_uniform_graph_ties_break_lexicographically():
    g = graph_from_vectors(np.ones((3, 3)))
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
    shifted = g.node_scores.copy()
    shifted[2] += c
    g2 = SampleGraph(g.scores, shifted)
    moved = top_m_paths_dp(g2, 5)
    assert [p.experts for p in moved.paths] == [p.experts for p in base.paths]
    for a, b in zip(moved.paths, base.paths):
        assert a.log_weight == pytest.approx(b.log_weight + c, rel=1e-12)


def test_bruteforce_counts_and_cap(monkeypatch):
    g = graph_from_vectors(np.ones((2, 2)))
    ps = top_m_paths_bruteforce(g, 999)
    assert len(ps.paths) == 4
    assert [p.experts for p in top_m_paths_bruteforce(g, 2).paths] == [(0, 0), (0, 1)]
    monkeypatch.setattr(oracles, "BRUTEFORCE_CAP", 3)
    with pytest.raises(InvariantError, match="cap of 3"):
        top_m_paths_bruteforce(g, 1)


def test_m_must_be_positive():
    g = graph_from_vectors(np.ones((2, 2)))
    with pytest.raises(ValueError):
        top_m_paths_dp(g, 0)
    with pytest.raises(ValueError):
        top_m_paths_bruteforce(g, 0)


# which near twins tie only after rounding varies with the draws, so the
# oracle runs at several seeds
@pytest.mark.parametrize("trials, seed", [(25, 5), (100, 1), (300, 2)])
def test_oracle_selfcheck_passes(trials, seed):
    passes, mismatches = oracle_selfcheck(trials, seed)
    assert passes == trials
    assert mismatches == []


def test_an_expert_enters_the_stream_at_its_swap_path():
    # the first path through expert (l, i) is the swap path: the rank-1 path
    # with layer l set to i; half the graphs hold a pair of exact twins
    rng = Rng(31)
    for t in range(400):
        L, n = 2 + rng.randrange(4), 2 + rng.randrange(3)
        g = random_sample_graph(L, n, rng)
        if t % 2:
            src = rng.randrange(n)
            g = with_twin(g, rng.randrange(L), src, (src + 1 + rng.randrange(n - 1)) % n)
        stream = [p.experts for p in ranked_paths(g)]
        assert len(stream) == n**L
        position = {seq: k for k, seq in enumerate(stream)}
        first = {}
        for k, seq in enumerate(stream):
            for l, i in enumerate(seq):
                first.setdefault((l, i), k)
        assert len(first) == L * n
        best = stream[0]
        for (l, i), k in first.items():
            swap = best[:l] + (i,) + best[l + 1 :]
            assert k == position[swap], f"graph {t}: expert {(l, i)} enters at {k}, not {position[swap]}"


def test_pathset_json_roundtrip(tmp_path):
    ps = PathSet(m=3, paths=[PrefixPath((0, 2, 1), -1.5), PrefixPath((1, 0, 0), -2.25)])
    path = tmp_path / "paths.json"
    save_json(path, ps)  # as `plan` writes each path set
    back = load_pathset(path)
    assert back == ps
