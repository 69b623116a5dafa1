"""Reference implementations the tests check the program against.

None of this runs in a pipeline stage.  top_m_paths_bruteforce scores every
expert sequence and sorts them, so it is the ranking that
planner.ranked_paths must equal exactly, sequences and weights;
oracle_selfcheck compares the two over random graphs.
"""

from __future__ import annotations

import itertools

import numpy as np

from moe_pathfinder.errors import InvariantError
from moe_pathfinder.numerics import Rng
from moe_pathfinder.planner import PathSet, PrefixPath, top_m_paths_dp
from moe_pathfinder.scoring import SampleGraph, graph_from_scores

BRUTEFORCE_CAP = 10**6
ORACLE_TOL = 1e-9  # oracle_selfcheck's largest log-weight gap to brute force


def sort_key(path: PrefixPath) -> tuple[float, tuple[int, ...]]:
    """(log_weight descending, sequence ascending): the planner's order."""
    return (-path.log_weight, path.experts)


def path_log_weight(graph: SampleGraph, experts) -> float:
    """Sum of the path's node scores, in layer order from 0.0.

    This accumulation order is canonical: ranked_paths sums each path this
    way, so its weights are bit-identical to these and ties resolve the same."""
    experts = list(experts)
    if len(experts) != graph.num_layers:
        raise ValueError(
            f"path has {len(experts)} entries, graph has {graph.num_layers} layers"
        )
    n = graph.experts_per_layer
    if any(not (0 <= i < n) for i in experts):
        raise ValueError("expert index out of range")
    total = 0.0
    for l, i in enumerate(experts):
        total += float(graph.node_scores[l, i])
    return total


def top_m_paths_bruteforce(graph: SampleGraph, m: int) -> PathSet:
    """Score every expert sequence; only usable when N_e^L <= BRUTEFORCE_CAP."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = graph.experts_per_layer
    total = n**graph.num_layers
    if total > BRUTEFORCE_CAP:
        raise InvariantError(f"brute force over {total} paths exceeds the cap of {BRUTEFORCE_CAP}")
    paths = [
        PrefixPath(seq, path_log_weight(graph, seq))
        for seq in itertools.product(range(n), repeat=graph.num_layers)
    ]
    paths.sort(key=sort_key)
    return PathSet(m=m, paths=paths[:m])


def random_sample_graph(num_layers: int, experts_per_layer: int, rng: Rng) -> SampleGraph:
    """Synthetic graph with rank-1 transitions, for oracle checks.  Each
    layer draws N_e activations, N_e routing preferences (then normalized)
    and N_e importances, in that order; its reconstruction losses are 0."""
    n = experts_per_layer
    scores = np.zeros((num_layers, 4, n))
    for activation, routing, _, importance in scores:
        activation[:] = rng.uniform_array((n,), 0.0, 2.0)
        routing[:] = rng.uniform_array((n,), 0.05, 1.0)
        routing /= routing.sum()
        importance[:] = rng.uniform_array((n,), 0.01, 1.0)
    return graph_from_scores(scores)


def with_twin(graph: SampleGraph, layer: int, src: int, dst: int) -> SampleGraph:
    """A copy of graph whose expert dst at the layer repeats expert src's
    scores, so the two are twins: every path through one weighs exactly as
    much as the same path through the other."""
    scores = graph.scores.copy()
    scores[layer, :, dst] = scores[layer, :, src]
    return graph_from_scores(scores)


def oracle_selfcheck(trials: int, seed: int) -> tuple[int, list[str]]:
    """Planner-vs-brute-force equivalence over random graphs with L in 2..5 and
    N_e in 2..4, at m in {1, 3, 10, N_e^L}.  Each trial checks the graph,
    its two single-signal ablations, a copy with one expert duplicated
    (exact ties), and that copy with the duplicate's importance one ulp
    higher (near twins, whose paths often tie only after rounding).  Returns
    (passes, mismatches)."""
    rng = Rng(seed)
    passes = 0
    mismatches: list[str] = []
    for t in range(trials):
        L = 2 + rng.randrange(4)
        n = 2 + rng.randrange(3)
        graph = random_sample_graph(L, n, rng)
        src = rng.randrange(n)
        layer, dst = rng.randrange(L), (src + 1 + rng.randrange(n - 1)) % n
        twin = with_twin(graph, layer, src, dst)
        near_twin = twin.scores.copy()
        near_twin[layer, 3, dst] = np.nextafter(near_twin[layer, 3, dst], np.inf)
        variants = {
            "graph": graph,
            "no-importance": graph_from_scores(graph.scores, use_importance=False),
            "no-transition": graph_from_scores(graph.scores, use_transition=False),
            "twin": twin,
            "near-twin": graph_from_scores(near_twin),
        }
        ok = True
        for name, g in variants.items():
            ranking = top_m_paths_bruteforce(g, n**L).paths
            for m in (1, 3, 10, n**L):
                dp = top_m_paths_dp(g, m).paths
                where = f"trial {t} ({name}, L={L}, N_e={n}, m={m})"
                if [p.experts for p in dp] != [p.experts for p in ranking[:m]]:
                    mismatches.append(f"{where}: expert sequences differ")
                    ok = False
                    continue
                worst = max(
                    (abs(a.log_weight - b.log_weight) for a, b in zip(dp, ranking)),
                    default=0.0,
                )
                if worst > ORACLE_TOL:
                    mismatches.append(f"{where}: log weights differ by {worst:.3e}")
                    ok = False
        if ok:
            passes += 1
    return passes, mismatches
