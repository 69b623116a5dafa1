"""Top-m highest-log-weight paths through the layered expert graph.

A path picks one expert per layer.  Transitions are rank-1, so its log
weight splits into one score per picked expert (SampleGraph.node_scores),
and path_log_weight sums those scores in layer order.  Ordering everywhere
is (log_weight descending, expert sequence lexicographically ascending).

ranked_paths enumerates paths best-first over the per-layer sorted score
lists: k-best selection over sums of sorted lists, the separable case of
Eppstein's k shortest paths.  It sums each path the way path_log_weight
does, and float addition is monotone, so no unseen path can outweigh the
head of the heap.  The stream is the whole ranking, produced lazily, so every
top-m is a prefix of it: top_m_paths_dp takes the first m, and the sparsity
search reads paths off it one rank at a time.  Experts of one layer with
equal scores are enumerated as one class and expanded in lexicographic
order, so an exact tie between twins costs one heap entry, not one per
member.  Classes and paths share one heap, where a class pops before every
path of its weight, so tied paths leave in sequence order.
The ranking equals top_m_paths_bruteforce exactly, sequences and weights.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .numerics import Rng, as_finite, as_index, load_json
from .scoring import SampleGraph, graph_from_scores

BRUTEFORCE_CAP = 10**6
ORACLE_TOL = 1e-9  # oracle_selfcheck's largest log-weight gap to brute force


@dataclass(frozen=True)
class PrefixPath:  # a record: save_json writes its fields in this order
    experts: tuple[int, ...]
    log_weight: float

    def sort_key(self) -> tuple[float, tuple[int, ...]]:
        return (-self.log_weight, self.experts)


@dataclass
class PathSet:  # a record: save_json writes its fields in this order
    m: int
    paths: list[PrefixPath]

    @classmethod
    def from_json(cls, obj: dict) -> "PathSet":
        return cls(
            m=as_index(obj["m"], "m", 1),
            paths=[
                PrefixPath(
                    tuple(as_index(i, "path expert id") for i in p["experts"]),
                    as_finite(p["log_weight"], "path log_weight"),
                )
                for p in obj["paths"]
            ],
        )


def path_log_weight(graph: SampleGraph, experts) -> float:
    """Sum of the path's node scores, in layer order from 0.0.

    This accumulation order is canonical: every planner returns weights
    computed this way, so they are bit-identical and ties resolve the same."""
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


def ranked_paths(graph: SampleGraph) -> Iterator[PrefixPath]:
    """Every path of the graph, lazily, ordered by (log_weight descending,
    sequence ascending); any top-m is a prefix of this stream."""
    L = graph.num_layers
    # per layer, the distinct scores descending (a path is one rank per
    # layer), and members[l][r] lists the experts that carry score r, ascending
    ranked, members = [], []
    for s in graph.node_scores.tolist():
        classes: dict[float, list[int]] = {}
        for i, v in enumerate(s):
            classes.setdefault(v, []).append(i)
        ranked.append(sorted(classes, reverse=True))
        members.append([classes[v] for v in ranked[-1]])

    def weight(ranks) -> float:
        # path_log_weight's sum; monotone, so non-increasing along heap edges
        total = 0.0
        for l in range(L):
            total += ranked[l][ranks[l]]
        return total

    # rank vectors form a tree: the children of r raise one coordinate at or
    # after r's last nonzero one, so each vector is pushed exactly once.  The
    # heap holds classes (-weight, 0, ranks, last) and paths (-weight, 1, seq,
    # rest of its class's product): at equal weight classes pop first, then
    # paths by sequence (both are unique).  entry, the last one popped, stays
    # out of the heap, so a path that sorts first costs no heap operation
    root = (0,) * L
    heap: list = []
    entry = (-weight(root), 0, root, 0)
    while entry:
        key, is_path, head, rest = entry
        if is_path:
            yield PrefixPath(head, -key)
        else:
            for k in range(rest, L):
                if head[k] + 1 < len(ranked[k]):
                    child = head[:k] + (head[k] + 1,) + head[k + 1 :]
                    heapq.heappush(heap, (-weight(child), 0, child, k))
            rest = itertools.product(*(members[l][r] for l, r in enumerate(head)))
        seq = next(rest, None)
        if seq is not None:
            entry = heapq.heappushpop(heap, (key, 1, seq, rest))
        else:
            entry = heapq.heappop(heap) if heap else None


def top_m_paths_dp(graph: SampleGraph, m: int) -> PathSet:
    """The m best paths, ordered by (log_weight descending, sequence
    ascending); all N_e^L of them when m is larger."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return PathSet(m=m, paths=list(itertools.islice(ranked_paths(graph), m)))


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
    paths.sort(key=PrefixPath.sort_key)
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


def load_pathset(path) -> PathSet:
    return load_json(path, "path set", PathSet.from_json)
