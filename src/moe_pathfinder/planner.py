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
order, so an exact tie between twins costs one path, not one per member.
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


@dataclass(frozen=True)
class PrefixPath:
    experts: tuple[int, ...]
    log_weight: float

    def sort_key(self) -> tuple[float, tuple[int, ...]]:
        return (-self.log_weight, self.experts)


@dataclass
class PathSet:
    m: int
    paths: list[PrefixPath]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "paths": [
                {"experts": list(p.experts), "log_weight": p.log_weight}
                for p in self.paths
            ],
        }

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
    # after r's last nonzero one, so each vector is pushed exactly once
    root = (0,) * L
    heap = [(-weight(root), root, 0)]
    # popped classes keyed by (-weight, next member sequence), as
    # PrefixPath.sort_key orders paths, each holding the rest of its product,
    # which runs in lexicographic order; tied classes thereby interleave
    ready: list = []
    while heap or ready:
        # the best ready path is next once no unseen path can tie its weight
        while heap and not (ready and heap[0][0] > ready[0][0]):
            key, ranks, last = heapq.heappop(heap)
            for k in range(last, L):
                if ranks[k] + 1 < len(ranked[k]):
                    child = ranks[:k] + (ranks[k] + 1,) + ranks[k + 1 :]
                    heapq.heappush(heap, (-weight(child), child, k))
            product = itertools.product(*(members[l][r] for l, r in enumerate(ranks)))
            heapq.heappush(ready, (key, next(product), product))
        key, seq, product = ready[0]
        yield PrefixPath(seq, -key)
        seq = next(product, None)
        if seq is None:
            heapq.heappop(ready)
        else:
            heapq.heapreplace(ready, (key, seq, product))


def top_m_paths_dp(graph: SampleGraph, m: int) -> PathSet:
    """The m best paths, ordered by (log_weight descending, sequence
    ascending); all N_e^L of them when m is larger."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return PathSet(m=m, paths=list(itertools.islice(ranked_paths(graph), m)))


def top_m_paths_bruteforce(graph: SampleGraph, m: int, cap: int = BRUTEFORCE_CAP) -> PathSet:
    """Score every expert sequence; only usable when N_e^L fits under cap."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = graph.experts_per_layer
    total = n**graph.num_layers
    if total > cap:
        raise InvariantError(f"brute force over {total} paths exceeds the cap of {cap}")
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


def oracle_selfcheck(trials: int, seed: int, tol: float = 1e-9) -> tuple[int, list[str]]:
    """Planner-vs-brute-force equivalence over random graphs with L in 2..5 and
    N_e in 2..4, at m in {1, 3, 10, N_e^L}.  Each trial checks the graph,
    its two single-signal ablations, and a copy with one expert duplicated
    (exact ties).  Returns (passes, mismatches)."""
    rng = Rng(seed)
    passes = 0
    mismatches: list[str] = []
    for t in range(trials):
        L = 2 + rng.randrange(4)
        n = 2 + rng.randrange(3)
        graph = random_sample_graph(L, n, rng)
        src = rng.randrange(n)
        twin = with_twin(graph, rng.randrange(L), src, (src + 1 + rng.randrange(n - 1)) % n)
        variants = {
            "graph": graph,
            "no-importance": graph_from_scores(graph.scores, use_importance=False),
            "no-transition": graph_from_scores(graph.scores, use_transition=False),
            "twin": twin,
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
                if worst > tol:
                    mismatches.append(f"{where}: log weights differ by {worst:.3e}")
                    ok = False
        if ok:
            passes += 1
    return passes, mismatches


def load_pathset(path) -> PathSet:
    return load_json(path, "path set", PathSet.from_json)
