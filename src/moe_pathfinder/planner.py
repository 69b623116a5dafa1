"""Top-m highest-log-weight paths through the layered expert graph.

A path picks one expert per layer.  Transitions are rank-1, so its log
weight splits into one score per picked expert (SampleGraph.node_scores),
and a path's weight is those scores summed in layer order from 0.0.
Ordering everywhere is (log_weight descending, expert sequence
lexicographically ascending).

ranked_paths enumerates paths best-first over the per-layer sorted score
lists: k-best selection over sums of sorted lists, the separable case of
Eppstein's k shortest paths.  It sums each path in that order, and float
addition is monotone, so no unseen path can outweigh the head of the heap.
The stream is the whole ranking, produced lazily, so every
top-m is a prefix of it: top_m_paths_dp takes the first m, and the sparsity
search reads paths off it one rank at a time.  Experts of one layer with
equal scores are enumerated as one class and expanded in lexicographic
order, so an exact tie between twins costs one heap entry, not one per
member.  Classes and paths share one heap, where a class pops before every
path of its weight, so tied paths leave in sequence order.
The ranking equals the brute force of tests/oracles.py exactly, sequences
and weights.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .numerics import as_finite, as_index, load_json
from .scoring import SampleGraph


@dataclass(frozen=True)
class PrefixPath:  # a record: save_json writes its fields in this order
    experts: tuple[int, ...]
    log_weight: float


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
        # the path's sum in layer order; monotone, so non-increasing along heap edges
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


def load_pathset(path) -> PathSet:
    return load_json(path, "path set", PathSet.from_json)
