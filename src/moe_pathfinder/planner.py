"""Top-m highest-log-weight paths through the layered expert graph.

A path picks one expert per layer; its log weight is the sum of the node
log-importances along it plus the edge log-transition-intensities between
consecutive picks, accumulated in layer order (path_log_weight).  Ordering
everywhere is (log_weight descending, expert sequence lexicographically
ascending).

Transitions are rank-1, so every log edge matrix is additive up to rounding
and the 1e-300 clamp: log_edge[l][i, j] ~ u_l[i] + v_l[j].  Folding u and v
into the node terms gives per-node scores s_l whose sum S(p) bounds every
path's weight from above, to within a small eps.  top_m_paths_dp enumerates
paths best-first in S over the per-layer sorted score lists (the separable
case of Eppstein's k shortest paths), re-scores each one with
path_log_weight, and stops once no unseen path can reach the m-th best
weight.  Experts whose node term, edge row and edge column are bit-identical
are enumerated as one class and expanded in lexicographic order, so an exact
tie between twins costs one path, not one per member.  The result equals
top_m_paths_bruteforce exactly, sequences and weights, for any finite log
weights.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .numerics import Rng, load_json, save_json
from .scoring import LayerScore, SampleGraph, graph_from_scores

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
            m=int(obj["m"]),
            paths=[
                PrefixPath(tuple(int(i) for i in p["experts"]), float(p["log_weight"]))
                for p in obj["paths"]
            ],
        )


def path_log_weight(graph: SampleGraph, experts) -> float:
    """Sum of node log-importances plus edge log-intensities along the path.

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
    return _accumulate(graph.log_node, graph.log_edge, experts)


def _accumulate(log_node, log_edge, experts) -> float:
    total = log_node[0][experts[0]]
    for l in range(1, len(experts)):
        total = total + log_edge[l - 1][experts[l - 1]][experts[l]] + log_node[l][experts[l]]
    return float(total)


def _twin_classes(graph: SampleGraph) -> list[list[list[int]]]:
    """Per layer, the experts grouped by the bytes of their node term, edge
    row and edge column, each group ascending.  Twins enter path_log_weight
    as identical operands, so swapping them never changes a path's weight."""
    L, n = graph.num_layers, graph.experts_per_layer
    # one row of (node, edge row, edge column) per expert; the missing edge
    # of the first and last layer stays zero for every expert alike
    terms = np.zeros((L, n, 1 + 2 * n))
    terms[:, :, 0] = graph.log_node
    terms[:-1, :, 1 : 1 + n] = graph.log_edge
    terms[1:, :, 1 + n :] = graph.log_edge.transpose(0, 2, 1)
    raw, width = terms.tobytes(), terms.shape[2] * 8
    classes = []
    for l in range(L):
        groups: dict[bytes, list[int]] = {}
        for i in range(n):
            start = (l * n + i) * width
            groups.setdefault(raw[start : start + width], []).append(i)
        classes.append(list(groups.values()))
    return classes


def _node_scores(graph: SampleGraph) -> tuple[np.ndarray, float]:
    """Per-node scores s (L x N_e) and eps with path_log_weight(p) <= S(p) +
    eps for every path p, where S(p) sums s[l][p_l] in layer order.

    Each log_edge[l] = E is split into column terms v, the column means of E
    after its row means are taken out, and row terms u[i] = max_j E[i, j] -
    v[j], the least with u[i] + v[j] >= E[i, j].  For an additive matrix the
    split is exact; otherwise (the 1e-300 clamp, ablations, arbitrary edges)
    it can only overestimate, so S is an upper bound and eps covers just the
    positive residual left by rounding and the rounding of the scores, of S
    and of the canonical accumulation: (3L + 1) roundings of at most 2^-53
    relative each, charged against the summed per-layer maxima of every
    operand, with a factor of two to spare."""
    node, edge = graph.log_node, graph.log_edge
    if not (np.all(np.isfinite(node)) and np.all(np.isfinite(edge))):
        raise ValueError("graph log weights must be finite")
    v = (edge - edge.mean(axis=2)[:, :, None]).mean(axis=1)
    u = (edge - v[:, None, :]).max(axis=2, initial=-np.inf)
    residual = (edge - u[:, :, None] - v[:, None, :]).max(axis=(1, 2), initial=0.0)
    scores = node.copy()
    scores[:-1] += u
    scores[1:] += v
    magnitude = sum(
        float(np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0).sum())
        for x in (node, edge, u, v, scores)
    )
    return scores, float(residual.sum()) + (8 * graph.num_layers + 16) * 2.0**-53 * magnitude


def top_m_paths_dp(graph: SampleGraph, m: int) -> PathSet:
    """The m best paths, ordered by (log_weight descending, sequence
    ascending); all N_e^L of them when m is larger."""
    if m < 1:
        raise ValueError("m must be >= 1")
    L = graph.num_layers
    node_scores, eps = _node_scores(graph)
    # per layer, the twin classes by score descending: a path is one rank per
    # layer, and members[l][r] lists the experts of the class at rank r
    members = [
        sorted(cl, key=lambda c, s=s: (-s[c[0]], c[0]))
        for s, cl in zip(node_scores, _twin_classes(graph))
    ]
    ranked = [[float(s[c[0]]) for c in cl] for s, cl in zip(node_scores, members)]
    log_node, log_edge = graph.log_node.tolist(), graph.log_edge.tolist()

    def bound(ranks) -> float:
        # S(p); a fixed layer order keeps it non-increasing along heap edges
        total = 0.0
        for l in range(L):
            total += ranked[l][ranks[l]]
        return total

    # rank vectors form a tree: the children of r raise one coordinate at or
    # after r's last nonzero one, so each vector is pushed exactly once
    root = (0,) * L
    heap = [(-bound(root), root, 0)]
    groups: dict[float, list[tuple[tuple[int, ...], float]]] = {}  # weight -> rank paths
    group_size: dict[float, int] = {}
    weights: list[float] = []  # min-heap of the keys of groups
    total = 0
    while heap and not (total >= m and -heap[0][0] + eps < weights[0]):
        _, ranks, last = heapq.heappop(heap)
        for k in range(last, L):
            if ranks[k] + 1 < len(ranked[k]):
                child = ranks[:k] + (ranks[k] + 1,) + ranks[k + 1 :]
                heapq.heappush(heap, (-bound(child), child, k))
        w = _accumulate(log_node, log_edge, [members[l][r][0] for l, r in enumerate(ranks)])
        if w not in groups:
            groups[w] = []
            group_size[w] = 0
            heapq.heappush(weights, w)
        groups[w].append((ranks, w))  # w may be -0.0 under the key 0.0
        size = math.prod(len(members[l][r]) for l, r in enumerate(ranks))
        group_size[w] += size
        total += size
        # drop the lightest weight once the heavier ones hold m paths
        while total - group_size[weights[0]] >= m:
            lightest = heapq.heappop(weights)
            total -= group_size.pop(lightest)
            del groups[lightest]

    out: list[PrefixPath] = []
    for key in sorted(groups, reverse=True):
        # tied class paths interleave: merge their member products, each
        # already in lexicographic order
        merged = heapq.merge(*(
            zip(itertools.product(*(members[l][r] for l, r in enumerate(ranks))), itertools.repeat(w))
            for ranks, w in groups[key]
        ))
        out.extend(PrefixPath(seq, w) for seq, w in itertools.islice(merged, m - len(out)))
    return PathSet(m=m, paths=out)


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
    """Synthetic graph with rank-1 transitions, for oracle checks."""
    n = experts_per_layer
    scores = []
    for _ in range(num_layers):
        activation = np.array([rng.uniform(0.0, 2.0) for _ in range(n)])
        routing = np.array([rng.uniform(0.05, 1.0) for _ in range(n)])
        routing = routing / routing.sum()
        importance = np.array([rng.uniform(0.01, 1.0) for _ in range(n)])
        scores.append(LayerScore(activation, routing, np.zeros(n), importance))
    return graph_from_scores(scores)


def with_twin(graph: SampleGraph, layer: int, src: int, dst: int) -> SampleGraph:
    """A copy of graph whose expert dst at the layer repeats expert src's
    scores, so the two are twins: every path through one weighs exactly as
    much as the same path through the other."""
    scores = []
    for l, s in enumerate(graph.layer_scores):
        fields = [s.activation.copy(), s.routing.copy(), s.recon_loss.copy(), s.importance.copy()]
        if l == layer:
            for v in fields:
                v[dst] = v[src]
        scores.append(LayerScore(*fields))
    return graph_from_scores(scores)


def oracle_selfcheck(trials: int, seed: int, tol: float = 1e-9) -> tuple[int, list[str]]:
    """Planner-vs-brute-force equivalence over random graphs with L in 2..5 and
    N_e in 2..4, at m in {1, 3, 10, N_e^L}.  Each trial checks the graph,
    both of its ablate_graph variants, and a copy with one expert duplicated
    (exact ties).  Returns (passes, mismatches)."""
    from .harness import ablate_graph  # harness imports this module

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
            "no-importance": ablate_graph(graph, use_importance=False),
            "no-transition": ablate_graph(graph, use_transition=False),
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


def save_pathset(pathset: PathSet, path) -> None:
    save_json(path, pathset.to_json())


def load_pathset(path) -> PathSet:
    return load_json(path, "path set", PathSet.from_json)
