"""From per-sample path sets to a dataset-level retention mask and a sparsity
search over m; model.apply_mask, imported here, materializes the pruned model.

Retention is controlled by m only coarsely (each path pins one expert per
layer, and per-sample sets are unioned), so the search advances every
sample's ranked path stream one rank at a time to the first m whose union
meets the kept_count and, on overshoot, trims least-frequently selected
experts back to it without ever emptying a layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError
from .model import apply_mask  # noqa: F401  (re-exported)
from .numerics import as_index, load_json, save_json
from .planner import PathSet, ranked_paths
from .scoring import SampleGraph

M_MAX = 65536  # the sparsity search's default cap on m


@dataclass
class PruneMask:
    keep: np.ndarray  # L x N_e booleans

    @property
    def num_layers(self) -> int:
        return self.keep.shape[0]

    @property
    def experts_per_layer(self) -> int:
        return self.keep.shape[1]

    def retained_total(self) -> int:
        return int(self.keep.sum())

    def retention_fraction(self) -> float:
        return self.retained_total() / self.keep.size

    def to_json(self) -> dict:
        # not a record: the file is a 0/1 grid under an L/Ne header, not its field
        return {
            "L": self.num_layers,
            "Ne": self.experts_per_layer,
            "keep": [[int(v) for v in row] for row in self.keep],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PruneMask":
        keep = np.array(
            [[as_index(v, "keep entry", 0, 2) for v in row] for row in obj["keep"]], dtype=bool
        )
        if keep.shape != (as_index(obj["L"], "L", 1), as_index(obj["Ne"], "Ne", 1)):
            raise ValueError("keep grid does not match the L/Ne header")
        empty = np.flatnonzero(~keep.any(axis=1))
        if empty.size:
            raise ValueError(f"layer {empty[0]} keeps no expert")
        return cls(keep)


@dataclass
class RetentionReport:  # a record: save_json writes its fields in this order
    retained_per_layer: list[int]
    retained_total: int
    retention_fraction: float
    m_used: int
    samples_used: int
    trimmed: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def from_mask(
        cls, mask: PruneMask, m_used: int, samples_used: int, trimmed=()
    ) -> "RetentionReport":
        return cls(
            retained_per_layer=[int(c) for c in mask.keep.sum(axis=1)],
            retained_total=mask.retained_total(),
            retention_fraction=mask.retention_fraction(),
            m_used=m_used,
            samples_used=samples_used,
            trimmed=list(trimmed),
        )


def kept_count(fraction: float, total: int) -> int:
    """Experts a retention `fraction` of `total` keeps: ceil(fraction * total),
    a product within 1e-9 of an integer counting as that integer (0.28 of 25
    is 7.000000000000001 in floats, and keeps 7)."""
    share = fraction * total
    return round(share) if abs(share - round(share)) <= 1e-9 else math.ceil(share)


def selection_frequency(
    pathsets: list[PathSet], num_layers: int, experts_per_layer: int
) -> np.ndarray:
    """count[l][i] = number of (pathset, path) pairs choosing expert i at
    layer l."""
    counts = np.zeros((num_layers, experts_per_layer), dtype=np.int64)
    layers = np.arange(num_layers)
    for ps in pathsets:
        for p in ps.paths:
            if len(p.experts) != num_layers:
                raise ValueError(f"path {p.experts} does not have {num_layers} layers")
            counts[layers, p.experts] += 1
    return counts


def mask_from_pathsets(pathsets: list[PathSet], experts_per_layer: int) -> PruneMask:
    """keep[l][i] is true iff some path of some set chooses expert i at
    layer l; every set must hold at least one path."""
    if not pathsets or not all(ps.paths for ps in pathsets):
        raise ValueError("need at least one path set, and no empty one")
    num_layers = len(pathsets[0].paths[0].experts)
    return PruneMask(selection_frequency(pathsets, num_layers, experts_per_layer) > 0)


def target_sparsity_search(
    graphs: list[SampleGraph],
    target_retention: float,
    m_max: int = M_MAX,
) -> tuple[PruneMask, RetentionReport]:
    """Smallest m whose union mask keeps at least kept_count(target, L * N_e)
    experts, in one lockstep pass: step m draws every sample's m-th ranked
    path, so the mask after it is the union of the top-m path sets.
    Overshoot is trimmed back to exactly that count by ascending selection
    frequency over those paths, pruning higher layers then higher expert
    indices first on ties, and never emptying a layer."""
    if not graphs:
        raise ValueError("need at least one scored sample")
    if not (0.0 < target_retention <= 1.0):
        raise ValueError("target_retention must be in (0, 1]")
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    L = graphs[0].num_layers
    n = graphs[0].experts_per_layer
    if any((g.num_layers, g.experts_per_layer) != (L, n) for g in graphs):
        raise ValueError("graphs disagree on L x N_e")

    target_count = kept_count(target_retention, L * n)
    freq = np.zeros((L, n), dtype=np.int64)
    layers = np.arange(L)
    # same-shape streams all end right after the step that fills the mask
    for m, paths in enumerate(zip(*(ranked_paths(g) for g in graphs)), start=1):
        for path in paths:
            freq[layers, path.experts] += 1
        retained = np.count_nonzero(freq)
        if retained >= target_count:
            break
        if m >= m_max:
            raise InvariantError(
                f"target retention {target_retention} unreachable with m_max={m_max}: "
                f"best achievable fraction is {retained / freq.size:.6f}"
            )

    keep = freq > 0
    trimmed: list[tuple[int, int]] = []
    kept = np.argwhere(keep).tolist()
    # prune order: least frequent first; ties drop deeper layers, then
    # higher expert indices
    kept.sort(key=lambda li: (freq[li[0], li[1]], -li[0], -li[1]))
    for l, i in kept:
        if len(trimmed) == retained - target_count:
            break
        if np.count_nonzero(keep[l]) > 1:
            keep[l, i] = False
            trimmed.append((l, i))
    mask = PruneMask(keep)
    return mask, RetentionReport.from_mask(mask, m, len(graphs), trimmed)


def save_mask(mask: PruneMask, path) -> None:
    save_json(path, mask.to_json())


def load_mask(path) -> PruneMask:
    return load_json(path, "mask", PruneMask.from_json)


def save_report(report: RetentionReport, path) -> None:
    save_json(path, report)


def save_remap(kept: list[list[int]], path) -> None:
    save_json(path, {"kept": kept})
