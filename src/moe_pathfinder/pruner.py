"""From per-sample path sets to a dataset-level retention mask, a sparsity
search over m, and the materialized pruned model.

Retention is controlled by m only coarsely (each path pins one expert per
layer, and per-sample sets are unioned), so the search finds the smallest m
whose union meets the target and, on overshoot, trims least-frequently
selected experts back to the exact budget without ever emptying a layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError
from .model import MoEConfig, MoELayer, MoEModel
from .numerics import load_json, save_json
from .planner import PathSet, top_m_paths_dp
from .scoring import SampleGraph


@dataclass
class PruneMask:
    keep: np.ndarray  # L x N_e booleans

    @property
    def num_layers(self) -> int:
        return self.keep.shape[0]

    @property
    def experts_per_layer(self) -> int:
        return self.keep.shape[1]

    def retained(self, layer: int) -> set[int]:
        return set(int(i) for i in np.nonzero(self.keep[layer])[0])

    def retained_total(self) -> int:
        return int(self.keep.sum())

    def retention_fraction(self) -> float:
        return self.retained_total() / self.keep.size

    @classmethod
    def all_true(cls, num_layers: int, experts_per_layer: int) -> "PruneMask":
        return cls(np.ones((num_layers, experts_per_layer), dtype=bool))

    def to_json(self) -> dict:
        return {
            "L": self.num_layers,
            "Ne": self.experts_per_layer,
            "keep": [[int(v) for v in row] for row in self.keep],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PruneMask":
        keep = np.array(obj["keep"], dtype=bool)
        if keep.shape != (int(obj["L"]), int(obj["Ne"])):
            raise ValueError("keep grid does not match the L/Ne header")
        return cls(keep)


@dataclass
class RetentionReport:
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

    def to_json(self) -> dict:
        return {
            "retained_per_layer": list(self.retained_per_layer),
            "retained_total": self.retained_total,
            "retention_fraction": self.retention_fraction,
            "m_used": self.m_used,
            "samples_used": self.samples_used,
            "trimmed": [[l, i] for l, i in self.trimmed],
        }


def experts_from_paths(pathset: PathSet) -> list[set[int]]:
    """Per-layer set of expert indices appearing on any selected path."""
    if not pathset.paths:
        raise ValueError("pathset is empty")
    num_layers = len(pathset.paths[0].experts)
    sets: list[set[int]] = [set() for _ in range(num_layers)]
    for p in pathset.paths:
        for l, i in enumerate(p.experts):
            sets[l].add(i)
    return sets


def union_masks(per_sample_sets: list[list[set[int]]], experts_per_layer: int) -> PruneMask:
    """keep[l][i] is true iff any sample retains expert i at layer l."""
    if not per_sample_sets:
        raise ValueError("need at least one per-sample expert set")
    num_layers = len(per_sample_sets[0])
    keep = np.zeros((num_layers, experts_per_layer), dtype=bool)
    for sets in per_sample_sets:
        if len(sets) != num_layers:
            raise ValueError("inconsistent layer counts across samples")
        for l, s in enumerate(sets):
            for i in s:
                keep[l, i] = True
    return PruneMask(keep)


def mask_from_pathsets(pathsets: list[PathSet], experts_per_layer: int) -> PruneMask:
    return union_masks([experts_from_paths(ps) for ps in pathsets], experts_per_layer)


def selection_frequency(
    pathsets: list[PathSet],
    num_layers: int,
    experts_per_layer: int,
    outlier_ids: set[tuple[int, int]] | None = None,
) -> np.ndarray:
    """count[l][i] = number of (pathset, path) pairs choosing expert i at
    layer l.  Outlier experts are overwritten with the global maximum count
    (a visualization convention; never applied to masks)."""
    counts = np.zeros((num_layers, experts_per_layer), dtype=np.int64)
    for ps in pathsets:
        for p in ps.paths:
            for l, i in enumerate(p.experts):
                counts[l, i] += 1
    if outlier_ids:
        peak = int(counts.max())
        for l, i in outlier_ids:
            counts[l, i] = peak
    return counts


def _plan_all(graphs: list[SampleGraph], m: int) -> list[PathSet]:
    return [top_m_paths_dp(g, m) for g in graphs]


def target_sparsity_search(
    graphs: list[SampleGraph],
    target_retention: float,
    m_max: int = 65536,
) -> tuple[PruneMask, RetentionReport]:
    """Smallest m (doubling, then integer bisection) whose union mask retains
    at least the target fraction; overshoot is trimmed back to exactly
    ceil(target * L * N_e) experts by ascending selection frequency, pruning
    higher layers then higher expert indices first on ties, and never
    emptying a layer."""
    if not graphs:
        raise ValueError("need at least one scored sample")
    if not (0.0 < target_retention <= 1.0):
        raise ValueError("target_retention must be in (0, 1]")
    L = graphs[0].num_layers
    n = graphs[0].experts_per_layer

    def retention_at(m: int) -> tuple[PruneMask, list[PathSet]]:
        pathsets = _plan_all(graphs, m)
        return mask_from_pathsets(pathsets, n), pathsets

    m = 1
    mask, pathsets = retention_at(m)
    if mask.retention_fraction() < target_retention:
        lo = m  # largest m known to fall short
        while True:
            if m >= m_max:
                raise InvariantError(
                    f"target retention {target_retention} unreachable with m_max={m_max}: "
                    f"best achievable fraction is {mask.retention_fraction():.6f}"
                )
            m = min(m * 2, m_max)
            mask, pathsets = retention_at(m)
            if mask.retention_fraction() >= target_retention:
                break
            lo = m
        hi = m
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            cand_mask, cand_sets = retention_at(mid)
            if cand_mask.retention_fraction() >= target_retention:
                hi, mask, pathsets = mid, cand_mask, cand_sets
            else:
                lo = mid
        m = hi

    target_count = int(np.ceil(target_retention * L * n))
    trimmed: list[tuple[int, int]] = []
    if mask.retained_total() > target_count:
        freq = selection_frequency(pathsets, L, n)
        kept = [(l, i) for l in range(L) for i in range(n) if mask.keep[l, i]]
        # prune order: least frequent first; ties drop deeper layers, then
        # higher expert indices
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


def apply_mask(model: MoEModel, mask: PruneMask) -> tuple[MoEModel, list[list[int]]]:
    """Materialize the pruned model: drop non-retained expert matrices and
    their router rows, order preserved.

    Returns (pruned_model, kept) where kept[l] lists the original expert ids
    in their new order (so kept[l][new_id] == old_id).
    """
    cfg = model.config
    if mask.keep.shape != (cfg.num_layers, cfg.experts_per_layer):
        raise ValueError(
            f"mask shape {mask.keep.shape} does not match model "
            f"({cfg.num_layers}, {cfg.experts_per_layer})"
        )
    kept: list[list[int]] = []
    layers = []
    for l, layer in enumerate(model.layers):
        ids = [int(i) for i in np.nonzero(mask.keep[l])[0]]
        if not ids:
            raise InvariantError(f"layer {l} fully pruned: mask retains no experts")
        kept.append(ids)
        layers.append(
            MoELayer(
                experts=[layer.experts[i].copy() for i in ids],
                router=layer.router[ids].copy(),
            )
        )
    pruned_cfg = MoEConfig(
        num_layers=cfg.num_layers,
        experts_per_layer=cfg.experts_per_layer,
        hidden_dim=cfg.hidden_dim,
        top_k=cfg.top_k,
        nonlinearity=cfg.nonlinearity,
        layer_expert_counts=tuple(len(ids) for ids in kept),
    )
    return MoEModel(config=pruned_cfg, layers=layers), kept


def save_mask(mask: PruneMask, path) -> None:
    save_json(path, mask.to_json())


def load_mask(path) -> PruneMask:
    return load_json(path, "mask", PruneMask.from_json)


def save_report(report: RetentionReport, path) -> None:
    save_json(path, report.to_json())


def save_remap(kept: list[list[int]], path) -> None:
    save_json(path, {"kept": kept})
