"""Calibration-set construction: k-means over mean-token features, one
centroid-nearest representative per cluster.

Every stochastic step goes through the shared SplitMix64 stream and every
tie-break is pinned, so a (features, K, seed) triple always yields the same
calibration set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SampleBatch
from .numerics import Rng, as_finite, as_index, load_json

MAX_ITERS = 100  # Lloyd passes that kmeans runs at most


@dataclass
class KMeansResult:
    centroids: np.ndarray  # K x d
    assignments: np.ndarray  # n ints
    distortion: float  # total within-cluster squared distance
    n_iters: int


@dataclass
class CalibrationSet:  # a record: save_json writes its fields in this order
    K: int
    seed: int
    sample_ids: list[int]
    distortion: float

    @classmethod
    def from_json(cls, obj: dict) -> "CalibrationSet":
        """The set, which must list exactly K distinct sample ids and a
        distortion of at least 0, as a sum of squared distances is."""
        calib = cls(
            sample_ids=[as_index(i, "sample id") for i in obj["sample_ids"]],
            K=as_index(obj["K"], "K", 1),
            seed=as_index(obj["seed"], "seed", None),
            distortion=as_finite(obj["distortion"], "distortion"),
        )
        ids = calib.sample_ids
        if len(ids) != calib.K or len(set(ids)) != len(ids):
            raise ValueError(f"sample_ids must be K = {calib.K} distinct ids, got {ids}")
        if calib.distortion < 0:
            raise ValueError(f"distortion must be >= 0, got {calib.distortion!r}")
        return calib


def featurize(sample: SampleBatch) -> np.ndarray:
    """Arithmetic mean over the sample's token rows."""
    tokens = np.asarray(sample.tokens, dtype=np.float64)
    if tokens.shape[0] < 1:
        raise ValueError("featurize needs at least one token")
    return tokens.mean(axis=0)


def _sq_dists(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Each point's squared distance to center.  einsum overflows to inf
    without raising, even under np.errstate, so an inf is raised here as the
    FloatingPointError numpy.errstate(over="raise") would give."""
    diff = points - center[None, :]
    d2 = np.einsum("ij,ij->i", diff, diff)
    if not np.isfinite(d2).all():
        raise FloatingPointError("overflow encountered in squared distance")
    return d2


def _kmeanspp_init(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    """k-means++ seeding.

    First centroid uniform via randrange(n); each later centroid drawn with
    probability proportional to the squared distance to the nearest centroid
    so far (cumulative-sum scan, strict >, so zero-distance points are never
    re-picked).  If every remaining distance is zero, fall back to the lowest
    index not yet chosen.
    """
    n = points.shape[0]
    chosen = [rng.randrange(n)]
    d2 = _sq_dists(points, points[chosen[0]])
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        else:
            idx = rng.choice_weighted(d2)
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists(points, points[idx]))
    return points[chosen].copy()


def kmeans(features: list[np.ndarray] | np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Assignment ties go to the lower centroid index.  Empty clusters are
    refilled (ascending cluster index) with the point farthest from its
    centroid as measured at this pass's assignment step, before the centroids
    moved (lowest index on ties), among the points whose cluster keeps
    another member; n >= k, so one exists.  Stops when assignments are
    stable, when a pass only undoes the last pass's refills (fewer distinct
    points than clusters), or after MAX_ITERS passes.
    """
    points = np.asarray(features, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("kmeans needs a nonempty list of feature vectors")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"K={k} must be between 1 and the number of points ({n})")

    rng = Rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    unrefilled = assignments  # the last assignment step's result
    iters = 0
    for _ in range(MAX_ITERS):
        iters += 1
        all_d2 = np.stack([_sq_dists(points, centroids[c]) for c in range(k)], axis=1)
        new_assignments = np.argmin(all_d2, axis=1)  # argmin takes lower index on ties
        point_d2 = all_d2[np.arange(n), new_assignments]
        if np.array_equal(new_assignments, assignments) or np.array_equal(
            new_assignments, unrefilled
        ):
            break
        unrefilled = new_assignments
        assignments = new_assignments.copy()

        for c in range(k):
            members = np.nonzero(assignments == c)[0]
            if members.size > 0:
                centroids[c] = points[members].mean(axis=0)
        for c in range(k):
            if not np.any(assignments == c):
                shared = np.bincount(assignments, minlength=k)[assignments] > 1
                far = int(np.argmax(np.where(shared, point_d2, -1.0)))
                centroids[c] = points[far].copy()
                assignments[far] = c

    final_d2 = np.stack([_sq_dists(points, centroids[c]) for c in range(k)], axis=1)
    distortion = float(final_d2[np.arange(n), assignments].sum())
    return KMeansResult(centroids, assignments, distortion, iters)


def select_representatives(
    features: list[np.ndarray] | np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
) -> list[int]:
    """Per cluster, the member nearest its centroid; ties to the lower id."""
    points = np.asarray(features, dtype=np.float64)
    reps = []
    for c in range(centroids.shape[0]):
        members = np.nonzero(assignments == c)[0]
        if members.size == 0:
            raise ValueError(f"cluster {c} is empty; kmeans should have refilled it")
        d2 = _sq_dists(points[members], centroids[c])
        reps.append(int(members[int(np.argmin(d2))]))
    return reps


def build_calibration_set(samples: list[SampleBatch], k: int, seed: int) -> CalibrationSet:
    features = np.stack([featurize(s) for s in samples])
    result = kmeans(features, k, seed)
    ids = select_representatives(features, result.centroids, result.assignments)
    return CalibrationSet(sample_ids=ids, K=k, seed=seed, distortion=result.distortion)


def load_calibration(path) -> CalibrationSet:
    return load_json(path, "calibration set", CalibrationSet.from_json)
