import numpy as np
import pytest

from moe_pathfinder.calibration import (
    build_calibration_set,
    featurize,
    kmeans,
    load_calibration,
    save_calibration,
    select_representatives,
)
from moe_pathfinder.model import SampleBatch
from moe_pathfinder.numerics import Rng


def test_featurize_single_token():
    tok = np.array([[1.0, -2.0, 0.5]])
    assert np.array_equal(featurize(SampleBatch(tok)), tok[0])


def test_featurize_mean_and_order_invariance():
    tokens = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert np.array_equal(featurize(SampleBatch(tokens)), [2.0, 2.0])
    assert np.array_equal(
        featurize(SampleBatch(tokens)), featurize(SampleBatch(tokens[::-1]))
    )


def test_kmeans_k1_centroid_is_global_mean():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((20, 3))
    result = kmeans(points, 1, seed=7)
    assert np.allclose(result.centroids[0], points.mean(axis=0), rtol=1e-12)
    assert np.all(result.assignments == 0)


def test_kmeans_k_equals_n_distinct_points():
    points = np.arange(10, dtype=float).reshape(5, 2) * 3.0
    result = kmeans(points, 5, seed=1)
    assert result.distortion == 0.0
    assert sorted(result.assignments) == [0, 1, 2, 3, 4]


def test_kmeans_k_too_large_rejected():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, seed=0)


def blob_points(seed):
    # two tight blobs at +-(10, 10): any correct k-means separates them
    rng = Rng(seed)
    pts, labels = [], []
    for label, center in enumerate([(10.0, 10.0), (-10.0, -10.0)]):
        for _ in range(15):
            pts.append(
                [center[0] + rng.uniform(-0.1, 0.1), center[1] + rng.uniform(-0.1, 0.1)]
            )
            labels.append(label)
    return np.array(pts), np.array(labels)


def test_kmeans_separates_blobs():
    points, labels = blob_points(5)
    result = kmeans(points, 2, seed=13)
    a = result.assignments
    # same partition, up to cluster relabeling
    assert (np.all(a == labels) or np.all(a == 1 - labels))


def test_kmeans_distortion_never_increases():
    rng = np.random.default_rng(4)
    for seed in range(10):
        points = rng.standard_normal((40, 4))
        result = kmeans(points, 5, seed=seed)
        hist = result.distortion_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_seed_reproducible():
    points = np.random.default_rng(9).standard_normal((30, 3))
    a = kmeans(points, 4, seed=77)
    b = kmeans(points, 4, seed=77)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.centroids.tobytes() == b.centroids.tobytes()


def test_kmeans_refill_of_identical_points_takes_the_lowest_index():
    # every point ties with both seeds, so the first pass assigns all of them
    # to cluster 0 and cluster 1 is refilled with point 0
    result = kmeans(np.full((4, 2), 0.1), 2, seed=0, max_iters=1)
    assert result.assignments.tolist() == [1, 0, 0, 0]


def test_kmeans_refill_ranks_points_at_the_assignment_step():
    # seeds 9, 8, 0; pass 1 moves centroids to 9, 20/3, 1.5; pass 2 empties
    # cluster 1.  Measured against the centroids pass 2 assigned with, point 2
    # (4.0, at 6.25 from 1.5) is the farthest; after the update point 0 would
    # be (0.0, at 49/9 from 7/3).  The refill takes point 2.
    points = np.array([[0.0], [8.0], [4.0], [9.0], [8.0], [3.0]])
    result = kmeans(points, 3, seed=44, max_iters=2)
    assert result.assignments.tolist() == [2, 0, 1, 0, 0, 2]
    assert result.centroids[1, 0] == 4.0


def test_select_representatives_singleton_cluster():
    points = np.array([[5.0, 5.0]])
    result = kmeans(points, 1, seed=0)
    assert select_representatives(points, result.centroids, result.assignments) == [0]


def test_select_representatives_nearest_by_hand():
    points = np.array([[0.0], [1.0], [10.0]])
    centroids = np.array([[11.0 / 3.0]])
    assignments = np.zeros(3, dtype=int)
    assert select_representatives(points, centroids, assignments) == [1]


def test_select_representatives_one_per_blob():
    points, labels = blob_points(6)
    result = kmeans(points, 2, seed=3)
    reps = select_representatives(points, result.centroids, result.assignments)
    assert len(reps) == 2
    assert len(set(reps)) == 2
    assert {labels[r] for r in reps} == {0, 1}


def test_build_calibration_set_roundtrip(tmp_path):
    rng = Rng(8)
    samples = [
        SampleBatch(np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)]))
        for _ in range(12)
    ]
    calib = build_calibration_set(samples, 3, seed=5)
    assert len(calib.sample_ids) == 3
    assert len(set(calib.sample_ids)) == 3
    again = build_calibration_set(samples, 3, seed=5)
    assert calib.sample_ids == again.sample_ids

    path = tmp_path / "calib.json"
    save_calibration(calib, path)
    back = load_calibration(path)
    assert back == calib
