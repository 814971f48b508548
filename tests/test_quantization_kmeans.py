"""Unit tests for the k-means clustering primitive."""

import functools
import tracemalloc

import numpy as np
import pytest

from kmeans_reference import reference_assign, reference_fit, reference_update
from repro.quantization import kmeans as kmeans_module
from repro.quantization.kmeans import KMeans, assign_labels


def _blobs(rng, centres, per_cluster=50, spread=0.05):
    points = []
    for centre in centres:
        points.append(centre + spread * rng.standard_normal((per_cluster, len(centre))))
    return np.vstack(points)


class TestKMeans:
    def test_recovers_well_separated_clusters(self, rng):
        centres = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        points = _blobs(rng, centres)
        result = KMeans(n_clusters=4, seed=0).fit(points)
        # Every true centre should have a learned centroid very close to it.
        for centre in centres:
            distances = np.linalg.norm(result.centroids - centre, axis=1)
            assert distances.min() < 0.5

    def test_labels_match_closest_centroid(self, rng):
        points = rng.standard_normal((200, 3))
        km = KMeans(n_clusters=5, seed=1)
        result = km.fit(points)
        dist = np.linalg.norm(points[:, None, :] - result.centroids[None, :, :], axis=2)
        np.testing.assert_array_equal(result.labels, np.argmin(dist, axis=1))

    def test_inertia_decreases_vs_single_cluster(self, rng):
        points = _blobs(rng, np.array([[0.0, 0.0], [5.0, 5.0]]))
        one = KMeans(n_clusters=1, seed=0).fit(points).inertia
        two = KMeans(n_clusters=2, seed=0).fit(points).inertia
        assert two < one

    def test_predict_consistent_with_fit(self, rng):
        points = rng.standard_normal((300, 4))
        km = KMeans(n_clusters=6, seed=2)
        result = km.fit(points)
        np.testing.assert_array_equal(km.predict(points), result.labels)

    def test_clusters_clipped_to_points(self, rng):
        points = rng.standard_normal((3, 2))
        result = KMeans(n_clusters=10, seed=0).fit(points)
        assert result.centroids.shape[0] == 3

    def test_every_cluster_nonempty_after_repair(self, rng):
        # Duplicated points provoke empty clusters, which must be reseeded.
        points = np.repeat(rng.standard_normal((4, 2)), 25, axis=0)
        result = KMeans(n_clusters=4, seed=0).fit(points)
        assert result.centroids.shape == (4, 2)
        assert np.isfinite(result.centroids).all()

    def test_deterministic_given_seed(self, rng):
        points = rng.standard_normal((150, 3))
        a = KMeans(n_clusters=5, seed=42).fit(points)
        b = KMeans(n_clusters=5, seed=42).fit(points)
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_invalid_inputs_raise(self, rng):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(rng.standard_normal(5))
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.zeros((0, 3)))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(n_clusters=2).predict(np.zeros((3, 2)))

    def test_batched_assignment_matches_unbatched(self, rng):
        points = rng.standard_normal((500, 4))
        small_batch = KMeans(n_clusters=7, seed=5, batch_size=13).fit(points)
        big_batch = KMeans(n_clusters=7, seed=5, batch_size=10_000).fit(points)
        np.testing.assert_allclose(small_batch.centroids, big_batch.centroids)


def _fit_capturing_rng(monkeypatch, points, **kwargs):
    """``KMeans(**kwargs).fit(points)`` and the state its generator is left in."""
    made = []
    default_rng = np.random.default_rng

    def capture(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", capture)
        result = KMeans(**kwargs).fit(points)
    (rng,) = made
    return result, rng.bit_generator.state


def _wide(rows=8000, seed=0):
    points = np.random.default_rng(seed).standard_normal((rows, 96))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


@functools.cache
def _parity_cases():
    wide = _wide()
    duplicated = np.repeat(np.random.default_rng(1).standard_normal((4, 2)), 25, axis=0)
    return {
        # one PQ subspace of the ledger: a strided column slice, 8 blocks
        "d2-k128": (wide[:, 4:6], dict(n_clusters=128, max_iter=10, seed=3)),
        # the ledger's coarse quantizer
        "d96-k64": (wide, dict(n_clusters=64, max_iter=10, seed=0)),
        "n-less-than-k": (wide[:50, :2], dict(n_clusters=128, max_iter=10, seed=0)),
        # only 4 distinct points: seeding runs out of mass (total <= 0) and
        # falls back to uniform draws
        "duplicated": (duplicated, dict(n_clusters=8, max_iter=10, seed=0)),
        "max-iter-hit": (wide[:, :2], dict(n_clusters=16, max_iter=2, seed=0)),
        "converged": (wide[:2000, :2], dict(n_clusters=4, max_iter=200, tol=1e-3, seed=0)),
        # batches whose last block is one row, a shape BLAS multiplies
        # with another kernel than a tall block
        "one-row-tail": (wide[:2049, 8:10], dict(n_clusters=128, max_iter=3, seed=5)),
        "one-row-tail-batch": (wide[:4097, :2], dict(n_clusters=128, max_iter=3, seed=5)),
        "short-batches": (
            wide[:7777, 10:12],
            dict(n_clusters=128, max_iter=5, seed=9, batch_size=1000),
        ),
    }


_PARITY_NAMES = (
    "d2-k128",
    "d96-k64",
    "n-less-than-k",
    "duplicated",
    "max-iter-hit",
    "converged",
    "one-row-tail",
    "one-row-tail-batch",
    "short-batches",
)


class TestMatchesReference:
    """The blocked fit against the pre-change body, byte for byte."""

    @pytest.mark.parametrize("case", _PARITY_NAMES)
    def test_fit_bytes_and_rng_stream(self, monkeypatch, case):
        assert set(_PARITY_NAMES) == set(_parity_cases())
        points, kwargs = _parity_cases()[case]
        expected = reference_fit(points, **kwargs)
        result, rng_state = _fit_capturing_rng(monkeypatch, points, **kwargs)
        assert result.centroids.tobytes() == expected["centroids"].tobytes()
        assert result.labels.tobytes() == expected["labels"].tobytes()
        assert np.float64(result.inertia).tobytes() == np.float64(expected["inertia"]).tobytes()
        assert (result.iterations, result.converged) == (
            expected["iterations"],
            expected["converged"],
        )
        assert rng_state == expected["rng_state"]

    def test_cases_end_both_ways(self):
        for case, converged in (("converged", True), ("max-iter-hit", False)):
            points, kwargs = _parity_cases()[case]
            assert KMeans(**kwargs).fit(points).converged is converged

    def test_forced_empty_cluster_reseeds_with_the_same_draws(self, rng):
        points = rng.standard_normal((300, 2))
        centroids = np.vstack([points[:5], [[50.0, 50.0], [-60.0, 40.0]]])
        labels, _ = assign_labels(points, centroids)
        assert set(labels.tolist()) == set(range(5))  # clusters 5 and 6 are empty
        ours_rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        ours = KMeans(n_clusters=7)._update(points, labels, centroids, ours_rng)
        expected = reference_update(points, labels, centroids, reference_rng)
        assert ours.tobytes() == expected.tobytes()
        assert ours_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_non_finite_points_still_rejected_by_seeding(self):
        points = np.ones((10, 2))
        points[3, 0] = np.nan
        with pytest.raises(ValueError):
            KMeans(n_clusters=3).fit(points)


class TestBlockInvariance:
    """The byte budget decides speed and memory, not results."""

    @pytest.mark.parametrize("name", ["d2-k128", "d96-k64"])
    def test_whole_matrix_block_is_byte_identical(self, monkeypatch, name):
        points, kwargs = _parity_cases()[name]
        expected = KMeans(**kwargs).fit(points)
        monkeypatch.setattr(kmeans_module, "_BLOCK_BYTES", 1 << 40)
        result = KMeans(**kwargs).fit(points)
        assert result.centroids.tobytes() == expected.centroids.tobytes()
        assert result.labels.tobytes() == expected.labels.tobytes()
        assert result.inertia == expected.inertia

    @pytest.mark.parametrize("name", ["d2-k128", "d96-k64"])
    def test_one_row_blocks_give_the_same_clustering(self, monkeypatch, name):
        # One-row products go through BLAS's vector kernel, whose distances
        # can differ from the matrix kernel's in the last bit: the labels, and
        # with them the centroids, still agree; inertia to rounding.
        points, kwargs = _parity_cases()[name]
        points, kwargs = points[:1500], {**kwargs, "max_iter": 3}
        expected = KMeans(**kwargs).fit(points)
        monkeypatch.setattr(kmeans_module, "_BLOCK_BYTES", 1)
        result = KMeans(**kwargs).fit(points)
        assert result.centroids.tobytes() == expected.centroids.tobytes()
        assert result.labels.tobytes() == expected.labels.tobytes()
        assert result.inertia == pytest.approx(expected.inertia, rel=1e-12)

    def test_assign_labels_matches_reference_on_any_input_layout(self):
        wide = _wide(3000, seed=2)
        centroids = wide[::50, 6:8]
        for points in (wide[:, 6:8], np.ascontiguousarray(wide[:, 6:8]), wide[:1, 6:8]):
            labels, inertia = assign_labels(points, centroids)
            expected_labels, expected_inertia = reference_assign(points, centroids)
            assert labels.tobytes() == expected_labels.tobytes()
            assert inertia == expected_inertia


class TestAssignMemory:
    def test_peak_is_one_block_plus_labels(self):
        # The ledger's PQ shape.  The parent built four 4 MiB temporaries per
        # 4096-row batch here; a block is 1 MiB and updated in place.
        rng = np.random.default_rng(3)
        points, centroids = rng.standard_normal((8000, 2)), rng.standard_normal((128, 2))
        tracemalloc.start()
        try:
            labels, _ = assign_labels(points, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kmeans_module._BLOCK_BYTES + labels.nbytes + (1 << 20)
