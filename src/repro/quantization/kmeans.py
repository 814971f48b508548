"""Lloyd's k-means, the clustering primitive of the whole pipeline.

Both stages of IVFPQ training are k-means runs (Alg. 1 in the paper):

* the coarse ``C``-way clustering that builds the inverted file index, and
* the ``E``-way clustering of residual projections in every subspace that
  builds each PQ codebook.

The implementation is deliberately self-contained (no scikit-learn) with
k-means++ initialisation, empty-cluster repair and blocked assignment: the
distance matrix is built in place, a cache-sized block of rows (never more
than ``batch_size``) by ``k`` columns at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes of one float64 distance block: written by the matrix product, updated in place
# four times, read by ``argmin`` -- in L2 at 1 MiB, in memory at the 4 MiB it used to be.
_BLOCK_BYTES = 1 << 20


def _finish_distances(cross: np.ndarray, x_sq: np.ndarray, c_sq) -> None:
    """Turn ``x.c`` into clipped ``|x|^2 - 2 x.c + |c|^2``, in place."""
    cross *= -2.0
    cross += x_sq
    cross += c_sq
    np.maximum(cross, 0.0, out=cross)


def _draw_proportional(weights: np.ndarray, cdf: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(n, p=weights / weights.sum())`` minus its per-call validation of
    ``p``: the same cdf (built in ``cdf``), one uniform draw, the same search."""
    total = float(weights.sum())
    if not np.isfinite(total):
        raise ValueError("cannot seed k-means from non-finite points")
    if total <= 0.0:
        # Every point coincides with a chosen centroid: sample uniformly.
        return int(rng.integers(0, weights.shape[0]))
    np.divide(weights, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _assign_blocks(
    points: np.ndarray,
    centroids: np.ndarray,
    batch_size: int,
    points_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """:func:`assign_labels`; ``points_sq`` (``(N,)``) is squared per block if not held."""
    n, k = points.shape[0], centroids.shape[0]
    budget_rows = max(1, _BLOCK_BYTES // (8 * k))
    c_sq = np.sum(centroids**2, axis=1)
    block = np.empty((min(budget_rows, batch_size, n), k), dtype=np.float64)
    lanes = np.arange(block.shape[0])
    labels = np.empty(n, dtype=np.int64)
    inertia = 0.0
    # Inertia is summed per ``batch_size`` rows, as it always was, and a batch
    # is cut into equal blocks: BLAS picks its kernel by shape, and a tail of
    # a few rows multiplied alone can differ from a tall block in the last bit.
    for batch_start in range(0, n, batch_size):
        batch_stop = min(batch_start + batch_size, n)
        num_blocks = -(-(batch_stop - batch_start) // budget_rows)
        rows = -(-(batch_stop - batch_start) // num_blocks)
        nearest = []
        for start in range(batch_start, batch_stop, rows):
            stop = min(start + rows, batch_stop)
            chunk, dist = points[start:stop], block[: stop - start]
            np.matmul(chunk, centroids.T, out=dist)
            x_sq = np.sum(chunk**2, axis=1) if points_sq is None else points_sq[start:stop]
            _finish_distances(dist, x_sq[:, None], c_sq)
            np.argmin(dist, axis=1, out=labels[start:stop])
            nearest.append(dist[lanes[: len(dist)], labels[start:stop]])
        inertia += float(np.concatenate(nearest).sum())
    return labels, inertia


def assign_labels(
    points: np.ndarray, centroids: np.ndarray, batch_size: int = 4096
) -> tuple[np.ndarray, float]:
    """Nearest-centroid assignment in cache-sized row blocks.

    The assignment half of Lloyd's algorithm, shared by :class:`KMeans`, PQ
    encoding (:meth:`repro.quantization.codebook.SubspaceCodebook.encode`)
    and the out-of-core build pipeline (:mod:`repro.build`): build workers
    assign memory-mapped corpus chunks against centroids fitted on a sample
    without constructing a :class:`KMeans` instance.  The resulting argmin
    labels are independent of how callers group the rows.

    Args:
        points: ``(N, D)`` rows to assign.
        centroids: ``(k, D)`` cluster centres.
        batch_size: upper cap on the rows of a distance block.

    Returns:
        ``(labels, inertia)``: ``(N,)`` int64 nearest-centroid ids and the
        summed squared distance to the assigned centroids.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    return _assign_blocks(points, centroids, int(batch_size))


@dataclass
class KMeansResult:
    """Outcome of a k-means fit.

    Attributes:
        centroids: ``(k, D)`` cluster centres.
        labels: ``(N,)`` assignment of each training point.
        inertia: final sum of squared distances to assigned centroids.
        iterations: number of Lloyd iterations actually run.
        converged: whether the centroid shift fell below tolerance.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Args:
        n_clusters: number of clusters ``k``.
        max_iter: maximum Lloyd iterations.
        tol: relative centroid-shift tolerance for convergence.
        seed: RNG seed for initialisation.
        batch_size: upper cap on the rows of an assignment distance block.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 25,
        tol: float = 1e-4,
        seed: int = 0,
        batch_size: int = 4096,
    ) -> None:
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.seed = int(seed)
        self.batch_size = int(batch_size)
        self.result_: KMeansResult | None = None

    # ------------------------------------------------------------------ fit
    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` and return (and cache) the :class:`KMeansResult`."""
        # A PQ subspace arrives as a strided column slice: pack it once.
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-dimensional, got shape {points.shape}")
        n, _ = points.shape
        if n == 0:
            raise ValueError("cannot cluster an empty point set")
        k = min(self.n_clusters, n)
        rng = np.random.default_rng(self.seed)
        # Squared once per fit: seeding and every assignment reuse it.
        points_sq = np.sum(points**2, axis=1)
        centroids = self._kmeanspp_init(points, points_sq, k, rng)

        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            labels, _ = _assign_blocks(points, centroids, self.batch_size, points_sq)
            new_centroids = self._update(points, labels, centroids, rng)
            shift = float(np.linalg.norm(new_centroids - centroids))
            scale = float(np.linalg.norm(centroids)) + 1e-12
            centroids = new_centroids
            if shift / scale < self.tol:
                converged = True
                break
        labels, inertia = _assign_blocks(points, centroids, self.batch_size, points_sq)
        self.result_ = KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=inertia,
            iterations=iteration,
            converged=converged,
        )
        return self.result_

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign new points to the trained centroids."""
        if self.result_ is None:
            raise RuntimeError("KMeans.predict called before fit")
        return assign_labels(points, self.result_.centroids, self.batch_size)[0]

    # ------------------------------------------------------------ internals
    def _kmeanspp_init(
        self, points: np.ndarray, points_sq: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        n = points.shape[0]
        centroids = np.empty((k, points.shape[1]), dtype=np.float64)
        closest_sq = np.full(n, np.inf)
        new_sq, cdf = np.empty(n, dtype=np.float64), np.empty(n, dtype=np.float64)
        for i in range(k):
            choice = _draw_proportional(closest_sq, cdf, rng) if i else rng.integers(0, n)
            centroids[i] = points[choice]
            np.matmul(points, centroids[i], out=new_sq)
            _finish_distances(new_sq, points_sq, points_sq[choice])
            np.minimum(closest_sq, new_sq, out=closest_sq)
        return centroids

    def _update(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        k, dim = centroids.shape
        counts = np.bincount(labels, minlength=k)
        sums = np.empty((k, dim), dtype=np.float64)
        # Per column, ``bincount`` adds a cluster's rows in row order, as ``np.add.at`` did.
        for axis in range(dim):
            sums[:, axis] = np.bincount(labels, weights=points[:, axis], minlength=k)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Empty-cluster repair: reseed from a random point so every codebook
        # entry remains usable (matters for small subspace codebooks).
        for cluster_id in np.flatnonzero(~nonempty):
            new_centroids[cluster_id] = points[rng.integers(0, points.shape[0])]
        return new_centroids
