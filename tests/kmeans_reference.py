"""Reference k-means the blocked ``KMeans`` is pinned against.

Not a test module: the oracle ``test_quantization_kmeans.py`` and
``test_quantization_pq.py`` share.  :func:`reference_fit` and
:func:`reference_assign` are the body ``src/repro/quantization/kmeans.py``
shipped before each fit squared its points once: k-means++ seeding through
``Generator.choice(n, p=)`` with a fresh ``l2_squared_matrix`` per centroid,
assignment through a whole ``l2_squared_matrix`` per ``batch_size`` rows, the
centroid update through ``np.add.at``.  The blocked implementation must
reproduce its centroids, labels, inertia and the state its generator is left
in byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.distances import l2_squared_matrix


def reference_assign(
    points: np.ndarray, centroids: np.ndarray, batch_size: int = 4096
) -> tuple[np.ndarray, float]:
    """Nearest-centroid labels and inertia, one distance matrix per batch."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    inertia = 0.0
    for start in range(0, n, int(batch_size)):
        batch = points[start : start + int(batch_size)]
        dist = l2_squared_matrix(batch, centroids)
        batch_labels = np.argmin(dist, axis=1)
        labels[start : start + batch.shape[0]] = batch_labels
        inertia += float(dist[np.arange(batch.shape[0]), batch_labels].sum())
    return labels, inertia


def _reference_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(0, n)]
    closest_sq = l2_squared_matrix(points, centroids[0:1]).ravel()
    for i in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            choice = rng.integers(0, n)
        else:
            choice = rng.choice(n, p=closest_sq / total)
        centroids[i] = points[choice]
        new_sq = l2_squared_matrix(points, centroids[i : i + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def reference_update(
    points: np.ndarray, labels: np.ndarray, centroids: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    k, dim = centroids.shape
    sums = np.zeros((k, dim), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(sums, labels, points)
    np.add.at(counts, labels, 1)
    new_centroids = centroids.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    for cluster_id in np.flatnonzero(~nonempty):
        new_centroids[cluster_id] = points[rng.integers(0, points.shape[0])]
    return new_centroids


def reference_fit(
    points: np.ndarray,
    n_clusters: int,
    max_iter: int = 25,
    tol: float = 1e-4,
    seed: int = 0,
    batch_size: int = 4096,
) -> dict:
    """Lloyd's algorithm as ``KMeans.fit`` once ran it.

    Returns:
        The fields of ``KMeansResult`` plus ``rng_state``, the bit-generator
        state after the fit (every draw the fit made, in order).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    k = min(int(n_clusters), n)
    rng = np.random.default_rng(seed)
    centroids = _reference_init(points, k, rng)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        labels, _ = reference_assign(points, centroids, batch_size)
        new_centroids = reference_update(points, labels, centroids, rng)
        shift = float(np.linalg.norm(new_centroids - centroids))
        scale = float(np.linalg.norm(centroids)) + 1e-12
        centroids = new_centroids
        if shift / scale < tol:
            converged = True
            break
    labels, inertia = reference_assign(points, centroids, batch_size)
    return {
        "centroids": centroids,
        "labels": labels,
        "inertia": inertia,
        "iterations": iteration,
        "converged": converged,
        "rng_state": rng.bit_generator.state,
    }
