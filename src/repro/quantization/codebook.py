"""Per-subspace codebook container used by product quantization.

A :class:`SubspaceCodebook` owns the ``E`` entry centroids of one
``M``-dimensional subspace and provides the two operations the pipeline
needs: encoding residual projections to entry ids, and computing the query
projection / entry distance table that becomes one slice of the L2-LUT.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.distances import Metric, inner_product_matrix, l2_squared_matrix
from repro.quantization.kmeans import assign_labels


class SubspaceCodebook:
    """Codebook of ``E`` entries for a single PQ subspace.

    Args:
        entries: ``(E, M)`` centroid matrix for this subspace.
        subspace_id: index ``s`` of the subspace this codebook belongs to.
    """

    def __init__(self, entries: np.ndarray, subspace_id: int) -> None:
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-D (E, M) array")
        self.entries = entries
        self.subspace_id = int(subspace_id)

    @property
    def num_entries(self) -> int:
        """Number of codebook entries ``E``."""
        return int(self.entries.shape[0])

    @property
    def subspace_dim(self) -> int:
        """Subspace dimensionality ``M``."""
        return int(self.entries.shape[1])

    def encode(self, projections: np.ndarray) -> np.ndarray:
        """Encode residual projections as the id of the nearest entry.

        Args:
            projections: ``(N, M)`` residual projections in this subspace.

        Returns:
            ``(N,)`` int array of entry ids.
        """
        return assign_labels(np.atleast_2d(projections), self.entries)[0].astype(np.int32)

    def distance_table(
        self, query_projection: np.ndarray, metric: Metric = Metric.L2
    ) -> np.ndarray:
        """Distance (or similarity) of a query projection to every entry.

        This is one row of the dense L2-LUT the baseline constructs; JUNO
        replaces it with the selective construction of
        :mod:`repro.core.selective_lut`.
        """
        query_projection = np.asarray(query_projection, dtype=np.float64).reshape(1, -1)
        if metric is Metric.L2:
            return l2_squared_matrix(query_projection, self.entries).ravel()
        return inner_product_matrix(query_projection, self.entries).ravel()

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map entry ids back to their centroid coordinates."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self.num_entries):
            raise ValueError("code id out of range for this codebook")
        return self.entries[codes]
