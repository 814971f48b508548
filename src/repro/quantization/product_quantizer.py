"""Product quantization (PQ).

PQ (Sec. 2.1, steps 2-4 of Fig. 1) splits the ``D``-dimensional space into
``D/M`` subspaces of ``M`` dimensions each, clusters the residual projections
of every subspace into ``E`` entries, and encodes each search point as the
tuple of its nearest entry id per subspace.  Storage per point drops from
``D * 32`` bits to ``(D/M) * log2(E)`` bits.

The paper uses ``M = 2`` throughout because the RT-core mapping places
codebook entries in a 2-D plane per subspace; this implementation supports
any ``M`` but JUNO itself (``repro.core``) requires ``M = 2``.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.distances import Metric
from repro.quantization.codebook import SubspaceCodebook
from repro.quantization.kmeans import KMeans


class ProductQuantizer:
    """Train per-subspace codebooks and encode/decode vectors.

    Args:
        dim: full vector dimensionality ``D``.
        num_subspaces: number of subspaces ``D/M`` (the paper's ``PQx`` where
            ``x`` is this value).
        num_entries: codebook entries per subspace ``E`` (256 in FAISS's
            default and in the paper's configuration).
        seed: RNG seed for the per-subspace k-means runs.
        kmeans_iters: Lloyd iterations per codebook.
    """

    def __init__(
        self,
        dim: int,
        num_subspaces: int,
        num_entries: int = 256,
        seed: int = 0,
        kmeans_iters: int = 20,
    ) -> None:
        if dim <= 0 or num_subspaces <= 0 or num_entries <= 0:
            raise ValueError("dim, num_subspaces and num_entries must be positive")
        if dim % num_subspaces != 0:
            raise ValueError(
                f"dim ({dim}) must be divisible by num_subspaces ({num_subspaces})"
            )
        self.dim = int(dim)
        self.num_subspaces = int(num_subspaces)
        self.num_entries = int(num_entries)
        self.subspace_dim = self.dim // self.num_subspaces
        self.seed = int(seed)
        self.kmeans_iters = int(kmeans_iters)
        self.codebooks: list[SubspaceCodebook] = []

    # ----------------------------------------------------------------- train
    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has been called."""
        return len(self.codebooks) == self.num_subspaces

    def subspace_slice(self, subspace_id: int) -> slice:
        """Column slice of the full vector covered by subspace ``s``."""
        if not 0 <= subspace_id < self.num_subspaces:
            raise IndexError(f"subspace_id {subspace_id} out of range")
        start = subspace_id * self.subspace_dim
        return slice(start, start + self.subspace_dim)

    def train(self, residuals: np.ndarray) -> "ProductQuantizer":
        """Train one codebook per subspace on residual vectors.

        Args:
            residuals: ``(N, D)`` residuals between search points and their
                coarse (IVF) centroid, as produced by Alg. 1 line 4.

        Returns:
            ``self`` for chaining.
        """
        residuals = np.asarray(residuals, dtype=np.float64)
        if residuals.ndim != 2 or residuals.shape[1] != self.dim:
            raise ValueError(
                f"residuals must have shape (N, {self.dim}), got {residuals.shape}"
            )
        self.codebooks = []
        for s in range(self.num_subspaces):
            kmeans = KMeans(self.num_entries, max_iter=self.kmeans_iters, seed=self.seed + s)
            result = kmeans.fit(residuals[:, self.subspace_slice(s)])
            self.codebooks.append(SubspaceCodebook(result.centroids, subspace_id=s))
        return self

    # ---------------------------------------------------------------- encode
    def encode(self, residuals: np.ndarray) -> np.ndarray:
        """Encode residual vectors as per-subspace entry ids.

        Returns:
            ``(N, D/M)`` int32 code matrix.
        """
        self._require_trained()
        residuals = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
        if residuals.shape[1] != self.dim:
            raise ValueError(
                f"residuals must have {self.dim} columns, got {residuals.shape[1]}"
            )
        codes = np.empty((residuals.shape[0], self.num_subspaces), dtype=np.int32)
        for subspace_id, codebook in enumerate(self.codebooks):
            projection = residuals[:, self.subspace_slice(subspace_id)]
            codes[:, subspace_id] = codebook.encode(projection)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate residuals from codes."""
        self._require_trained()
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.shape[1] != self.num_subspaces:
            raise ValueError(
                f"codes must have {self.num_subspaces} columns, got {codes.shape[1]}"
            )
        decoded = np.empty((codes.shape[0], self.dim), dtype=np.float64)
        for subspace_id, codebook in enumerate(self.codebooks):
            decoded[:, self.subspace_slice(subspace_id)] = codebook.decode(
                codes[:, subspace_id]
            )
        return decoded

    # ------------------------------------------------------------------ LUT
    def lookup_table(
        self, residual_query: np.ndarray, metric: Metric = Metric.L2
    ) -> np.ndarray:
        """Dense per-subspace distance table for one residual query.

        This is the baseline (FAISS-style) L2-LUT construction: all ``E``
        pairwise values are computed in every subspace regardless of whether
        the entry is used by any nearby point.

        Args:
            residual_query: ``(D,)`` residual between the query and one
                selected coarse centroid.
            metric: L2 (squared distances) or inner product.

        Returns:
            ``(D/M, E)`` table ``LUT[s][e]``.
        """
        self._require_trained()
        residual_query = np.asarray(residual_query, dtype=np.float64).ravel()
        if residual_query.shape[0] != self.dim:
            raise ValueError(
                f"residual_query must have {self.dim} entries, got {residual_query.shape[0]}"
            )
        table = np.empty((self.num_subspaces, self.num_entries), dtype=np.float64)
        for subspace_id, codebook in enumerate(self.codebooks):
            projection = residual_query[self.subspace_slice(subspace_id)]
            table[subspace_id, : codebook.num_entries] = codebook.distance_table(
                projection, metric
            )
            if codebook.num_entries < self.num_entries:
                table[subspace_id, codebook.num_entries :] = (
                    np.inf if metric is Metric.L2 else -np.inf
                )
        return table

    def adc_scores(self, lookup: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric distance computation: accumulate LUT values over subspaces.

        Args:
            lookup: ``(D/M, E)`` table from :meth:`lookup_table`.
            codes: ``(N, D/M)`` code matrix of candidate points.

        Returns:
            ``(N,)`` accumulated scores (distances for L2, similarities for IP).
        """
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        if codes.shape[1] != self.num_subspaces:
            raise ValueError("codes have wrong number of subspaces")
        subspace_index = np.arange(self.num_subspaces)
        return lookup[subspace_index[None, :], codes].sum(axis=1)

    def reconstruction_error(self, residuals: np.ndarray) -> float:
        """Mean squared reconstruction error of encode+decode; a PQ quality measure."""
        residuals = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
        decoded = self.decode(self.encode(residuals))
        return float(np.mean(np.sum((residuals - decoded) ** 2, axis=1)))

    def code_size_bits(self) -> int:
        """Storage per encoded point in bits: ``(D/M) * log2(E)``."""
        return int(self.num_subspaces * np.ceil(np.log2(max(self.num_entries, 2))))

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise RuntimeError("ProductQuantizer must be trained before use")
