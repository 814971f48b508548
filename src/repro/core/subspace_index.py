"""Subspace-level inverted indices (Alg. 1, lines 12-14).

The conventional IVFPQ layout stores, per coarse cluster, the PQ codes of its
member points.  JUNO additionally needs the *reverse* mapping -- from a
(cluster, subspace, entry) triple to the search points encoded with that
entry -- so that the distance-calculation stage only iterates over points
whose entries were selected by the ray tracing pass.

The index is stored in a compact sorted-array form per (cluster, subspace):
member ids sorted by their code, plus ``searchsorted``-style group
boundaries, which keeps lookups vectorised.  The forward direction -- every
cluster's members and their codes, which the score kernel gathers -- is
stored once, cluster-major, as a :class:`FlatClusterLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlatClusterLayout:
    """Concatenated, cluster-major view of the inverted index.

    The score kernel works on flat ``(candidate, subspace)`` tables whose
    rows are the members of every probed cluster laid out back-to-back.
    A cluster's members and codes are one contiguous slice of these
    arrays, so a block's candidates are one row gather with no
    per-cluster Python iteration:

    Attributes:
        cluster_sizes: ``(C,)`` member count per cluster.
        member_base: ``(C + 1,)`` exclusive prefix sum of the sizes -- the
            offset of each cluster's slice in the concatenated arrays.
        members: ``(N,)`` member point ids, cluster-major.
        codes: ``(N, S)`` ``int32`` PQ codes of ``members``, row for row.
    """

    cluster_sizes: np.ndarray
    member_base: np.ndarray
    members: np.ndarray
    codes: np.ndarray


class SubspaceInvertedIndex:
    """Entry -> points mapping for every (cluster, subspace) pair.

    Args:
        num_entries: number of codebook entries per subspace ``E``.
    """

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = int(num_entries)
        self._flat_layout: FlatClusterLayout | None = None
        # Per cluster, per-subspace views of the members sorted by code.
        self._sorted_members: list[np.ndarray] = []  # (S, n_c) member ids per cluster
        self._group_offsets: list[np.ndarray] = []  # (S, E + 1) boundaries per cluster
        self.num_subspaces: int | None = None

    @property
    def num_clusters(self) -> int:
        """Number of clusters the index has been built over."""
        return len(self._group_offsets)

    def build(self, posting_lists: list[np.ndarray], codes: np.ndarray) -> "SubspaceInvertedIndex":
        """Build the inverted structure for every cluster.

        Args:
            posting_lists: per-cluster arrays of member point ids (the IVF's
                posting lists).
            codes: ``(N, S)`` PQ codes of the whole corpus.

        Returns:
            ``self`` for chaining.
        """
        codes = np.atleast_2d(np.asarray(codes))
        self.num_subspaces = codes.shape[1]
        posting_lists = [np.asarray(members, dtype=np.int64) for members in posting_lists]
        sizes = np.array([members.shape[0] for members in posting_lists], dtype=np.int64)
        member_base = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=member_base[1:])
        members = np.concatenate(posting_lists) if posting_lists else np.zeros(0, dtype=np.int64)
        # The one stored copy of the codes: cluster-major, so a cluster's
        # codes are a slice and the score kernel gathers rows of it.  Built
        # here, not on first search, so no request pays for it and shard
        # threads never race to build it.
        self._flat_layout = FlatClusterLayout(
            cluster_sizes=sizes,
            member_base=member_base,
            members=members,
            codes=codes[members].astype(np.int32),
        )
        self._sorted_members = []
        self._group_offsets = []
        for cluster_id in range(sizes.shape[0]):
            members = self.cluster_members(cluster_id)
            cluster_codes = self.cluster_codes(cluster_id)
            sorted_members = np.empty((self.num_subspaces, members.shape[0]), dtype=np.int64)
            offsets = np.empty((self.num_subspaces, self.num_entries + 1), dtype=np.int64)
            for s in range(self.num_subspaces):
                order = np.argsort(cluster_codes[:, s], kind="stable")
                sorted_codes = cluster_codes[order, s]
                sorted_members[s] = members[order]
                offsets[s] = np.searchsorted(
                    sorted_codes, np.arange(self.num_entries + 1), side="left"
                )
            self._sorted_members.append(sorted_members)
            self._group_offsets.append(offsets)
        return self

    def flat_layout(self) -> FlatClusterLayout:
        """The cluster-major layout consumed by the score kernel.

        :meth:`build` creates it; the index is immutable afterwards
        (mutation flows rebuild the whole index), so every call returns
        the same object.
        """
        if self._flat_layout is None:
            raise RuntimeError("SubspaceInvertedIndex.build() has not been called")
        return self._flat_layout

    # --------------------------------------------------------------- lookups
    def _cluster_slice(self, cluster_id: int) -> slice:
        base = self.flat_layout().member_base
        return slice(int(base[int(cluster_id)]), int(base[int(cluster_id) + 1]))

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Member point ids of one cluster."""
        return self.flat_layout().members[self._cluster_slice(cluster_id)]

    def cluster_codes(self, cluster_id: int) -> np.ndarray:
        """``(n_c, S)`` PQ codes of one cluster's members."""
        return self.flat_layout().codes[self._cluster_slice(cluster_id)]

    def points_for_entry(self, cluster_id: int, subspace_id: int, entry_id: int) -> np.ndarray:
        """Point ids of ``cluster_id`` encoded with ``entry_id`` in subspace ``subspace_id``."""
        offsets = self._group_offsets[int(cluster_id)][int(subspace_id)]
        start, stop = offsets[int(entry_id)], offsets[int(entry_id) + 1]
        return self._sorted_members[int(cluster_id)][int(subspace_id)][start:stop]

    def points_for_entries(
        self, cluster_id: int, subspace_id: int, entry_ids: np.ndarray
    ) -> np.ndarray:
        """Union of point ids under several entries (vectorised)."""
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        offsets = self._group_offsets[int(cluster_id)][int(subspace_id)]
        sorted_members = self._sorted_members[int(cluster_id)][int(subspace_id)]
        pieces = [
            sorted_members[offsets[e] : offsets[e + 1]] for e in entry_ids
        ]
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)

    def entry_usage(self, cluster_id: int, subspace_id: int) -> np.ndarray:
        """Number of member points per entry (used by the sparsity analysis)."""
        offsets = self._group_offsets[int(cluster_id)][int(subspace_id)]
        return np.diff(offsets)
