"""Subspace-level inverted indices (Alg. 1, lines 12-14).

The conventional IVFPQ layout stores, per coarse cluster, the PQ codes of its
member points.  JUNO additionally needs the *reverse* mapping -- from a
(cluster, subspace, entry) triple to the search points encoded with that
entry -- so that the distance-calculation stage only iterates over points
whose entries were selected by the ray tracing pass.

What is stored is the forward direction, once and cluster-major, as a
:class:`FlatClusterLayout`: every cluster's members and, per subspace and
member, the selective-LUT column its PQ code selects.  The score kernel
gathers through it; the reverse lookups (used by tests and analysis only)
are computed from a cluster's slice of the corpus codes when asked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlatClusterLayout:
    """Concatenated, cluster-major view of the inverted index.

    The score kernel works on flat ``(subspace, candidate)`` tables whose
    columns are the members of every probed cluster laid out back-to-back.
    A cluster's members and columns are one contiguous slice of these
    arrays, so a block's candidates are one gather with no per-cluster
    Python iteration:

    Attributes:
        cluster_sizes: ``(C,)`` member count per cluster.
        member_base: ``(C + 1,)`` exclusive prefix sum of the sizes -- the
            offset of each cluster's slice in the concatenated arrays.
        members: ``(N,)`` member point ids, cluster-major.
        columns: ``(S, N)`` ``int32``, subspace-major: the column of the
            :class:`~repro.core.selective_lut.SelectiveLUT` that each PQ
            code of ``members`` addresses, member for member, so one
            subspace's columns of a cluster are one contiguous run.
    """

    cluster_sizes: np.ndarray
    member_base: np.ndarray
    members: np.ndarray
    columns: np.ndarray


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
        self._codes: np.ndarray | None = None  # the corpus codes, not a copy
        self.num_subspaces: int | None = None

    @property
    def num_clusters(self) -> int:
        """Number of clusters the index has been built over."""
        return 0 if self._flat_layout is None else int(self._flat_layout.cluster_sizes.shape[0])

    def build(
        self,
        posting_lists: list[np.ndarray],
        codes: np.ndarray,
        entry_slots: np.ndarray | None = None,
    ) -> "SubspaceInvertedIndex":
        """Build the inverted structure for every cluster.

        Args:
            posting_lists: per-cluster arrays of member point ids (the IVF's
                posting lists).
            codes: ``(N, S)`` PQ codes of the whole corpus.
            entry_slots: ``(S, E)`` selective-LUT column of every entry of
                every subspace (the scene's leaf-slot order, see
                :attr:`repro.rt.scene.TraversableScene.entry_slots`);
                ``None`` for a table in entry order (column = code).

        Returns:
            ``self`` for chaining.
        """
        codes = np.atleast_2d(np.asarray(codes))
        self._codes = codes
        self.num_subspaces = codes.shape[1]
        posting_lists = [np.asarray(members, dtype=np.int64) for members in posting_lists]
        sizes = np.array([members.shape[0] for members in posting_lists], dtype=np.int64)
        member_base = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=member_base[1:])
        members = np.concatenate(posting_lists) if posting_lists else np.zeros(0, dtype=np.int64)
        # The one array the score kernel gathers from: cluster-major, so a
        # cluster's members are a slice of every subspace's row, with every
        # code already translated to its table column.  Built here, not on
        # first search, so no request pays for it and shard threads never
        # race to build it.
        columns = codes[members].T
        if entry_slots is not None:
            columns = np.take_along_axis(np.asarray(entry_slots), columns, axis=1)
        self._flat_layout = FlatClusterLayout(
            cluster_sizes=sizes,
            member_base=member_base,
            members=members,
            columns=np.ascontiguousarray(columns, dtype=np.int32),
        )
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
    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Member point ids of one cluster."""
        layout = self.flat_layout()
        base = layout.member_base
        return layout.members[int(base[int(cluster_id)]) : int(base[int(cluster_id) + 1])]

    def cluster_codes(self, cluster_id: int) -> np.ndarray:
        """``(n_c, S)`` ``int32`` PQ codes of one cluster's members."""
        return self._codes[self.cluster_members(cluster_id)].astype(np.int32, copy=False)

    def points_for_entry(self, cluster_id: int, subspace_id: int, entry_id: int) -> np.ndarray:
        """Point ids of ``cluster_id`` encoded with ``entry_id`` in subspace ``subspace_id``."""
        members = self.cluster_members(cluster_id)
        return members[self._codes[members, int(subspace_id)] == int(entry_id)]

    def points_for_entries(
        self, cluster_id: int, subspace_id: int, entry_ids: np.ndarray
    ) -> np.ndarray:
        """Union of point ids under several entries, grouped by entry."""
        pieces = [
            self.points_for_entry(cluster_id, subspace_id, e)
            for e in np.asarray(entry_ids, dtype=np.int64)
        ]
        if not pieces:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(pieces)

    def entry_usage(self, cluster_id: int, subspace_id: int) -> np.ndarray:
        """Number of member points per entry (used by the sparsity analysis)."""
        members = self.cluster_members(cluster_id)
        return np.bincount(self._codes[members, int(subspace_id)], minlength=self.num_entries)
