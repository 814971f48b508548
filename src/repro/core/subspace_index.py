"""Subspace-level inverted indices (Alg. 1, lines 12-14).

The conventional IVFPQ layout stores, per coarse cluster, the PQ codes of its
member points.  JUNO additionally needs the *reverse* mapping -- from a
(cluster, subspace, entry) triple to the search points encoded with that
entry -- so that the distance-calculation stage only iterates over points
whose entries were selected by the ray tracing pass.

What is stored is the forward direction, once and cluster-major, as a
:class:`FlatClusterLayout`: every cluster's members and, per subspace and
member, the cell of a ray's selective-LUT block that its PQ code selects.
The score kernel gathers through it ray by ray; the reverse direction is the
gather's hit mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlatClusterLayout:
    """Concatenated, cluster-major view of the inverted index.

    A cluster's members are one contiguous slice of ``members``, and its
    cells one C-contiguous block of a single ``intp`` buffer, so a probed
    cluster is scored with one gather per table and no per-member Python
    iteration.

    Attributes:
        cluster_sizes: ``(C,)`` member count per cluster.
        member_base: ``(C + 1,)`` exclusive prefix sum of the sizes -- the
            offset of each cluster's slice of ``members``.
        members: ``(N,)`` member point ids, cluster-major.
        cells: per cluster, an ``(S, n_c)`` ``intp`` view of one ``S * N``
            buffer: ``s * E' + column``, the flat index into one ray's
            ``(S, E')`` block of the
            :class:`~repro.core.selective_lut.SelectiveLUT` that each PQ
            code of the cluster's members addresses, member for member.
    """

    cluster_sizes: np.ndarray
    member_base: np.ndarray
    members: np.ndarray
    cells: tuple[np.ndarray, ...]


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

    @property
    def num_clusters(self) -> int:
        """Number of clusters the index has been built over."""
        return 0 if self._flat_layout is None else int(self._flat_layout.cluster_sizes.shape[0])

    def build(
        self,
        posting_lists: list[np.ndarray],
        codes: np.ndarray,
        entry_slots: np.ndarray | None = None,
        num_slots: int | None = None,
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
            num_slots: the table's row width ``E'`` (the scene's
                ``num_slots``), required with ``entry_slots``; a table in
                entry order is ``E`` wide.

        Returns:
            ``self`` for chaining.
        """
        codes = np.atleast_2d(np.asarray(codes))
        num_subspaces = codes.shape[1]
        if entry_slots is not None and num_slots is None:
            raise ValueError("a table in slot order needs its width, num_slots")
        width = self.num_entries if entry_slots is None else int(num_slots)
        posting_lists = [np.asarray(members, dtype=np.int64) for members in posting_lists]
        sizes = np.array([members.shape[0] for members in posting_lists], dtype=np.int64)
        member_base = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=member_base[1:])
        members = np.concatenate(posting_lists) if posting_lists else np.zeros(0, dtype=np.int64)
        # What the score kernel gathers through: every code already translated
        # to its cell of a ray's (S, E') block, a cluster's cells one block of
        # one buffer.  Built here, not on first search, so no request pays for
        # it and shard threads never race to build it.
        columns = codes[members].T
        if entry_slots is not None:
            columns = np.take_along_axis(np.asarray(entry_slots), columns, axis=1)
        row_base = np.arange(num_subspaces, dtype=np.intp)[:, None] * width
        buffer = np.empty(num_subspaces * members.shape[0], dtype=np.intp)
        cells = []
        for start, stop in zip(member_base[:-1].tolist(), member_base[1:].tolist()):
            block = buffer[num_subspaces * start : num_subspaces * stop]
            block = block.reshape(num_subspaces, stop - start)
            np.add(columns[:, start:stop], row_base, out=block)
            cells.append(block)
        self._flat_layout = FlatClusterLayout(
            cluster_sizes=sizes, member_base=member_base, members=members, cells=tuple(cells)
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

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Member point ids of one cluster."""
        layout = self.flat_layout()
        base = layout.member_base
        return layout.members[int(base[int(cluster_id)]) : int(base[int(cluster_id) + 1])]
