"""The traversable scene: one BVH per subspace, stored as one stack of arrays.

JUNO places the codebook entries of subspace ``s`` at depth ``z = 2s + 1``
(Alg. 1, lines 10-13) so that rays cast from ``z = 2s`` with ``t_max <= 1``
can only interact with the entries of their own subspace.  Each *layer* of
the scene holds the spheres of one subspace under its own median-split BVH,
as one OptiX geometry-acceleration structure per subspace would.

Every subspace has equally many entries, and a median-split tree's topology
depends only on the sphere count and the leaf size, so all layers share one
parent/level/leaf-range description and differ only in node bounds, leaf
primitive order, centres and radii.  Those carry a leading layer axis, which
lets one pass of slab tests traverse a whole block of layers at once
(:mod:`repro.rt.tracer`).  :meth:`TraversableScene.build` writes every array
for all layers in one breadth-first walk of the tree.  The stack's
``(leaf, lane)`` grid is also the column order of the dense hit grid the
tracer returns and of the selective LUT built from it: sphere ``e`` of layer
``s`` sits in column ``entry_slots[s, e]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class TraversableScene:
    """``L`` layers of ``E`` spheres, each layer under its own BVH.

    Each tree has ``M`` nodes and ``F`` leaves of at most ``W`` spheres.
    The topology arrays are shared; everything that depends on where the
    spheres are carries a leading layer axis, so a run of adjacent layers is
    a basic slice of every array.  Sphere data is stored in leaf order on an
    ``(F, W)`` grid: the lanes a short leaf leaves empty hold a squared
    radius of ``-1``, which no ray can be inside of.

    Attributes:
        layer_ids: ``(L,)`` layer (subspace) id of every layer, ``0..L-1``.
        z: ``(L,)`` depth of each layer's sphere centres.
        parent: ``(M,)`` parent node index (``-1`` for the root).
        level_offsets: breadth-first level boundaries: level ``l`` is the
            node range ``[level_offsets[l], level_offsets[l + 1])``.
        leaf_nodes: ``(F,)`` ascending node indices of the leaves.
        leaf_count: ``(F,)`` spheres per leaf.
        node_min: ``(L, 3, M)`` lower AABB corners, one row per axis.
        node_max: ``(L, 3, M)`` upper AABB corners, one row per axis.
        leaf_primitives: ``(L, F, W)`` sphere index within the layer.
        leaf_centres_x: ``(L, F, W)`` sphere centre x.
        leaf_centres_y: ``(L, F, W)`` sphere centre y.
        leaf_radii_sq: ``(L, F, W)`` squared sphere radius (``-1`` in empty
            lanes).
        entry_slots: ``(L, E)`` ``int32`` flat ``leaf * W + lane`` slot of
            every sphere of a layer -- the inverse of ``leaf_primitives``
            over the filled lanes.
    """

    layer_ids: np.ndarray
    z: np.ndarray
    parent: np.ndarray
    level_offsets: np.ndarray
    leaf_nodes: np.ndarray
    leaf_count: np.ndarray
    node_min: np.ndarray
    node_max: np.ndarray
    leaf_primitives: np.ndarray
    leaf_centres_x: np.ndarray
    leaf_centres_y: np.ndarray
    leaf_radii_sq: np.ndarray
    entry_slots: np.ndarray

    def __post_init__(self) -> None:
        # The batch tracer takes the slab mask for the traversal: boxes must be nested.
        low, high, up = self.node_min, self.node_max, self.parent[1:]
        nested = (low[..., 1:] >= low[..., up]) & (high[..., 1:] <= high[..., up])
        if not nested.all():
            loose = self.layer_ids[~nested.all(axis=(1, 2))].tolist()
            raise ValueError(f"BVH node boxes of layer(s) {loose} are not nested in their parents'")

    @property
    def num_slots(self) -> int:
        """Slots ``F * W`` of one layer's leaf grid (at least ``E``)."""
        return int(self.leaf_primitives.shape[1] * self.leaf_primitives.shape[2])

    @classmethod
    def build(
        cls, centres: np.ndarray, radii: np.ndarray | float, z: np.ndarray, leaf_size: int
    ) -> "TraversableScene":
        """Median-split BVHs over every layer's spheres, all layers at once.

        A node's box is the ``min``/``max`` of its spheres' boxes; a node of
        more than ``leaf_size`` spheres is split at the median of their
        centres along its box's longest axis (the first one on a tie), with
        a stable sort.  The tree is walked breadth first with each node's
        spheres held as an ``(L, n)`` index array: its shape depends on
        ``n`` alone, so one walk builds every layer's tree.

        Args:
            centres: ``(L, E, 2)`` sphere centres in each layer's plane.
            radii: sphere radii, broadcastable to ``(L, E)``; all positive.
            z: ``(L,)`` depth of each layer's sphere centres.
            leaf_size: most spheres per leaf.
        """
        centres = np.asarray(centres, dtype=np.float64)
        if centres.ndim != 3 or centres.shape[2] != 2 or centres.shape[1] == 0:
            raise ValueError("centres must have shape (L, E, 2) with E >= 1")
        num_layers, num_entries, _ = centres.shape
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (num_layers, num_entries))
        if not (radii > 0.0).all():
            raise ValueError("all sphere radii must be positive")
        if leaf_size < 1:
            raise ValueError("leaf_size must be at least 1")
        z = np.asarray(z, dtype=np.float64).reshape(num_layers)
        points = np.concatenate(
            (centres, np.broadcast_to(z[:, None, None], (num_layers, num_entries, 1))), axis=2
        )
        lows, highs = points - radii[..., None], points + radii[..., None]
        rows = np.arange(num_layers)[:, None]

        # Breadth first: children join the list being read, so every level
        # of the tree is a contiguous node range.
        members = [np.broadcast_to(np.arange(num_entries), (num_layers, num_entries))]
        parent, depth, node_min, node_max, leaf_nodes = [-1], [0], [], [], []
        for node, below in enumerate(members):
            low, high = lows[rows, below].min(axis=1), highs[rows, below].max(axis=1)
            node_min.append(low)
            node_max.append(high)
            count = below.shape[1]
            if count <= leaf_size:
                leaf_nodes.append(node)
                continue
            axis = np.argmax(high - low, axis=1)[:, None]
            order = np.argsort(points[rows, below, axis], axis=1, kind="stable")
            below = np.take_along_axis(below, order, axis=1)
            members += [below[:, : count // 2], below[:, count // 2 :]]
            parent += [node, node]
            depth += [depth[node] + 1] * 2

        leaf_count = np.array([members[node].shape[1] for node in leaf_nodes], dtype=np.int64)
        lanes = np.arange(int(leaf_count.max()))
        filled = lanes < leaf_count[:, None]
        # empty lanes repeat the leaf's first sphere and are masked out through their radius
        primitives = np.stack(
            [members[node][:, np.where(full, lanes, 0)] for node, full in zip(leaf_nodes, filled)],
            axis=1,
        )
        entry_slots = np.empty((num_layers, num_entries), dtype=np.int32)
        # a sphere's slot is the flat (leaf, lane) index of the filled lane holding it
        np.put_along_axis(entry_slots, primitives[:, filled], np.flatnonzero(filled)[None], axis=1)
        at = (rows[:, :, None], primitives)
        levels = np.flatnonzero(np.diff(depth)) + 1
        return cls(
            layer_ids=np.arange(num_layers, dtype=np.int64),
            z=z,
            parent=np.array(parent, dtype=np.int64),
            level_offsets=np.concatenate(([0], levels, [len(depth)])).astype(np.int64),
            leaf_nodes=np.array(leaf_nodes, dtype=np.int64),
            leaf_count=leaf_count,
            node_min=np.stack(node_min, axis=2),
            node_max=np.stack(node_max, axis=2),
            leaf_primitives=primitives,
            leaf_centres_x=centres[(*at, 0)],
            leaf_centres_y=centres[(*at, 1)],
            leaf_radii_sq=np.where(filled, (radii**2)[at], -1.0),
            entry_slots=entry_slots,
        )
