"""Bounding volume hierarchy construction.

The BVH is the tree the RT core traverses in hardware (Sec. 2.2): interior
nodes hold an AABB covering their children, leaves hold a few primitives.
Finding all spheres intersected by a ray costs ``O(log E + hits)`` node
visits instead of ``E`` pairwise tests, which is exactly the saving JUNO's
selective L2-LUT construction relies on.

The vectorised batch tracer reads the tree in its *flattened* array form
(:meth:`BVH.flatten`): node bounds, the tree topology and per-leaf primitive
ranges as plain numpy arrays, so a whole batch of axis-aligned rays can be
traversed with array-wide slab tests.  A per-ray walk of the same tree lives
in ``tests/rt_reference.py`` as the oracle of the traversal counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rt.aabb import AABB
from repro.rt.primitives import Sphere


@dataclass
class BVHNode:
    """One node of the hierarchy.

    Attributes:
        aabb: bounding box of everything below this node.
        left: left child, or ``None`` for a leaf.
        right: right child, or ``None`` for a leaf.
        primitive_indices: indices (into the BVH's sphere list) stored at a
            leaf; empty for interior nodes.
    """

    aabb: AABB
    left: "BVHNode | None" = None
    right: "BVHNode | None" = None
    primitive_indices: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether this node stores primitives directly."""
        return self.left is None and self.right is None


@dataclass
class FlatBVH:
    """Array representation of a BVH for vectorised traversal.

    Nodes are stored in breadth-first order; node 0 is the root.

    Attributes:
        node_min: ``(num_nodes, 3)`` lower AABB corners.
        node_max: ``(num_nodes, 3)`` upper AABB corners.
        left: ``(num_nodes,)`` child indices (``-1`` for leaves).
        right: ``(num_nodes,)`` child indices (``-1`` for leaves).
        leaf_start: ``(num_nodes,)`` start offsets into ``leaf_primitives``.
        leaf_count: ``(num_nodes,)`` number of primitives per leaf (0 for
            interior nodes).
        leaf_primitives: concatenated primitive indices of all leaves.
    """

    node_min: np.ndarray
    node_max: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_start: np.ndarray
    leaf_count: np.ndarray
    leaf_primitives: np.ndarray
    _parent: np.ndarray | None = field(default=None, repr=False)
    _level_offsets: np.ndarray | None = field(default=None, repr=False)
    _leaf_nodes: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the flattened tree."""
        return int(self.node_min.shape[0])

    def topology(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derived traversal topology ``(parent, level_offsets, leaf_nodes)``.

        Because nodes are stored breadth-first, every tree level occupies a
        contiguous index range: level ``l`` is ``[level_offsets[l],
        level_offsets[l + 1])``.  The batch tracer needs only ``parent`` (how
        many children a node has) and ``leaf_nodes``: boxes are nested, so
        the nodes a ray visits follow from the slab tests alone.  Computed
        lazily and cached (the tree is immutable once flattened).

        Returns:
            ``parent``: ``(num_nodes,)`` parent index per node (-1 for the
            root); ``level_offsets``: ``(num_levels + 1,)`` slice boundaries
            of the per-level index ranges; ``leaf_nodes``: ascending indices
            of the leaf nodes.
        """
        if self._parent is None:
            count = self.num_nodes
            parent = np.full(count, -1, dtype=np.int64)
            internal = np.flatnonzero(self.left >= 0)
            parent[self.left[internal]] = internal
            parent[self.right[internal]] = internal
            depth = np.zeros(count, dtype=np.int64)
            for node in range(1, count):
                depth[node] = depth[parent[node]] + 1
            if count:
                boundaries = np.flatnonzero(np.diff(depth)) + 1
                level_offsets = np.concatenate(
                    ([0], boundaries, [count])
                ).astype(np.int64)
            else:
                level_offsets = np.zeros(1, dtype=np.int64)
            self._parent = parent
            self._level_offsets = level_offsets
            self._leaf_nodes = np.flatnonzero(self.left < 0)
        assert self._level_offsets is not None and self._leaf_nodes is not None
        return self._parent, self._level_offsets, self._leaf_nodes


class BVH:
    """Median-split BVH over a list of spheres.

    Args:
        spheres: primitives to index.
        leaf_size: maximum number of primitives per leaf.
    """

    def __init__(self, spheres: list[Sphere], leaf_size: int = 4) -> None:
        if leaf_size < 1:
            raise ValueError("leaf_size must be at least 1")
        self.spheres = list(spheres)
        self.leaf_size = int(leaf_size)
        self.root: BVHNode | None = None
        self._flat: FlatBVH | None = None
        if self.spheres:
            centres = np.array([s.centre for s in self.spheres])
            radii = np.array([s.radius for s in self.spheres])[:, None]
            self.root = self._build(
                np.arange(len(self.spheres)), centres, centres - radii, centres + radii
            )

    # ---------------------------------------------------------------- build
    def _build(
        self, indices: np.ndarray, centres: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> BVHNode:
        # ``lows``/``highs`` are every sphere's ``aabb()`` corners, made once;
        # a node's box is their min/max over the spheres below it.
        aabb = AABB(lows[indices].min(axis=0), highs[indices].max(axis=0))
        if len(indices) <= self.leaf_size:
            return BVHNode(aabb=aabb, primitive_indices=indices.tolist())
        axis = aabb.longest_axis()
        order = np.argsort(centres[indices, axis], kind="stable")
        sorted_indices = indices[order]
        mid = len(sorted_indices) // 2
        left = self._build(sorted_indices[:mid], centres, lows, highs)
        right = self._build(sorted_indices[mid:], centres, lows, highs)
        return BVHNode(aabb=aabb, left=left, right=right)

    # ----------------------------------------------------------- statistics
    def depth(self) -> int:
        """Maximum depth of the tree (root = 1); 0 for an empty BVH."""
        return len(self.flatten().topology()[1]) - 1

    def num_nodes(self) -> int:
        """Total number of nodes."""
        return self.flatten().num_nodes

    # -------------------------------------------------------------- flatten
    def flatten(self) -> FlatBVH:
        """Breadth-first array form of the tree (cached)."""
        if self._flat is not None:
            return self._flat
        nodes: list[BVHNode] = [] if self.root is None else [self.root]
        for node in nodes:  # breadth-first: children join the list being read
            if not node.is_leaf:
                nodes += [node.left, node.right]
        index_of = {id(node): i for i, node in enumerate(nodes)}
        count = len(nodes)
        node_min = np.empty((count, 3))
        node_max = np.empty((count, 3))
        left = np.full(count, -1, dtype=np.int64)
        right = np.full(count, -1, dtype=np.int64)
        leaf_start = np.zeros(count, dtype=np.int64)
        leaf_count = np.zeros(count, dtype=np.int64)
        leaf_primitives: list[int] = []
        for i, node in enumerate(nodes):
            node_min[i] = node.aabb.minimum
            node_max[i] = node.aabb.maximum
            if node.is_leaf:
                leaf_start[i] = len(leaf_primitives)
                leaf_count[i] = len(node.primitive_indices)
                leaf_primitives.extend(node.primitive_indices)
            else:
                left[i] = index_of[id(node.left)]
                right[i] = index_of[id(node.right)]
        self._flat = FlatBVH(
            node_min=node_min,
            node_max=node_max,
            left=left,
            right=right,
            leaf_start=leaf_start,
            leaf_count=leaf_count,
            leaf_primitives=np.asarray(leaf_primitives, dtype=np.int64),
        )
        return self._flat
