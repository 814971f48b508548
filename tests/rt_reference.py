"""Reference RT kernels the scene, the stacked tracer and the LUT are pinned against.

Not a test module: the oracles the RT-select test files share.

* :class:`BVH` is the recursive median-split tree of :class:`Sphere` and
  :class:`AABB` objects ``src/`` once built layer by layer, with its
  breadth-first array form (:meth:`BVH.flatten`); :func:`reference_scene`
  stacks one per layer the way ``src/`` then did.  It is the oracle of
  :meth:`repro.rt.scene.TraversableScene.build`, which must write the same
  thirteen arrays byte for byte.  :func:`layer_spheres` reads a layer's
  centres and radii back out of a scene (exactly: ``sqrt`` of a rounded
  square returns the float64 it squared) and :func:`reference_bvh` builds
  -- once per scene and layer -- the tree the traversal oracles below walk.
* :func:`reference_trace_layer` and :func:`reference_construct` are the
  layer-at-a-time implementation ``src/`` shipped before the scene was
  traversed as a stack of layers -- one level-synchronous pass per layer,
  then a stable ``argsort`` by ray and a ``searchsorted`` per subspace to
  assemble per-subspace CSR hit lists (:class:`ReferenceLUT`).  The
  traversal runs in float64; the sphere tests and the values run in the
  ``dtype`` they are given, every operand rounded to it on use.  A value is
  the sphere test's ``d²`` (L2) or ``(|q|² − R² + r² − d²) / 2`` (inner
  product), as ``src/`` writes it.  At float32 they are the stacked path's
  oracle: it must reproduce every ray's hit *set* with every value byte for
  byte, plus all five counters (the order of hits within a ray is not part
  of the contract).  At float64 they are the path ``src/`` ran before its
  hot path went float32, and the reference of the precision oracle below.
* :func:`sphere_test_margins`, :func:`assert_layer_within_precision` (hit
  grids) and :func:`assert_lut_within_precision` (tables) are that precision
  oracle: a float32 sphere test may disagree with the float64 one only on
  cells within :data:`ULPS` float32 ulps of a decision boundary, and ``d²``
  and values agree within the same slack (``docs/performance.md``,
  "Float32 hot path", derives it).
* :func:`sqrt_form_accepts` is the sphere test's accept step as ``src/`` ran
  it on a grid of hit times until the tracer moved to an exact per-ray bound
  on ``y = fl(r² − d²)``: ``t_hit = fl(offset − fl(sqrt(y))) <= t_max``, and
  ``t_hit >= 0`` where a sphere can contain the origin plane.  The bound
  must agree with it cell for cell.
* :func:`assert_hits_are_accepted` and :func:`assert_miss_fill` pin what the
  table holds besides the oracle's values: its hit grid is the tracer's
  accepted grid, and every other cell the ray's miss value -- the float32
  miss penalty (JUNO-H/L), ``NaN`` for JUNO-M.
* :func:`assert_cells_address_codes` pins the build-time remap of PQ
  codes to cells of a ray's ``(S, E')`` block of the table, in its
  leaf-slot columns, on any trained, loaded or compacted index.
* :func:`ray_slice`, :func:`dense_rows`, :func:`hit_mask_rows` and
  :func:`inner_mask_rows` read a :class:`~repro.core.selective_lut.SelectiveLUT`
  (or a :class:`ReferenceLUT`) back in entry order, one ray at a time, for
  the oracles and the looped scorer.
* The exact per-ray tracer -- :class:`Ray`, :class:`HitRecord`,
  :func:`trace` (every layer of a scene), :func:`bvh_traverse` (one BVH's
  stack walk), :func:`aabb_intersects_ray` and :func:`sphere_intersect` --
  is the float64 ground truth for hit sets, hit times and all five
  traversal counters; :func:`per_ray_hits` walks one ray through one layer
  with it.  It reports ``t_hit``, as an RT core does, and
  :func:`l2_distance_from_hit_time` / :func:`inner_product_from_hit_time`
  are the paper's hit-shader decodes of it (Sec. 4.2, Fig. 9);
  :func:`tmax_to_threshold` inverts the threshold-to-``t_max`` mapping.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.selective_lut import SelectiveLUT
from repro.metrics.distances import Metric
from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats


@dataclass
class AABB:
    """Axis-aligned bounding box in 3-D: a node bound of the reference BVH."""

    minimum: np.ndarray
    maximum: np.ndarray

    def longest_axis(self) -> int:
        """Index of the longest axis (the median-split axis; the first on a tie)."""
        return int(np.argmax(np.subtract(self.maximum, self.minimum)))


@dataclass
class Sphere:
    """A sphere of the reference scene: ``(3,)`` centre and radius."""

    centre: np.ndarray
    radius: float


@dataclass
class BVHNode:
    """One node of the reference hierarchy: a leaf holds sphere indices."""

    aabb: AABB
    left: "BVHNode | None" = None
    right: "BVHNode | None" = None
    primitive_indices: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class FlatBVH:
    """Breadth-first array form of a :class:`BVH`; node 0 is the root.

    ``left``/``right`` are ``-1`` at leaves; leaf ``n``'s spheres are
    ``leaf_primitives[leaf_start[n] : leaf_start[n] + leaf_count[n]]``.
    """

    node_min: np.ndarray
    node_max: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_start: np.ndarray
    leaf_count: np.ndarray
    leaf_primitives: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.node_min.shape[0])

    def topology(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(parent, level_offsets, leaf_nodes)``: the parent of every node
        (``-1`` at the root), the node range of every breadth-first level,
        and the ascending indices of the leaves."""
        parent = np.full(self.num_nodes, -1, dtype=np.int64)
        internal = np.flatnonzero(self.left >= 0)
        parent[self.left[internal]] = internal
        parent[self.right[internal]] = internal
        depth = np.zeros(self.num_nodes, dtype=np.int64)
        for node in range(1, self.num_nodes):
            depth[node] = depth[parent[node]] + 1
        boundaries = np.flatnonzero(np.diff(depth)) + 1
        level_offsets = np.concatenate(([0], boundaries, [self.num_nodes])).astype(np.int64)
        return parent, level_offsets, np.flatnonzero(self.left < 0)


class BVH:
    """Median-split BVH over a list of spheres, built recursively.

    A node's box is the ``min``/``max`` of its spheres' boxes; a node of
    more than ``leaf_size`` spheres is split at the median of their centres
    along its box's longest axis, with a stable sort.
    """

    def __init__(self, spheres: list[Sphere], leaf_size: int = 4) -> None:
        self.spheres = list(spheres)
        centres = np.array([sphere.centre for sphere in self.spheres])
        radii = np.array([sphere.radius for sphere in self.spheres])[:, None]
        self.leaf_size = leaf_size
        self.root = self._build(
            np.arange(len(self.spheres)), centres, centres - radii, centres + radii
        )

    def _build(self, indices, centres, lows, highs) -> BVHNode:
        aabb = AABB(lows[indices].min(axis=0), highs[indices].max(axis=0))
        if len(indices) <= self.leaf_size:
            return BVHNode(aabb=aabb, primitive_indices=indices.tolist())
        order = np.argsort(centres[indices, aabb.longest_axis()], kind="stable")
        sorted_indices = indices[order]
        mid = len(sorted_indices) // 2
        left = self._build(sorted_indices[:mid], centres, lows, highs)
        right = self._build(sorted_indices[mid:], centres, lows, highs)
        return BVHNode(aabb=aabb, left=left, right=right)

    def flatten(self) -> FlatBVH:
        """The tree in breadth-first array form."""
        nodes = [self.root]
        for node in nodes:  # breadth-first: children join the list being read
            if not node.is_leaf:
                nodes += [node.left, node.right]
        index_of = {id(node): i for i, node in enumerate(nodes)}
        count = len(nodes)
        left = np.full(count, -1, dtype=np.int64)
        right = np.full(count, -1, dtype=np.int64)
        leaf_start = np.zeros(count, dtype=np.int64)
        leaf_count = np.zeros(count, dtype=np.int64)
        leaf_primitives: list[int] = []
        for i, node in enumerate(nodes):
            if node.is_leaf:
                leaf_start[i] = len(leaf_primitives)
                leaf_count[i] = len(node.primitive_indices)
                leaf_primitives.extend(node.primitive_indices)
            else:
                left[i], right[i] = index_of[id(node.left)], index_of[id(node.right)]
        return FlatBVH(
            node_min=np.array([node.aabb.minimum for node in nodes]),
            node_max=np.array([node.aabb.maximum for node in nodes]),
            left=left,
            right=right,
            leaf_start=leaf_start,
            leaf_count=leaf_count,
            leaf_primitives=np.asarray(leaf_primitives, dtype=np.int64),
        )


def layer_bvh(centres_xy, radii, z, leaf_size) -> BVH:
    """The reference tree over one layer: sphere ``e`` at ``(x_e, y_e, z)``."""
    spheres = [
        Sphere(centre=np.array([x, y, z], dtype=np.float64), radius=float(radius))
        for (x, y), radius in zip(np.asarray(centres_xy, dtype=np.float64), radii)
    ]
    return BVH(spheres, leaf_size=leaf_size)


def reference_scene(centres, radii, z, leaf_size) -> TraversableScene:
    """One recursive BVH per layer, flattened and stacked: the arrays
    :meth:`TraversableScene.build` must reproduce byte for byte."""
    centres = np.asarray(centres, dtype=np.float64)
    num_layers, num_entries, _ = centres.shape
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (num_layers, num_entries))
    z = np.asarray(z, dtype=np.float64)
    flats = [layer_bvh(centres[s], radii[s], z[s], leaf_size).flatten() for s in range(num_layers)]
    parent, level_offsets, leaf_nodes = flats[0].topology()
    for flat in flats[1:]:  # the topology depends on the sphere count alone
        assert all((a == b).all() for a, b in zip(flat.topology(), flats[0].topology()))
    leaf_count = flats[0].leaf_count[leaf_nodes]
    lanes = np.arange(int(leaf_count.max()))
    filled = lanes < leaf_count[:, None]
    # empty lanes repeat the leaf's first primitive
    slots = flats[0].leaf_start[leaf_nodes][:, None] + np.where(filled, lanes, 0)
    primitives = np.stack([flat.leaf_primitives for flat in flats])[:, slots]
    entry_slots = np.empty((num_layers, num_entries), dtype=np.int32)
    for s in range(num_layers):
        entry_slots[s, primitives[s][filled]] = np.flatnonzero(filled)
    rows = np.arange(num_layers)[:, None, None]
    return TraversableScene(
        layer_ids=np.arange(num_layers, dtype=np.int64),
        z=z,
        parent=parent,
        level_offsets=level_offsets,
        leaf_nodes=leaf_nodes,
        leaf_count=leaf_count,
        node_min=np.stack([flat.node_min.T for flat in flats]),
        node_max=np.stack([flat.node_max.T for flat in flats]),
        leaf_primitives=primitives,
        leaf_centres_x=centres[rows, primitives, 0],
        leaf_centres_y=centres[rows, primitives, 1],
        leaf_radii_sq=np.where(filled, (radii**2)[rows, primitives], -1.0),
        entry_slots=entry_slots,
    )


def make_scene(centres, radii, leaf_size=4) -> TraversableScene:
    """The scene of ``(S, E, 2)`` centres with layer ``s`` at depth ``2s + 1``."""
    centres = np.asarray(centres, dtype=np.float64)
    return TraversableScene.build(centres, radii, 2.0 * np.arange(len(centres)) + 1.0, leaf_size)


def layer_spheres(scene: TraversableScene, layer_id: int) -> tuple[np.ndarray, np.ndarray]:
    """``(centres_xy, radii)`` of one layer's spheres in entry order, as the
    scene was built from them."""
    slots = scene.entry_slots[layer_id]
    x, y, radii_sq = (
        a[layer_id].reshape(-1)[slots]
        for a in (scene.leaf_centres_x, scene.leaf_centres_y, scene.leaf_radii_sq)
    )
    return np.stack([x, y], axis=1), np.sqrt(radii_sq)


_BVHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reference_bvh(scene: TraversableScene, layer_id: int) -> BVH:
    """The recursive tree over one layer of ``scene`` (built once, cached)."""
    trees = _BVHS.setdefault(scene, {})
    if layer_id not in trees:
        # The scene keeps no leaf size; its largest leaf does as well.  A node
        # is split iff it holds more spheres than the leaf size, so no node
        # holds more than the largest leaf but no more than the leaf size,
        # and the two split the same nodes.
        leaf_size = int(scene.leaf_count.max())
        centres_xy, radii = layer_spheres(scene, layer_id)
        trees[layer_id] = layer_bvh(centres_xy, radii, scene.z[layer_id], leaf_size)
    return trees[layer_id]


@dataclass
class ReferenceLUT:
    """Per-subspace CSR hit lists over ray ids, as ``src/`` once stored them.

    For subspace ``s`` and ray ``r`` the selected entries are
    ``entries[s][offsets[s][r]:offsets[s][r + 1]]``, their values and
    JUNO-M inner-sphere flags the matching slices of ``values[s]`` /
    ``inner_flags[s]``.
    """

    num_rays: int
    num_entries: int
    metric: Metric
    offsets: list[np.ndarray]
    entries: list[np.ndarray]
    values: list[np.ndarray]
    inner_flags: list[np.ndarray] | None
    stats: TraversalStats
    inner_sphere_ratio: float | None = None

    def rows(self, per_hit: list[np.ndarray], ray: int, fill) -> np.ndarray:
        """Entry-ordered ``(S, E)`` rows of one ray's hits (``fill`` = no hit)."""
        out = np.full((len(self.offsets), self.num_entries), fill, dtype=per_hit[0].dtype)
        for s, offsets in enumerate(self.offsets):
            cut = slice(offsets[ray], offsets[ray + 1])
            out[s, self.entries[s][cut]] = per_hit[s][cut]
        return out


# The readers below take the scene the LUT was traced in: a ``SelectiveLUT``'s
# columns are its leaf slots, and ``scene.leaf_primitives`` maps them back to
# entry ids.  A ``ReferenceLUT`` is entry-ordered and ignores it.


def _entry_rows(lut: SelectiveLUT, scene, cells: np.ndarray, marked: np.ndarray, fill):
    """``(S, E)`` entry-ordered rows holding the ``marked`` ones of one ray's
    slot-ordered ``(S, E')`` cells, ``fill`` elsewhere."""
    rows = np.full((lut.num_subspaces, lut.num_entries), fill, dtype=cells.dtype)
    subspace, column = np.nonzero(marked)
    slot_entries = scene.leaf_primitives.reshape(scene.leaf_primitives.shape[0], -1)
    rows[subspace, slot_entries[subspace, column]] = cells[subspace, column]
    return rows


def ray_slice(lut: SelectiveLUT, scene, subspace_id: int, ray_id: int):
    """``(entry_ids, values)`` one ray selected in one subspace."""
    columns = np.flatnonzero(lut.hits[ray_id, subspace_id])
    slot_entries = scene.leaf_primitives[subspace_id].reshape(-1)
    return slot_entries[columns], lut.table[ray_id, subspace_id, columns]


def dense_rows(lut, scene, ray_id: int) -> np.ndarray:
    """Dense ``(S, E)`` values of one ray, ``NaN`` where it selected nothing."""
    if isinstance(lut, ReferenceLUT):
        return lut.rows(lut.values, ray_id, np.nan)
    return _entry_rows(lut, scene, lut.table[ray_id], lut.hits[ray_id], np.nan)


def hit_mask_rows(lut, scene, ray_id: int) -> np.ndarray:
    """Dense boolean ``(S, E)`` selection mask of one ray."""
    if isinstance(lut, ReferenceLUT):
        return lut.rows([np.ones(e.shape, dtype=bool) for e in lut.entries], ray_id, False)
    hit = lut.hits[ray_id]
    return _entry_rows(lut, scene, hit, hit, False)


def inner_mask_rows(lut, scene, ray_id: int) -> np.ndarray:
    """Dense boolean ``(S, E)`` inner-sphere mask of one ray (JUNO-M)."""
    if isinstance(lut, ReferenceLUT):
        return lut.rows(lut.inner_flags, ray_id, False)
    inner = lut.inner[ray_id]
    return _entry_rows(lut, scene, inner, inner, False)


def reference_trace_layer(scene, layer_id, origins_xy, t_max, origin_z, dtype=np.float64):
    """One layer, one pass: ``(ray_index, entry_index, dist_sq, stats)``.

    The slab tests run in float64, the sphere tests in ``dtype``; ``dist_sq``
    is every hit's ``d²`` as its sphere test computed it.  Hits come out
    ordered by (leaf node index, ray, in-leaf position).
    """
    centres_xy, radii = layer_spheres(scene, layer_id)
    origins_xy = np.atleast_2d(np.asarray(origins_xy, dtype=np.float64))
    num_rays = origins_xy.shape[0]
    t_max_arr = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (num_rays,))
    stats = TraversalStats(rays=num_rays)
    empty = (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=dtype),
        stats,
    )
    if num_rays == 0:
        return empty
    flat = reference_bvh(scene, layer_id).flatten()
    ox = origins_xy[:, 0]
    oy = origins_xy[:, 1]
    parent, level_offsets, leaf_nodes = flat.topology()
    in_x = (ox[None, :] >= flat.node_min[:, 0, None]) & (ox[None, :] <= flat.node_max[:, 0, None])
    in_y = (oy[None, :] >= flat.node_min[:, 1, None]) & (oy[None, :] <= flat.node_max[:, 1, None])
    t_entry = np.maximum(flat.node_min[:, 2] - origin_z, 0.0)
    t_exit = flat.node_max[:, 2] - origin_z
    slab = in_x & in_y & (t_max_arr[None, :] >= t_entry[:, None]) & (t_exit[:, None] >= 0.0)
    reach = np.empty((flat.num_nodes, num_rays), dtype=bool)
    reach[0] = True
    for level in range(1, len(level_offsets) - 1):
        lo = int(level_offsets[level])
        hi = int(level_offsets[level + 1])
        parents = parent[lo:hi]
        reach[lo:hi] = reach[parents] & slab[parents]
    stats.node_visits = int(reach.sum())
    stats.aabb_tests = stats.node_visits
    leaf_pass = reach[leaf_nodes] & slab[leaf_nodes]
    pair_leaf, pair_ray = np.nonzero(leaf_pass)
    counts = flat.leaf_count[leaf_nodes[pair_leaf]]
    stats.prim_tests = int(counts.sum())
    if not stats.prim_tests:
        return empty
    starts = flat.leaf_start[leaf_nodes[pair_leaf]]
    offsets = np.cumsum(counts) - counts
    within = np.arange(stats.prim_tests, dtype=np.int64) - np.repeat(offsets, counts)
    prim_ids = flat.leaf_primitives[np.repeat(starts, counts) + within]
    ray_ids = np.repeat(pair_ray, counts)
    dx = ox.astype(dtype)[ray_ids] - centres_xy[prim_ids, 0].astype(dtype)
    dy = oy.astype(dtype)[ray_ids] - centres_xy[prim_ids, 1].astype(dtype)
    dist_sq = dx * dx + dy * dy
    radii_sq = (radii[prim_ids] ** 2).astype(dtype)
    z_offset = np.asarray(scene.z[layer_id] - origin_z, dtype=np.float64).astype(dtype)
    inside = dist_sq <= radii_sq
    half_chord = np.sqrt(np.maximum(radii_sq - dist_sq, 0.0))
    t_hit = z_offset - half_chord
    accepted = inside & (t_hit <= t_max_arr[ray_ids].astype(dtype)) & (t_hit >= 0.0)
    stats.hits = int(np.count_nonzero(accepted))
    return ray_ids[accepted].astype(np.int64), prim_ids[accepted], dist_sq[accepted], stats


def sqrt_form_accepts(y, offset, t_max, guard) -> np.ndarray:
    """The float32 accept test on the hit time: ``fl(offset − fl(sqrt(y))) <=
    t_max``, and ``>= 0`` where ``guard``; NaN (``y < 0``) is a miss.  The
    operands and ``guard`` broadcast; the tracer's bound must equal it cell
    for cell."""
    with np.errstate(invalid="ignore"):
        t_hit = np.asarray(offset, dtype=np.float32) - np.sqrt(np.asarray(y, dtype=np.float32))
    return (t_hit <= t_max) & ((t_hit >= 0.0) | ~np.asarray(guard, dtype=bool))


def reference_construct(
    scene,
    base_radius,
    origin_offsets,
    metric,
    inner_sphere_ratio,
    origins,
    t_max,
    thresholds,
    dtype=np.float64,
) -> ReferenceLUT:
    """The per-subspace loop: trace, stable sort by ray, ``searchsorted``.

    Sphere tests and values run in ``dtype``.
    """
    num_rays, num_subspaces, _ = origins.shape
    offsets, entries, values = [], [], []
    inner_flags = [] if inner_sphere_ratio is not None else None
    stats = TraversalStats()
    for s in range(num_subspaces):
        offset = float(origin_offsets[s])
        ray_index, entry_index, dist_sq, layer_stats = reference_trace_layer(
            scene, s, origins[:, s, :], t_max[:, s], scene.z[s] - offset, dtype
        )
        stats.merge(layer_stats)
        order = np.argsort(ray_index, kind="stable")
        ray_sorted = ray_index[order]
        dist_sq = dist_sq[order]
        offsets.append(
            np.searchsorted(ray_sorted, np.arange(num_rays + 1), side="left").astype(np.int64)
        )
        entries.append(entry_index[order].astype(np.int64))
        if metric is Metric.L2:
            values.append(dist_sq)
        else:
            # (offset - t_hit)^2 = r^2 - d^2 against the entry's enlarged sphere
            query_norm_sq = np.sum(origins[ray_sorted, s, :] ** 2, axis=1)
            norm_term = (query_norm_sq - base_radius**2).astype(dtype)
            radii_sq = (layer_spheres(scene, s)[1][entries[-1]] ** 2).astype(dtype)
            values.append((norm_term + (radii_sq - dist_sq)) / 2.0)
        if inner_flags is not None:
            per_hit_threshold = thresholds[ray_sorted, s]
            if metric is Metric.L2:
                inner_flags.append(np.sqrt(values[-1]) <= per_hit_threshold * inner_sphere_ratio)
            else:
                margin = (1.0 - inner_sphere_ratio) * np.abs(per_hit_threshold)
                inner_flags.append(values[-1] >= per_hit_threshold + margin)
    return ReferenceLUT(
        num_rays=num_rays,
        num_entries=scene.entry_slots.shape[1],
        metric=metric,
        offsets=offsets,
        entries=entries,
        values=values,
        inner_flags=inner_flags,
        stats=stats,
        inner_sphere_ratio=inner_sphere_ratio,
    )


@dataclass
class Ray:
    """A ray with OptiX-style travel limits and payload.

    Attributes:
        origin: ``(3,)`` ray origin.
        direction: ``(3,)`` travel direction (unit length by convention).
        t_max: maximum travel time; intersections beyond it are ignored.
            This is the knob JUNO uses to realise a dynamic distance
            threshold without rebuilding the scene (Fig. 9, right).
        payload: free-form data; JUNO stores query / cluster / subspace ids.
    """

    origin: np.ndarray
    direction: np.ndarray
    t_max: float = np.inf
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.direction = np.asarray(self.direction, dtype=np.float64).reshape(3)
        if float(self.direction @ self.direction) <= 0.0:
            raise ValueError("ray direction must be non-zero")
        self.t_max = float(self.t_max)
        if self.t_max < 0.0:
            raise ValueError("t_max must be non-negative")

    def at(self, t: float) -> np.ndarray:
        """Point reached after travelling ``t`` units."""
        return self.origin + t * self.direction


@dataclass(frozen=True)
class HitRecord:
    """One accepted ray/sphere intersection at travel time ``t_hit``."""

    layer_id: int
    entry_id: int
    t_hit: float


def aabb_intersects_ray(box: AABB, origin, direction, t_min=0.0, t_max=np.inf) -> bool:
    """Slab test: does the ray segment ``[t_min, t_max]`` hit the box?

    A zero direction component requires the origin to lie within the slab
    on that axis.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    direction = np.asarray(direction, dtype=np.float64).reshape(3)
    low, high = float(t_min), float(t_max)
    for axis in range(3):
        d, o = direction[axis], origin[axis]
        if abs(d) < 1e-300:
            if o < box.minimum[axis] or o > box.maximum[axis]:
                return False
            continue
        inv = 1.0 / d
        t0, t1 = sorted(((box.minimum[axis] - o) * inv, (box.maximum[axis] - o) * inv))
        low, high = max(low, t0), min(high, t1)
        if not low <= high:  # a NaN bound passes no box
            return False
    return True


def sphere_intersect(sphere: Sphere, origin, direction, t_max=np.inf) -> float | None:
    """Nearest intersection parameter ``t_hit`` in ``[0, t_max]``, or ``None``.

    Solves ``|o + t d - c|^2 = r^2`` for the smallest non-negative root.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    direction = np.asarray(direction, dtype=np.float64).reshape(3)
    oc = origin - sphere.centre
    a = float(direction @ direction)
    b = 2.0 * float(oc @ direction)
    c = float(oc @ oc) - sphere.radius**2
    discriminant = b * b - 4.0 * a * c
    if discriminant < 0.0:
        return None
    sqrt_disc = float(np.sqrt(discriminant))
    for root in ((-b - sqrt_disc) / (2.0 * a), (-b + sqrt_disc) / (2.0 * a)):
        if 0.0 <= root <= t_max:
            return float(root)
    return None


def bvh_traverse(bvh: BVH, origin, direction, t_max=np.inf, stats=None):
    """Stack walk of one ray through one BVH: ``[(sphere_index, t_hit)]`` by
    ``t_hit``; node, box and sphere-test counts are added to ``stats``."""
    stats = TraversalStats() if stats is None else stats
    hits = []
    stack = [bvh.root]
    while stack:
        node = stack.pop()
        stats.node_visits += 1
        stats.aabb_tests += 1
        if not aabb_intersects_ray(node.aabb, origin, direction, 0.0, t_max):
            continue
        if node.is_leaf:
            for index in node.primitive_indices:
                stats.prim_tests += 1
                t_hit = sphere_intersect(bvh.spheres[index], origin, direction, t_max)
                if t_hit is not None:
                    hits.append((index, t_hit))
        else:
            stack += [node.left, node.right]
    return sorted(hits, key=lambda pair: pair[1])


def trace(scene: TraversableScene, ray: Ray) -> tuple[list[HitRecord], TraversalStats]:
    """Exact traversal of one ray through every layer's BVH, hits by ``t_hit``."""
    stats = TraversalStats(rays=1)
    records = [
        HitRecord(layer_id=layer, entry_id=index, t_hit=t_hit)
        for layer in range(scene.z.shape[0])
        for index, t_hit in bvh_traverse(
            reference_bvh(scene, layer), ray.origin, ray.direction, ray.t_max, stats
        )
    ]
    stats.hits = len(records)
    return sorted(records, key=lambda record: record.t_hit), stats


def l2_distance_from_hit_time(t_hit, sphere_radius, origin_offset):
    """``d = sqrt(R^2 - (z_off - t_hit)^2)`` -- the left half of Fig. 9."""
    chord_sq = (origin_offset - np.asarray(t_hit, dtype=np.float64)) ** 2
    return np.sqrt(np.maximum(sphere_radius**2 - chord_sq, 0.0))


def inner_product_from_hit_time(t_hit, query_norm_sq, base_radius, origin_offset):
    """``IP(e, q) = (|q|^2 - R^2 + (z_off - t_hit)^2) / 2`` against the
    enlarged sphere ``sqrt(R^2 + |e|^2)`` (Sec. 4.2)."""
    chord_sq = (origin_offset - np.asarray(t_hit, dtype=np.float64)) ** 2
    return (query_norm_sq - base_radius**2 + chord_sq) / 2.0


def per_ray_hits(scene, layer_id, origin_xy, origin_z, t_max):
    """Exact traversal of one ray through one layer of ``scene``: its own
    BVH alone, so the counters are this layer's.  Returns
    ``({entry_id: t_hit}, stats)``."""
    stats = TraversalStats(rays=1)
    origin = [origin_xy[0], origin_xy[1], origin_z]
    hits = dict(bvh_traverse(reference_bvh(scene, layer_id), origin, [0, 0, 1], t_max, stats))
    stats.hits = len(hits)
    return hits, stats


def tmax_to_threshold(t_max, sphere_radius, origin_offset):
    """Inverse of :meth:`~repro.core.threshold.ThresholdModel.threshold_to_tmax`."""
    t_max = np.asarray(t_max, dtype=np.float64)
    return np.sqrt(np.maximum(sphere_radius**2 - (origin_offset - t_max) ** 2, 0.0))


def assert_lut_matches_reference(lut: SelectiveLUT, scene, expected: ReferenceLUT) -> None:
    """Every ray's hit set, value bytes and inner flags equal; every counter
    equal.  ``expected`` is the float32 reference: the table is float32."""
    assert lut.num_rays == expected.num_rays
    assert lut.num_entries == expected.num_entries
    assert lut.metric is expected.metric
    assert lut.stats == expected.stats
    assert lut.num_subspaces == len(expected.offsets)
    assert lut.total_hits == sum(e.shape[0] for e in expected.entries)
    assert lut.table.dtype == np.float32
    assert all(values.dtype == np.float32 for values in expected.values)
    assert lut.table.shape[:2] == (lut.num_rays, lut.num_subspaces)
    assert (lut.inner is None) == (expected.inner_flags is None)
    # the hit grid marks exactly the selected cells; what the others hold is
    # assert_miss_fill's to check
    assert lut.hits.dtype == bool and lut.hits.shape == lut.table.shape
    assert np.count_nonzero(lut.hits) == lut.total_hits
    if lut.inner is not None:
        assert lut.inner.dtype == bool and lut.inner.shape == lut.table.shape
        assert not (lut.inner & ~lut.hits).any()
    for ray in range(lut.num_rays):
        assert dense_rows(lut, scene, ray).tobytes() == dense_rows(expected, scene, ray).tobytes()
        if lut.inner is not None:
            got, want = (inner_mask_rows(x, scene, ray) for x in (lut, expected))
            assert got.tobytes() == want.tobytes()
    for s in range(lut.num_subspaces):
        for ray in range(min(lut.num_rays, 3)):
            entry_ids, values = ray_slice(lut, scene, s, ray)
            cut = slice(expected.offsets[s][ray], expected.offsets[s][ray + 1])
            order = np.argsort(entry_ids)
            want_order = np.argsort(expected.entries[s][cut])
            assert entry_ids[order].tolist() == expected.entries[s][cut][want_order].tolist()
            assert values[order].tobytes() == expected.values[s][cut][want_order].tobytes()


def assert_hits_are_accepted(lut: SelectiveLUT, constructor, origins, t_max) -> None:
    """``lut.hits`` is the tracer's accepted grid of the same rays, byte for byte."""
    scene = constructor.tracer.scene
    layers = np.arange(lut.num_subspaces)
    origin_z = scene.z[layers] - constructor.origin_offsets[layers]
    traced, _ = RayTracer(scene).trace_vertical_batch(layers, origins, t_max, origin_z)
    assert lut.hits.tobytes() == traced.accepted.tobytes()


def assert_miss_fill(lut: SelectiveLUT, thresholds=None, penalty_factor=None) -> None:
    """The cells no ray selected hold the miss value, the selected ones never NaN.

    With a ``penalty_factor`` (JUNO-H/L) the miss value of ray ``r`` in
    subspace ``s`` is the score's miss penalty cast to float32: the squared
    threshold (L2) or the threshold (inner product) times the factor;
    without one (JUNO-M) it is ``NaN``.
    """
    missed = ~lut.hits
    assert not np.isnan(lut.table[lut.hits]).any()
    if penalty_factor is None:
        assert np.isnan(lut.table[missed]).all()
        return
    thresholds = np.asarray(thresholds, dtype=np.float64)
    base = thresholds**2 if lut.metric is Metric.L2 else thresholds
    want = np.broadcast_to((base * penalty_factor).astype(np.float32)[:, :, None], missed.shape)
    assert lut.table[missed].tobytes() == want[missed].tobytes()


def assert_cells_address_codes(index) -> None:
    """Every member's gather cell is ``s * E'`` plus the slot holding its PQ
    code's sphere, each cluster's cells one block of one buffer.

    For each subspace the slot must be a filled lane of the scene's leaf
    grid whose ``leaf_primitives`` entry equals the member's code.
    """
    layout = index.subspace_index.flat_layout()
    num_subspaces, scene = index.config.num_subspaces, index.scene
    assert layout.members.shape == (index.num_points,)
    assert len(layout.cells) == layout.cluster_sizes.shape[0]
    buffer = layout.cells[0].base
    assert buffer.dtype == np.intp and buffer.shape == (num_subspaces * index.num_points,)
    for cluster, cells in enumerate(layout.cells):
        assert cells.base is buffer and cells.flags.c_contiguous
        start, stop = layout.member_base[cluster : cluster + 2]
        assert cells.shape == (num_subspaces, stop - start)
        offset = cells.ctypes.data - buffer.ctypes.data
        assert offset == buffer.itemsize * num_subspaces * start or not cells.size
        rows, columns = np.divmod(cells, scene.num_slots)
        assert (rows == np.arange(num_subspaces)[:, None]).all()
        for s in range(num_subspaces):
            assert (scene.leaf_radii_sq[s].reshape(-1)[columns[s]] >= 0).all()
            slot_entries = scene.leaf_primitives[s].reshape(-1)
            codes = index.codes[layout.members[start:stop], s]
            assert (slot_entries[columns[s]] == codes).all()


# The precision oracle's slack, in float32 ulps of a cell's scale: the largest
# square among the magnitudes of the cell's operands (ray origin, sphere
# centre, radius, offset, t_max).  docs/performance.md ("Float32 hot path")
# bounds the float32 error of the squared half chord and of the decoded value
# by 22 of them; 32 rounds that up.
ULPS = 32


def sphere_test_margins(ox, oy, cx, cy, radii_sq, offset, t_max):
    """``(near, slack)`` of the float64 sphere tests of a grid of cells.

    The arguments broadcast against each other.  A float32 sphere test can
    only disagree with the float64 one on a cell within ``slack`` of one of
    its three decision boundaries, each measured on the squared half chord
    ``h^2 = r^2 - d^2`` -- not on ``t_hit``, which ``sqrt`` makes
    ill-conditioned at the rim (an error ``e`` in ``h^2`` is ``e / 2h`` in
    ``t``):

    * the rim, ``h^2 = 0``;
    * ``t_hit = t_max``, i.e. ``h^2 = (offset - t_max)^2``;
    * ``t_hit = 0``, i.e. ``h^2 = offset^2`` (a sphere reaching the origin
      plane).

    ``near`` marks those cells; ``slack`` is :data:`ULPS` float32 ulps of
    each cell's scale.
    """
    half_chord_sq = radii_sq - ((ox - cx) ** 2 + (oy - cy) ** 2)
    squares = (ox**2, oy**2, cx**2, cy**2, radii_sq, offset**2, t_max**2)
    scale = np.maximum.reduce(np.broadcast_arrays(*squares))
    slack = ULPS * np.spacing(scale.astype(np.float32)).astype(np.float64)
    budget_sq = np.maximum(offset - t_max, 0.0) ** 2
    gaps = (half_chord_sq, half_chord_sq - budget_sq, offset**2 - half_chord_sq)
    near = np.minimum.reduce([np.abs(gap) for gap in gaps]) <= slack
    return near, slack


def assert_layer_within_precision(got, want, origins_xy, centres_xy, radii_sq, offset, t_max):
    """One layer's ``(R, E)`` float32 ``d²`` against float64 ones (NaN = miss).

    Hit states agree outside the near-boundary cells; where both hit, ``d²``
    agrees within the slack (the squared half chord ``h² = r² − d²`` the
    slack is measured on carries the same error).  Returns the ``(R,)``
    count of cells whose state differs.
    """
    near, slack = sphere_test_margins(
        origins_xy[:, None, 0],
        origins_xy[:, None, 1],
        centres_xy[None, :, 0],
        centres_xy[None, :, 1],
        radii_sq[None, :],
        offset,
        np.broadcast_to(np.asarray(t_max, dtype=np.float64), origins_xy.shape[:1])[:, None],
    )
    got_hit, want_hit = ~np.isnan(got), ~np.isnan(want)
    differs = got_hit != want_hit
    assert not (differs & ~near).any(), "a hit state differs away from every boundary"
    both = got_hit & want_hit
    assert (np.abs(got.astype(np.float64) - want) <= slack)[both].all()
    return differs.sum(axis=1)


def assert_lut_within_precision(lut, expected, scene, origins, t_max, thresholds, origin_offsets):
    """The float32 :class:`SelectiveLUT` against the float64 :class:`ReferenceLUT`.

    The traversal counters are equal; per subspace, hit states agree outside
    the near-boundary cells, values within the slack (L2 values are ``d^2``,
    inner products ``(|q|^2 - R^2 + h^2) / 2``: both inherit the slack of
    ``h^2``) and inner-sphere flags wherever the value is not within twice
    the slack (the value's, plus the rounding of its ``sqrt``) of the flag's
    bound.  Returns the ``(S, R)`` count of cells whose hit state or flag
    differs.
    """
    for name in ("rays", "node_visits", "aabb_tests", "prim_tests"):
        assert getattr(lut.stats, name) == getattr(expected.stats, name), name
    num_rays = lut.num_rays
    flipped = np.zeros((lut.num_subspaces, num_rays), dtype=np.int64)
    for s in range(lut.num_subspaces):
        centres_xy, radii = layer_spheres(scene, s)
        columns = scene.entry_slots[s]
        got = lut.table[:, s, columns]
        counts = np.diff(expected.offsets[s])
        hit_rays = np.repeat(np.arange(num_rays), counts)
        want = np.full((num_rays, columns.size), np.nan)
        want[hit_rays, expected.entries[s]] = expected.values[s]
        offset = scene.z[s] - (scene.z[s] - float(origin_offsets[s]))
        near, slack = sphere_test_margins(
            origins[:, s, None, 0],
            origins[:, s, None, 1],
            centres_xy[None, :, 0],
            centres_xy[None, :, 1],
            radii[None, :] ** 2,
            offset,
            t_max[:, s, None],
        )
        got_hit, want_hit = lut.hits[:, s, columns], ~np.isnan(want)
        differs = got_hit != want_hit
        assert not (differs & ~near).any(), f"subspace {s}: a hit flipped away from boundaries"
        both = got_hit & want_hit
        assert (np.abs(got - want) <= slack)[both].all(), f"subspace {s}: a value is off"
        if lut.inner is not None:
            flags = np.zeros((num_rays, columns.size), dtype=bool)
            flags[hit_rays, expected.entries[s]] = expected.inner_flags[s]
            threshold, ratio = thresholds[:, s, None], expected.inner_sphere_ratio
            if lut.metric is Metric.L2:
                bound = (threshold * ratio) ** 2
            else:
                bound = threshold + (1.0 - ratio) * np.abs(threshold)
            flag_differs = both & (lut.inner[:, s, columns] != flags)
            assert not (flag_differs & (np.abs(want - bound) > 2 * slack)).any()
            differs |= flag_differs
        flipped[s] = differs.sum(axis=1)
    return flipped
