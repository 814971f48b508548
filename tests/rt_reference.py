"""Reference RT-select kernels the stacked tracer is pinned against.

Not a test module: the oracles the RT-select test files share.

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
* :func:`assert_hits_are_accepted` and :func:`assert_miss_fill` pin what the
  table holds besides the oracle's values: its hit grid is the tracer's
  accepted grid, and every other cell the ray's miss value -- the float32
  miss penalty (JUNO-H/L), ``NaN`` for JUNO-M.
* :func:`assert_columns_address_codes` pins the build-time remap of PQ
  codes to the table's leaf-slot columns on any trained, loaded or
  compacted index.
* The exact per-ray tracer -- :class:`Ray`, :class:`HitRecord`,
  :func:`trace` (every layer of a scene), :func:`bvh_traverse` (one BVH's
  stack walk), :func:`aabb_intersects_ray` and :func:`sphere_intersect` --
  is the float64 ground truth for hit sets, hit times and all five
  traversal counters; :func:`per_ray_hits` walks one ray through one layer
  with it.  It reports ``t_hit``, as an RT core does, and
  :func:`l2_distance_from_hit_time` / :func:`inner_product_from_hit_time`
  are the paper's hit-shader decodes of it (Sec. 4.2, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.selective_lut import SelectiveLUT
from repro.metrics.distances import Metric
from repro.rt.aabb import AABB
from repro.rt.bvh import BVH
from repro.rt.primitives import Sphere
from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats


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

    # The SelectiveLUT accessors the looped score stage reads, so a
    # reference LUT can be scored like a production one.
    def dense_rows(self, ray: int) -> np.ndarray:
        return self.rows(self.values, ray, np.nan)

    def hit_mask_rows(self, ray: int) -> np.ndarray:
        return self.rows([np.ones(e.shape, dtype=bool) for e in self.entries], ray, False)

    def inner_mask_rows(self, ray: int) -> np.ndarray:
        return self.rows(self.inner_flags, ray, False)


def reference_trace_layer(scene, layer_id, origins_xy, t_max, origin_z, dtype=np.float64):
    """One layer, one pass: ``(ray_index, entry_index, dist_sq, stats)``.

    The slab tests run in float64, the sphere tests in ``dtype``; ``dist_sq``
    is every hit's ``d²`` as its sphere test computed it.  Hits come out
    ordered by (leaf node index, ray, in-leaf position).
    """
    layer = scene.layer(layer_id)
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
    if layer.num_spheres == 0 or num_rays == 0:
        return empty
    flat = layer.bvh.flatten()
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
    dx = ox.astype(dtype)[ray_ids] - layer.centres_xy[prim_ids, 0].astype(dtype)
    dy = oy.astype(dtype)[ray_ids] - layer.centres_xy[prim_ids, 1].astype(dtype)
    dist_sq = dx * dx + dy * dy
    radii_sq = (layer.radii[prim_ids] ** 2).astype(dtype)
    z_offset = np.asarray(layer.z - origin_z, dtype=np.float64).astype(dtype)
    inside = dist_sq <= radii_sq
    half_chord = np.sqrt(np.maximum(radii_sq - dist_sq, 0.0))
    t_hit = z_offset - half_chord
    accepted = inside & (t_hit <= t_max_arr[ray_ids].astype(dtype)) & (t_hit >= 0.0)
    stats.hits = int(np.count_nonzero(accepted))
    return ray_ids[accepted].astype(np.int64), prim_ids[accepted], dist_sq[accepted], stats


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
    num_entries = 0
    for s in range(num_subspaces):
        layer = scene.layer(s)
        num_entries = max(num_entries, layer.num_spheres)
        offset = float(origin_offsets[s])
        ray_index, entry_index, dist_sq, layer_stats = reference_trace_layer(
            scene, s, origins[:, s, :], t_max[:, s], layer.z - offset, dtype
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
            radii_sq = (layer.radii[entries[-1]] ** 2).astype(dtype)
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
        num_entries=num_entries,
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

    sphere: Sphere
    t_hit: float
    ray: Ray


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
        if low > high:
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
    stack = [] if bvh.root is None else [bvh.root]
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
        HitRecord(sphere=layer.spheres[index], t_hit=t_hit, ray=ray)
        for layer in scene.layers.values()
        for index, t_hit in bvh_traverse(layer.bvh, ray.origin, ray.direction, ray.t_max, stats)
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
    """Exact traversal of one ray through one layer of ``scene``.

    The per-ray tracer walks every layer of its scene, so the layer is
    traced in a scene of its own: the counters are then this layer's alone.
    Returns ``({entry_id: t_hit}, stats)``.
    """
    alone = TraversableScene(leaf_size=scene.leaf_size)
    alone.layers[layer_id] = scene.layer(layer_id)
    ray = Ray(origin=[origin_xy[0], origin_xy[1], origin_z], direction=[0, 0, 1], t_max=t_max)
    records, stats = trace(alone, ray)
    return {r.sphere.payload["entry_id"]: r.t_hit for r in records}, stats


def assert_lut_matches_reference(lut: SelectiveLUT, expected: ReferenceLUT) -> None:
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
    assert lut.table.shape[:2] == (lut.num_subspaces, lut.num_rays)
    assert (lut.inner is None) == (expected.inner_flags is None)
    # the hit grid marks exactly the selected cells; what the others hold is
    # assert_miss_fill's to check
    assert lut.hits.dtype == bool and lut.hits.shape == lut.table.shape
    assert np.count_nonzero(lut.hits) == lut.total_hits
    if lut.inner is not None:
        assert lut.inner.dtype == bool and lut.inner.shape == lut.table.shape
        assert not (lut.inner & ~lut.hits).any()
    for ray in range(lut.num_rays):
        assert lut.dense_rows(ray).tobytes() == expected.rows(expected.values, ray, np.nan).tobytes()
        if lut.inner is not None:
            want = expected.rows(expected.inner_flags, ray, False)
            assert lut.inner_mask_rows(ray).tobytes() == want.tobytes()
    for s in range(lut.num_subspaces):
        for ray in range(min(lut.num_rays, 3)):
            entry_ids, values = lut.ray_slice(s, ray)
            cut = slice(expected.offsets[s][ray], expected.offsets[s][ray + 1])
            order = np.argsort(entry_ids)
            want_order = np.argsort(expected.entries[s][cut])
            assert entry_ids[order].tolist() == expected.entries[s][cut][want_order].tolist()
            assert values[order].tobytes() == expected.values[s][cut][want_order].tobytes()


def assert_hits_are_accepted(lut: SelectiveLUT, constructor, origins, t_max) -> None:
    """``lut.hits`` is the tracer's accepted grid of the same rays, byte for byte."""
    scene = constructor.tracer.scene
    layers = np.arange(lut.num_subspaces)
    origin_z = np.array([scene.layer(s).z for s in layers]) - constructor.origin_offsets[layers]
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
    want = np.broadcast_to((base * penalty_factor).astype(np.float32).T[:, :, None], missed.shape)
    assert lut.table[missed].tobytes() == want[missed].tobytes()


def assert_columns_address_codes(index) -> None:
    """Every member's gather column is the slot holding its PQ code's sphere.

    For each subspace the column must be a filled lane of the scene's leaf
    grid whose ``leaf_primitives`` entry equals the member's code.
    """
    layout = index.subspace_index.flat_layout()
    num_subspaces = index.config.num_subspaces
    assert layout.columns.dtype == np.int32 and layout.columns.flags.c_contiguous
    assert layout.columns.shape == (num_subspaces, index.num_points)
    assert layout.members.shape == (index.num_points,)
    stacks, slot = index.scene.stacked()
    for s in range(num_subspaces):
        group, position = slot[s]
        columns = layout.columns[s]
        assert (stacks[group].leaf_radii_sq[position].reshape(-1)[columns] >= 0).all()
        slot_entries = stacks[group].leaf_primitives[position].reshape(-1)
        assert (slot_entries[columns] == index.codes[layout.members, s]).all()


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
        layer = scene.layer(s)
        if layer.num_spheres == 0:
            continue
        columns = scene.entry_slots(s)
        got = lut.table[s][:, columns]
        counts = np.diff(expected.offsets[s])
        hit_rays = np.repeat(np.arange(num_rays), counts)
        want = np.full((num_rays, layer.num_spheres), np.nan)
        want[hit_rays, expected.entries[s]] = expected.values[s]
        offset = layer.z - (layer.z - float(origin_offsets[s]))
        near, slack = sphere_test_margins(
            origins[:, s, None, 0],
            origins[:, s, None, 1],
            layer.centres_xy[None, :, 0],
            layer.centres_xy[None, :, 1],
            layer.radii[None, :] ** 2,
            offset,
            t_max[:, s, None],
        )
        got_hit, want_hit = lut.hits[s][:, columns], ~np.isnan(want)
        differs = got_hit != want_hit
        assert not (differs & ~near).any(), f"subspace {s}: a hit flipped away from boundaries"
        both = got_hit & want_hit
        assert (np.abs(got - want) <= slack)[both].all(), f"subspace {s}: a value is off"
        if lut.inner is not None:
            flags = np.zeros((num_rays, layer.num_spheres), dtype=bool)
            flags[hit_rays, expected.entries[s]] = expected.inner_flags[s]
            threshold, ratio = thresholds[:, s, None], expected.inner_sphere_ratio
            if lut.metric is Metric.L2:
                bound = (threshold * ratio) ** 2
            else:
                bound = threshold + (1.0 - ratio) * np.abs(threshold)
            flag_differs = both & (lut.inner[s][:, columns] != flags)
            assert not (flag_differs & (np.abs(want - bound) > 2 * slack)).any()
            differs |= flag_differs
        flipped[s] = differs.sum(axis=1)
    return flipped
