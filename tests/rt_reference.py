"""Reference RT-select kernels the stacked tracer is pinned against.

Not a test module: the oracles the RT-select test files share.

* :func:`reference_trace_layer` and :func:`reference_construct` are the
  layer-at-a-time implementation ``src/`` shipped before the scene was
  traversed as a stack of layers -- one level-synchronous pass per layer,
  then a stable ``argsort`` by ray and a ``searchsorted`` per subspace to
  assemble per-subspace CSR hit lists (:class:`ReferenceLUT`).  The stacked
  path hands over a dense grid instead of lists, so what it must reproduce
  is every ray's hit *set* with every value byte for byte, plus all five
  counters; the order of hits within a ray is not part of the contract.
* :func:`assert_columns_address_codes` pins the build-time remap of PQ
  codes to the table's leaf-slot columns on any trained, loaded or
  compacted index.
* :func:`per_ray_hits` walks one ray through one layer with the exact
  per-ray traversal (:meth:`repro.rt.tracer.RayTracer.trace`), the ground
  truth for hit sets, hit times and all five traversal counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inner_product import inner_product_from_hit_time, l2_distance_from_hit_time
from repro.core.selective_lut import SelectiveLUT
from repro.metrics.distances import Metric
from repro.rt.primitives import Ray
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

    def rows(self, per_hit: list[np.ndarray], ray: int, fill) -> np.ndarray:
        """Entry-ordered ``(S, E)`` rows of one ray's hits (``fill`` = no hit)."""
        out = np.full((len(self.offsets), self.num_entries), fill, dtype=per_hit[0].dtype)
        for s, offsets in enumerate(self.offsets):
            cut = slice(offsets[ray], offsets[ray + 1])
            out[s, self.entries[s][cut]] = per_hit[s][cut]
        return out


def reference_trace_layer(scene, layer_id, origins_xy, t_max, origin_z):
    """One layer, one pass: ``(ray_index, entry_index, t_hit, stats)``.

    Hits come out ordered by (leaf node index, ray, in-leaf position).
    """
    layer = scene.layer(layer_id)
    origins_xy = np.atleast_2d(np.asarray(origins_xy, dtype=np.float64))
    num_rays = origins_xy.shape[0]
    t_max_arr = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (num_rays,))
    stats = TraversalStats(rays=num_rays)
    empty = (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.float64),
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
    dx = ox[ray_ids] - layer.centres_xy[prim_ids, 0]
    dy = oy[ray_ids] - layer.centres_xy[prim_ids, 1]
    dist_sq = dx * dx + dy * dy
    radii_sq = layer.radii[prim_ids] ** 2
    z_offset = layer.z - origin_z
    inside = dist_sq <= radii_sq
    half_chord = np.sqrt(np.maximum(radii_sq - dist_sq, 0.0))
    t_hit = z_offset - half_chord
    accepted = inside & (t_hit <= t_max_arr[ray_ids]) & (t_hit >= 0.0)
    stats.hits = int(np.count_nonzero(accepted))
    return ray_ids[accepted].astype(np.int64), prim_ids[accepted], t_hit[accepted], stats


def reference_construct(
    scene, base_radius, origin_offsets, metric, inner_sphere_ratio, origins, t_max, thresholds
) -> ReferenceLUT:
    """The per-subspace loop: trace, stable sort by ray, ``searchsorted``."""
    num_rays, num_subspaces, _ = origins.shape
    offsets, entries, values = [], [], []
    inner_flags = [] if inner_sphere_ratio is not None else None
    stats = TraversalStats()
    num_entries = 0
    for s in range(num_subspaces):
        layer = scene.layer(s)
        num_entries = max(num_entries, layer.num_spheres)
        offset = float(origin_offsets[s])
        ray_index, entry_index, t_hit, layer_stats = reference_trace_layer(
            scene, s, origins[:, s, :], t_max[:, s], layer.z - offset
        )
        stats.merge(layer_stats)
        order = np.argsort(ray_index, kind="stable")
        ray_sorted = ray_index[order]
        t_sorted = t_hit[order]
        offsets.append(
            np.searchsorted(ray_sorted, np.arange(num_rays + 1), side="left").astype(np.int64)
        )
        entries.append(entry_index[order].astype(np.int64))
        if metric is Metric.L2:
            values.append(l2_distance_from_hit_time(t_sorted, base_radius, offset) ** 2)
        else:
            query_norm_sq = np.sum(origins[ray_sorted, s, :] ** 2, axis=1)
            values.append(inner_product_from_hit_time(t_sorted, query_norm_sq, base_radius, offset))
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
    )


def per_ray_hits(scene, layer_id, origin_xy, origin_z, t_max):
    """Exact traversal of one ray through one layer of ``scene``.

    The per-ray tracer walks every layer of its scene, so the layer is
    traced in a scene of its own: the counters are then this layer's alone.
    Returns ``({entry_id: t_hit}, stats)``.
    """
    alone = TraversableScene(leaf_size=scene.leaf_size)
    alone.layers[layer_id] = scene.layer(layer_id)
    tracer = RayTracer(alone)
    ray = Ray(origin=[origin_xy[0], origin_xy[1], origin_z], direction=[0, 0, 1], t_max=t_max)
    records = tracer.trace(ray)
    return {r.sphere.payload["entry_id"]: r.t_hit for r in records}, tracer.stats


def assert_lut_matches_reference(lut: SelectiveLUT, expected: ReferenceLUT) -> None:
    """Every ray's hit set, value bytes and inner flags equal; every counter equal."""
    assert lut.num_rays == expected.num_rays
    assert lut.num_entries == expected.num_entries
    assert lut.metric is expected.metric
    assert lut.stats == expected.stats
    assert lut.num_subspaces == len(expected.offsets)
    assert lut.total_hits == sum(e.shape[0] for e in expected.entries)
    assert lut.table.dtype == np.float64
    assert lut.table.shape[:2] == (lut.num_subspaces, lut.num_rays)
    assert (lut.inner is None) == (expected.inner_flags is None)
    # unselected cells are NaN, so the table's occupancy is the hit count
    assert np.count_nonzero(~np.isnan(lut.table)) == lut.total_hits
    if lut.inner is not None:
        assert lut.inner.dtype == bool and lut.inner.shape == lut.table.shape
        assert not (lut.inner & np.isnan(lut.table)).any()
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


def assert_columns_address_codes(index) -> None:
    """Every member's gather column is the slot holding its PQ code's sphere.

    For each subspace the column must be a filled lane of the scene's leaf
    grid whose ``leaf_primitives`` entry equals the member's code.
    """
    layout = index.subspace_index.flat_layout()
    num_subspaces = index.config.num_subspaces
    assert layout.columns.dtype == np.int32
    assert layout.columns.shape == (index.num_points, num_subspaces)
    assert layout.members.shape == (index.num_points,)
    stacks, slot = index.scene.stacked()
    for s in range(num_subspaces):
        group, position = slot[s]
        columns = layout.columns[:, s]
        assert (stacks[group].leaf_radii_sq[position].reshape(-1)[columns] >= 0).all()
        slot_entries = stacks[group].leaf_primitives[position].reshape(-1)
        assert (slot_entries[columns] == index.codes[layout.members, s]).all()
