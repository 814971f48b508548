"""The vectorised batch tracer over the scene's stacked arrays.

:meth:`RayTracer.trace_vertical_batch` exploits the structure of JUNO's
rays -- all parallel to ``+z``, each targeting the layer just above its
origin plane -- to traverse a whole *block* of layers for a whole batch of
rays in one straight line of array passes over the scene's stack
(:class:`~repro.rt.scene.TraversableScene`), paying the interpreter once per
block.  Node boxes are nested, so the float64 slab mask *is* the traversal:
node, box and sphere-test counts are those of a per-ray BVH walk
(``tests/rt_reference.py`` keeps one as the oracle).  The sphere tests run in
float32, as on an RT core.

The tracer evaluates every sphere test on a dense ``(layer, ray, leaf slot)``
grid and returns that grid (:class:`BatchHits`) without extracting hit lists
from it: the accepted mask, and the squared in-plane distance ``d²`` the
sphere test computed before its ``sqrt``.  An RT core hands its hit shader
only ``t_hit``, from which the paper decodes ``d²`` (Sec. 4.2); here ``d²`` is
already in hand, so the selective LUT (:mod:`repro.core.selective_lut`) is
written from it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rt.scene import TraversableScene


@dataclass
class TraversalStats:
    """Aggregate traversal work counters.

    Attributes:
        rays: number of rays cast.
        node_visits: BVH nodes popped from the traversal stack.
        aabb_tests: ray/AABB slab tests performed.
        prim_tests: ray/sphere intersection tests performed.
        hits: accepted intersections (hit-shader invocations).
    """

    rays: int = 0
    node_visits: int = 0
    aabb_tests: int = 0
    prim_tests: int = 0
    hits: int = 0

    def merge(self, other: "TraversalStats") -> "TraversalStats":
        """Accumulate another stats record into this one (in place)."""
        self.rays += other.rays
        self.node_visits += other.node_visits
        self.aabb_tests += other.aabb_tests
        self.prim_tests += other.prim_tests
        self.hits += other.hits
        return self


@dataclass
class BatchHits:
    """The dense hit grid of a batch of rays against a block of layers.

    One cell per (layer, ray, slot), a slot being one (leaf, lane) of the
    layer's leaf-ordered sphere grid (:class:`~repro.rt.scene.TraversableScene`),
    handed over as the sphere tests left it.

    Attributes:
        accepted: ``(L, R, E')`` whether the ray hit the slot's sphere,
            ``L`` counting within the block; the selective LUT keeps it as
            its hit grid.
        dist_sq: ``(L, R, E')`` float32 squared in-plane distance from the
            ray to the slot's sphere centre, as the sphere test computed it;
            meaningless where not ``accepted`` (padding lanes hold another
            sphere's), so a reader selects by ``accepted``.  The caller owns
            it and may overwrite it.
        slot_entries: ``(L, E')`` index of each slot's sphere within its
            layer (equal to the codebook entry id in JUNO's scenes).
    """

    accepted: np.ndarray
    dist_sq: np.ndarray
    slot_entries: np.ndarray

    @property
    def num_hits(self) -> int:
        """Total number of hits in the batch."""
        return int(np.count_nonzero(self.accepted))

    @property
    def hits_per_ray(self) -> np.ndarray:
        """``(L, R)`` number of hits of every (layer, ray) pair."""
        return np.count_nonzero(self.accepted, axis=2)


class RayTracer:
    """Casts rays into a :class:`~repro.rt.scene.TraversableScene`.

    Args:
        scene: the traversable scene to intersect against.
    """

    def __init__(self, scene: TraversableScene) -> None:
        self.scene = scene
        self.stats = TraversalStats()

    def trace_vertical_batch(
        self,
        layer_ids: np.ndarray | int,
        origins_xy: np.ndarray,
        t_max: np.ndarray | float,
        origin_z: np.ndarray | float | None = None,
    ) -> tuple[BatchHits, TraversalStats]:
        """Trace ``+z`` rays against a block of layers in one pass.

        One ray per (layer, ray index): ray ``r`` of layer ``l`` starts at
        ``(x, y, origin_z[l])`` and travels towards ``+z`` with its own
        maximum travel time, exactly like Alg. 2 (lines 3-8) -- but the
        whole block is traversed at once over the scene's stacked arrays
        instead of layer by layer.  A single layer is the block-of-one case.

        Args:
            layer_ids: ``(L,)`` target layer (subspace) ids, or one id.
            origins_xy: ``(R, L, 2)`` ray origins per ray and layer;
                ``(R, 2)`` is accepted for a single layer.
            t_max: maximum travel times, broadcastable to ``(R, L)`` (a
                ``(R,)`` array applies to every layer).
            origin_z: scalar or ``(L,)`` depth of the ray origin planes;
                defaults to ``z - 1`` of each layer (the paper's ``z = 2s``
                convention).  The inner-product mapping uses a deeper origin
                so that per-entry enlarged spheres never contain the ray
                origin.

        Returns:
            ``(hits, stats)`` -- the block's dense hit grid (:class:`BatchHits`)
            and its traversal work (also merged into ``self.stats``): node, box
            and sphere-test counts are a per-ray BVH walk's, ray by ray; hit
            sets and the hit count agree with it to float32 precision.
        """
        layer_ids = np.atleast_1d(np.asarray(layer_ids, dtype=np.int64))
        num_layers = layer_ids.shape[0]
        origins_xy = np.asarray(origins_xy, dtype=np.float64)
        if origins_xy.ndim != 3:
            origins_xy = np.atleast_2d(origins_xy)[:, None, :]
        if origins_xy.shape[1:] != (num_layers, 2):
            raise ValueError("origins_xy must have shape (R, L, 2), or (R, 2) for one layer")
        num_rays = origins_xy.shape[0]
        t_max_arr = np.asarray(t_max, dtype=np.float64)
        if t_max_arr.ndim == 1:
            t_max_arr = t_max_arr[:, None]
        t_max_arr = np.ascontiguousarray(np.broadcast_to(t_max_arr, (num_rays, num_layers)).T)
        scene = self.scene
        unknown = layer_ids[(layer_ids < 0) | (layer_ids >= scene.z.shape[0])]
        if unknown.size:
            raise KeyError(f"layer {int(unknown[0])} is not in the scene")
        # a run of adjacent layers (JUNO's blocks) is a basic slice of every array
        first = int(layer_ids[0]) if num_layers else 0
        adjacent = (layer_ids == np.arange(first, first + num_layers)).all()
        layers = slice(first, first + num_layers) if adjacent else layer_ids
        if origin_z is None:
            origin_z_arr = scene.z[layers] - 1.0
        else:
            origin_z_arr = np.broadcast_to(np.asarray(origin_z, dtype=np.float64), (num_layers,))
        ox = np.ascontiguousarray(origins_xy[:, :, 0].T)
        oy = np.ascontiguousarray(origins_xy[:, :, 1].T)

        stats = TraversalStats(rays=num_layers * num_rays)
        hits = self._trace_layers(scene, layers, ox, oy, t_max_arr, origin_z_arr, stats)
        stats.hits = hits.num_hits
        self.stats.merge(stats)
        return hits, stats

    @staticmethod
    def _trace_layers(
        scene: TraversableScene,
        layers: slice | np.ndarray,
        ox: np.ndarray,
        oy: np.ndarray,
        t_max: np.ndarray,
        origin_z: np.ndarray,
        stats: TraversalStats,
    ) -> BatchHits:
        """Traverse ``L`` layers of the scene for ``(L, R)`` rays.

        Returns the hit grid over the scene's ``F * W`` leaf slots and adds
        the traversal work (hits excepted) to ``stats``.  ``docs/performance.md``
        ("rt_select, pass by pass") proves the identities this rests on.
        """
        num_layers, num_rays = ox.shape
        offset = scene.z[layers] - origin_z
        if (offset <= 0.0).any():
            raise ValueError("origin_z must lie below the layer's sphere centres")
        grid = (num_layers, num_rays, scene.num_slots)
        slot_entries = scene.leaf_primitives[layers].reshape(num_layers, -1)
        if ox.size == 0:
            return BatchHits(np.zeros(grid, dtype=bool), np.zeros(grid, np.float32), slot_entries)
        node_min, node_max = scene.node_min[layers], scene.node_max[layers]
        num_nodes = scene.parent.shape[0]

        # Slab tests for every (layer, node, ray), ANDed into one buffer through
        # a second; the longer of the node and ray axes is contiguous in memory.
        if num_rays >= num_nodes:
            slab = np.ones((num_layers, num_nodes, num_rays), dtype=bool)
        else:
            slab = np.ones((num_layers, num_rays, num_nodes), dtype=bool).transpose(0, 2, 1)
        test = np.empty_like(slab)  # same memory order
        # a box behind the ray (t_exit < 0) gets a NaN entry time: never reached
        t_entry = np.maximum(node_min[:, 2] - origin_z[:, None], 0.0)
        t_entry[node_max[:, 2] - origin_z[:, None] < 0.0] = np.nan
        for compare, of_ray, of_node in (
            (np.greater_equal, ox, node_min[:, 0]),
            (np.less_equal, ox, node_max[:, 0]),
            (np.greater_equal, oy, node_min[:, 1]),
            (np.less_equal, oy, node_max[:, 1]),
            (np.greater_equal, t_max, t_entry),
        ):
            compare(of_ray[:, None, :], of_node[:, :, None], out=test)
            slab &= test

        # The slab mask is the traversal: boxes are nested (the scene checks
        # it), so a node is visited iff its parent passed and a leaf's spheres
        # are tested iff the leaf passed -- the counters are sums of pass counts.
        passed = np.count_nonzero(slab, axis=(0, 2))
        children = np.bincount(scene.parent[1:], minlength=num_nodes)
        node_visits = num_layers * num_rays + int(passed @ children)
        stats.node_visits += node_visits
        stats.aabb_tests += node_visits
        leaves = scene.leaf_nodes
        stats.prim_tests += int(passed[leaves] @ scene.leaf_count)

        # Sphere tests on the whole (layer, ray, slot) grid, in float32 as on an
        # RT core.  ``d^2`` keeps its own grid: it is the value the LUT takes.
        # The accept test runs on the scratch grid as the hit time ``t_hit =
        # offset - sqrt(r^2 - d^2)``, compared with ``t_max``.  NaN is the miss:
        # ``sqrt(r^2 - d^2)`` is NaN exactly where the ray passes outside the
        # sphere (and in the ``r^2 = -1`` padding lanes), and a NaN hit time
        # never satisfies ``t_hit <= t_max``.
        row = (num_layers, 1, scene.num_slots)
        leaf = (scene.leaf_centres_x, scene.leaf_centres_y, scene.leaf_radii_sq)
        cx, cy, radii_sq = (a[layers].astype(np.float32).reshape(row) for a in leaf)
        ox, oy, offset, t_max = (a.astype(np.float32) for a in (ox, oy, offset, t_max))
        dist_sq, t_hit = np.empty(grid, np.float32), np.empty(grid, np.float32)
        np.subtract(ox[:, :, None], cx, out=dist_sq)
        np.multiply(dist_sq, dist_sq, out=dist_sq)
        np.subtract(oy[:, :, None], cy, out=t_hit)
        np.multiply(t_hit, t_hit, out=t_hit)
        np.add(dist_sq, t_hit, out=dist_sq)
        np.subtract(radii_sq, dist_sq, out=t_hit)
        with np.errstate(invalid="ignore"):
            np.sqrt(t_hit, out=t_hit)
        np.subtract(offset[:, None, None], t_hit, out=t_hit)
        accepted = t_hit <= t_max[:, :, None]
        # ``t_hit >= fl(offset - r_max) >= 0`` unless a layer's largest sphere
        # reaches past the origin plane (JUNO's ``offset = r_max`` sits on the
        # boundary: rounding sends about half its layers through the compare).
        if (offset < np.sqrt(radii_sq.max(axis=(1, 2)))).any():
            accepted &= t_hit >= 0.0
        if (passed[leaves] != num_layers * num_rays).any():
            failed = ~slab[:, leaves].transpose(0, 2, 1)  # (layer, ray, leaf): rows of lanes
            accepted.reshape(num_layers, num_rays, leaves.size, -1)[failed] = False
        return BatchHits(accepted, dist_sq, slot_entries)
