"""Ray casting with hit shaders, plus the vectorised batch tracer.

Two paths produce identical results:

* :meth:`RayTracer.trace` follows one :class:`~repro.rt.primitives.Ray`
  through the scene, invoking an optional hit-shader callback per accepted
  intersection (this mirrors OptiX's ``RT_HitShader`` of Alg. 2).
* :meth:`RayTracer.trace_vertical_batch` exploits the structure of JUNO's
  rays -- all parallel to ``+z``, each targeting the layer just above its
  origin plane -- to traverse a whole *block* of layers for a whole batch
  of rays in one level-synchronous pass over the scene's stacked flat form
  (:meth:`~repro.rt.scene.TraversableScene.stacked`), with boolean-mask
  propagation.  Hit sets, hit times and traversal statistics are exactly
  the ones the per-ray traversal would produce, but the Python interpreter
  overhead is paid once per block, not once per layer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.rt.primitives import HitRecord, Ray
from repro.rt.scene import LayerStack, TraversableScene


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
    """Flat hit arrays for a batch of rays against a block of layers.

    Hits are ordered by ``(layer, ray)`` and, within one ray, by (leaf node
    index, position in the leaf): the order a walk over the flattened BVH's
    leaves emits them in.  A consumer that groups hits per ray therefore
    needs a running sum of ``hits_per_ray``, never a sort.

    Attributes:
        hits_per_ray: ``(L, R)`` number of hits of every (layer, ray) pair,
            ``L`` counting within the block.
        entry_index: ``(H,)`` index of the hit sphere within its layer
            (equal to the codebook entry id in JUNO's scenes).
        t_hit: ``(H,)`` hit times.
    """

    hits_per_ray: np.ndarray
    entry_index: np.ndarray
    t_hit: np.ndarray

    @property
    def num_rays(self) -> int:
        """Number of rays per layer."""
        return int(self.hits_per_ray.shape[1])

    @property
    def num_hits(self) -> int:
        """Total number of hits in the batch."""
        return int(self.entry_index.shape[0])

    @property
    def pair_index(self) -> np.ndarray:
        """``(H,)`` flat ``layer * R + ray`` key of the ray that produced
        each hit (ascending); the gather index for per-ray quantities."""
        return np.repeat(np.arange(self.hits_per_ray.size), self.hits_per_ray.reshape(-1))

    def hits_of_ray(self, ray: int, layer: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(entry_indices, t_hits)`` of one ray in one layer (mainly for tests)."""
        mask = self.pair_index == layer * self.num_rays + ray
        return self.entry_index[mask], self.t_hit[mask]


class RayTracer:
    """Casts rays into a :class:`~repro.rt.scene.TraversableScene`.

    Args:
        scene: the traversable scene to intersect against.
    """

    def __init__(self, scene: TraversableScene) -> None:
        self.scene = scene
        self.stats = TraversalStats()

    def reset_stats(self) -> None:
        """Zero the accumulated traversal statistics."""
        self.stats = TraversalStats()

    # ------------------------------------------------------------ per ray
    def trace(
        self, ray: Ray, hit_shader: Callable[[HitRecord], None] | None = None
    ) -> list[HitRecord]:
        """Exact traversal of one ray with optional hit-shader callback."""
        counters: dict = {}
        records = self.scene.cast(ray, counters)
        self.stats.rays += 1
        self.stats.node_visits += counters.get("node_visits", 0)
        self.stats.aabb_tests += counters.get("aabb_tests", 0)
        self.stats.prim_tests += counters.get("prim_tests", 0)
        self.stats.hits += len(records)
        if hit_shader is not None:
            for record in records:
                hit_shader(record)
        return records

    # ----------------------------------------------------------- batched
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
        whole block is traversed level-synchronously over the scene's
        stacked flat form instead of layer by layer.  A single layer is the
        block-of-one case.

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
            ``(hits, stats)`` -- the flat hit arrays (see :class:`BatchHits`
            for their order) and the traversal work performed for this
            block (also merged into ``self.stats``).  Hit sets, hit times
            and every count equal what :meth:`trace` produces ray by ray.
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
        stacks, slot = self.scene.stacked()
        try:
            slots = [slot[layer_id] for layer_id in layer_ids.tolist()]
        except KeyError as missing:
            raise KeyError(f"layer {missing.args[0]} has not been added to the scene") from None
        if origin_z is None:
            origin_z_arr = np.array([stacks[g].z[p] for g, p in slots]) - 1.0
        else:
            origin_z_arr = np.broadcast_to(np.asarray(origin_z, dtype=np.float64), (num_layers,))
        ox = np.ascontiguousarray(origins_xy[:, :, 0].T)
        oy = np.ascontiguousarray(origins_xy[:, :, 1].T)

        stats = TraversalStats(rays=num_layers * num_rays)
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Maximal runs of layers adjacent in one stack are traced together;
        # a JUNO scene is one stack, so a block of subspaces is one run.
        lo = 0
        while lo < num_layers:
            group, first = slots[lo]
            hi = lo + 1
            while hi < num_layers and slots[hi] == (group, first + hi - lo):
                hi += 1
            parts.append(
                self._trace_run(
                    stacks[group],
                    first,
                    ox[lo:hi],
                    oy[lo:hi],
                    t_max_arr[lo:hi],
                    origin_z_arr[lo:hi],
                    stats,
                )
            )
            lo = hi
        if len(parts) == 1:
            hits_per_ray, entry_index, t_hit = parts[0]
        else:
            hits_per_ray, entry_index, t_hit = (
                np.concatenate([part[i] for part in parts]) for i in range(3)
            )
        hits = BatchHits(hits_per_ray=hits_per_ray, entry_index=entry_index, t_hit=t_hit)
        stats.hits = hits.num_hits
        self.stats.merge(stats)
        return hits, stats

    @staticmethod
    def _trace_run(
        stack: LayerStack,
        first: int,
        ox: np.ndarray,
        oy: np.ndarray,
        t_max: np.ndarray,
        origin_z: np.ndarray,
        stats: TraversalStats,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Traverse ``L`` adjacent layers of one stack for ``(L, R)`` rays.

        Returns ``(hits_per_ray, entry_index, t_hit)`` -- the ``(L, R)``
        hit counts and the hits in (layer, ray, leaf, in-leaf) order -- and
        adds the traversal work to ``stats``.
        """
        num_layers, num_rays = ox.shape
        layers = slice(first, first + num_layers)
        z = stack.z[layers]
        if np.any(origin_z >= z):
            raise ValueError("origin_z must lie below the layer's sphere centres")
        if stack.leaf_nodes.shape[0] == 0 or num_rays == 0:
            return (
                np.zeros((num_layers, num_rays), dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        node_min = stack.node_min[layers]
        node_max = stack.node_max[layers]

        # Slab tests for every (layer, ray, node) triple in one broadcast --
        # identical boolean outcomes to the per-node tests of the reference
        # traversal.
        ox_b = ox[:, :, None]
        oy_b = oy[:, :, None]
        t_entry = np.maximum(node_min[:, 2] - origin_z[:, None], 0.0)
        t_exit = node_max[:, 2] - origin_z[:, None]
        slab = (
            (ox_b >= node_min[:, None, 0])
            & (ox_b <= node_max[:, None, 0])
            & (oy_b >= node_min[:, None, 1])
            & (oy_b <= node_max[:, None, 1])
            & (t_max[:, :, None] >= t_entry[:, None, :])
            & (t_exit >= 0.0)[:, None, :]
        )

        # Level-synchronous reachability: ``reach[l, r, i]`` marks the rays
        # whose traversal stack would contain node i of layer l.  A node is
        # reached iff its parent was reached and its parent's slab test
        # passed, and because the flattened tree is breadth-first each level
        # is a contiguous index range shared by every layer of the stack --
        # so one gather per level serves all layers and rays.
        reach = np.empty(slab.shape, dtype=bool)
        reach[:, :, 0] = True
        level_offsets = stack.level_offsets
        for level in range(1, len(level_offsets) - 1):
            level_nodes = slice(int(level_offsets[level]), int(level_offsets[level + 1]))
            parents = stack.parent[level_nodes]
            reach[:, :, level_nodes] = reach[:, :, parents] & slab[:, :, parents]
        node_visits = int(np.count_nonzero(reach))
        stats.node_visits += node_visits
        stats.aabb_tests += node_visits

        # Leaves: a ray tests the spheres of every leaf it reaches whose
        # slab test passes, and ``prim_tests`` counts exactly those.  The
        # arithmetic is evaluated on the whole (layer, ray, leaf, lane) grid
        # -- pure broadcasts, no gathers -- and masked by ``leaf_pass``: the
        # outcome is what testing only the passing leaves gives, at a cost
        # that is fixed by the block size instead of by how much the BVH
        # prunes.  The grid's row-major order *is* the order hits are wanted
        # in: by layer, then ray, then ascending leaf node index, spheres in
        # their in-leaf order.
        leaves = stack.leaf_nodes
        leaf_pass = reach[:, :, leaves] & slab[:, :, leaves]
        stats.prim_tests += int(np.count_nonzero(leaf_pass, axis=(0, 1)) @ stack.leaf_count)
        radii_sq = stack.leaf_radii_sq[layers, None]
        dist_sq = ox[:, :, None, None] - stack.leaf_centres_x[layers, None]
        dist_sq *= dist_sq
        dy = oy[:, :, None, None] - stack.leaf_centres_y[layers, None]
        dy *= dy
        dist_sq += dy
        # one scratch grid: dy**2, then the half chord, then the hit time
        half_chord = np.subtract(radii_sq, dist_sq, out=dy)
        np.maximum(half_chord, 0.0, out=half_chord)
        np.sqrt(half_chord, out=half_chord)
        t_hit = np.subtract((z - origin_z)[:, None, None, None], half_chord, out=half_chord)
        accepted = (
            leaf_pass[:, :, :, None]
            & (dist_sq <= radii_sq)
            & (t_hit <= t_max[:, :, None, None])
            & (t_hit >= 0.0)
        )
        return (
            np.count_nonzero(accepted, axis=(2, 3)),
            np.broadcast_to(stack.leaf_primitives[layers, None], accepted.shape)[accepted],
            t_hit[accepted],
        )
