"""The vectorised batch tracer over the scene's stacked arrays.

:meth:`RayTracer.trace_vertical_batch` exploits the structure of JUNO's
rays -- all parallel to ``+z``, each targeting the layer just above its
origin plane -- to traverse a *block* of rays over a block of layers in
one straight line of array passes over the scene's stack
(:class:`~repro.rt.scene.TraversableScene`), paying the interpreter once per
block.  A ray in its layer's *common box* (the node boxes' intersection)
walks the whole tree, counted by arithmetic; only the other rays take the
float64 slab pass, and as boxes are nested its pass counts are their node,
box and sphere-test counts: a per-ray BVH walk's either way
(``tests/rt_reference.py`` keeps one as the oracle).  The sphere tests run in
float32, as on an RT core.

Every sphere test runs on a dense ``(ray, layer, leaf slot)`` grid, handed
over (:class:`BatchHits`) in buffers the caller may own: the accepted mask
and the squared in-plane distance ``d²``, the value the selective LUT
(:mod:`repro.core.selective_lut`) takes -- the paper's hit shader decodes it
from ``t_hit`` (Sec. 4.2).  No hit time is computed: ``t_hit = fl(offset −
fl(sqrt(y)))``, ``y = fl(r² − d²)``, is monotone in ``y``, so ``t_hit <=
t_max`` is exactly ``y >=`` a per-ray bound (:func:`_least_accepted`);
``tests/rt_reference.py`` keeps the ``sqrt`` form as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rt.scene import TraversableScene

# The float32 ``y >= +0`` as int32 bit patterns, ordered like their values,
# run from 0 to ``_INF_BITS`` (``+inf``); one past either end is a NaN.
_INF_BITS = 0x7F800000
# Steps tried around the bound's guess (the ledger's rays need -1 ... +2).
_WINDOW = np.arange(-2, 3, dtype=np.int32)[:, None, None]
# The largest float32 below 0: ``t <= _BELOW_ZERO`` iff ``t < 0``.
_BELOW_ZERO = -np.finfo(np.float32).smallest_subnormal


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
    """The dense hit grid of a block of rays against a block of layers.

    One cell per (ray, layer, slot), a slot being one (leaf, lane) of the
    layer's sphere grid (``TraversableScene.leaf_primitives`` maps it back).

    Attributes:
        accepted: ``(R, L, E')`` whether the ray hit the slot's sphere,
            ``L`` counting within the block; the selective LUT keeps it as
            its hit grid.
        dist_sq: ``(R, L, E')`` float32 squared in-plane distance from the
            ray to the slot's sphere centre, as the sphere test computed it;
            meaningless where not ``accepted``: a reader selects by it.
    """

    accepted: np.ndarray
    dist_sq: np.ndarray


def _least_accepted(offset: np.ndarray, t_max: np.ndarray) -> np.ndarray:
    """Per ray, the least float32 ``y >= +0`` with ``fl(offset − fl(sqrt(y)))
    <= t_max`` (float32 operands), or NaN if none.  Five patterns around
    ``fl((offset − t_max)²)`` settle almost every ray; the rest are bisected.
    """
    # fmax: a NaN t_max guesses +0; fmin: the square cannot overflow
    guess = np.square(np.fmin(np.fmax(offset - t_max, 0, dtype=np.float32), 1e19))
    # patterns below +0 are (quiet) NaNs, which never pass
    guess = np.minimum(guess.view(np.int32), _INF_BITS - 2)
    window = (guess + _WINDOW).view(np.float32)  # its hit times, in place:
    np.subtract(offset, np.sqrt(window, out=window), out=window)
    passed = np.sum(window <= t_max, axis=0, dtype=np.int32)
    least = (guess + 3) - passed  # the window's first passing pattern: guess - 2 + (5 - passed)
    if passed.size and (passed.min() == 0 or passed.max() == len(_WINDOW)):  # window missed
        redo = (passed == 0) | (passed == len(_WINDOW))
        offset, t_max = (np.broadcast_to(a, redo.shape)[redo] for a in (offset, t_max))
        lo = np.full(offset.shape, -1, dtype=np.int32)  # fails
        hi = np.full(offset.shape, _INF_BITS + 1, dtype=np.int32)  # passes
        for _ in range(31):  # 2**31 > hi - lo
            mid = lo + ((hi - lo) >> 1)  # (lo + hi) >> 1 overflows int32 past 2.0
            up = offset - np.sqrt(mid.view(np.float32)) <= t_max
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
        least[redo] = hi
    return least.view(np.float32)


def _accept(y: np.ndarray, offset: np.ndarray, t_max: np.ndarray, guard, out) -> None:
    """Write into ``out`` whether ``t_hit = fl(offset − fl(sqrt(y))) <= t_max``
    (and ``>= 0`` in the ``(L,)`` ``guard`` layers) for the float32 ``(R, L,
    E')`` ``y = fl(r² − d²)``, ``(L,)`` ``offset`` and ``(R, L)`` ``t_max``;
    a negative ``y`` (outside the sphere, a padding lane) fails."""
    np.greater_equal(y, _least_accepted(offset, t_max)[:, :, None], out=out)
    guarded = np.flatnonzero(guard)  # a layer at a time: no temporary of the block's size
    below_zero = _least_accepted(offset[guarded, None], _BELOW_ZERO) if guarded.size else ()
    for layer, below in zip(guarded, below_zero):
        out[:, layer] &= y[:, layer] < below[0]


class RayTracer:
    """Casts rays into a :class:`~repro.rt.scene.TraversableScene`.

    Args:
        scene: the traversable scene to intersect against.
    """

    def __init__(self, scene: TraversableScene) -> None:
        self.scene = scene
        self.stats = TraversalStats()
        # the sphere tests' float32 operands, cast once: (L, F * W) centres and
        # r^2, and each layer's largest radius
        leaf = (scene.leaf_centres_x, scene.leaf_centres_y, scene.leaf_radii_sq)
        self._spheres = [a.reshape(a.shape[0], -1).astype(np.float32) for a in leaf]
        self._radius_max = np.sqrt(self._spheres[2].max(axis=1))
        self._children = np.bincount(scene.parent[1:], minlength=scene.parent.shape[0])
        # each layer's common box, the intersection of its node boxes: (L, 3) corners
        self._common = (scene.node_min.max(axis=2), scene.node_max.min(axis=2))

    def trace_vertical_batch(
        self,
        layer_ids: np.ndarray | int,
        origins_xy: np.ndarray,
        t_max: np.ndarray | float,
        origin_z: np.ndarray | float | None = None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[BatchHits, TraversalStats]:
        """Trace ``+z`` rays against a block of layers in one pass.

        One ray per (ray index, layer): ray ``r`` of layer ``l`` starts at
        ``(x, y, origin_z[l])`` and travels towards ``+z`` with its own
        maximum travel time, exactly like Alg. 2 (lines 3-8) -- but the
        whole block is traversed at once over the scene's stacked arrays
        instead of layer by layer.  A single layer is the block-of-one case.
        ``docs/performance.md`` proves the identities this rests on.

        Args:
            layer_ids: ``(L,)`` target layer (subspace) ids, or one id.
            origins_xy: ``(R, L, 2)`` ray origins per ray and layer;
                ``(R, 2)`` is accepted for a single layer.
            t_max: maximum travel times, broadcastable to ``(R, L)`` (a
                ``(R,)`` array applies to every layer).
            origin_z: scalar or ``(L,)`` depth of the ray origin planes;
                defaults to ``z - 1`` of each layer (the paper's ``z = 2s``
                convention); the inner-product mapping's lies deeper.
            out: caller-owned C-contiguous ``(R, L, E')`` float32 and bool
                arrays to write ``dist_sq`` and ``accepted`` into.

        Returns:
            ``(hits, stats)`` -- the block's hit grid and its traversal work
            (also merged into ``self.stats``): node, box and sphere-test
            counts are a per-ray BVH walk's; hits agree with it to float32.
        """
        scene = self.scene
        layer_ids = np.atleast_1d(np.asarray(layer_ids, dtype=np.int64))
        num_layers = layer_ids.shape[0]
        origins_xy = np.asarray(origins_xy, dtype=np.float64)
        if origins_xy.ndim != 3:
            origins_xy = np.atleast_2d(origins_xy)[:, None, :]
        if origins_xy.shape[1:] != (num_layers, 2):
            raise ValueError("origins_xy must have shape (R, L, 2), or (R, 2) for one layer")
        num_rays = origins_xy.shape[0]
        unknown = layer_ids[(layer_ids < 0) | (layer_ids >= scene.z.shape[0])]
        if unknown.size:
            raise KeyError(f"layer {int(unknown[0])} is not in the scene")
        grid = (num_rays, num_layers, scene.num_slots)
        if out is None:
            out = (np.empty(grid, np.float32), np.empty(grid, bool))
        for array, dtype in zip(out, (np.float32, bool)):
            if array.shape != grid or array.dtype != dtype or not array.flags.c_contiguous:
                raise ValueError(f"out must be C-contiguous {grid} float32 and bool arrays")
        hits = BatchHits(accepted=out[1], dist_sq=out[0])
        # a run of adjacent layers (JUNO's blocks) is a basic slice of every array
        first = int(layer_ids[0]) if num_layers else 0
        adjacent = (layer_ids == np.arange(first, first + num_layers)).all()
        layers = slice(first, first + num_layers) if adjacent else layer_ids
        if origin_z is None:
            origin_z = scene.z[layers] - 1.0
        origin_z = np.full(num_layers, origin_z, dtype=np.float64)
        offset = scene.z[layers] - origin_z
        if (offset <= 0.0).any():
            raise ValueError("origin_z must lie below the layer's sphere centres")
        ox, oy = origins_xy[:, :, 0], origins_xy[:, :, 1]
        t_max = np.asarray(t_max, dtype=np.float64)
        if t_max.shape != ox.shape:
            t_max = np.broadcast_to(t_max[:, None] if t_max.ndim == 1 else t_max, ox.shape)
        stats = TraversalStats(rays=num_layers * num_rays)
        if num_layers and num_rays:
            self._trace_layers(layers, ox, oy, t_max, origin_z, offset, stats, hits)
        stats.hits = int(np.count_nonzero(hits.accepted))
        self.stats.merge(stats)
        return hits, stats

    def _inside(self, layers, ox, oy, t_max, origin_z) -> np.ndarray:
        """``(R, L)``: whether each ray passes every box of its layer -- iff it
        is in their intersection, as ``x >= max min_x`` iff ``x >=`` every
        ``min_x`` and an entry or exit time ``fl(a − o)`` is monotone in ``a``."""
        low, high = self._common[0][layers], self._common[1][layers]
        t_entry = np.maximum(low[:, 2] - origin_z, 0.0)
        t_entry[high[:, 2] - origin_z < 0.0] = np.nan  # a box behind the ray: none pass
        inside = (ox >= low[:, 0]) & (ox <= high[:, 0])
        inside &= (oy >= low[:, 1]) & (oy <= high[:, 1])
        inside &= t_max >= t_entry
        return inside

    def _trace_layers(self, layers, ox, oy, t_max, origin_z, offset, stats, hits) -> None:
        """The counters, then the sphere tests into ``hits``, then the leaf mask."""
        scene = self.scene
        num_rays, num_layers = ox.shape
        # A ray inside its layer's common box walks the whole tree: its counters
        # are arithmetic and it clears no lane.  The rays outside in some layer
        # take the slab pass, over the layers where one of them is outside.
        inside = self._inside(layers, ox, oy, t_max, origin_z)
        outside = np.flatnonzero(~inside.all(axis=1))
        slabbed = np.flatnonzero(~inside[outside].all(axis=0))
        walks = num_layers * num_rays - slabbed.size * outside.size
        stats.node_visits += walks * scene.parent.shape[0]
        stats.aabb_tests += walks * scene.parent.shape[0]
        stats.prim_tests += walks * int(scene.leaf_count.sum())
        if outside.size:
            rays = (a[np.ix_(outside, slabbed)].T for a in (ox, oy, t_max))
            in_scene, free = np.arange(scene.z.shape[0])[layers][slabbed], hits.dist_sq
            layer, ray, leaf = self._slab_pass(in_scene, *rays, origin_z[slabbed], stats, free)

        # Sphere tests on the whole (ray, layer, slot) grid, in float32 as on an
        # RT core: d^2 into the caller's grid, y = r^2 - d^2 into a scratch one.
        # t_hit >= fl(offset - r_max) >= 0 unless a layer's largest sphere
        # reaches past the origin plane (JUNO's offset = r_max is on the edge).
        cx, cy, radii_sq = (a[layers] for a in self._spheres)
        ox, oy, offset, t_max = (a.astype(np.float32) for a in (ox, oy, offset, t_max))
        dist_sq, y = hits.dist_sq, np.empty(hits.dist_sq.shape, np.float32)
        np.subtract(ox[:, :, None], cx, out=dist_sq)
        np.multiply(dist_sq, dist_sq, out=dist_sq)
        np.subtract(oy[:, :, None], cy, out=y)
        np.multiply(y, y, out=y)
        np.add(dist_sq, y, out=dist_sq)
        np.subtract(radii_sq, dist_sq, out=y)
        guard = offset < self._radius_max[layers]
        _accept(y, offset, t_max, guard, out=hits.accepted)
        if outside.size:
            lanes = hits.accepted.reshape(num_rays, num_layers, scene.leaf_nodes.size, -1)
            lanes[outside[ray], slabbed[layer], leaf] = False

    def _slab_pass(self, layers, ox, oy, t_max, origin_z, stats, free) -> tuple:
        """Slab tests of every (layer, node, ray) of the ``(L, R)`` rays: adds
        their counters to ``stats``, returns the ``(layer, ray, leaf)`` lanes
        of failed leaf boxes, ``ray`` counting within the ``R`` given.  The
        masks live in the ``free`` d^2 grid's bytes (M < 2 E' nodes)."""
        scene = self.scene
        node_min, node_max = scene.node_min[layers], scene.node_max[layers]
        (num_layers, num_rays), num_nodes = ox.shape, scene.parent.shape[0]
        # Slab tests ANDed into one mask through a second; the longer of the
        # node and ray axes is contiguous in memory.
        node_major = num_rays >= num_nodes
        shape = (num_layers,) + ((num_nodes, num_rays) if node_major else (num_rays, num_nodes))
        axes = (0, 1, 2) if node_major else (0, 2, 1)
        free = free.view(np.bool_).reshape(2, -1)[:, : num_layers * num_nodes * num_rays]
        slab, test = (half.reshape(shape).transpose(axes) for half in free)
        # a box behind the ray (t_exit < 0) gets a NaN entry time: never reached
        t_entry = np.maximum(node_min[:, 2] - origin_z[:, None], 0.0)
        t_entry[node_max[:, 2] - origin_z[:, None] < 0.0] = np.nan
        np.greater_equal(ox[:, None, :], node_min[:, 0, :, None], out=slab)
        for compare, of_ray, of_node in (
            (np.less_equal, ox, node_max[:, 0]),
            (np.greater_equal, oy, node_min[:, 1]),
            (np.less_equal, oy, node_max[:, 1]),
            (np.greater_equal, t_max, t_entry),
        ):
            slab &= compare(of_ray[:, None, :], of_node[:, :, None], out=test)

        # Boxes are nested (the scene checks it), so a node is visited iff its
        # parent passed and a leaf's spheres are tested iff the leaf passed:
        # the counters are sums of pass counts.
        passed = slab.view(np.uint8).sum(axis=(0, 2), dtype=np.int32)
        node_visits = num_layers * num_rays + int(passed @ self._children)
        stats.node_visits += node_visits
        stats.aabb_tests += node_visits
        leaves = scene.leaf_nodes
        stats.prim_tests += int(passed[leaves] @ scene.leaf_count)
        # a sphere test can pass by rounding where the ray failed the leaf's box
        failing = np.flatnonzero(passed[leaves] != num_layers * num_rays)
        layer, at, ray = np.nonzero(~slab[:, leaves[failing]])
        return layer, ray, failing[at]
