"""Threshold-based selective L2-LUT construction on the RT engine (Sec. 4.2).

The baseline builds a dense ``(nprobs, S, E)`` lookup table by computing all
pairwise (query projection, entry) distances.  JUNO instead casts one ray per
(query, cluster, subspace) into the traversable scene with a per-ray
``t_max`` encoding the dynamic threshold, and only the selected entries ever
receive a LUT value.

The constructor walks a batch's rays in cache-sized blocks; for each, the
tracer writes the float32 sphere tests' squared in-plane distance ``d²`` of
every ``(ray, subspace, leaf slot)`` cell and whether the ray selected it
straight into the block's rows of the table and the hit grid.  ``d²`` is the
value: the L2 entry itself, and the inner product through the enlarged
radius ``r² = R² + |e|²`` (:mod:`repro.core.inner_product`).  (The paper's
hit shader decodes it from ``t_hit``, all an RT core returns.)  The MIPS
transform and the miss fill follow in place while the rows are in cache.
The result *is* the selective LUT: one float32 ray-major ``(rays, S, E')``
table of what the distance calculation reads of each cell -- the value
where the ray selected the slot's entry, the ray's miss value where it did
not -- beside the hit grid.  A ray's ``(S, E')`` block is contiguous, and
the score stage gathers from it ray by ray.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.metrics.distances import Metric
from repro.rt.tracer import RayTracer, TraversalStats


# (ray, layer, slot) cells traced per block: all 8 rays of a 1-query request
# (48 subspaces, 128 slots) in one tracer call, 16 rays of a 32-query batch.
# Beyond its rows of the table and hit grid a cell costs one 4-byte scratch:
# ~0.4 MB a block, which stays in a core's cache.
_TRACE_BLOCK_CELLS = 3 << 15


def _fill_misses(rows: np.ndarray, hits: np.ndarray, miss: np.ndarray) -> None:
    """``rows = where(hits, rows, miss)`` in place and exact: ``m + hit * (v -
    m)`` on the bit patterns, modulo 2**32, with ``miss`` broadcast once."""
    bits, miss_bits = rows.view(np.uint32), np.empty(rows.shape, np.uint32)
    miss_bits[...] = miss.view(np.uint32)
    bits -= miss_bits
    np.multiply(bits, hits, out=bits)
    bits += miss_bits


@dataclass
class SelectiveLUT:
    """The dense per-ray lookup table produced by the RT pass.

    Columns are the scene's leaf slots, not entry ids: entry ``e`` of
    subspace ``s`` sits in column ``entry_slots[s, e]`` of the
    :class:`~repro.rt.scene.TraversableScene`.  The score kernel reads the
    table ray by ray through PQ codes remapped to ``s * E' + column`` at
    index-build time (:class:`~repro.core.subspace_index.FlatClusterLayout`).

    Attributes:
        table: ``(R, S, E')`` float32 score contributions, ``R = Q * nprobs``:
            the value (squared L2 distance or inner product) of every
            selected (ray, subspace, slot) cell and the ray's miss value in
            every other -- its miss penalty in that subspace.
        hits: ``(R, S, E')`` booleans marking the selected cells (the
            tracer's accepted grid).
        num_entries: codebook entries per subspace ``E`` (``E <= E'``).
        metric: the metric the values are expressed in.
        stats: traversal statistics accumulated over all subspaces.
    """

    table: np.ndarray
    hits: np.ndarray
    num_entries: int
    metric: Metric
    stats: TraversalStats

    @property
    def num_subspaces(self) -> int:
        """Number of subspaces covered by the LUT."""
        return int(self.table.shape[1])

    @property
    def num_rays(self) -> int:
        """Number of rays per subspace (``Q * nprobs``)."""
        return int(self.table.shape[0])

    @property
    def total_hits(self) -> int:
        """Total number of selected (subspace, ray, entry) cells."""
        return self.stats.hits

    def selected_fraction(self) -> float:
        """Average fraction of entries selected per (ray, subspace); the
        sparsity actually exploited."""
        total_slots = self.num_rays * self.num_subspaces * self.num_entries
        if total_slots == 0:
            return 0.0
        return self.total_hits / total_slots


class SelectiveLUTConstructor:
    """Casts the per-subspace ray batches and writes the selected values.

    Args:
        tracer: ray tracer over the offline-built traversable scene.
        base_radius: the constant sphere radius ``R`` (L2 spheres use exactly
            ``R``; inner-product spheres were enlarged per entry offline to
            ``r² = R² + |e|²``).
        origin_offsets: ``(S,)`` distance from the ray-origin plane to the
            sphere-centre plane for every subspace layer.
        metric: L2 or inner product.
    """

    def __init__(
        self,
        tracer: RayTracer,
        base_radius: float,
        origin_offsets: np.ndarray,
        metric: Metric = Metric.L2,
    ) -> None:
        self.tracer = tracer
        self.base_radius = float(base_radius)
        self.origin_offsets = np.asarray(origin_offsets, dtype=np.float64)
        self.metric = Metric(metric)

    def construct(
        self,
        origins: np.ndarray,
        t_max: np.ndarray,
        miss: np.ndarray,
        trace=None,
    ) -> SelectiveLUT:
        """Trace all rays and build the selective LUT.

        Each :meth:`~repro.rt.tracer.RayTracer.trace_vertical_batch` call
        writes a block of ``_TRACE_BLOCK_CELLS`` cells (at least one ray, in
        every subspace) into the table and the hit grid.  The L2 value is
        ``d²`` itself; the inner product is ``(|q|² − R² + r² − d²) / 2``, in
        float32 on every cell, with each slot's ``r²`` read from the scene.

        Args:
            origins: ``(R, S, 2)`` ray origins per ray and subspace (residual
                projections for L2, raw query projections for inner product).
            t_max: ``(R, S)`` per-ray maximum travel times.
            miss: ``(R, S)`` value of the cells a ray does not select, cast
                to float32 (the miss penalties).
            trace: optional :class:`~repro.obs.trace.Trace`; when set, every
                tracer call is recorded as an ``rt_trace`` span.

        Returns:
            The populated :class:`SelectiveLUT`.
        """
        origins = np.asarray(origins, dtype=np.float64)
        t_max = np.asarray(t_max, dtype=np.float64)
        if origins.ndim != 3 or origins.shape[2] != 2:
            raise ValueError("origins must have shape (R, S, 2)")
        num_rays, num_subspaces, _ = origins.shape
        if t_max.shape != (num_rays, num_subspaces):
            raise ValueError("t_max must have shape (R, S)")

        scene = self.tracer.scene
        layers = np.arange(num_subspaces)
        origin_z = scene.z[layers] - self.origin_offsets[layers]
        if self.metric is Metric.INNER_PRODUCT:
            radii_sq = scene.leaf_radii_sq[layers].reshape(num_subspaces, -1).astype(np.float32)
            # (offset - t_hit)^2 = r^2 - d^2, and |q|^2 depends on the ray only
            norm_term = (np.sum(origins**2, axis=2) - self.base_radius**2).astype(np.float32)

        miss = np.broadcast_to(np.asarray(miss, dtype=np.float32), (num_rays, num_subspaces))
        table = np.empty((num_rays, num_subspaces, scene.num_slots), dtype=np.float32)
        hit_grid = np.empty(table.shape, dtype=bool)
        stats = TraversalStats()
        block_rays = max(1, _TRACE_BLOCK_CELLS // max(num_subspaces * scene.num_slots, 1))
        for r0 in range(0, num_rays, block_rays):
            block = slice(r0, min(r0 + block_rays, num_rays))
            rows, hit_rows = table[block], hit_grid[block]
            span = nullcontext() if trace is None else trace.span("rt_trace", rays=len(rows))
            with span:
                _, block_stats = self.tracer.trace_vertical_batch(
                    layers, origins[block], t_max[block], origin_z, (rows, hit_rows)
                )
            stats.merge(block_stats)
            if self.metric is Metric.INNER_PRODUCT:
                np.subtract(radii_sq, rows, out=rows)
                np.add(norm_term[block, :, None], rows, out=rows)
                np.divide(rows, 2.0, out=rows)
            _fill_misses(rows, hit_rows, miss[block, :, None])
        return SelectiveLUT(table, hit_grid, scene.entry_slots.shape[1], self.metric, stats)
