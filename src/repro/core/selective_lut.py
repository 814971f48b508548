"""Threshold-based selective L2-LUT construction on the RT engine (Sec. 4.2).

The baseline builds a dense ``(nprobs, S, E)`` lookup table by computing all
pairwise (query projection, entry) distances.  JUNO instead casts one ray per
(query, cluster, subspace) into the traversable scene with a per-ray
``t_max`` encoding the dynamic threshold, and only the selected entries ever
receive a LUT value.

The constructor traces the rays of all (query, cluster) pairs of a batch a
*block of subspaces* at a time.  The tracer hands each block over as the
dense ``(subspace, ray, leaf slot)`` grid its float32 sphere tests ran on,
with the squared in-plane distance ``d²`` each test computed.  That ``d²`` is
the value: the L2 entry itself, and the inner product through the enlarged
radius ``r² = R² + |e|²`` (:mod:`repro.core.inner_product`).  The paper's
hit shader decodes it from ``t_hit`` because an RT core returns nothing
else; the emulation has it in hand.  The result *is* the selective LUT: one
float32 ``(S, rays, E')`` table holding what the distance calculation reads
of each cell -- the value where the ray selected the slot's entry, the ray's
miss value where it did not -- and the tracer's hit grid beside it.  The
distance-calculation stage gathers from both directly, with no hit lists
between.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.metrics.distances import Metric
from repro.rt.tracer import RayTracer, TraversalStats


# (layer, ray) pairs traced per block.  A 1-query request (8 rays) traces all
# 48 subspaces in one tracer call; a 32-query batch (256 rays) one subspace per
# call, where the per-call overhead is already amortised.  A pair at 128
# entries holds two 4-byte grids of 512 B (d², scratch) and ~0.4 kB of
# bool masks: ~0.5 MB a block (2048 pairs of 8-byte cells raised peak_rss 12 %).
_TRACE_BLOCK_PAIRS = 384


@dataclass
class SelectiveLUT:
    """The dense per-ray lookup table produced by the RT pass.

    Columns are the scene's leaf slots, not entry ids: entry ``e`` of
    subspace ``s`` sits in column ``entry_slots[s, e]`` of the
    :class:`~repro.rt.scene.TraversableScene`, and ``slot_entries`` maps
    back.  The score kernel addresses the table through PQ codes remapped
    to columns once, at index-build time
    (:class:`~repro.core.subspace_index.FlatClusterLayout`).

    Attributes:
        table: ``(S, R, E')`` float32 score contributions, ``R = Q * nprobs``:
            the value (squared L2 distance or inner product) of every
            selected (subspace, ray, slot) cell and the ray's miss value in
            every other -- its miss penalty in that subspace, or ``NaN``
            when JUNO-M built the table.
        hits: ``(S, R, E')`` booleans marking the selected cells (the
            tracer's accepted grid).
        inner: ``(S, R, E')`` booleans marking selected cells that also fall
            inside the reward/penalty inner sphere (JUNO-M); ``None`` when
            the inner sphere was not evaluated.
        slot_entries: ``(S, E')`` entry id of every column.
        num_entries: codebook entries per subspace ``E`` (``E <= E'``).
        metric: the metric the values are expressed in.
        stats: traversal statistics accumulated over all subspaces.
    """

    table: np.ndarray
    hits: np.ndarray
    inner: np.ndarray | None
    slot_entries: np.ndarray
    num_entries: int
    metric: Metric
    stats: TraversalStats

    @property
    def num_subspaces(self) -> int:
        """Number of subspaces covered by the LUT."""
        return int(self.table.shape[0])

    @property
    def num_rays(self) -> int:
        """Number of rays per subspace (``Q * nprobs``)."""
        return int(self.table.shape[1])

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
        inner_sphere_ratio: if not ``None``, hits are additionally classified
            against an inner sphere of ``ratio * threshold`` (JUNO-M).
    """

    def __init__(
        self,
        tracer: RayTracer,
        base_radius: float,
        origin_offsets: np.ndarray,
        metric: Metric = Metric.L2,
        inner_sphere_ratio: float | None = None,
    ) -> None:
        self.tracer = tracer
        self.base_radius = float(base_radius)
        self.origin_offsets = np.asarray(origin_offsets, dtype=np.float64)
        self.metric = Metric(metric)
        self.inner_sphere_ratio = inner_sphere_ratio

    def construct(
        self,
        origins: np.ndarray,
        t_max: np.ndarray,
        thresholds: np.ndarray | None = None,
        trace=None,
        miss: np.ndarray | None = None,
    ) -> SelectiveLUT:
        """Trace all rays and build the selective LUT.

        Subspaces are traced in blocks of ``_TRACE_BLOCK_PAIRS // R`` layers
        (at least one) per
        :meth:`~repro.rt.tracer.RayTracer.trace_vertical_batch` call.  Each
        call returns the block's dense hit grid and its ``d²``, which this
        method then owns.  The L2 value is ``d²`` itself; the inner product
        is ``(|q|² − R² + r² − d²) / 2``, in float32 on every cell, with the
        norms broadcast along the slot axis and each slot's ``r²`` read from
        the scene.  The block's rows of the table take exactly one
        write, ``where(accepted, value, miss)``.

        Args:
            origins: ``(R, S, 2)`` ray origins per ray and subspace (residual
                projections for L2, raw query projections for inner product).
            t_max: ``(R, S)`` per-ray maximum travel times.
            thresholds: ``(R, S)`` distance thresholds (needed to evaluate the
                inner sphere for JUNO-M; ignored otherwise).
            trace: optional :class:`~repro.obs.trace.Trace`; when set, every
                tracer call is recorded as an ``rt_trace`` span, which
                separates traversal from writing the table in the caller's
                span.
            miss: ``(R, S)`` value of the cells a ray does not select, cast
                to float32 (the miss penalties); ``None`` fills them
                with ``NaN``, which the inner sphere requires.

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
        want_inner = self.inner_sphere_ratio is not None
        if want_inner and (thresholds is None or miss is not None):
            raise ValueError("the inner sphere needs thresholds and NaN misses")

        scene = self.tracer.scene
        origin_z = scene.z[:num_subspaces] - self.origin_offsets[:num_subspaces]
        if self.metric is Metric.INNER_PRODUCT:
            radii_sq = scene.leaf_radii_sq[:num_subspaces].reshape(num_subspaces, 1, -1)
            radii_sq = radii_sq.astype(np.float32)

        if miss is None:
            miss = np.full((num_subspaces, 1, 1), np.nan, dtype=np.float32)
        else:
            miss = np.asarray(miss, dtype=np.float32).T[:, :, None]  # (S, R, 1)
        table = np.empty((num_subspaces, num_rays, scene.num_slots), dtype=np.float32)
        hit_grid = np.empty(table.shape, dtype=bool)
        inner = np.empty(table.shape, dtype=bool) if want_inner else None
        stats = TraversalStats()
        block_layers = max(1, _TRACE_BLOCK_PAIRS // max(num_rays, 1))
        for s0 in range(0, num_subspaces, block_layers):
            block = slice(s0, min(s0 + block_layers, num_subspaces))
            span = (
                nullcontext() if trace is None else trace.span("rt_trace", layers=block.stop - s0)
            )
            with span:
                hits, block_stats = self.tracer.trace_vertical_batch(
                    np.arange(s0, block.stop), origins[:, block], t_max[:, block], origin_z[block]
                )
            stats.merge(block_stats)
            hit_grid[block] = hits.accepted
            grid = hits.dist_sq  # the L2 value; still in cache
            if self.metric is Metric.INNER_PRODUCT:
                # (offset - t_hit)^2 = r^2 - d^2, and |q|^2 depends on the ray only
                query_norm_sq = np.sum(origins[:, block] ** 2, axis=2).T[:, :, None]
                np.subtract(radii_sq[block], grid, out=grid)
                np.add((query_norm_sq - self.base_radius**2).astype(np.float32), grid, out=grid)
                np.divide(grid, 2.0, out=grid)
            table[block] = np.where(hits.accepted, grid, miss[block])
            if want_inner:
                # a NaN miss compares false: the flags need no AND with the hits
                ray_threshold = thresholds[:, block].T[:, :, None]
                if self.metric is Metric.L2:
                    np.sqrt(table[block], out=grid)
                    np.less_equal(grid, ray_threshold * self.inner_sphere_ratio, out=inner[block])
                else:
                    # "Inside the inner sphere" for MIPS: above the selection
                    # bound by a margin that shrinks with the inner-sphere ratio.
                    margin = (1.0 - self.inner_sphere_ratio) * np.abs(ray_threshold)
                    np.greater_equal(table[block], ray_threshold + margin, out=inner[block])
        return SelectiveLUT(
            table=table,
            hits=hit_grid,
            inner=inner,
            slot_entries=scene.leaf_primitives[:num_subspaces].reshape(num_subspaces, -1),
            num_entries=scene.entry_slots.shape[1],
            metric=self.metric,
            stats=stats,
        )
