"""Threshold-based selective L2-LUT construction on the RT engine (Sec. 4.2).

The baseline builds a dense ``(nprobs, S, E)`` lookup table by computing all
pairwise (query projection, entry) distances.  JUNO instead casts one ray per
(query, cluster, subspace) into the traversable scene with a per-ray
``t_max`` encoding the dynamic threshold; the hit shader recovers the
distance (or inner product) from the hit time alone, and only the selected
entries ever receive a LUT value.

The constructor operates on a whole query batch: the rays of all
(query, cluster) pairs are traced through the vectorised tracer a *block of
subspaces* at a time, and the resulting hits -- which the tracer emits
already grouped by (subspace, ray) -- are stored in a compressed (CSR-like)
per-ray layout that the distance-calculation stage consumes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.inner_product import (
    inner_product_from_hit_time,
    l2_distance_from_hit_time,
)
from repro.metrics.distances import Metric
from repro.rt.tracer import RayTracer, TraversalStats


# (layer, ray) pairs traced per block.  A 1-query request (8 rays) traces all
# 48 subspaces in one tracer call; a 32-query batch (256 rays) degenerates to
# one subspace per call, where the per-call overhead is already amortised.
# The block's primitive-test temporaries grow with this (~8 kB per pair at
# 128 entries): 2048 pairs raised the ledger's ``peak_rss_mb`` by 12 % on
# 32-query batches, 384 keeps it at the per-layer tracer's level.
_TRACE_BLOCK_PAIRS = 384


@dataclass
class SelectiveLUT:
    """Sparse per-ray lookup tables produced by the RT pass.

    Hits are stored per subspace in CSR form over ray ids: for subspace ``s``
    and ray ``r``, the selected entries are
    ``entries[s][offsets[s][r]:offsets[s][r + 1]]`` and their values (squared
    L2 distances or inner products) are the matching slice of ``values[s]``.

    Attributes:
        num_rays: number of rays per subspace (``Q * nprobs``).
        num_entries: codebook entries per subspace ``E``.
        metric: the metric the values are expressed in.
        offsets: per-subspace ``(num_rays + 1,)`` CSR offsets.
        entries: per-subspace hit entry ids, grouped by ray.
        values: per-subspace hit values, grouped by ray.
        inner_flags: per-subspace booleans marking hits that also fall inside
            the reward/penalty inner sphere (JUNO-M); ``None`` when the inner
            sphere was not evaluated.
        stats: traversal statistics accumulated over all subspaces.
    """

    num_rays: int
    num_entries: int
    metric: Metric
    offsets: list[np.ndarray]
    entries: list[np.ndarray]
    values: list[np.ndarray]
    inner_flags: list[np.ndarray] | None
    stats: TraversalStats

    @property
    def num_subspaces(self) -> int:
        """Number of subspaces covered by the LUT."""
        return len(self.offsets)

    @property
    def total_hits(self) -> int:
        """Total number of selected (ray, entry) pairs."""
        return int(sum(e.shape[0] for e in self.entries))

    def ray_slice(self, subspace_id: int, ray_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(entry_ids, values)`` selected for one ray in one subspace."""
        start = self.offsets[subspace_id][ray_id]
        stop = self.offsets[subspace_id][ray_id + 1]
        return (
            self.entries[subspace_id][start:stop],
            self.values[subspace_id][start:stop],
        )

    def dense_rows(self, ray_id: int) -> np.ndarray:
        """Dense ``(S, E)`` table for one ray with ``nan`` marking unselected entries."""
        table = np.full((self.num_subspaces, self.num_entries), np.nan)
        for s in range(self.num_subspaces):
            entry_ids, values = self.ray_slice(s, ray_id)
            table[s, entry_ids] = values
        return table

    def hit_mask_rows(self, ray_id: int) -> np.ndarray:
        """Dense boolean ``(S, E)`` selection mask for one ray."""
        mask = np.zeros((self.num_subspaces, self.num_entries), dtype=bool)
        for s in range(self.num_subspaces):
            entry_ids, _ = self.ray_slice(s, ray_id)
            mask[s, entry_ids] = True
        return mask

    def inner_mask_rows(self, ray_id: int) -> np.ndarray:
        """Dense boolean ``(S, E)`` inner-sphere mask for one ray (JUNO-M)."""
        if self.inner_flags is None:
            raise RuntimeError("inner sphere flags were not computed for this LUT")
        mask = np.zeros((self.num_subspaces, self.num_entries), dtype=bool)
        for s in range(self.num_subspaces):
            start = self.offsets[s][ray_id]
            stop = self.offsets[s][ray_id + 1]
            mask[s, self.entries[s][start:stop]] = self.inner_flags[s][start:stop]
        return mask

    def selected_fraction(self) -> float:
        """Average fraction of entries selected per (ray, subspace); the
        sparsity actually exploited."""
        total_slots = self.num_rays * self.num_subspaces * self.num_entries
        if total_slots == 0:
            return 0.0
        return self.total_hits / total_slots


class SelectiveLUTConstructor:
    """Casts the per-subspace ray batches and decodes hit times into values.

    Args:
        tracer: ray tracer over the offline-built traversable scene.
        base_radius: the constant sphere radius ``R`` (L2 spheres use exactly
            ``R``; inner-product spheres were enlarged per entry offline).
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
    ) -> SelectiveLUT:
        """Trace all rays and build the selective LUT.

        Subspaces are traced in blocks of ``_TRACE_BLOCK_PAIRS // R`` layers
        (at least one) per
        :meth:`~repro.rt.tracer.RayTracer.trace_vertical_batch` call.  The
        tracer returns a block's hits ordered by (subspace, ray) and, within
        a ray, in leaf order, so the CSR layout needs no sort: the per-ray
        offsets are a running sum of the tracer's per-ray hit counts, and
        hit-time decoding, the MIPS query norms and the JUNO-M inner flags
        are per-hit gathers on the flat ``subspace * R + ray`` key.  The
        per-subspace ``offsets`` / ``entries`` / ``values`` /
        ``inner_flags`` of the result are views of the block arrays.

        Args:
            origins: ``(R, S, 2)`` ray origins per ray and subspace (residual
                projections for L2, raw query projections for inner product).
            t_max: ``(R, S)`` per-ray maximum travel times.
            thresholds: ``(R, S)`` distance thresholds (needed to evaluate the
                inner sphere for JUNO-M; ignored otherwise).
            trace: optional :class:`~repro.obs.trace.Trace`; when set, every
                tracer call is recorded as an ``rt_trace`` span, which
                separates traversal from decode/CSR assembly in the caller's
                span.

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
        if want_inner and thresholds is None:
            raise ValueError("thresholds are required to evaluate the inner sphere")

        scene_layers = [self.tracer.scene.layer(s) for s in range(num_subspaces)]
        num_entries = max((layer.num_spheres for layer in scene_layers), default=0)
        origin_offsets = self.origin_offsets[:num_subspaces]
        origin_z = np.array([layer.z for layer in scene_layers]) - origin_offsets

        offsets: list[np.ndarray] = []
        entries: list[np.ndarray] = []
        values: list[np.ndarray] = []
        inner_flags: list[np.ndarray] | None = [] if want_inner else None
        stats = TraversalStats()
        block_layers = max(1, _TRACE_BLOCK_PAIRS // max(num_rays, 1))
        for s0 in range(0, num_subspaces, block_layers):
            block = slice(s0, min(s0 + block_layers, num_subspaces))
            width = block.stop - s0
            span = nullcontext() if trace is None else trace.span("rt_trace", layers=width)
            with span:
                hits, block_stats = self.tracer.trace_vertical_batch(
                    np.arange(s0, block.stop), origins[:, block], t_max[:, block], origin_z[block]
                )
            stats.merge(block_stats)
            block_offsets = np.zeros((width, num_rays + 1), dtype=np.int64)
            np.cumsum(hits.hits_per_ray, axis=1, out=block_offsets[:, 1:])
            hit_offset = np.repeat(origin_offsets[block], block_offsets[:, -1])
            pair = hits.pair_index
            if self.metric is Metric.L2:
                distance = l2_distance_from_hit_time(hits.t_hit, self.base_radius, hit_offset)
                block_values = distance**2
            else:
                # The query-projection norm depends on the ray that produced
                # each hit; gather it per hit before decoding.
                query_norm_sq = np.sum(origins[:, block] ** 2, axis=2).T.reshape(-1)[pair]
                block_values = inner_product_from_hit_time(
                    hits.t_hit, query_norm_sq, self.base_radius, hit_offset
                )
            # Hits are grouped by layer: each subspace's arrays are one
            # contiguous cut of the block arrays.
            cuts = [0, *np.cumsum(block_offsets[:, -1]).tolist()]
            layer_cuts = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
            offsets.extend(block_offsets)
            entries.extend(hits.entry_index[cut] for cut in layer_cuts)
            values.extend(block_values[cut] for cut in layer_cuts)
            if want_inner:
                hit_threshold = thresholds[:, block].T.reshape(-1)[pair]
                if self.metric is Metric.L2:
                    flags = np.sqrt(block_values) <= hit_threshold * self.inner_sphere_ratio
                else:
                    # For inner product "inside the inner sphere" means an
                    # inner product comfortably above the selection bound; the
                    # margin shrinks with the inner-sphere ratio.
                    margin = (1.0 - self.inner_sphere_ratio) * np.abs(hit_threshold)
                    flags = block_values >= hit_threshold + margin
                inner_flags.extend(flags[cut] for cut in layer_cuts)
        return SelectiveLUT(
            num_rays=num_rays,
            num_entries=num_entries,
            metric=self.metric,
            offsets=offsets,
            entries=entries,
            values=values,
            inner_flags=inner_flags,
            stats=stats,
        )
