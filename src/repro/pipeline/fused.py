"""CSR-native fused threshold+score kernel (backend-pluggable).

The batched :class:`~repro.pipeline.stages.ScoreStage` kernel
materialises one dense ``(rays, S, E)`` value table per probed cluster
group and gathers member codes out of it -- ``E`` columns per subspace
even though only the RT-selected entries carry values, plus one Python
iteration (and one full CSR expansion) per cluster group.  This module
is the CSR-native replacement: it consumes the
:class:`~repro.core.selective_lut.SelectiveLUT` hit lists directly and
scatters them straight into a flat ``(candidate, subspace)`` table whose
rows are the members of every probed cluster laid out back-to-back
(:meth:`~repro.core.subspace_index.SubspaceInvertedIndex.flat_layout`).
The dynamic-threshold miss penalties are fused into the same table pass
(JUNO-H), so the kernel touches ``O(candidates * S + hits)`` elements
with no per-cluster Python loop and no dense ``E``-wide tables.

Bit-identity with the dense kernel (and therefore with the looped
reference) is by construction, not by accident:

* the flat table holds exactly the elements the dense kernel's
  ``(rays, members, S)`` gather produces, in the same order per row, so
  the ``sum`` over the subspace axis runs NumPy's pairwise reduction
  over identical operands;
* match counts are duplicate-safe boolean/NaN occupancy counts, not
  scatter-adds;
* per-query candidate order is ray-major -- the same probe order the
  reference concatenates.

All bulk array work goes through an
:class:`~repro.backend.ArrayBackend`, so the same kernel runs on NumPy
(bit-exact) or CuPy/torch (tolerance-documented); the integer CSR
expansion stays on the host by design (see :mod:`repro.backend.base`).
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend
from repro.core.hit_count import HitCountScorer
from repro.pipeline.context import QueryContext

# Per-block element budget of the kernel's largest intermediate, shared
# with the dense kernel's blocking policy (~32 MB of float64).  Blocks
# align on query boundaries so each query's candidates assemble in one
# pass; rows are independent, so blocking cannot change any result.
_FUSED_BLOCK_ELEMENTS = 1 << 22


def _expand_hits(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Flat indices of ``counts[i]`` consecutive slots starting at ``starts[i]``.

    Vectorised expansion of variable-length slices into one index array
    (the repeat/cumsum idiom).
    """
    total = int(counts.sum())
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + within


def fused_score_candidates(
    ctx: QueryContext, backend: ArrayBackend, miss_penalties
) -> None:
    """Run the fused score kernel over the whole query batch.

    Fills ``ctx.candidates`` / ``ctx.candidate_total`` and the ADC work
    counters exactly like the dense ``ScoreStage`` kernel.
    ``miss_penalties`` is the stage's ``(ctx, (R, S) thresholds) ->
    (R, S) penalties`` callable (JUNO-H only).
    """
    index = ctx.require("index", "score")
    selected = ctx.require("selected", "score")
    lut = ctx.require("lut", "score")
    thresholds = ctx.require("thresholds", "score")
    mode = ctx.quality_mode
    num_queries, nprobs = selected.shape
    num_subspaces = index.config.num_subspaces
    layout = index.subspace_index.flat_layout()
    scorer = HitCountScorer(
        use_inner_sphere=mode.uses_inner_sphere,
        miss_penalty=index.config.hit_count_penalty,
    )
    query_cluster_ip = (
        None if ctx.query_cluster_ip is None else ctx.query_cluster_ip.reshape(-1)
    )

    flat_clusters = np.asarray(selected, dtype=np.int64).reshape(-1)
    ray_sizes = layout.cluster_sizes[flat_clusters]
    query_elements = ray_sizes.reshape(num_queries, nprobs).sum(axis=1) * num_subspaces

    candidates: list[tuple[np.ndarray, np.ndarray] | None] = []
    candidate_total = 0.0
    adc_lookups = 0.0
    adc_candidates = 0.0

    q0 = 0
    while q0 < num_queries:
        # grow the block query by query up to the element budget (always
        # at least one query, however large)
        q1 = q0 + 1
        elements = int(query_elements[q0])
        while q1 < num_queries and elements + query_elements[q1] <= _FUSED_BLOCK_ELEMENTS:
            elements += int(query_elements[q1])
            q1 += 1

        # The block's rays are the contiguous range [r0, r1), so per-ray
        # inputs -- and each subspace's CSR hit arrays -- are plain slices.
        r0, r1 = q0 * nprobs, q1 * nprobs
        clusters_b = flat_clusters[r0:r1]
        sizes_b = ray_sizes[r0:r1]
        seg = np.zeros(sizes_b.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes_b, out=seg[1:])
        total = int(seg[-1])
        if total == 0:
            candidates.extend([None] * (q1 - q0))
            q0 = q1
            continue
        block_rays = np.arange(r1 - r0)
        cand_ray = np.repeat(block_rays, sizes_b)
        cand_ids = layout.members[
            np.repeat(layout.member_base[clusters_b], sizes_b)
            + (np.arange(total) - np.repeat(seg[:-1], sizes_b))
        ]

        if mode.uses_exact_distance:
            values = backend.full((total, num_subspaces), np.nan, np.float64)
            hit_tables = None
            inner_table = None
        else:
            values = None
            hit_tables = backend.zeros((total, num_subspaces), bool)
            inner_table = (
                backend.zeros((total, num_subspaces), bool)
                if mode.uses_inner_sphere
                else None
            )

        for s in range(num_subspaces):
            ray_offsets = lut.offsets[s][r0 : r1 + 1]
            hit_slice = slice(int(ray_offsets[0]), int(ray_offsets[-1]))
            if hit_slice.start == hit_slice.stop:
                continue
            rows = np.repeat(block_rays, np.diff(ray_offsets))
            entries = lut.entries[s][hit_slice]
            hit_clusters = clusters_b[rows]
            starts = layout.entry_offsets[s, hit_clusters, entries]
            counts = layout.entry_offsets[s, hit_clusters, entries + 1] - starts
            if not counts.any():
                continue
            flat = _expand_hits(counts, starts)
            member_pos = layout.positions[s, flat]
            targets = (seg[np.repeat(rows, counts)] + member_pos) * num_subspaces + s
            if values is not None:
                backend.put(values, targets, np.repeat(lut.values[s][hit_slice], counts))
            else:
                backend.put(hit_tables, targets, True)
                if inner_table is not None:
                    backend.put(
                        inner_table,
                        targets,
                        np.repeat(lut.inner_flags[s][hit_slice], counts),
                    )

        if values is not None:
            miss = backend.isnan(values)
            matched = backend.sum(backend.logical_not(miss), axis=1)
            penalties = miss_penalties(ctx, thresholds[r0:r1])
            penalty_rows = backend.take_rows(backend.asarray(penalties), cand_ray)
            scores = backend.sum(backend.where(miss, penalty_rows, values), axis=1)
            if query_cluster_ip is not None:
                scores = scores + backend.asarray(query_cluster_ip[r0:r1][cand_ray])
        else:
            matched = backend.sum(hit_tables, axis=1)
            if inner_table is None:
                scores = backend.astype(matched, np.float64)
            else:
                rewards = backend.astype(backend.sum(inner_table, axis=1), np.float64)
                misses = backend.astype(num_subspaces - matched, np.float64)
                scores = rewards - scorer.miss_penalty * misses

        matched_np = backend.to_numpy(matched)
        scores_np = backend.to_numpy(scores)
        keep = matched_np >= 1
        adc_lookups += float(matched_np.sum())
        adc_candidates += float(keep.sum())

        kept_ids = cand_ids[keep]
        kept_scores = scores_np[keep]
        kept_per_ray = np.bincount(cand_ray[keep], minlength=sizes_b.shape[0])
        kept_per_query = kept_per_ray.reshape(q1 - q0, nprobs).sum(axis=1)
        bounds = np.zeros(kept_per_query.shape[0] + 1, dtype=np.int64)
        np.cumsum(kept_per_query, out=bounds[1:])
        for qi in range(q1 - q0):
            start, stop = int(bounds[qi]), int(bounds[qi + 1])
            if start == stop:
                candidates.append(None)
                continue
            candidate_total += float(stop - start)
            candidates.append((kept_ids[start:stop], kept_scores[start:stop]))
        q0 = q1

    ctx.work.adc_lookups += adc_lookups
    ctx.work.adc_candidates += adc_candidates
    ctx.candidates = candidates
    ctx.candidate_total = candidate_total
    ctx.extra["num_candidates"] = candidate_total
