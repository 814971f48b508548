"""The score kernel: gather the selective LUT by PQ code.

The paper's distance calculation is a table lookup: each candidate's PQ
codes index the selectively built LUT and the per-subspace values are
accumulated.  The LUT arrives from RT-select as the table to look up in --
one dense ``(S, rays, E')`` array, ``NaN`` = unselected
(:class:`~repro.core.selective_lut.SelectiveLUT`) -- so
:func:`fused_score_candidates`, per block of queries,

1. takes the block's rays' slice of that table (for the hit-count modes its
   ``~isnan`` and, for JUNO-M, the matching slice of the inner-sphere table);
2. fills the ``(candidate, subspace)`` table with one flat gather through
   the index ``(s * rays + ray) * E' + column``, built from the cluster-major
   column rows of :meth:`~repro.core.subspace_index.SubspaceInvertedIndex.flat_layout`
   (a probed cluster's members are one contiguous run of it; a column is a
   PQ code already translated to the table's leaf-slot order);
3. reduces over the subspace axis, the dynamic-threshold miss penalties
   standing in for unselected entries (JUNO-H) or hit / inner-sphere
   counts forming the score (JUNO-L/M).

There is no Python loop over clusters, candidates or subspaces, and no
intermediate copy of the hits.  Gathered values, miss penalties and the sum
are float32, the LUT's dtype; the top-k stage widens the scores it returns.

Bit-identity with the per-ray reference loop (``tests/score_reference.py``)
at the table's dtype is by construction:

* the ``(candidate, subspace)`` table holds exactly the elements the
  reference's per-ray ``(members, S)`` lookup produces, in the same order
  per row, so the ``sum`` over the subspace axis runs NumPy's pairwise
  reduction over identical operands;
* match counts are boolean/NaN occupancy counts, not scatter-adds;
* per-query candidate order is ray-major -- the same probe order the
  reference concatenates.

Against the float64 path it replaced, scores agree within the precision
oracle's bound (``tests/test_precision_oracle.py``).  All bulk array work
goes through an :class:`~repro.backend.ArrayBackend` (NumPy, or CuPy/torch
within a documented tolerance); the integer index arithmetic stays on the
host by design (see :mod:`repro.backend.base`).
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend
from repro.pipeline.context import QueryContext

# Per-block element budget.  A query costs ``S * (candidates + nprobs * E')``
# elements: its rows of the gathered ``(candidate, subspace)`` table plus its
# rays' slice of the LUT, which the gather reads from.  Blocks align on query
# boundaries so each query's candidates assemble in one pass; rows are
# independent, so blocking cannot change any result.  At its peak a block
# holds the 4-byte values and gather index and the 1-byte masks of the
# gathered shape, ~5.6 MB for five ledger queries, so this constant decides
# the stage's memory and its speed: about five queries per block keep the LUT
# slice and what is gathered from it in the L2 cache.  Doubling it, the same
# bytes of 4-byte cells that 1 << 19 held of 8-byte ones, is 13-15 % slower on
# the 32-query JUNO-H sweep cells (docs/performance.md);
# tests/test_hot_path_gates.py bounds the stage's peak allocation.
_FUSED_BLOCK_ELEMENTS = 1 << 19


def fused_score_candidates(
    ctx: QueryContext, backend: ArrayBackend, miss_penalties
) -> None:
    """Run the score kernel over the whole query batch.

    Fills ``ctx.candidates`` / ``ctx.candidate_total`` and the ADC work
    counters.  ``miss_penalties`` is the stage's ``(ctx, (R, S)
    thresholds) -> (R, S) penalties`` callable (JUNO-H only).
    """
    index = ctx.require("index", "score")
    selected = ctx.require("selected", "score")
    lut = ctx.require("lut", "score")
    thresholds = ctx.require("thresholds", "score")
    mode = ctx.quality_mode
    num_queries, nprobs = selected.shape
    num_subspaces, num_slots = lut.table.shape[0], lut.table.shape[2]
    layout = index.subspace_index.flat_layout()
    miss_penalty = float(index.config.hit_count_penalty)
    query_cluster_ip = (
        None if ctx.query_cluster_ip is None else ctx.query_cluster_ip.reshape(-1)
    )

    flat_clusters = np.asarray(selected, dtype=np.int64).reshape(-1)
    ray_sizes = layout.cluster_sizes[flat_clusters]
    query_elements = (
        ray_sizes.reshape(num_queries, nprobs).sum(axis=1) + nprobs * num_slots
    ) * num_subspaces
    subspace_ids = np.arange(num_subspaces, dtype=np.int32)

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
        # inputs -- and the block's part of the LUT -- are plain slices.
        r0, r1 = q0 * nprobs, q1 * nprobs
        clusters_b = flat_clusters[r0:r1]
        sizes_b = ray_sizes[r0:r1]
        total = int(sizes_b.sum())
        if total == 0:
            candidates.extend([None] * (q1 - q0))
            q0 = q1
            continue
        block_rays = np.arange(r1 - r0, dtype=np.int32)
        cand_ray = np.repeat(block_rays, sizes_b)
        # A probed cluster's members are one run of the cluster-major
        # layout: candidate i of a ray sits at member_base[cluster] + i.
        run_starts = layout.member_base[clusters_b] - (np.cumsum(sizes_b) - sizes_b)
        member_rows = np.repeat(run_starts, sizes_b) + np.arange(total)
        cand_ids = layout.members[member_rows]

        # The tables the mode's score reads, cut to the block's rays.
        if mode.uses_exact_distance:
            tables = [lut.table[:, r0:r1]]
        else:
            tables = [~np.isnan(lut.table[:, r0:r1])]
            if mode.uses_inner_sphere:
                tables.append(lut.inner[:, r0:r1])

        # Flat index of table[s, ray, column] for every (candidate,
        # subspace): one gather per table fills what the reductions below
        # run over.
        table_plane = block_rays.shape[0] * num_slots
        ray_base = np.add.outer(block_rays * num_slots, subspace_ids * table_plane)
        gather = np.take(layout.columns, member_rows, axis=0)
        gather += np.take(ray_base, cand_ray, axis=0)
        gathered = [backend.take(backend.asarray(table), gather) for table in tables]

        if mode.uses_exact_distance:
            (values,) = gathered
            miss = backend.isnan(values)
            matched = backend.sum(backend.logical_not(miss), axis=1)
            penalties = miss_penalties(ctx, thresholds[r0:r1]).astype(lut.table.dtype)
            penalty_rows = backend.take_rows(backend.asarray(penalties), cand_ray)
            scores = backend.sum(backend.where(miss, penalty_rows, values), axis=1)
            if query_cluster_ip is not None:
                scores = scores + backend.asarray(query_cluster_ip[r0:r1][cand_ray])
        else:
            matched = backend.sum(gathered[0], axis=1)
            if mode.uses_inner_sphere:
                rewards = backend.astype(backend.sum(gathered[1], axis=1), np.float64)
                misses = backend.astype(num_subspaces - matched, np.float64)
                scores = rewards - miss_penalty * misses
            else:
                scores = backend.astype(matched, np.float64)

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
