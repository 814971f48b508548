"""The score kernel: densify the RT hits, then gather by PQ code.

The paper's distance calculation is a table lookup: each candidate's PQ
codes index the selectively built LUT and the per-subspace values are
accumulated.  :func:`fused_score_candidates` runs it in that direction.
Per block of queries it

1. scatters the block's :class:`~repro.core.selective_lut.SelectiveLUT`
   hits -- CSR lists per subspace -- once into a flat ``(S, rays, E)``
   table (``NaN`` = unselected; boolean tables for the hit-count modes);
   this touches every hit once and no candidate;
2. fills the ``(candidate, subspace)`` table with one flat gather through
   the index ``(s * rays + ray) * E + code``, built from the cluster-major
   code rows of
   :meth:`~repro.core.subspace_index.SubspaceInvertedIndex.flat_layout`
   (a probed cluster's members are one contiguous run of it);
3. reduces over the subspace axis, the dynamic-threshold miss penalties
   standing in for unselected entries (JUNO-H) or hit / inner-sphere
   counts forming the score (JUNO-L/M).

There is no Python loop over clusters, candidates or -- past slicing the
LUT's per-subspace arrays -- subspaces.

Bit-identity with the per-ray reference loop (``tests/score_reference.py``)
is by construction:

* the ``(candidate, subspace)`` table holds exactly the elements the
  reference's per-ray ``(members, S)`` lookup produces, in the same order
  per row, so the ``sum`` over the subspace axis runs NumPy's pairwise
  reduction over identical operands;
* match counts are boolean/NaN occupancy counts, not scatter-adds;
* per-query candidate order is ray-major -- the same probe order the
  reference concatenates.

All bulk array work goes through an
:class:`~repro.backend.ArrayBackend`, so the same kernel runs on NumPy
(bit-exact) or CuPy/torch (tolerance-documented); the integer index
arithmetic stays on the host by design (see :mod:`repro.backend.base`).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.backend import ArrayBackend
from repro.pipeline.context import QueryContext

# Per-block element budget.  A query costs ``S * (candidates + nprobs * E)``
# elements: its rows of the gathered ``(candidate, subspace)`` table plus its
# rays' slice of the dense table.  Blocks align on query boundaries so each
# query's candidates assemble in one pass; rows are independent, so blocking
# cannot change any result.  A block holds about five float64 arrays of the
# gathered shape at its peak, so this constant decides the stage's memory
# (one block per 32-query ledger batch pushed ``peak_rss_mb`` towards its
# 10 % gate) and its speed: about five ledger queries per block keep the
# table and what is gathered from it in the L2 cache, which scores a batch a
# quarter faster than one block does.  docs/performance.md has the numbers;
# tests/test_hot_path_gates.py bounds the stage's peak allocation.
_FUSED_BLOCK_ELEMENTS = 1 << 19


def _densify(lut, r0: int, r1: int, backend: ArrayBackend, mode) -> list:
    """Dense ``(S, rays, E)`` tables of the CSR hits of rays ``[r0, r1)``.

    Returns the tables the mode's score reads: ``[values]`` (``NaN`` =
    unselected) for the exact-distance mode, else ``[hits]`` plus the
    inner-sphere flags for JUNO-M, both boolean.  Each subspace's hits of
    a contiguous ray range are one slice of its CSR arrays, ordered by
    ray, so their concatenation is ordered by ``(subspace, ray)`` and one
    ``repeat`` of the per-(subspace, ray) hit counts addresses every hit.
    """
    num_subspaces, num_rays, num_entries = lut.num_subspaces, r1 - r0, lut.num_entries
    offsets = np.stack([lut.offsets[s][r0 : r1 + 1] for s in range(num_subspaces)])
    cuts = [slice(lo, hi) for lo, hi in zip(offsets[:, 0].tolist(), offsets[:, -1].tolist())]

    def block_hits(per_subspace: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([array[cut] for array, cut in zip(per_subspace, cuts)])

    slots = np.arange(0, num_subspaces * num_rays * num_entries, num_entries)
    targets = np.repeat(slots, np.diff(offsets, axis=1).reshape(-1))
    targets += block_hits(lut.entries)

    def table(fill, dtype, hit_values):
        dense = backend.full((num_subspaces, num_rays, num_entries), fill, dtype)
        backend.put(dense, targets, hit_values)
        return dense

    if mode.uses_exact_distance:
        return [table(np.nan, np.float64, block_hits(lut.values))]
    tables = [table(False, bool, True)]
    if mode.uses_inner_sphere:
        tables.append(table(False, bool, block_hits(lut.inner_flags)))
    return tables


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
    num_subspaces, num_entries = index.config.num_subspaces, lut.num_entries
    layout = index.subspace_index.flat_layout()
    miss_penalty = float(index.config.hit_count_penalty)
    query_cluster_ip = (
        None if ctx.query_cluster_ip is None else ctx.query_cluster_ip.reshape(-1)
    )

    flat_clusters = np.asarray(selected, dtype=np.int64).reshape(-1)
    ray_sizes = layout.cluster_sizes[flat_clusters]
    query_elements = (
        ray_sizes.reshape(num_queries, nprobs).sum(axis=1) + nprobs * num_entries
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
        # inputs -- and each subspace's CSR hit arrays -- are plain slices.
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

        table_span = (
            nullcontext()
            if ctx.trace is None
            else ctx.trace.span("score_table", rays=block_rays.shape[0])
        )
        with table_span:
            tables = _densify(lut, r0, r1, backend, mode)

        # Flat index of table[s, ray, code] for every (candidate, subspace):
        # one gather per table fills what the reductions below run over.
        table_plane = block_rays.shape[0] * num_entries
        ray_base = np.add.outer(block_rays * num_entries, subspace_ids * table_plane)
        gather = np.take(layout.codes, member_rows, axis=0)
        gather += np.take(ray_base, cand_ray, axis=0)
        gathered = [backend.take(table, gather) for table in tables]

        if mode.uses_exact_distance:
            (values,) = gathered
            miss = backend.isnan(values)
            matched = backend.sum(backend.logical_not(miss), axis=1)
            penalties = miss_penalties(ctx, thresholds[r0:r1])
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
