"""The score kernel: gather the selective LUT by PQ code and sum.

The paper's distance calculation is a table lookup: each candidate's PQ
codes index the selectively built LUT and the per-subspace values are
accumulated.  RT-select hands the LUT over as exactly what that lookup reads
(:class:`~repro.core.selective_lut.SelectiveLUT`): one dense
``(S, rays, E')`` float32 table of each cell's contribution -- its decoded
value where the ray selected the slot, the ray's miss value (its
dynamic-threshold penalty, ``NaN`` for JUNO-M) where it did not -- and the
hit grid beside it.
So :func:`fused_score_candidates`, per block of queries,

1. builds one ``(S, candidates)`` ``intp`` index into the whole table: the
   block's rays' runs ``columns[:, base:base + size]`` of the subspace-major
   :meth:`~repro.core.subspace_index.SubspaceInvertedIndex.flat_layout` back
   to back (a column is a PQ code already in the table's leaf-slot order),
   plus ``ray * E'`` and ``s * plane``;
2. gathers through it the hit bytes and the contributions (JUNO-H) or the
   inner-sphere bytes (JUNO-M);
3. sums each over the subspace axis: match counts in ``uint8`` (``int32``
   past 255 subspaces), scores subspace by subspace as in the paper's
   kernel.

There is no Python loop over clusters, candidates or subspaces, and no
per-cell test or select: RT-select decided each cell once.  The index is
built in the ``intp`` every gather reads, so no pass widens it; contributions
and their sum are float32, the LUT's dtype; the top-k stage widens the scores
it returns.

Bit-identity with the per-ray reference loop (``tests/score_reference.py``)
at the table's dtype is by construction:

* a candidate's column of the index addresses exactly the cells the
  reference's per-ray ``(members, S)`` lookup reads, in subspace order, and
  ``sum(axis=0)`` of an ``(S, n >= 2)`` array adds one row after the other --
  the reference's accumulation;
* match counts are integer hit counts, not scatter-adds;
* per-query candidate order is ray-major -- the same probe order the
  reference concatenates.

Against the float64 path it replaced, scores agree within the precision
oracle's bound (``tests/test_precision_oracle.py``).  Every step is a plain
NumPy call: the paper's GPU kernels are modelled by work counts and the
cost model in :mod:`repro.gpu`, not executed.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.context import QueryContext

# Per-block element budget: a query costs ``S * candidates`` elements, its
# columns of the gathered ``(subspace, candidate)`` tables.  Blocks align on
# query boundaries so each query's candidates assemble in one pass; columns
# are independent, so blocking cannot change any result.  At its peak a block
# holds the 8-byte gather index (concatenated as such, never a narrower copy),
# the 4-byte contributions and the 1-byte hits of the gathered shape, ~3.4 MB,
# so this constant decides the stage's memory and its speed.  On the 32-query
# sweep cells it beats 1 << 17, 1 << 19 and 1 << 20 in every JUNO-H cell (by
# 7-11 % against 1 << 19) and stays within 3 % of 1 << 19 in the JUNO-M/L
# cells, where 1 << 17 loses 16-20 % to per-block overhead
# (docs/performance.md).  tests/test_hot_path_gates.py bounds the stage's peak.
_FUSED_BLOCK_ELEMENTS = 1 << 18


def fused_score_candidates(ctx: QueryContext) -> None:
    """Run the score kernel over the whole query batch.

    Fills ``ctx.candidates`` / ``ctx.candidate_total`` and the ADC work
    counters.
    """
    index = ctx.require("index", "score")
    selected = ctx.require("selected", "score")
    lut = ctx.require("lut", "score")
    mode = ctx.quality_mode
    num_queries, nprobs = selected.shape
    num_subspaces, num_rays, num_slots = lut.table.shape
    layout = index.subspace_index.flat_layout()
    miss_penalty = float(index.config.hit_count_penalty)
    query_cluster_ip = (
        None if ctx.query_cluster_ip is None else ctx.query_cluster_ip.reshape(-1)
    )

    flat_clusters = np.asarray(selected, dtype=np.int64).reshape(-1)
    ray_sizes = layout.cluster_sizes[flat_clusters]
    query_elements = ray_sizes.reshape(num_queries, nprobs).sum(axis=1) * num_subspaces
    subspace_base = np.arange(num_subspaces, dtype=np.intp)[:, None] * (num_rays * num_slots)
    # uint8 counts while they fit: a count never exceeds num_subspaces
    count_dtype = np.uint8 if num_subspaces < 256 else np.int32
    # The tables the mode's score reads, flattened for the flat gather: the
    # hit bytes first.
    tables = [lut.hits.view(np.uint8)]
    if mode.uses_exact_distance:
        tables.append(lut.table)
    elif mode.uses_inner_sphere:
        tables.append(lut.inner.view(np.uint8))
    tables = [table.reshape(-1) for table in tables]

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
        # inputs are plain slices.
        r0, r1 = q0 * nprobs, q1 * nprobs
        clusters_b = flat_clusters[r0:r1]
        sizes_b = ray_sizes[r0:r1]
        total = int(sizes_b.sum())
        if total == 0:
            candidates.extend([None] * (q1 - q0))
            q0 = q1
            continue
        cand_ray = np.repeat(np.arange(r1 - r0), sizes_b)
        # a probed cluster's members are one run: the block's runs back to back
        runs = [slice(*ends) for ends in layout.member_base[clusters_b[:, None] + (0, 1)].tolist()]
        cand_ids = np.concatenate([layout.members[run] for run in runs])

        # Flat index of table[s, ray, column] for every (subspace,
        # candidate): one gather per table fills what the sums below run over.
        gather = np.concatenate([layout.columns[:, run] for run in runs], axis=1, dtype=np.intp)
        gather += (cand_ray + r0) * num_slots
        gather += subspace_base
        if total == 1:
            # NumPy sums a lone column pairwise; beside a copy of itself it
            # is summed row after row like every other block
            gather = np.repeat(gather, 2, axis=1)
        gathered = [table.take(gather) for table in tables]

        matched = gathered[0].sum(axis=0, dtype=count_dtype)
        if mode.uses_exact_distance:
            scores = gathered[1].sum(axis=0)
            if query_cluster_ip is not None:
                scores = scores[:total] + query_cluster_ip[r0:r1][cand_ray]
        elif mode.uses_inner_sphere:
            rewards = gathered[1].sum(axis=0, dtype=count_dtype)
            misses = num_subspaces - matched.astype(np.float64)
            scores = rewards.astype(np.float64) - miss_penalty * misses
        else:
            scores = matched.astype(np.float64)
        del gather, gathered  # freed before the next block's index is built

        matched = matched[:total]
        keep = matched >= 1
        adc_lookups += float(matched.sum())
        adc_candidates += float(keep.sum())

        kept_ids = cand_ids[keep]
        kept_scores = scores[:total][keep]
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
