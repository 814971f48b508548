"""The score kernel: gather the selective LUT by PQ code and sum.

The paper's distance calculation is a table lookup per (query, cluster):
each probed cluster's members look their PQ codes up in that ray's LUT and
the per-subspace values are accumulated.  RT-select hands the LUT over as
exactly what that lookup reads (:class:`~repro.core.selective_lut.SelectiveLUT`):
one ray-major ``(rays, S, E')`` float32 table of each cell's contribution --
its decoded value where the ray selected the slot, the ray's miss value (its
dynamic-threshold penalty, ``NaN`` for JUNO-M) where it did not -- and the
hit grid beside it.  The lookup's static half, the codes, was fixed when the
index was built: per cluster, the
:meth:`~repro.core.subspace_index.SubspaceInvertedIndex.flat_layout` holds
the ``(S, n_c)`` block of ``s * E' + column`` cells its members' codes
address in any ray's ``(S, E')`` block.  So :func:`fused_score_candidates`,
per ray,

1. takes the ray's block of the hit grid, and of the contributions (JUNO-H)
   or the inner-sphere flags (JUNO-M), through its cluster's cells;
2. sums each over the subspace axis straight into the batch's candidate
   arrays, at the ray's offset: match counts in ``uint8`` (``int32`` past
   255 subspaces), scores subspace by subspace as in the paper's kernel.

No index is built per batch, and there is no Python loop over candidates or
subspaces and no per-cell test or select: RT-select decided each cell once.
Contributions and their sum are float32, the LUT's dtype; the top-k stage
widens the scores it returns.

Bit-identity with the per-ray reference loop (``tests/score_reference.py``)
at the table's dtype is by construction:

* a cluster's cells address exactly the cells the reference's per-ray
  ``(members, S)`` lookup reads, in subspace order, and
  ``np.add.reduce(axis=0)`` (``sum``) of a C-contiguous ``(S, n >= 2)``
  array adds one row after the other, into an ``out=`` slice too -- the
  reference's accumulation;
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
    num_rays, num_subspaces, num_slots = lut.table.shape
    layout = index.subspace_index.flat_layout()

    clusters = np.asarray(selected, dtype=np.int64).reshape(-1)
    sizes = layout.cluster_sizes[clusters]
    ray_base = np.zeros(num_rays + 1, dtype=np.int64)
    np.cumsum(sizes, out=ray_base[1:])
    total = int(ray_base[-1])
    # uint8 counts while they fit: a count never exceeds num_subspaces
    count_dtype = np.uint8 if num_subspaces < 256 else np.int32
    # The tables the mode's score reads, each ray's (S, E') block a row, and
    # the dtype of their sums: the hit bytes first.
    width = num_subspaces * num_slots
    tables = [(lut.hits.view(np.uint8).reshape(num_rays, width), count_dtype)]
    if mode.uses_exact_distance:
        tables.append((lut.table.reshape(num_rays, width), np.float32))
    elif mode.uses_inner_sphere:
        tables.append((lut.inner.view(np.uint8).reshape(num_rays, width), count_dtype))
    # one spare slot: a lone member is summed beside a copy of itself (NumPy
    # sums a lone column pairwise, not row after row), and the copy's sum
    # lands one past the ray's run, where the next run or the spare slot is
    sums = [np.empty(total + 1, dtype) for _, dtype in tables]
    for ray, cluster, start, size in zip(
        range(num_rays), clusters.tolist(), ray_base.tolist(), sizes.tolist()
    ):
        if size == 0:
            continue
        cells = layout.cells[cluster]
        if size == 1:
            cells = np.repeat(cells, 2, axis=1)
        at = slice(start, start + max(size, 2))
        for (rows, dtype), out in zip(tables, sums):
            np.add.reduce(rows[ray].take(cells), axis=0, dtype=dtype, out=out[at])

    matched = sums[0][:total]
    if mode.uses_exact_distance:
        scores = sums[1][:total]
        if ctx.query_cluster_ip is not None:
            scores = scores + np.repeat(ctx.query_cluster_ip.reshape(-1), sizes)
    elif mode.uses_inner_sphere:
        misses = num_subspaces - matched.astype(np.float64)
        miss_penalty = float(index.config.hit_count_penalty)
        scores = sums[1][:total].astype(np.float64) - miss_penalty * misses
    else:
        scores = matched.astype(np.float64)

    keep = matched >= 1
    ctx.work.adc_lookups += float(matched.sum())
    ctx.work.adc_candidates += float(np.count_nonzero(keep))
    # a probed cluster's members are one run: the batch's runs back to back
    runs = np.repeat(layout.member_base[clusters] - ray_base[:-1], sizes)
    kept_ids = layout.members[np.arange(total) + runs][keep]
    kept_scores = scores[keep]
    bounds = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(keep, out=bounds[1:])
    bounds = bounds[ray_base[::nprobs]].tolist()  # each query's rays are one range

    candidates: list[tuple[np.ndarray, np.ndarray] | None] = []
    candidate_total = 0.0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if start == stop:
            candidates.append(None)
            continue
        candidate_total += float(stop - start)
        candidates.append((kept_ids[start:stop], kept_scores[start:stop]))
    ctx.candidates = candidates
    ctx.candidate_total = candidate_total
    ctx.extra["num_candidates"] = candidate_total
