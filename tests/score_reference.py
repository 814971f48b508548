"""Reference score kernel the batched ``ScoreStage`` is pinned against.

Not a test module: the oracle the parity, property and perf tests share.
:class:`HitCountScorer` scores one cluster's members for one ray from its
hit (and inner-sphere) masks, the JUNO-L/M half of the oracle.
:class:`LoopedScoreStage` is the per-ray Python loop ``src/`` shipped as its
distance-calculation stage before the batched kernels: for every
(query, probed cluster) it builds that ray's dense ``(S, E)`` values and hit
mask through the per-ray accessors of ``rt_reference`` (``lut.hits``
decides what was selected), looks the cluster's member codes up in them, puts its own miss penalties where nothing was
selected and accumulates subspace by subspace (:func:`subspace_sum`).  Its
arithmetic follows the dtype of the table it is given (the miss penalties
are cast to it): on the float32 LUT of ``src/``, ``ScoreStage`` must
reproduce its candidates -- ids, order, scores -- and ``SearchWork`` deltas
bit for bit, which also pins the miss values RT-select filled the table
with; on a float64 reference LUT (``rt_reference.ReferenceLUT``) it is the
float64 score path the precision oracle (``test_precision_oracle.py``)
compares against.
"""

from __future__ import annotations

import numpy as np

from rt_reference import dense_rows, hit_mask_rows, inner_mask_rows

from repro.metrics.distances import Metric
from repro.pipeline.context import QueryContext


def _miss_penalties(ctx: QueryContext, row_thresholds: np.ndarray) -> np.ndarray:
    """Score contribution of an unselected entry, per subspace of one ray."""
    factor = ctx.index.config.miss_penalty_factor
    if ctx.metric is Metric.L2:
        return (row_thresholds**2) * factor
    return row_thresholds * factor


def subspace_sum(values: np.ndarray) -> np.ndarray:
    """Row sums of ``(members, S)`` values, accumulated one subspace after
    the other in their dtype -- the paper's distance kernel, and the order
    in which ``sum(axis=0)`` reduces the score kernel's ``(S, n)`` tables."""
    total = values[:, 0].copy()
    for column in values.T[1:]:
        total += column
    return total


class HitCountScorer:
    """The JUNO-L/M scores of one cluster's members for one ray (Sec. 5.4).

    JUNO-L ranks a member by the number of subspaces in which the ray hit
    its entry; JUNO-M rewards a hit inside the inner sphere (+1) and
    charges ``miss_penalty`` per subspace hit by neither sphere, while an
    outer-only hit is neutral.

    Args:
        use_inner_sphere: the reward/penalty score (JUNO-M) instead of the
            plain hit count (JUNO-L).
        miss_penalty: penalty per missed subspace (the paper uses 1).
    """

    def __init__(self, use_inner_sphere: bool = False, miss_penalty: float = 1.0) -> None:
        self.use_inner_sphere = bool(use_inner_sphere)
        self.miss_penalty = float(miss_penalty)

    def score_members(self, hit_mask, inner_mask, codes) -> tuple[np.ndarray, np.ndarray]:
        """``(scores, matched)`` of members with ``(n, S)`` ``codes`` from the
        ray's ``(S, E)`` hit mask (and inner mask, for JUNO-M); ``matched``
        counts the subspaces whose entry the ray selected."""
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        num_subspaces = hit_mask.shape[0]
        if codes.shape[1] != num_subspaces:
            raise ValueError("codes and hit_mask disagree on the number of subspaces")
        subspace_index = np.arange(num_subspaces)
        matched = hit_mask[subspace_index[None, :], codes].sum(axis=1)
        if not self.use_inner_sphere:
            return matched.astype(np.float64), matched
        if inner_mask is None:
            raise ValueError("inner_mask is required when use_inner_sphere is set")
        rewards = inner_mask[subspace_index[None, :], codes].sum(axis=1).astype(np.float64)
        misses = (num_subspaces - matched).astype(np.float64)
        return rewards - self.miss_penalty * misses, matched


class LoopedScoreStage:
    """The historical per-(query, cluster) Python-loop distance calculation.

    Shares ``ScoreStage``'s ``name`` so the two are drop-in interchangeable
    in a pipeline.
    """

    name = "score"

    def run(self, ctx: QueryContext) -> None:
        index = ctx.require("index", self.name)
        selected = ctx.require("selected", self.name)
        lut = ctx.require("lut", self.name)
        thresholds = ctx.require("thresholds", self.name)
        mode = ctx.quality_mode
        num_queries, nprobs = selected.shape
        num_subspaces = index.config.num_subspaces
        subspace_range = np.arange(num_subspaces)
        scorer = HitCountScorer(
            use_inner_sphere=mode.uses_inner_sphere,
            miss_penalty=index.config.hit_count_penalty,
        )
        candidates: list[tuple[np.ndarray, np.ndarray] | None] = []
        candidate_total = 0.0
        for qi in range(num_queries):
            candidate_ids: list[np.ndarray] = []
            candidate_scores: list[np.ndarray] = []
            for ci in range(nprobs):
                cluster_id = int(selected[qi, ci])
                ray_id = qi * nprobs + ci
                members = index.subspace_index.cluster_members(cluster_id)
                if members.size == 0:
                    continue
                codes = index.codes[members]
                if mode.uses_exact_distance:
                    rows = dense_rows(lut, index.scene, ray_id)
                    values = rows[subspace_range[None, :], codes]
                    hit = hit_mask_rows(lut, index.scene, ray_id)[subspace_range[None, :], codes]
                    matched = hit.sum(axis=1)
                    penalties = _miss_penalties(ctx, thresholds[ray_id]).astype(rows.dtype)
                    scores = subspace_sum(np.where(hit, values, penalties[None, :]))
                    if ctx.query_cluster_ip is not None:
                        scores = scores + ctx.query_cluster_ip[qi, ci]
                else:
                    hit_mask = hit_mask_rows(lut, index.scene, ray_id)
                    inner_mask = None
                    if mode.uses_inner_sphere:
                        inner_mask = inner_mask_rows(lut, index.scene, ray_id)
                    scores, matched = scorer.score_members(hit_mask, inner_mask, codes)
                keep = matched >= 1
                ctx.work.adc_lookups += float(matched.sum())
                ctx.work.adc_candidates += float(keep.sum())
                if not keep.any():
                    continue
                candidate_ids.append(members[keep])
                candidate_scores.append(scores[keep])
            if not candidate_ids:
                candidates.append(None)
                continue
            ids = np.concatenate(candidate_ids)
            scores = np.concatenate(candidate_scores)
            candidate_total += float(ids.size)
            candidates.append((ids, scores))
        ctx.candidates = candidates
        ctx.candidate_total = candidate_total
        ctx.extra["num_candidates"] = candidate_total
