"""Hit-count-based aggressive approximation (Sec. 5.4).

JUNO-L ranks candidate points purely by how many subspaces their codebook
entry was hit in: being hit in more subspaces implies being close to the
query in more subspaces, which correlates strongly with the true distance
(Fig. 11(b)).  JUNO-M refines the signal with a reward/penalty scheme: an
extra inner sphere at half the radius rewards hits that are *very* close
(+1), while a miss of both spheres costs a penalty (-1); outer-only hits are
neutral.  Both modes avoid the floating point distance recovery of JUNO-H.
"""

from __future__ import annotations

import numpy as np


class HitCountScorer:
    """Scores candidate points from hit / inner-hit masks.

    Args:
        use_inner_sphere: enable the reward/penalty scheme (JUNO-M); when
            disabled (JUNO-L), the score is the plain hit count.
        miss_penalty: penalty subtracted per missed subspace in the
            reward/penalty scheme (the paper uses 1).
    """

    def __init__(self, use_inner_sphere: bool = False, miss_penalty: float = 1.0) -> None:
        self.use_inner_sphere = bool(use_inner_sphere)
        self.miss_penalty = float(miss_penalty)

    def score_members(
        self,
        hit_mask: np.ndarray,
        inner_mask: np.ndarray | None,
        codes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score the members of one cluster for one ray.

        Args:
            hit_mask: ``(S, E)`` boolean selection mask from the RT pass.
            inner_mask: ``(S, E)`` boolean inner-sphere mask (required when
                ``use_inner_sphere`` is set).
            codes: ``(n, S)`` PQ codes of the cluster members.

        Returns:
            ``(scores, matched)`` where ``scores`` is the (higher-is-better)
            hit-count score per member and ``matched`` is the number of
            subspaces in which the member's entry was selected (used both for
            candidate filtering and for work accounting).
        """
        codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
        num_subspaces = hit_mask.shape[0]
        if codes.shape[1] != num_subspaces:
            raise ValueError("codes and hit_mask disagree on the number of subspaces")
        subspace_index = np.arange(num_subspaces)
        member_hits = hit_mask[subspace_index[None, :], codes]
        matched = member_hits.sum(axis=1)
        if not self.use_inner_sphere:
            return matched.astype(np.float64), matched
        if inner_mask is None:
            raise ValueError("inner_mask is required when use_inner_sphere is set")
        member_inner = inner_mask[subspace_index[None, :], codes]
        rewards = member_inner.sum(axis=1).astype(np.float64)
        misses = (num_subspaces - matched).astype(np.float64)
        scores = rewards - self.miss_penalty * misses
        return scores, matched


def hit_count_correlation(hit_scores: np.ndarray, true_distances: np.ndarray) -> float:
    """Pearson correlation between hit-count scores and (negated) true distances.

    Used by the Fig. 11(b) benchmark to show that the reward/penalty score is
    a better distance proxy than the plain hit count.  Distances are negated
    so that a positive correlation means "higher score implies closer point".
    """
    hit_scores = np.asarray(hit_scores, dtype=np.float64)
    true_distances = np.asarray(true_distances, dtype=np.float64)
    if hit_scores.shape != true_distances.shape:
        raise ValueError("hit_scores and true_distances must have the same shape")
    if hit_scores.size < 2:
        return 0.0
    if np.std(hit_scores) == 0.0 or np.std(true_distances) == 0.0:
        return 0.0
    return float(np.corrcoef(hit_scores, -true_distances)[0, 1])
