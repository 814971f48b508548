"""Hit-count-based aggressive approximation (Sec. 5.4).

JUNO-L ranks candidate points purely by how many subspaces their codebook
entry was hit in: being hit in more subspaces implies being close to the
query in more subspaces, which correlates strongly with the true distance
(Fig. 11(b)), and avoids JUNO-H's floating point distance sum.  The score
kernel (:mod:`repro.pipeline.fused`) computes the count; this module keeps
the measure of how well it tracks the true distance.
"""

from __future__ import annotations

import numpy as np


def hit_count_correlation(hit_scores: np.ndarray, true_distances: np.ndarray) -> float:
    """Pearson correlation between hit-count scores and (negated) true distances.

    Used by the Fig. 11(b) benchmark to show that the plain hit count is an
    informative distance proxy.  Distances are negated
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
