"""Configuration objects for the JUNO search system.

The paper exposes three quality presets (Sec. 6.1):

* **JUNO-H** -- exact hit-time-based distance calculation; for high quality
  requirements (recall above ~0.97).
* **JUNO-M** -- finer-grained hit-count selection with the reward/penalty
  inner sphere; medium quality (~0.95-0.97).
* **JUNO-L** -- pure hit-count selection; low quality (below ~0.95) and the
  highest throughput.

It also lets the user trade quality for throughput with a threshold scaling
factor (Sec. 4.1) and, for the ablation of Fig. 13(b), supports static
(small/large) thresholds instead of the dynamic density-driven one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.metrics.distances import Metric


class QualityMode(str, enum.Enum):
    """The JUNO-L / JUNO-M / JUNO-H operating points."""

    HIGH = "juno-h"
    MEDIUM = "juno-m"
    LOW = "juno-l"

    @property
    def uses_exact_distance(self) -> bool:
        """Whether the mode computes exact hit distances (JUNO-H only)."""
        return self is QualityMode.HIGH

    @property
    def uses_inner_sphere(self) -> bool:
        """Whether the reward/penalty inner sphere is used (JUNO-M only)."""
        return self is QualityMode.MEDIUM

    def higher_is_better(self, metric: Metric) -> bool:
        """Sort direction of the scores this mode produces under ``metric``.

        Hit-count scores (JUNO-L/M) and inner products rank descending;
        JUNO-H L2 distances rank ascending.  Shared by the in-process top-k
        selection and the shard merge in :mod:`repro.serving.shard`, which
        must agree on the direction for merged results to be correct.
        """
        return (not self.uses_exact_distance) or (Metric(metric) is Metric.INNER_PRODUCT)


class ThresholdStrategy(str, enum.Enum):
    """How the per-query distance threshold is chosen (Fig. 13(b))."""

    DYNAMIC = "dynamic"
    STATIC_SMALL = "static-small"
    STATIC_LARGE = "static-large"


@dataclass
class JunoConfig:
    """All tunables of a :class:`repro.core.index.JunoIndex`.

    Attributes:
        num_clusters: coarse IVF cluster count ``C``.
        num_subspaces: number of 2-D PQ subspaces ``D/M`` (``M`` is fixed to 2
            by the RT-core mapping).
        num_entries: codebook entries per subspace ``E``.
        metric: L2 or inner product.
        quality_mode: JUNO-H / JUNO-M / JUNO-L operating point.
        threshold_strategy: dynamic (density-driven) or static thresholds.
        threshold_scale: user-facing scaling factor applied to the predicted
            threshold; < 1 trades recall for throughput (Fig. 7(b)).
        density_grid: resolution of the per-subspace density map (the paper
            uses 100 x 100).
        regression_degree: degree of the polynomial density -> threshold
            regressor.
        num_threshold_samples: training points sampled to fit the regressor.
        threshold_top_k: neighbour count the threshold must contain (the
            paper trains against the top-100).
        sphere_radius_margin: multiplier applied to the largest training
            threshold when fixing the constant sphere radius ``R``; must be
            >= 1 so every dynamic threshold stays representable as a
            ``t_max``.
        miss_penalty_factor: multiplier on the squared threshold used as the
            distance contribution of subspaces whose entry was not selected.
        inner_sphere_ratio: radius ratio of the reward/penalty inner sphere
            (the paper uses half the radius).
        hit_count_penalty: penalty applied when a ray misses both spheres in
            JUNO-M scoring.
        kmeans_iters: Lloyd iterations used for IVF and PQ training.
        seed: RNG seed for all training stages.
        leaf_size: BVH leaf size of the traversable scene.
    """

    num_clusters: int = 64
    num_subspaces: int = 48
    num_entries: int = 128
    metric: Metric = Metric.L2
    quality_mode: QualityMode = QualityMode.HIGH
    threshold_strategy: ThresholdStrategy = ThresholdStrategy.DYNAMIC
    threshold_scale: float = 1.0
    density_grid: int = 100
    regression_degree: int = 2
    num_threshold_samples: int = 128
    threshold_top_k: int = 100
    sphere_radius_margin: float = 1.25
    miss_penalty_factor: float = 1.0
    inner_sphere_ratio: float = 0.5
    hit_count_penalty: float = 1.0
    kmeans_iters: int = 15
    seed: int = 0
    leaf_size: int = 4
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.metric = Metric(self.metric)
        self.quality_mode = QualityMode(self.quality_mode)
        self.threshold_strategy = ThresholdStrategy(self.threshold_strategy)
        if self.num_clusters <= 0 or self.num_subspaces <= 0 or self.num_entries <= 0:
            raise ValueError("num_clusters, num_subspaces and num_entries must be positive")
        if self.threshold_scale <= 0:
            raise ValueError("threshold_scale must be positive")
        if self.sphere_radius_margin < 1.0:
            raise ValueError("sphere_radius_margin must be >= 1")
        if not 0.0 < self.inner_sphere_ratio < 1.0:
            raise ValueError("inner_sphere_ratio must be in (0, 1)")
        if self.density_grid < 2:
            raise ValueError("density_grid must be at least 2")
        counts = ("regression_degree", "threshold_top_k", "num_threshold_samples", "kmeans_iters")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # a negative factor would invert L2 scoring: misses would score best
        if not (math.isfinite(self.miss_penalty_factor) and self.miss_penalty_factor > 0):
            raise ValueError("miss_penalty_factor must be finite and positive")

    @property
    def subspace_dim(self) -> int:
        """Dimensionality of each PQ subspace (always 2 for the RT mapping)."""
        return 2

    def required_dim(self) -> int:
        """Full vector dimensionality implied by the subspace count."""
        return self.num_subspaces * self.subspace_dim

    def with_updates(self, **changes) -> "JunoConfig":
        """Copy of the config with selected fields replaced."""
        from dataclasses import replace

        return replace(self, **changes)
