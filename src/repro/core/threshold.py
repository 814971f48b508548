"""Dynamic distance thresholds via density-driven polynomial regression (Sec. 4.1).

The selective L2-LUT construction needs, for every query projection in every
subspace, a distance threshold that (ideally) contains the codebook entries
used by the query's top-100 neighbours while excluding everything else.  The
paper observes a negative correlation between that threshold and the density
of the region the query projection falls into (Fig. 7(a)), and fits a simple
polynomial regressor offline: density in, threshold out.

This module also provides the static strategies used by the Fig. 13(b)
ablation: ``STATIC_SMALL`` (the minimum training threshold) and
``STATIC_LARGE`` (the maximum training threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ThresholdStrategy
from repro.core.density import DensityMap


@dataclass
class ThresholdTrainingSample:
    """One (density, threshold) observation collected during training.

    Attributes:
        subspace_id: subspace the observation came from.
        density: region density at the training query's projection.
        threshold: smallest distance that contains the codebook entries used
            by the training query's top-k neighbours in this subspace.
    """

    subspace_id: int
    density: float
    threshold: float


class ThresholdModel:
    """Polynomial regression from log-density to distance threshold.

    Args:
        density_map: fitted :class:`DensityMap` to look densities up in.
        degree: polynomial degree (the paper reports that a simple polynomial
            suffices).
        strategy: dynamic or static threshold selection.
    """

    def __init__(
        self,
        density_map: DensityMap,
        degree: int = 2,
        strategy: ThresholdStrategy = ThresholdStrategy.DYNAMIC,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.density_map = density_map
        self.degree = int(degree)
        self.strategy = ThresholdStrategy(strategy)
        self.coefficients_: np.ndarray | None = None
        self.min_threshold_: float = 0.0
        self.max_threshold_: float = 0.0
        self.samples_: list[ThresholdTrainingSample] = []

    # ------------------------------------------------------------------ fit
    @property
    def is_fitted(self) -> bool:
        """Whether the regressor has been fitted."""
        return self.coefficients_ is not None

    @staticmethod
    def _log_density(density: np.ndarray) -> np.ndarray:
        return np.log10(np.asarray(density, dtype=np.float64) + 1.0)

    def fit(self, samples: list[ThresholdTrainingSample]) -> "ThresholdModel":
        """Fit the polynomial on (log-density, threshold) pairs.

        Args:
            samples: training observations gathered offline (see
                :meth:`repro.core.index.JunoIndex.train`).

        Returns:
            ``self`` for chaining.
        """
        if not samples:
            raise ValueError("cannot fit a ThresholdModel without samples")
        self.samples_ = list(samples)
        densities = np.array([s.density for s in samples], dtype=np.float64)
        thresholds = np.array([s.threshold for s in samples], dtype=np.float64)
        self.min_threshold_ = float(np.percentile(thresholds, 5))
        self.max_threshold_ = float(np.percentile(thresholds, 95))
        if self.max_threshold_ <= 0:
            self.max_threshold_ = float(thresholds.max() if thresholds.max() > 0 else 1.0)
        if self.min_threshold_ <= 0:
            self.min_threshold_ = self.max_threshold_ * 0.1
        degree = min(self.degree, max(1, len(samples) - 1))
        self.coefficients_ = np.polyfit(self._log_density(densities), thresholds, degree)
        return self

    # -------------------------------------------------------------- predict
    def predict_from_density(self, density: np.ndarray) -> np.ndarray:
        """Threshold prediction for raw density values.

        Predictions are clipped into the observed training range so a query
        falling into an unusually sparse or dense region never produces a
        negative or absurdly large threshold.
        """
        if not self.is_fitted:
            raise RuntimeError("ThresholdModel has not been fitted")
        density = np.asarray(density, dtype=np.float64)
        if self.strategy is ThresholdStrategy.STATIC_SMALL:
            return np.full_like(density, self.min_threshold_, dtype=np.float64)
        if self.strategy is ThresholdStrategy.STATIC_LARGE:
            return np.full_like(density, self.max_threshold_, dtype=np.float64)
        raw = np.polyval(self.coefficients_, self._log_density(density))
        return np.clip(raw, self.min_threshold_, self.max_threshold_)

    def predict(
        self, subspace_id: int, xy: np.ndarray, scale: float = 1.0
    ) -> np.ndarray:
        """Threshold for query projections ``xy`` in one subspace.

        Args:
            subspace_id: subspace index ``s``.
            xy: ``(R, 2)`` or ``(2,)`` projection coordinates.
            scale: user-defined scaling factor (Sec. 4.1) multiplying the
                predicted threshold.

        Returns:
            ``(R,)`` or scalar thresholds.
        """
        density = self.density_map.lookup(subspace_id, xy)
        return self.predict_from_density(density) * float(scale)

    # ------------------------------------------------------------- to t_max
    @staticmethod
    def threshold_to_tmax(
        thresholds: np.ndarray, sphere_radius: float, origin_offset: float
    ) -> np.ndarray:
        """Convert distance thresholds into maximum ray travel times.

        A sphere of radius ``R`` centred ``origin_offset`` above the ray
        origin plane is first hit at ``t_hit = origin_offset - sqrt(R^2 -
        d^2)`` where ``d`` is the in-plane distance.  Requiring ``d <=
        threshold`` is therefore equivalent to ``t_hit <= t_max`` with::

            t_max = origin_offset - sqrt(R^2 - threshold^2)

        Thresholds above ``R`` are clamped to ``R`` (the sphere cannot be hit
        farther out than its own radius), matching the paper's requirement
        that the constant radius bounds every dynamic threshold.
        """
        thresholds = np.clip(np.asarray(thresholds, dtype=np.float64), 0.0, sphere_radius)
        return origin_offset - np.sqrt(np.maximum(sphere_radius**2 - thresholds**2, 0.0))
