"""Unit tests for the density map, the threshold regressor and t_max conversion."""

import numpy as np
import pytest

from repro.core.config import ThresholdStrategy
from repro.core.density import DensityMap
from rt_reference import tmax_to_threshold

from repro.core.threshold import ThresholdModel, ThresholdTrainingSample


def _projections_with_hotspot(rng, num_points=2000, num_subspaces=3):
    """Projections with a dense blob near the origin and a sparse halo."""
    dense = 0.1 * rng.standard_normal((num_points // 2, num_subspaces, 2))
    sparse = rng.uniform(-4, 4, size=(num_points // 2, num_subspaces, 2))
    return np.concatenate([dense, sparse], axis=0)


class TestDensityMap:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            DensityMap().lookup(0, [0.0, 0.0])

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            DensityMap().fit(rng.standard_normal((10, 3)))

    def test_dense_region_has_higher_density(self, rng):
        projections = _projections_with_hotspot(rng)
        density_map = DensityMap(grid=30).fit(projections)
        for s in range(projections.shape[1]):
            centre = density_map.lookup(s, [0.0, 0.0])
            edge = density_map.lookup(s, [3.5, 3.5])
            assert centre > edge

    def test_lookup_vectorised_matches_scalar(self, rng):
        projections = _projections_with_hotspot(rng, num_points=500)
        density_map = DensityMap(grid=15).fit(projections)
        coords = rng.uniform(-4, 4, size=(20, 2))
        batch = density_map.lookup(1, coords)
        singles = np.array([density_map.lookup(1, c) for c in coords])
        np.testing.assert_allclose(batch, singles)

    def test_out_of_range_clamped(self, rng):
        projections = _projections_with_hotspot(rng, num_points=400)
        density_map = DensityMap(grid=10).fit(projections)
        value = density_map.lookup(0, [100.0, 100.0])
        assert np.isfinite(value)

    def test_total_mass_matches_point_count(self, rng):
        projections = rng.uniform(0, 1, size=(300, 2, 2))
        density_map = DensityMap(grid=10).fit(projections)
        assert density_map.num_subspaces == 2
        span = density_map.maxs_[0] - density_map.mins_[0]
        cell_area = (span[0] / 10) * (span[1] / 10)
        assert density_map.densities_[0].sum() * cell_area == pytest.approx(300, rel=1e-6)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            DensityMap(grid=1)


def _make_samples(rng, count=200, noise=0.02):
    """Synthetic samples following the paper's negative density/threshold trend."""
    densities = 10 ** rng.uniform(0, 4, size=count)
    thresholds = 1.5 - 0.3 * np.log10(densities + 1.0) + noise * rng.standard_normal(count)
    return [
        ThresholdTrainingSample(subspace_id=0, density=float(d), threshold=float(t))
        for d, t in zip(densities, thresholds)
    ]


class TestThresholdModel:
    @pytest.fixture()
    def fitted_map(self, rng):
        projections = _projections_with_hotspot(rng, num_points=500)
        return DensityMap(grid=10).fit(projections)

    def test_fit_requires_samples(self, fitted_map):
        with pytest.raises(ValueError):
            ThresholdModel(fitted_map).fit([])

    def test_learns_negative_correlation(self, fitted_map, rng):
        model = ThresholdModel(fitted_map, degree=2).fit(_make_samples(rng))
        low_density = model.predict_from_density(np.array([1.0]))
        high_density = model.predict_from_density(np.array([1e4]))
        assert low_density[0] > high_density[0]

    def test_predictions_clipped_to_training_range(self, fitted_map, rng):
        model = ThresholdModel(fitted_map, degree=2).fit(_make_samples(rng))
        extreme = model.predict_from_density(np.array([1e12, 0.0]))
        assert extreme.min() >= model.min_threshold_ - 1e-12
        assert extreme.max() <= model.max_threshold_ + 1e-12

    def test_static_strategies(self, fitted_map, rng):
        samples = _make_samples(rng)
        small = ThresholdModel(fitted_map, strategy=ThresholdStrategy.STATIC_SMALL).fit(samples)
        large = ThresholdModel(fitted_map, strategy=ThresholdStrategy.STATIC_LARGE).fit(samples)
        densities = np.array([1.0, 100.0, 1e4])
        np.testing.assert_allclose(small.predict_from_density(densities), small.min_threshold_)
        np.testing.assert_allclose(large.predict_from_density(densities), large.max_threshold_)
        assert small.min_threshold_ < large.max_threshold_

    def test_predict_uses_density_map_and_scale(self, fitted_map, rng):
        model = ThresholdModel(fitted_map, degree=1).fit(_make_samples(rng))
        base = model.predict(0, np.array([[0.0, 0.0]]), scale=1.0)
        scaled = model.predict(0, np.array([[0.0, 0.0]]), scale=0.5)
        np.testing.assert_allclose(scaled, base * 0.5)

    def test_unfitted_predict_raises(self, fitted_map):
        with pytest.raises(RuntimeError):
            ThresholdModel(fitted_map).predict_from_density(np.array([1.0]))

    def test_invalid_degree(self, fitted_map):
        with pytest.raises(ValueError):
            ThresholdModel(fitted_map, degree=0)


class TestTmaxConversion:
    def test_round_trip(self):
        thresholds = np.array([0.1, 0.4, 0.7])
        radius, offset = 1.0, 1.0
        t_max = ThresholdModel.threshold_to_tmax(thresholds, radius, offset)
        back = tmax_to_threshold(t_max, radius, offset)
        np.testing.assert_allclose(back, thresholds, atol=1e-12)

    def test_monotonic_in_threshold(self):
        thresholds = np.linspace(0.0, 1.0, 11)
        t_max = ThresholdModel.threshold_to_tmax(thresholds, 1.0, 1.0)
        assert (np.diff(t_max) >= 0).all()

    def test_paper_example(self):
        """Sec. 4.2: a threshold of 0.6 with R = 1 gives t_max = 0.2;
        scaling to 0.8 * 0.6 = 0.48 gives t_max ~ 0.123."""
        assert ThresholdModel.threshold_to_tmax(np.array([0.6]), 1.0, 1.0)[0] == pytest.approx(0.2)
        scaled = ThresholdModel.threshold_to_tmax(np.array([0.48]), 1.0, 1.0)[0]
        assert scaled == pytest.approx(1 - np.sqrt(1 - 0.48**2))

    def test_threshold_above_radius_clamped(self):
        t_max = ThresholdModel.threshold_to_tmax(np.array([5.0]), 1.0, 1.0)
        assert t_max[0] == pytest.approx(1.0)

    def test_generalised_offset(self):
        radius, offset = 2.0, 2.0
        thresholds = np.array([0.5, 1.5])
        t_max = ThresholdModel.threshold_to_tmax(thresholds, radius, offset)
        expected = offset - np.sqrt(radius**2 - thresholds**2)
        np.testing.assert_allclose(t_max, expected)
