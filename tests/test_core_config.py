"""Unit tests for JunoConfig and the quality/threshold enums."""

import pytest

from repro.core.config import JunoConfig, QualityMode, ThresholdStrategy
from repro.metrics.distances import Metric


class TestQualityMode:
    def test_string_round_trip(self):
        assert QualityMode("juno-h") is QualityMode.HIGH
        assert QualityMode("juno-m") is QualityMode.MEDIUM
        assert QualityMode("juno-l") is QualityMode.LOW

    def test_mode_properties(self):
        assert QualityMode.HIGH.uses_exact_distance
        assert not QualityMode.LOW.uses_exact_distance
        assert QualityMode.MEDIUM.uses_inner_sphere
        assert not QualityMode.HIGH.uses_inner_sphere
        assert not QualityMode.LOW.uses_inner_sphere


class TestJunoConfig:
    def test_defaults_valid(self):
        config = JunoConfig()
        assert config.metric is Metric.L2
        assert config.quality_mode is QualityMode.HIGH
        assert config.threshold_strategy is ThresholdStrategy.DYNAMIC
        assert config.subspace_dim == 2

    def test_required_dim(self):
        assert JunoConfig(num_subspaces=48).required_dim() == 96

    def test_string_coercion(self):
        config = JunoConfig(metric="ip", quality_mode="juno-l", threshold_strategy="static-small")
        assert config.metric is Metric.INNER_PRODUCT
        assert config.quality_mode is QualityMode.LOW
        assert config.threshold_strategy is ThresholdStrategy.STATIC_SMALL

    def test_with_updates_copies(self):
        config = JunoConfig(num_clusters=10)
        updated = config.with_updates(num_clusters=20, threshold_scale=0.5)
        assert config.num_clusters == 10
        assert updated.num_clusters == 20
        assert updated.threshold_scale == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clusters": 0},
            {"num_entries": -1},
            {"threshold_scale": 0.0},
            {"sphere_radius_margin": 0.5},
            {"inner_sphere_ratio": 1.5},
            {"density_grid": 1},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            JunoConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("regression_degree", 0),
            ("threshold_top_k", 0),
            ("num_threshold_samples", 0),
            ("kmeans_iters", 0),
            ("miss_penalty_factor", -1.0),  # would invert L2 scoring
            ("miss_penalty_factor", 0.0),
            ("miss_penalty_factor", float("nan")),
            ("miss_penalty_factor", float("inf")),
        ],
    )
    def test_counts_and_miss_penalty_are_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            JunoConfig(**{field: value})
        JunoConfig(**{field: 1})  # the least valid value
