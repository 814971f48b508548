"""Unit tests for the extra-dimension-free inner-product (MIPS) transform.

The hit-time decodes are the paper's hit shader, kept with the per-ray
reference tracer (``rt_reference.py``); the selective LUT writes the same
values from the sphere test's ``d²``.
"""

import numpy as np
import pytest
from rt_reference import inner_product_from_hit_time, l2_distance_from_hit_time

from repro.core.inner_product import (
    adjusted_radii_for_inner_product,
    inner_product_threshold_to_tmax,
)


class TestAdjustedRadii:
    def test_formula(self, rng):
        entries = rng.standard_normal((10, 2))
        radii = adjusted_radii_for_inner_product(entries, base_radius=1.5)
        expected = np.sqrt(1.5**2 + np.sum(entries**2, axis=1))
        np.testing.assert_allclose(radii, expected)

    def test_radii_at_least_base(self, rng):
        entries = rng.standard_normal((20, 2))
        radii = adjusted_radii_for_inner_product(entries, base_radius=2.0)
        assert (radii >= 2.0).all()


class TestHitTimeDecoding:
    def test_l2_distance_round_trip(self):
        """Place a sphere, compute the geometric hit time, recover the distance."""
        radius, offset = 1.0, 1.0
        distances = np.array([0.0, 0.3, 0.9])
        t_hit = offset - np.sqrt(radius**2 - distances**2)
        recovered = l2_distance_from_hit_time(t_hit, radius, offset)
        np.testing.assert_allclose(recovered, distances, atol=1e-12)

    def test_inner_product_round_trip(self, rng):
        """Sec. 4.2: IP is recoverable from t_hit against the enlarged sphere."""
        base_radius = 2.0
        entries = rng.standard_normal((50, 2))
        query = rng.standard_normal(2)
        query_norm_sq = float(query @ query)
        radii = adjusted_radii_for_inner_product(entries, base_radius)
        offset = float(radii.max()) + 0.1
        # Geometric hit times of a vertical ray from the query projection.
        in_plane_sq = np.sum((entries - query) ** 2, axis=1)
        hit = in_plane_sq <= radii**2
        t_hit = offset - np.sqrt(radii[hit] ** 2 - in_plane_sq[hit])
        recovered = inner_product_from_hit_time(t_hit, query_norm_sq, base_radius, offset)
        expected = entries[hit] @ query
        np.testing.assert_allclose(recovered, expected, atol=1e-9)

    def test_inner_product_from_dist_sq(self, rng):
        """The LUT's form: ``(offset - t_hit)^2 = r^2 - d^2``, so the inner
        product is ``(|q|^2 - R^2 + r^2 - d^2) / 2`` with no hit time."""
        base_radius = 2.0
        entries = rng.standard_normal((50, 2))
        query = rng.standard_normal(2)
        radii = adjusted_radii_for_inner_product(entries, base_radius)
        dist_sq = np.sum((entries - query) ** 2, axis=1)
        value = (query @ query - base_radius**2 + radii**2 - dist_sq) / 2
        np.testing.assert_allclose(value, entries @ query, atol=1e-12)

    def test_tmax_encodes_ip_threshold(self, rng):
        """Accepting hits with t_hit <= t_max selects exactly IP >= threshold."""
        base_radius = 3.0
        entries = rng.standard_normal((200, 2)) * 1.5
        query = np.array([0.7, -0.3])
        query_norm_sq = float(query @ query)
        radii = adjusted_radii_for_inner_product(entries, base_radius)
        offset = float(radii.max()) + 0.1
        ip_threshold = 0.4
        t_max = inner_product_threshold_to_tmax(
            np.array([ip_threshold]), query_norm_sq, base_radius, offset
        )[0]
        in_plane_sq = np.sum((entries - query) ** 2, axis=1)
        hit = in_plane_sq <= radii**2
        t_hit = np.full(entries.shape[0], np.inf)
        t_hit[hit] = offset - np.sqrt(radii[hit] ** 2 - in_plane_sq[hit])
        selected = t_hit <= t_max
        true_ip = entries @ query
        expected = true_ip >= ip_threshold
        np.testing.assert_array_equal(selected, expected)

    def test_low_threshold_accepts_everything_reachable(self):
        t_max = inner_product_threshold_to_tmax(
            np.array([-1e9]), query_norm_sq=1.0, base_radius=2.0, origin_offset=2.5
        )
        assert t_max[0] == pytest.approx(0.0) or t_max[0] <= 2.5
