"""Unit tests for product quantization and codebooks."""

import numpy as np
import pytest

from kmeans_reference import reference_fit
from repro.metrics.distances import Metric, l2_squared_matrix
from repro.quantization.codebook import SubspaceCodebook
from repro.quantization.product_quantizer import ProductQuantizer


class TestSubspaceCodebook:
    def test_encode_picks_nearest_entry(self, rng):
        entries = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]])
        codebook = SubspaceCodebook(entries, subspace_id=0)
        projections = np.array([[0.1, -0.1], [9.0, 11.0], [-9.5, 4.0]])
        np.testing.assert_array_equal(codebook.encode(projections), [0, 1, 2])

    def test_distance_table_l2(self, rng):
        entries = rng.standard_normal((8, 2))
        codebook = SubspaceCodebook(entries, subspace_id=1)
        query = rng.standard_normal(2)
        table = codebook.distance_table(query, Metric.L2)
        expected = np.sum((entries - query) ** 2, axis=1)
        np.testing.assert_allclose(table, expected)

    def test_distance_table_ip(self, rng):
        entries = rng.standard_normal((6, 2))
        codebook = SubspaceCodebook(entries, subspace_id=0)
        query = rng.standard_normal(2)
        np.testing.assert_allclose(
            codebook.distance_table(query, Metric.INNER_PRODUCT), entries @ query
        )

    def test_decode_round_trip(self, rng):
        entries = rng.standard_normal((5, 2))
        codebook = SubspaceCodebook(entries, subspace_id=0)
        np.testing.assert_allclose(codebook.decode([3, 1]), entries[[3, 1]])

    def test_decode_out_of_range_raises(self, rng):
        codebook = SubspaceCodebook(rng.standard_normal((4, 2)), subspace_id=0)
        with pytest.raises(ValueError):
            codebook.decode([7])


class TestProductQuantizer:
    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(0)
        residuals = rng.standard_normal((600, 8))
        pq = ProductQuantizer(dim=8, num_subspaces=4, num_entries=16, seed=0)
        pq.train(residuals)
        return pq, residuals

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ProductQuantizer(dim=10, num_subspaces=3)

    def test_codes_shape_and_range(self, trained):
        pq, residuals = trained
        codes = pq.encode(residuals)
        assert codes.shape == (600, 4)
        assert codes.min() >= 0
        assert codes.max() < 16

    def test_lookup_table_matches_manual(self, trained):
        pq, residuals = trained
        query = residuals[0]
        table = pq.lookup_table(query, Metric.L2)
        assert table.shape == (4, 16)
        for s in range(4):
            sub = query[2 * s : 2 * s + 2]
            expected = np.sum((pq.codebooks[s].entries - sub) ** 2, axis=1)
            np.testing.assert_allclose(table[s, : len(expected)], expected)

    def test_adc_scores_match_decoded_distance_approximately(self, trained):
        pq, residuals = trained
        query = residuals[1]
        table = pq.lookup_table(query, Metric.L2)
        codes = pq.encode(residuals[:50])
        adc = pq.adc_scores(table, codes)
        decoded = pq.decode(codes)
        exact_to_decoded = np.sum((decoded - query) ** 2, axis=1)
        np.testing.assert_allclose(adc, exact_to_decoded, rtol=1e-9, atol=1e-9)

    def test_adc_preserves_ranking_quality(self, trained):
        """ADC top-10 should overlap heavily with the exact top-10."""
        pq, residuals = trained
        query = residuals[2]
        table = pq.lookup_table(query, Metric.L2)
        adc = pq.adc_scores(table, pq.encode(residuals))
        exact = np.sum((residuals - query) ** 2, axis=1)
        top_adc = set(np.argsort(adc)[:10].tolist())
        top_exact = set(np.argsort(exact)[:10].tolist())
        assert len(top_adc & top_exact) >= 5

    def test_untrained_raises(self):
        pq = ProductQuantizer(dim=4, num_subspaces=2)
        with pytest.raises(RuntimeError):
            pq.encode(np.zeros((1, 4)))

    def test_wrong_width_raises(self, trained):
        pq, _ = trained
        with pytest.raises(ValueError):
            pq.encode(np.zeros((2, 6)))
        with pytest.raises(ValueError):
            pq.lookup_table(np.zeros(6))


class TestMatchesReferenceKMeans:
    """``train`` and ``encode`` run on the shared blocked kernel; the bytes
    are those of one reference k-means / one whole distance matrix per subspace."""

    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(5)
        residuals = rng.standard_normal((3000, 8)) * np.linspace(0.2, 2.0, 8)
        pq = ProductQuantizer(dim=8, num_subspaces=4, num_entries=128, seed=7, kmeans_iters=4)
        return pq.train(residuals), residuals

    def test_codebooks_are_the_reference_fits(self, trained):
        pq, residuals = trained
        for s, codebook in enumerate(pq.codebooks):
            expected = reference_fit(
                residuals[:, pq.subspace_slice(s)], n_clusters=128, max_iter=4, seed=7 + s
            )
            assert codebook.entries.tobytes() == expected["centroids"].tobytes()

    def test_codes_are_the_whole_matrix_argmin(self, trained):
        pq, residuals = trained
        codes = pq.encode(residuals)
        assert codes.dtype == np.int32
        for s, codebook in enumerate(pq.codebooks):
            dist = l2_squared_matrix(residuals[:, pq.subspace_slice(s)], codebook.entries)
            np.testing.assert_array_equal(codes[:, s], np.argmin(dist, axis=1))
        np.testing.assert_array_equal(pq.encode(residuals[17]), codes[17:18])
