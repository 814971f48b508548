"""Edge-case tests for report formatting, emit, and miscellaneous helpers."""

import numpy as np
import pytest

from repro.bench.report import emit, format_table
from repro.core.density import DensityMap
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric
from repro.quantization.product_quantizer import ProductQuantizer


class TestFormatTableEdges:
    def test_missing_column_rendered_empty(self):
        rows = [{"a": 1.0}, {"a": 2.0, "b": 3.0}]
        text = format_table(rows, columns=["a", "b"])
        assert "3" in text

    def test_value_formatting(self):
        rows = [{"x": 0.0, "y": 123456.789, "z": 0.00001234, "s": "label"}]
        text = format_table(rows)
        assert "0" in text
        assert "1.23e+05" in text
        assert "1.23e-05" in text
        assert "label" in text

    def test_explicit_column_order(self):
        rows = [{"b": 1, "a": 2}]
        text = format_table(rows, columns=["a", "b"])
        header = text.splitlines()[0]
        assert header.index("a") < header.index("b")


class TestEmit:
    def test_emit_writes_to_real_stdout(self, capsys):
        emit("hello-from-emit")
        # emit bypasses pytest's capture of sys.stdout; it must not raise and
        # must not pollute the captured stream.
        captured = capsys.readouterr()
        assert "hello-from-emit" not in captured.out


class TestSearchWorkDefaults:
    def test_defaults_are_zero(self):
        work = SearchWork()
        assert work.num_queries == 0
        assert work.rt_hits == 0.0
        assert work.lut_flops() == 0.0


class TestProductQuantizerInnerProductLUT:
    def test_ip_lookup_table_matches_manual(self, rng):
        residuals = rng.standard_normal((300, 6))
        pq = ProductQuantizer(dim=6, num_subspaces=3, num_entries=8, seed=0).train(residuals)
        query = rng.standard_normal(6)
        table = pq.lookup_table(query, Metric.INNER_PRODUCT)
        for s in range(3):
            expected = pq.codebooks[s].entries @ query[2 * s : 2 * s + 2]
            np.testing.assert_allclose(table[s, : len(expected)], expected)

    def test_ip_adc_matches_decoded_inner_product(self, rng):
        residuals = rng.standard_normal((200, 4))
        pq = ProductQuantizer(dim=4, num_subspaces=2, num_entries=8, seed=1).train(residuals)
        query = rng.standard_normal(4)
        table = pq.lookup_table(query, Metric.INNER_PRODUCT)
        codes = pq.encode(residuals[:30])
        adc = pq.adc_scores(table, codes)
        decoded = pq.decode(codes)
        np.testing.assert_allclose(adc, decoded @ query, atol=1e-9)


class TestDensityMapSingleSubspace:
    def test_single_point_fit(self):
        projections = np.zeros((1, 1, 2))
        density_map = DensityMap(grid=5).fit(projections)
        assert density_map.lookup(0, [0.0, 0.0]) > 0

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            DensityMap(grid=5).fit(np.zeros((0, 1, 2)))
