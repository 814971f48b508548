"""Backend registry and kernel-parity property suite.

Pins the PR-7 backend abstraction:

* registry semantics -- default resolution, ``REPRO_BACKEND`` env
  override, unknown names, instance pass-through, pickling by name, and
  ``ServingConfig.backend`` validation;
* kernel parity -- the score kernel is bit-identical to the historical
  per-ray loop (``tests/score_reference.py``) across JUNO-H/M/L on both
  metrics, including the empty-cluster and all-miss edges and seeded
  random query resamples (the property harness);
* backend routing -- the NumPy backend primitives match raw NumPy
  bit-for-bit, a non-exact backend is held to its documented tolerance
  (the same harness the GPU lanes run), and the optional CuPy/torch lanes
  skip cleanly when the libraries are absent.

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.backend import (
    KNOWN_BACKENDS,
    REPRO_BACKEND_ENV,
    ArrayBackend,
    BackendError,
    NumpyBackend,
    available_backends,
    backend_available,
    get_backend,
)
from repro.pipeline.pipeline import default_search_pipeline
from repro.pipeline.stages import (
    CoarseFilterStage,
    RTSelectStage,
    ScoreStage,
    ThresholdStage,
    TopKStage,
)
from repro.pipeline.pipeline import QueryPipeline
from repro.serving import ServingConfig
from score_reference import LoopedScoreStage

MODES = ["juno-h", "juno-m", "juno-l"]


def _looped_pipeline() -> QueryPipeline:
    return QueryPipeline(
        (
            CoarseFilterStage(),
            ThresholdStage(),
            RTSelectStage(),
            LoopedScoreStage(),
            TopKStage(),
        )
    )


def _assert_bit_identical(a, b):
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.scores, b.scores)
    assert a.work.adc_lookups == b.work.adc_lookups
    assert a.work.adc_candidates == b.work.adc_candidates


class _InexactNumpy(NumpyBackend):
    """A NumPy-backed stand-in for a GPU backend: correct but not 'exact'.

    Lets the tolerance half of the parity contract run in CPU-only CI: the
    score kernel must accept it and stay within ``tolerance`` of the
    reference.
    """

    name = "inexact-test"
    exact = False
    tolerance = 1e-10


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        backend = get_backend()
        assert backend.name == "numpy"
        assert backend.exact and backend.tolerance == 0.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv(REPRO_BACKEND_ENV, "not-a-backend")
        with pytest.raises(BackendError, match="unknown array backend"):
            get_backend()

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError, match="known backends"):
            get_backend("tpu")

    def test_instance_passes_through(self):
        instance = _InexactNumpy()
        assert get_backend(instance) is instance

    def test_known_backends_and_availability(self):
        assert KNOWN_BACKENDS == ("numpy", "cupy", "torch")
        assert "numpy" in available_backends()
        for name in KNOWN_BACKENDS:
            assert isinstance(backend_available(name), bool)

    def test_fingerprint_names_library_version(self):
        backend = get_backend("numpy")
        assert backend.fingerprint == f"numpy:{np.__version__}:cpu"

    def test_pickles_by_registry_name(self):
        backend = get_backend("numpy")
        clone = pickle.loads(pickle.dumps(backend))
        assert clone is get_backend("numpy")

    def test_serving_config_validates_backend(self):
        config = ServingConfig(backend="numpy")
        assert ServingConfig.from_dict(config.to_dict()) == config
        assert ServingConfig(backend=None).backend is None
        with pytest.raises(ValueError, match="backend must be one of"):
            ServingConfig(backend="not-a-backend")


# ----------------------------------------------------- numpy primitive parity
class TestNumpyBackendPrimitives:
    """The reference backend's primitives are the raw NumPy operations."""

    def test_gather_reduce_roundtrip(self, rng):
        """The kernel's three steps: gather values and hit bytes through one
        ``(S, n)`` index, sum the values and count the hits in ``uint8``."""
        backend = get_backend("numpy")
        flat = rng.choice(48, size=20, replace=False)
        reference = np.zeros((6, 8), dtype=np.float32)
        reference.reshape(-1)[flat[:12]] = rng.normal(size=12)
        table = backend.asarray(reference)
        assert np.array_equal(backend.to_numpy(table), reference)
        assert np.array_equal(backend.take(table, flat), reference.reshape(-1)[flat])
        index = flat.reshape(4, 5)
        want = reference.reshape(-1)[index]
        assert backend.sum(backend.take(table, index), axis=0).tobytes() == want.sum(0).tobytes()
        hits = backend.asarray((reference != 0).view(np.uint8))
        counts = backend.sum(backend.take(hits, index), axis=0, dtype=np.uint8)
        assert counts.dtype == np.uint8
        assert np.array_equal(counts, (want != 0).sum(axis=0))
        assert np.array_equal(backend.astype(counts, np.float64), (want != 0).sum(axis=0))

    def test_flat_gather_from_a_ray_slice(self, rng):
        """A non-contiguous slice gathers as its contiguous copy does."""
        backend = get_backend("numpy")
        table = rng.normal(size=(3, 10, 4))
        block = table[:, 2:7]
        flat = rng.integers(0, block.size, size=30)
        want = np.ascontiguousarray(block).reshape(-1)[flat]
        assert np.array_equal(backend.take(backend.asarray(block), flat), want)


# -------------------------------------------------------------- kernel parity
class TestKernelParity:
    """The score kernel == the looped reference, bit-for-bit, across modes and edges."""

    @pytest.mark.parametrize("mode", MODES)
    def test_l2_kernel_matches_loop(self, juno_l2, l2_dataset, mode):
        kwargs = dict(k=10, nprobs=6, quality_mode=mode, threshold_scale=1.0)
        looped = juno_l2.search(l2_dataset.queries, pipeline=_looped_pipeline(), **kwargs)
        batched = juno_l2.search(l2_dataset.queries, **kwargs)
        _assert_bit_identical(batched, looped)

    @pytest.mark.parametrize("mode", MODES)
    def test_ip_kernel_matches_loop(self, juno_ip, ip_dataset, mode):
        kwargs = dict(k=10, nprobs=6, quality_mode=mode, threshold_scale=1.0)
        looped = juno_ip.search(ip_dataset.queries, pipeline=_looped_pipeline(), **kwargs)
        batched = juno_ip.search(ip_dataset.queries, **kwargs)
        _assert_bit_identical(batched, looped)

    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_resamples_property(self, juno_l2, l2_dataset, mode, rng):
        """Property harness: random query mixes keep kernel and loop equal."""
        for trial in range(3):
            rows = rng.integers(0, l2_dataset.queries.shape[0], size=8)
            jitter = rng.normal(scale=0.05, size=(8, l2_dataset.dim))
            queries = l2_dataset.queries[rows] + jitter
            scale = float(rng.uniform(0.5, 2.0))
            kwargs = dict(k=10, nprobs=5, quality_mode=mode, threshold_scale=scale)
            looped = juno_l2.search(queries, pipeline=_looped_pipeline(), **kwargs)
            batched = juno_l2.search(queries, **kwargs)
            _assert_bit_identical(batched, looped)

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_cluster_edge(self, juno_l2, l2_dataset, mode):
        """An emptied posting list is skipped identically by kernel and loop."""
        index = juno_l2
        original = index.subspace_index
        posting = list(index.ivf.posting_lists)
        victim = int(np.argmax([ids.size for ids in posting]))
        index.ivf.posting_lists = [*posting[:victim], posting[victim][:0], *posting[victim + 1 :]]
        index.rebuild_layout()
        try:
            kwargs = dict(
                k=10,
                nprobs=index.config.num_clusters,
                quality_mode=mode,
                threshold_scale=1.0,
            )
            looped = index.search(
                l2_dataset.queries, pipeline=_looped_pipeline(), **kwargs
            )
            batched = index.search(l2_dataset.queries, **kwargs)
            _assert_bit_identical(batched, looped)
            assert not np.isin(
                batched.ids[batched.ids >= 0], original.cluster_members(victim)
            ).any()
        finally:
            index.ivf.posting_lists = posting
            index.subspace_index = original

    @pytest.mark.parametrize("mode", MODES)
    def test_all_miss_edge(self, juno_l2, l2_dataset, mode):
        """A vanishing threshold scale yields all-padded output from kernel and loop."""
        kwargs = dict(k=10, nprobs=4, quality_mode=mode, threshold_scale=1e-6)
        looped = juno_l2.search(l2_dataset.queries, pipeline=_looped_pipeline(), **kwargs)
        batched = juno_l2.search(l2_dataset.queries, **kwargs)
        _assert_bit_identical(batched, looped)
        assert (batched.ids == -1).all()


# ---------------------------------------------------------- backend contract
class TestBackendContract:
    @pytest.mark.parametrize("mode", MODES)
    def test_kernel_holds_inexact_backend_to_tolerance(
        self, juno_l2, l2_dataset, mode
    ):
        """The tolerance harness the GPU lanes reuse, run on a CPU stand-in."""
        backend = _InexactNumpy()
        kwargs = dict(k=10, nprobs=6, quality_mode=mode, threshold_scale=1.0)
        reference = juno_l2.search(l2_dataset.queries, **kwargs)
        routed = juno_l2.search(
            l2_dataset.queries,
            pipeline=default_search_pipeline(backend=backend),
            **kwargs,
        )
        assert np.array_equal(reference.ids, routed.ids)
        assert np.allclose(reference.scores, routed.scores, atol=backend.tolerance)

    def test_backend_fingerprint_partitions_cache_keys(self):
        assert _InexactNumpy().fingerprint != get_backend("numpy").fingerprint


# ------------------------------------------------------- optional GPU lanes
def _optional_backend_lane(name, juno, dataset):
    if not backend_available(name):
        pytest.skip(f"{name} backend unavailable in this environment")
    backend = get_backend(name)
    assert isinstance(backend, ArrayBackend)
    kwargs = dict(k=10, nprobs=6, quality_mode="juno-h", threshold_scale=1.0)
    reference = juno.search(dataset.queries, **kwargs)
    routed = juno.search(
        dataset.queries, pipeline=default_search_pipeline(backend=backend), **kwargs
    )
    assert np.array_equal(reference.ids, routed.ids)
    if backend.exact:
        assert np.array_equal(reference.scores, routed.scores)
    else:
        assert np.allclose(reference.scores, routed.scores, atol=backend.tolerance)


class TestOptionalBackends:
    """Skip cleanly when CuPy/torch are not installed (the CI optional lane)."""

    def test_cupy_lane(self, juno_l2, l2_dataset):
        _optional_backend_lane("cupy", juno_l2, l2_dataset)

    def test_torch_lane(self, juno_l2, l2_dataset):
        _optional_backend_lane("torch", juno_l2, l2_dataset)
