"""Shared fixtures: small datasets and pre-trained indexes.

The heavier fixtures are session-scoped so the offline training cost (k-means
for IVF and for every PQ subspace) is paid once per test session.  See
``tests/README.md`` for the full fixture/seeding scheme.

Determinism: every random quantity in the suite flows from an explicit seed
-- dataset makers, index configs and the ``rng`` fixture all take literal
seeds, and the autouse fixture below pins the *global* NumPy/stdlib RNGs per
test as a back-stop so a code path that reaches for ``np.random`` without a
generator cannot make the parity fixtures flake, or drift between the Python
3.10 and 3.12 CI matrix entries.  (NumPy's ``default_rng``/``RandomState``
streams are platform- and version-stable for a fixed seed, so the same seeds
produce the same corpora, the same trained indexes and the same search
results on both interpreters.)
"""

from __future__ import annotations

import multiprocessing
import random

import numpy as np
import pytest

from repro.baselines.ivfpq import IVFPQIndex
from repro.core.config import JunoConfig
from repro.core.index import JunoIndex
from repro.datasets.synthetic import make_clustered_dataset
from repro.metrics.distances import Metric

#: One literal seed for the whole suite's global-RNG back-stop.  Bump it only
#: deliberately: parity tests compare bit-exact results of two code paths, so
#: the seed value never matters for correctness, but changing it reshuffles
#: which edge cases the synthetic corpora happen to contain.
SUITE_SEED = 20260728


@pytest.fixture(autouse=True)
def _pin_global_rngs():
    """Reseed the legacy global RNGs before every test.

    Explicitly seeded ``default_rng`` generators (the norm in this suite) are
    unaffected; this only pins ``np.random.*`` and ``random.*`` so test
    outcomes cannot depend on execution order, ``-p no:randomly``-style
    reordering, or interpreter version.
    """
    np.random.seed(SUITE_SEED % (2**32))
    random.seed(SUITE_SEED)


@pytest.fixture(scope="module", autouse=True)
def _no_worker_outlives_its_module():
    """Every child process a test module starts has exited by its teardown.

    Resident serving workers are ``multiprocessing`` children that the
    executor's ``close()`` stops and joins; one still running here leaked
    past the deployment that owned it.
    """
    before = set(multiprocessing.active_children())
    yield
    leaked = [proc for proc in multiprocessing.active_children() if proc not in before]
    assert not leaked, f"child processes outlived their test module: {leaked}"


@pytest.fixture(scope="session")
def l2_dataset():
    """A small but non-trivial clustered L2 dataset (N=1500, D=16)."""
    dataset = make_clustered_dataset(
        name="test-l2",
        num_points=1500,
        num_queries=24,
        dim=16,
        num_components=24,
        query_jitter=0.2,
        seed=11,
    )
    dataset.ensure_ground_truth(k=100)
    return dataset


@pytest.fixture(scope="session")
def ip_dataset():
    """A small clustered inner-product (MIPS) dataset (N=1200, D=12)."""
    dataset = make_clustered_dataset(
        name="test-ip",
        num_points=1200,
        num_queries=20,
        dim=12,
        num_components=20,
        metric=Metric.INNER_PRODUCT,
        query_jitter=0.2,
        seed=13,
    )
    dataset.ensure_ground_truth(k=100)
    return dataset


def _small_juno_config(dataset, **overrides) -> JunoConfig:
    defaults = dict(
        num_clusters=12,
        num_subspaces=dataset.dim // 2,
        num_entries=16,
        metric=dataset.metric,
        num_threshold_samples=32,
        threshold_top_k=50,
        kmeans_iters=8,
        density_grid=20,
        seed=3,
    )
    defaults.update(overrides)
    return JunoConfig(**defaults)


@pytest.fixture(scope="session")
def juno_l2(l2_dataset):
    """A trained JUNO index over the L2 dataset."""
    index = JunoIndex(_small_juno_config(l2_dataset))
    index.train(l2_dataset.points)
    return index


@pytest.fixture(scope="session")
def juno_ip(ip_dataset):
    """A trained JUNO index over the inner-product dataset."""
    index = JunoIndex(_small_juno_config(ip_dataset))
    index.train(ip_dataset.points)
    return index


@pytest.fixture(scope="session")
def wide_corpus():
    """An unclustered 96-d corpus (N=800) of the ledger's dimensionality."""
    rng = np.random.default_rng(7)
    return rng.standard_normal((800, 96)) * np.linspace(0.5, 1.5, 96)


def _wide_juno(points, metric=Metric.L2):
    """A 48-subspace, 128-entry index (the ledger's scene shape) without k-means.

    Centroids and codebooks are sampled corpus points / residual projections
    and installed through ``assemble``, so the index costs well under a
    second while the scene, density maps and regressor are the real ones.
    """
    rng = np.random.default_rng(8)
    centroids = points[rng.choice(points.shape[0], size=8, replace=False)]
    labels = np.argmin(
        ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    residuals = (points - centroids[labels]).reshape(points.shape[0], 48, 2)
    codebooks = []
    codes = np.empty((points.shape[0], 48), dtype=np.int32)
    for s in range(48):
        entries = residuals[rng.choice(points.shape[0], size=128, replace=False), s]
        codebooks.append(entries)
        codes[:, s] = np.argmin(
            ((residuals[:, s, None, :] - entries[None, :, :]) ** 2).sum(axis=2), axis=1
        )
    config = JunoConfig(
        num_clusters=8,
        num_subspaces=48,
        num_entries=128,
        metric=metric,
        num_threshold_samples=32,
        threshold_top_k=20,
        density_grid=20,
    )
    return JunoIndex(config).assemble(points, centroids, labels, codebooks, codes)


@pytest.fixture(scope="session")
def wide_index(wide_corpus):
    """The ledger's scene shape over ``wide_corpus`` (see :func:`_wide_juno`)."""
    return _wide_juno(wide_corpus)


@pytest.fixture(scope="session")
def wide_ip_index(wide_corpus):
    """``wide_index``'s inner-product twin: same clusters, codes and codebooks."""
    return _wide_juno(wide_corpus, Metric.INNER_PRODUCT)


@pytest.fixture(scope="session")
def ivfpq_l2(l2_dataset):
    """A trained FAISS-style IVFPQ baseline over the L2 dataset."""
    index = IVFPQIndex(
        num_clusters=12,
        num_subspaces=l2_dataset.dim // 2,
        num_entries=16,
        metric=Metric.L2,
        seed=3,
    )
    index.train(l2_dataset.points)
    return index


@pytest.fixture(scope="session")
def ivfpq_ip(ip_dataset):
    """A trained IVFPQ baseline over the inner-product dataset."""
    index = IVFPQIndex(
        num_clusters=12,
        num_subspaces=ip_dataset.dim // 2,
        num_entries=16,
        metric=Metric.INNER_PRODUCT,
        seed=3,
    )
    index.train(ip_dataset.points)
    return index


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
