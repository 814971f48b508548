"""Checkpointed build pipeline: parity oracle, resume idempotency, corpora.

Covers the data-parallel build tentpole end to end:

* chunked corpus layout -- write/reopen roundtrip, mmap chunk reads,
  content digests, corruption guards;
* the parity oracle -- pipeline-emitted deployment bundles digest
  bit-identical (blake2b over manifests + array bytes) to in-memory
  ``ShardedJunoIndex.train(...).save(...)`` for every assignment rule, and
  parallel builds digest identical to serial ones;
* resume idempotency -- a build killed at *every* step boundary
  (``stop_after`` failure injection) resumes to a bit-identical bundle
  without re-executing completed steps, pinned via the manifest's
  per-step ``attempts`` counters;
* the fingerprint guard -- checkpoints from a different plan/corpus are
  refused, ``fresh=True`` rebuilds;
* satellite surfaces -- scaled registry defaults, ``shard_stats`` delta
  imbalance warnings.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.build import (
    BuildError,
    BuildInterrupted,
    BuildPlan,
    STEP_ORDER,
    bundle_state_digest,
    load_build_manifest,
    run_build,
    shard_of_ids,
)
from repro.build.steps import sample_shard_task
from repro.core.config import JunoConfig
from repro.datasets.registry import (
    ChunkedCorpus,
    CorpusError,
    load_dataset,
    scaled_default,
    write_chunked_corpus,
)
from repro.datasets.synthetic import make_clustered_dataset
from repro.ivf.inverted_file import InvertedFileIndex
from repro.serving import ShardedJunoIndex, search_results_equal


def _tiny_config(**overrides) -> JunoConfig:
    settings = dict(
        num_subspaces=4,
        num_clusters=8,
        num_entries=16,
        kmeans_iters=4,
        num_threshold_samples=16,
        threshold_top_k=10,
        seed=3,
    )
    settings.update(overrides)
    return JunoConfig(**settings)


def _dataset(num_points=240, seed=5):
    return make_clustered_dataset(
        name="build-corpus",
        num_points=num_points,
        num_queries=8,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        seed=seed,
    )


@pytest.fixture(scope="module")
def dataset():
    return _dataset()


@pytest.fixture(scope="module")
def corpus_root(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus") / "chunked"
    write_chunked_corpus(dataset.points, root, chunk_size=64, queries=dataset.queries)
    return root


@pytest.fixture(scope="module")
def reference_digest(dataset, corpus_root, tmp_path_factory):
    """Digest of an uninterrupted 2-shard pipeline build (round_robin)."""
    out = tmp_path_factory.mktemp("reference") / "build"
    report = run_build(_plan(corpus_root, out))
    return bundle_state_digest(report.bundle)


def _plan(corpus_root, out, **overrides) -> BuildPlan:
    settings = dict(corpus=corpus_root, out=out, config=_tiny_config(), num_shards=2)
    settings.update(overrides)
    return BuildPlan(**settings)


class TestChunkedCorpus:
    def test_write_reopen_roundtrip(self, dataset, corpus_root):
        corpus = ChunkedCorpus.open(corpus_root)
        assert corpus.num_points == dataset.num_points
        assert corpus.dim == dataset.dim
        assert corpus.num_chunks == -(-dataset.num_points // 64)
        rebuilt = np.concatenate([rows for _, _, rows in corpus.iter_chunks()], axis=0)
        assert rebuilt.dtype == dataset.points.dtype
        np.testing.assert_array_equal(rebuilt, dataset.points)
        np.testing.assert_array_equal(corpus.load_queries(), dataset.queries)

    def test_chunks_are_memory_mapped(self, corpus_root):
        corpus = ChunkedCorpus.open(corpus_root)
        assert isinstance(corpus.open_chunk(0), np.memmap)
        assert not isinstance(corpus.open_chunk(0, mmap=False), np.memmap)

    def test_chunk_bounds_partition_rows(self, dataset, corpus_root):
        corpus = ChunkedCorpus.open(corpus_root)
        bounds = [corpus.chunk_bounds(i) for i in range(corpus.num_chunks)]
        assert bounds[0][0] == 0 and bounds[-1][1] == dataset.num_points
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_content_digest_tracks_data(self, dataset, corpus_root, tmp_path):
        digest = ChunkedCorpus.open(corpus_root).content_digest()
        assert digest == ChunkedCorpus.open(corpus_root).content_digest()
        other = np.array(dataset.points)
        other[0, 0] += 1
        write_chunked_corpus(other, tmp_path / "other", chunk_size=64)
        assert ChunkedCorpus.open(tmp_path / "other").content_digest() != digest

    def test_open_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError):
            ChunkedCorpus.open(tmp_path / "nowhere")


class TestScaledRegistry:
    def test_scaled_default_applies_factor(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert scaled_default(20_000) == 5_000
        assert scaled_default(2_000) == 1_000  # floor
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert scaled_default(20_000) == 20_000

    def test_explicit_override_bypasses_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        dataset = load_dataset("sift1m", num_points=128, num_queries=4)
        assert dataset.num_points == 128


class TestParityOracle:
    @pytest.mark.parametrize("assignment", ["round_robin", "contiguous"])
    def test_pipeline_matches_in_memory_trainer(
        self, dataset, corpus_root, tmp_path, assignment
    ):
        plan = _plan(corpus_root, tmp_path / "build", assignment=assignment)
        report = run_build(plan)
        assert report.executed == list(STEP_ORDER)
        router = ShardedJunoIndex(plan.config, num_shards=2, assignment=assignment)
        router.train(dataset.points)
        router.save(tmp_path / "in-memory")
        assert bundle_state_digest(report.bundle) == bundle_state_digest(tmp_path / "in-memory")

    def test_parallel_build_matches_serial(self, corpus_root, reference_digest, tmp_path):
        report = run_build(_plan(corpus_root, tmp_path / "build", num_workers=3))
        assert bundle_state_digest(report.bundle) == reference_digest

    def test_emitted_bundle_serves(self, dataset, corpus_root, reference_digest, tmp_path):
        plan = _plan(corpus_root, tmp_path / "build")
        report = run_build(plan)
        loaded = ShardedJunoIndex.load(report.bundle)
        router = ShardedJunoIndex(plan.config, num_shards=2).train(dataset.points)
        assert search_results_equal(
            loaded.search(dataset.queries, 5, nprobs=4),
            router.search(dataset.queries, 5, nprobs=4),
        )

    def test_shard_of_ids_matches_router_rule(self, dataset):
        router = ShardedJunoIndex(_tiny_config(), num_shards=3, assignment="contiguous")
        router.train(dataset.points)
        ids = np.arange(dataset.num_points, dtype=np.int64)
        owners = shard_of_ids(ids, 3, "contiguous", dataset.num_points)
        for shard_id, global_ids in enumerate(router.shard_global_ids):
            np.testing.assert_array_equal(np.flatnonzero(owners == shard_id), global_ids)


class TestResume:
    @pytest.mark.parametrize("kill_after", STEP_ORDER[:-1])
    def test_killed_build_resumes_bit_identical(
        self, corpus_root, reference_digest, tmp_path, kill_after
    ):
        plan = _plan(corpus_root, tmp_path / "build")
        with pytest.raises(BuildInterrupted):
            run_build(plan, stop_after=kill_after)
        manifest = load_build_manifest(tmp_path / "build")
        done = list(STEP_ORDER)[: STEP_ORDER.index(kill_after) + 1]
        assert sorted(manifest["steps"]) == sorted(done)

        report = run_build(plan)
        assert report.skipped == done
        assert report.executed == [s for s in STEP_ORDER if s not in done]
        # every step's body started exactly once across both invocations
        attempts = load_build_manifest(tmp_path / "build")["attempts"]
        assert attempts == {step: 1 for step in STEP_ORDER}
        assert bundle_state_digest(report.bundle) == reference_digest

    def test_completed_build_is_a_noop_resume(self, corpus_root, reference_digest, tmp_path):
        plan = _plan(corpus_root, tmp_path / "build")
        first = run_build(plan)
        again = run_build(plan)
        assert again.executed == [] and again.skipped == list(STEP_ORDER)
        assert again.epoch == first.epoch + 1
        assert bundle_state_digest(again.bundle) == reference_digest

    def test_mid_step_task_artifacts_are_reused(self, corpus_root, tmp_path):
        plan = _plan(corpus_root, tmp_path / "build")
        payload = {
            "corpus": plan.corpus_path,
            "out": plan.out_path,
            "config": plan.config,
            "num_shards": plan.num_shards,
            "assignment": plan.assignment,
            "num_points": ChunkedCorpus.open(corpus_root).num_points,
            "train_sample_size": None,
            "shard_id": 0,
        }
        assert "reused" not in sample_shard_task(payload)
        assert sample_shard_task(payload)["reused"]

    def test_fingerprint_mismatch_refuses_then_fresh_rebuilds(
        self, corpus_root, reference_digest, tmp_path
    ):
        plan = _plan(corpus_root, tmp_path / "build")
        run_build(plan)
        other = dataclasses.replace(plan, config=_tiny_config(seed=11))
        with pytest.raises(BuildError, match="fingerprint"):
            run_build(other)
        report = run_build(other, fresh=True)
        assert report.executed == list(STEP_ORDER)
        assert bundle_state_digest(report.bundle) != reference_digest

    def test_unattributed_artifacts_are_refused(self, corpus_root, tmp_path):
        out = tmp_path / "build"
        (out / "samples").mkdir(parents=True)
        with pytest.raises(BuildError, match="fresh=True"):
            run_build(_plan(corpus_root, out))

    def test_bogus_stop_after_is_rejected(self, corpus_root, tmp_path):
        with pytest.raises(BuildError, match="stop_after"):
            run_build(_plan(corpus_root, tmp_path / "build"), stop_after="bogus")


class TestAssignInterface:
    def test_assign_matches_training_labels(self, dataset):
        ivf = InvertedFileIndex(8, seed=3, kmeans_iters=4).train(dataset.points)
        np.testing.assert_array_equal(ivf.assign(dataset.points), ivf.labels)

    def test_assign_is_chunking_invariant(self, dataset):
        ivf = InvertedFileIndex(8, seed=3, kmeans_iters=4).train(dataset.points)
        chunked = np.concatenate(
            [
                ivf.assign(dataset.points[start : start + 37])
                for start in range(0, dataset.num_points, 37)
            ]
        )
        np.testing.assert_array_equal(chunked, ivf.labels)


class TestShardStats:
    def test_stats_and_imbalance_warning(self, dataset):
        router = ShardedJunoIndex.from_dim(
            dataset.dim,
            num_shards=2,
            num_clusters=8,
            num_entries=8,
            num_threshold_samples=16,
            threshold_top_k=10,
            kmeans_iters=4,
            seed=3,
        )
        router.train(dataset.points)
        router.enable_updates(points=dataset.points)
        stats = router.shard_stats()
        assert [row["shard_id"] for row in stats] == [0, 1]
        assert all(row["delta"] == 0 and row["tombstones"] == 0 for row in stats)

        # Contiguous homing sends a burst of consecutive fresh ids to one
        # shard; past the noise floor that skew must warn.
        new_ids = np.arange(10_000, 10_040)
        router.upsert(new_ids, np.tile(dataset.queries[:1], (len(new_ids), 1)))
        router.delete([int(router.shard_global_ids[0][0])])
        with pytest.warns(RuntimeWarning, match="delta"):
            stats = router.shard_stats()
        deltas = {row["shard_id"]: row["delta"] for row in stats}
        assert max(deltas.values()) == len(new_ids)
        assert sum(row["tombstones"] for row in stats) == 1
        # diagnostics must stay silenceable
        router.shard_stats(warn_imbalance=False)
        router.close()
