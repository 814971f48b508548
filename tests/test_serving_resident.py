"""Tests for the worker-resident shard runtime and replicated routing.

Covers the tentpole acceptance criteria of the resident refactor:

* parity -- the resident process executor returns bit-identical
  ``(ids, scores)`` and aggregated ``SearchWork`` to the sequential
  reference, including with ``num_replicas > 1`` and an injected worker
  failure mid-sweep;
* query-only IPC -- per-batch payload pickle size is independent of the
  corpus size (shard bytes cross the process boundary only at boot);
* in-process worker boots that search like the router, batch after batch;
* the pipe workers: a worker-side exception is not a death, an idle worker
  killed from outside is retired by the next batch, a search racing
  ``apply_ops`` neither deadlocks nor reads the other's reply, and
  ``close()`` ends every worker process;
* typed persistence errors for broken sharded bundles and the per-shard
  bundle layout round-trip.

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal

import numpy as np
import pytest
from rt_reference import assert_cells_address_codes

from repro.datasets.synthetic import make_clustered_dataset
from repro.serving import (
    PersistenceError,
    ReplicaPolicy,
    ResidentProcessShardExecutor,
    ResidentShardHandle,
    ServingConfig,
    ShardedJunoIndex,
    WorkerFailoverError,
    load_index,
    search_results_equal,
    shard_bundle_path,
)
from repro.serving.persistence import MANIFEST_NAME


def _resident(num_replicas=1, load_shards=None):
    return ServingConfig(
        executor="resident",
        load_shards=load_shards,
        replicas=ReplicaPolicy(num_replicas=num_replicas),
    )


def _settings():
    return dict(
        num_clusters=8,
        num_entries=8,
        num_threshold_samples=16,
        threshold_top_k=20,
        kmeans_iters=4,
        density_grid=10,
        seed=3,
    )


def _make_corpus(num_points=600, seed=5):
    return make_clustered_dataset(
        name=f"resident-{num_points}-{seed}",
        num_points=num_points,
        num_queries=8,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        seed=seed,
    )


def _train_sharded(corpus, num_shards=2):
    sharded = ShardedJunoIndex.from_dim(
        corpus.dim, num_shards=num_shards, executor="sequential", **_settings()
    )
    return sharded.train(corpus.points)


@pytest.fixture(scope="module")
def corpus():
    return _make_corpus()


@pytest.fixture(scope="module")
def sequential_router(corpus):
    return _train_sharded(corpus)


@pytest.fixture(scope="module")
def bundle(sequential_router, tmp_path_factory):
    return sequential_router.save(tmp_path_factory.mktemp("resident") / "deployment")


def _assert_work_equal(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


class TestResidentParity:
    def test_replicated_resident_bit_identical_with_failure_mid_sweep(
        self, corpus, sequential_router, bundle
    ):
        """Acceptance: resident == sequential across a sweep, with R=2 and one
        worker killed between grid points (the batch fails over)."""
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            assert executor.kind == "resident"
            for step, scale in enumerate((1.0, 0.7, 1.4)):
                if step == 1:
                    executor.inject_failure(0)
                expected = sequential_router.search(
                    corpus.queries, k=5, nprobs=4, threshold_scale=scale
                )
                observed = resident.search(
                    corpus.queries, k=5, nprobs=4, threshold_scale=scale
                )
                assert search_results_equal(expected, observed)
                _assert_work_equal(expected.work, observed.work)
            assert executor.retried_batches == 1
            # exactly one of shard 0's replicas died; shard 1 kept both
            assert len(executor.alive_replicas(0)) == 1
            assert executor.alive_replicas(1) == [0, 1]

    def test_resident_quality_modes_match_sequential(
        self, corpus, sequential_router, bundle
    ):
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            for mode in ("juno-h", "juno-m", "juno-l"):
                expected = sequential_router.search(
                    corpus.queries, k=5, nprobs=4, quality_mode=mode
                )
                observed = resident.search(corpus.queries, k=5, nprobs=4, quality_mode=mode)
                assert search_results_equal(expected, observed)
                _assert_work_equal(expected.work, observed.work)

    def test_repeat_batch_searches_and_costs_like_the_first(
        self, corpus, sequential_router, bundle
    ):
        """Resident workers rerun the whole pipeline on a repeated batch."""
        expected = sequential_router.search(corpus.queries, k=5, nprobs=4)
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            for _ in range(2):
                observed = resident.search(corpus.queries, k=5, nprobs=4)
                assert search_results_equal(expected, observed)
                _assert_work_equal(expected.work, observed.work)
                assert observed.work.filter_flops > 0.0 and observed.work.rt_rays > 0.0

    def test_single_replica_failure_exhausts_replicas(self, corpus, bundle):
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            executor.inject_failure(1)
            with pytest.raises(WorkerFailoverError, match="no surviving replica"):
                resident.search(corpus.queries, k=5, nprobs=4)


class TestQueryOnlyIPC:
    def test_payload_bytes_independent_of_corpus_size(self, corpus, bundle, tmp_path):
        """Acceptance: the per-batch payload carries queries, never shards."""
        big_corpus = _make_corpus(num_points=1800, seed=5)
        big_bundle = _train_sharded(big_corpus).save(tmp_path / "big")
        with (
            ShardedJunoIndex.load(bundle, _resident()) as small,
            ShardedJunoIndex.load(big_bundle, _resident()) as big,
        ):
            small.search(corpus.queries, k=5, nprobs=4)
            big.search(corpus.queries, k=5, nprobs=4)
            small_bytes = small.executor_spec.last_batch_payload_bytes
            big_bytes = big.executor_spec.last_batch_payload_bytes
        assert small_bytes == big_bytes
        assert small_bytes < 64 * 1024
        # The non-resident process payload ships the whole shard: it grows
        # with the corpus, which is exactly what the resident runtime fixes.
        small_router = _train_sharded(corpus)
        big_router = _train_sharded(big_corpus)
        params = {"nprobs": 4, "quality_mode": None, "threshold_scale": None}
        legacy_small = len(
            pickle.dumps((small_router.shards[0], corpus.queries, 5, params))
        )
        legacy_big = len(pickle.dumps((big_router.shards[0], corpus.queries, 5, params)))
        assert legacy_big > legacy_small > small_bytes / 2


class TestBundleBackedCoordinator:
    """A resident load keeps no second index copy in the coordinator."""

    def test_resident_load_installs_handles_not_indexes(self, corpus, bundle):
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            assert all(isinstance(s, ResidentShardHandle) for s in resident.shards)
            assert resident.is_trained
            # searching still works end to end (state lives in the workers)
            result = resident.search(corpus.queries, k=5, nprobs=4)
            assert result.ids.shape == (corpus.queries.shape[0], 5)
            # ... but a handle cannot be searched locally
            with pytest.raises(RuntimeError, match="resident in worker"):
                resident.shards[0].search(corpus.queries, 5)
            # and the bundle-backed router's persistent form is the bundle
            with pytest.raises(PersistenceError, match="bundle-backed"):
                resident.save(bundle)

    def test_load_shards_override_keeps_local_copies(self, corpus, sequential_router, bundle):
        with ShardedJunoIndex.load(
            bundle, _resident(load_shards=True)
        ) as resident:
            assert not any(isinstance(s, ResidentShardHandle) for s in resident.shards)
            expected = sequential_router.shards[0].search(corpus.queries, 5, nprobs=4)
            observed = resident.shards[0].search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(expected, observed)


class TestResidentLifecycle:
    def test_make_resident_switches_executor_and_close_owns_it(self, corpus, tmp_path):
        router = _train_sharded(corpus)
        expected = router.search(corpus.queries, k=5, nprobs=4)
        router.make_resident(tmp_path / "make-resident", _resident())
        executor = router.executor_spec
        assert isinstance(executor, ResidentProcessShardExecutor)
        observed = router.search(corpus.queries, k=5, nprobs=4)
        assert search_results_equal(expected, observed)
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.search(corpus.queries, k=5, nprobs=4)

    def test_constructor_rejects_resident_spec_without_bundle(self, corpus):
        with pytest.raises(ValueError, match="resident"):
            ShardedJunoIndex.from_dim(
                corpus.dim, num_shards=2, executor="resident", **_settings()
            )

    def test_executor_validates_shard_count(self, bundle):
        executor = ResidentProcessShardExecutor(bundle)  # shard count from manifest
        try:
            assert executor.num_shards == 2
            with pytest.raises(ValueError, match="2"):
                executor.search_shards([None] * 3, np.zeros((1, 8)), 5, {})
        finally:
            executor.close()


class TestRuntimeFunctionsInProcess:
    """The worker loop and its tasks, driven in-process.

    The deployments above exercise them for real across the process
    boundary; calling them directly additionally pins their contracts
    (typed errors, pipeline defaulting) where coverage tooling can see them.
    """

    def test_boot_ping_and_search(self, corpus, sequential_router, bundle):
        from repro.serving.runtime import TASKS, boot_shards

        shards, _ = boot_shards(str(bundle), (0, 1))
        assert TASKS["ping"](shards, 0) == [0, 1]
        observed = TASKS["search"](shards, 0, 0, corpus.queries, 5, {"nprobs": 4})
        expected = sequential_router.shards[0].search(corpus.queries, 5, nprobs=4)
        assert search_results_equal(expected, observed)
        # a booted shard's gather cells follow the scene it rebuilt
        for shard_id in (0, 1):
            assert_cells_address_codes(shards[shard_id])
        with pytest.raises(RuntimeError, match="not resident"):
            TASKS["search"](shards, 0, 7, corpus.queries, 5, {})
        with pytest.raises(RuntimeError, match="not resident"):
            TASKS["state"](shards, 0, 7)

    @pytest.mark.parametrize("residency", ["copy", "mmap"])
    def test_boot_searches_like_the_router(
        self, corpus, sequential_router, bundle, residency, tmp_path
    ):
        """A booted worker's shards search like the router's, batch after batch."""
        from repro.serving.runtime import TASKS, boot_shards

        if residency == "mmap":
            bundle = sequential_router.save(tmp_path / "deployment", layout="npy")
        shards, _ = boot_shards(str(bundle), (0, 1), residency=residency)
        expected = sequential_router.shards[1].search(corpus.queries, 5, nprobs=4)
        for _ in range(2):
            observed = TASKS["search"](shards, 0, 1, corpus.queries, 5, {"nprobs": 4})
            assert search_results_equal(expected, observed)

    def test_worker_boot_arguments_reach_their_parameters(self, corpus, sequential_router, bundle):
        """The worker's positional boot arguments line up with
        :func:`serve`'s parameters across the process boundary."""
        from repro.serving.runtime import ResidentWorker

        worker = ResidentWorker(bundle, (1,), replica_id=3)
        try:
            assert worker.call("ping") == [1]
            assert worker.call("metrics")["replica_id"] == 3
            observed = worker.call("search", 1, corpus.queries, 5, {"nprobs": 4})
            expected = sequential_router.shards[1].search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(expected, observed)
            assert observed.extra["worker_metrics"]["replica_id"] == 3
        finally:
            worker.close()

    def test_boot_failure_answers_every_request_typed(self, corpus, tmp_path):
        """The loop keeps a failed boot and answers every request with it."""
        import multiprocessing
        import threading

        from repro.obs.metrics import set_registry
        from repro.serving.runtime import serve

        conn, child = multiprocessing.Pipe()
        previous = set_registry(None)  # serve() installs a fresh registry too
        loop = threading.Thread(target=serve, args=(child, str(tmp_path / "missing"), (0,)))
        loop.start()
        try:
            for request in (("ping", ()), ("search", (0, corpus.queries, 5, {}))):
                conn.send(request)
                ok, error = conn.recv()
                assert not ok and isinstance(error, PersistenceError)
                assert "no index bundle" in str(error)
            conn.send(None)
            loop.join(timeout=30)
            assert not loop.is_alive()
        finally:
            set_registry(previous)

    def test_boot_failure_is_typed_across_the_process_boundary(self, corpus, tmp_path):
        from repro.serving.runtime import ResidentWorker

        worker = ResidentWorker(tmp_path / "missing", (0,))
        try:
            for _ in range(2):
                with pytest.raises(PersistenceError, match="no index bundle"):
                    worker.call("search", 0, corpus.queries, 5, {})
            assert worker.alive  # a typed error is not a death
        finally:
            worker.close()

    def test_a_worker_that_exits_raises_worker_died(self, bundle):
        from repro.serving.runtime import ResidentWorker, WorkerDiedError

        worker = ResidentWorker(bundle, (0,))
        try:
            with pytest.raises(WorkerDiedError):
                worker.call("die")
            assert not worker.alive
            with pytest.raises(WorkerDiedError):
                worker.call("ping")
        finally:
            worker.close()


class TestPipeWorkers:
    """Death, worker-side errors, concurrency and shutdown over the pipes."""

    def test_worker_side_exception_is_not_a_death(self, corpus, sequential_router, bundle):
        queries = corpus.queries.copy()
        queries[0, 0] = np.nan
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            with pytest.raises(ValueError, match="finite"):
                resident.search(queries, k=5, nprobs=4)
            assert executor.retried_batches == 0
            assert executor.dead_replicas() == []
            expected = sequential_router.search(corpus.queries, k=5, nprobs=4)
            assert search_results_equal(expected, resident.search(corpus.queries, k=5, nprobs=4))

    def test_idle_worker_killed_from_outside_is_retired(self, corpus, sequential_router, bundle):
        expected = sequential_router.search(corpus.queries, k=5, nprobs=4)
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            # replica 0 is the round-robin's next pick for every shard
            os.kill(executor.worker_pids()[(0, 0)], signal.SIGKILL)
            observed = resident.search(corpus.queries, k=5, nprobs=4)
            assert search_results_equal(expected, observed)
            _assert_work_equal(expected.work, observed.work)
            assert executor.retried_batches == 1
            assert executor.dead_replicas() == [(0, 0)]

    def test_search_racing_apply_ops_neither_deadlocks_nor_mismatches(self, corpus, tmp_path):
        """Two search loops beside an apply_ops loop (more threads than this
        box's cores, switching every 10 us): every reply reaches the caller
        that asked for it, and no thread waits forever."""
        import sys
        import threading

        router = _train_sharded(corpus)
        router.enable_updates(points=corpus.points)
        bundle = router.save(tmp_path / "mutable")
        rounds = 200
        errors: list = []
        reports: list = []

        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec

            def search_loop():
                try:
                    for _ in range(rounds):
                        result = resident.search(corpus.queries[:2], k=5, nprobs=4)
                        assert result.ids.shape == (2, 5)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def apply_loop():
                try:
                    for step in range(rounds):
                        op = {"op": "upsert", "ids": [10_000 + step], "vectors": corpus.queries[:1]}
                        reports.append(executor.apply_ops(0, [op]))
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            loops = (search_loop, search_loop, apply_loop)
            threads = [threading.Thread(target=fn, daemon=True) for fn in loops]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads), "deadlocked"
            assert errors == []
            assert [report["shard_id"] for report in reports] == [0] * rounds
            applied = [report["ops_applied"] for report in reports]
            assert applied == list(range(applied[0], applied[0] + rounds))
            states = executor.replica_states(0)
            assert len({state["digest"] for state in states.values()}) == 1

    def test_close_ends_every_worker(self, bundle):
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            pids = list(resident.executor_spec.worker_pids().values())
        assert len(pids) == 4
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestShardedBundleErrors:
    """Typed errors (never KeyError/pickle noise) for broken sharded bundles."""

    def _copy_bundle(self, bundle, tmp_path):
        import shutil

        target = tmp_path / "copy"
        shutil.copytree(bundle, target)
        return target

    def test_corrupted_manifest_is_typed(self, bundle, tmp_path):
        broken = self._copy_bundle(bundle, tmp_path)
        (broken / MANIFEST_NAME).write_text("{not valid json")
        with pytest.raises(PersistenceError, match="corrupt manifest"):
            ShardedJunoIndex.load(broken)

    def test_version_mismatch_is_typed(self, bundle, tmp_path):
        broken = self._copy_bundle(bundle, tmp_path)
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        manifest["format_version"] = 999
        (broken / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="format version"):
            ShardedJunoIndex.load(broken)

    def test_missing_per_shard_bundle_is_typed(self, bundle, tmp_path):
        import shutil

        broken = self._copy_bundle(bundle, tmp_path)
        shutil.rmtree(shard_bundle_path(broken, 1))
        with pytest.raises(PersistenceError, match=r"missing the per-shard bundle\(s\) \[1\]"):
            ShardedJunoIndex.load(broken)

    def test_missing_shard_ids_is_typed(self, bundle, tmp_path):
        broken = self._copy_bundle(bundle, tmp_path)
        (broken / "shard_ids.npz").unlink()
        with pytest.raises(PersistenceError, match="missing shard_ids.npz"):
            ShardedJunoIndex.load(broken)

    def test_corrupt_shard_ids_is_typed(self, bundle, tmp_path):
        broken = self._copy_bundle(bundle, tmp_path)
        (broken / "shard_ids.npz").write_bytes(b"definitely not an npz")
        with pytest.raises(PersistenceError, match="corrupt shard_ids.npz"):
            ShardedJunoIndex.load(broken)

    def test_resident_worker_reports_bundle_error_typed(self, tmp_path):
        """A worker that cannot load its shard surfaces the typed persistence
        error instead of an opaque broken pool."""
        with pytest.raises(PersistenceError, match="no index bundle"):
            ResidentProcessShardExecutor(tmp_path / "nowhere", num_shards=1)

    def test_per_shard_bundle_round_trip(self, corpus, sequential_router, bundle):
        """Each per-shard bundle is a complete, independently loadable index
        (exactly what a resident worker boots from)."""
        for shard_id, shard in enumerate(sequential_router.shards):
            reloaded = load_index(shard_bundle_path(bundle, shard_id))
            expected = shard.search(corpus.queries, k=5, nprobs=4)
            observed = reloaded.search(corpus.queries, k=5, nprobs=4)
            assert search_results_equal(expected, observed)
