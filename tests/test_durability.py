"""Tests for crash-consistent durability: fsync policy, atomic snapshots, GC.

Covers the acceptance criteria of the durability tentpole and its
satellites:

* the typed :class:`~repro.updates.wal.DurabilityPolicy` -- validation,
  ``to_dict``/``from_dict`` round trips, and nesting on
  :class:`~repro.serving.config.ServingConfig`;
* group commit -- ``batch`` mode coalesces concurrent appends into far
  fewer fsyncs than appends while the durable watermark only ever advances
  to a *sequence prefix* (no record acked-durable before an earlier one),
  and ``always`` mode is durable-on-ack;
* torn-tail repair -- a crash mid-append is detected on reopen and the
  torn bytes are truncated by the first append, at **every** byte offset of
  the captured log (the property test), with a valid-but-unterminated tail
  kept rather than thrown away;
* log segmentation -- rotation into immutable sealed segments, replay
  across the segment chain, and ``truncate_through`` GC once an epoch
  snapshot covers a prefix (including the sequence floor after a full GC);
* atomic snapshot publication -- a crash mid-save leaves the previous
  bundle loadable (manifest replace is the commit point) and leaves no
  staging litter behind;
* :class:`~repro.serving.recovery.CompactionWorker` -- background
  compaction off the serving path, on local indexes and resident routers
  alike, with the compact op still flowing through the replicated op log;
* reduced-scale runs of the crash-injection and kill-9 harnesses
  (``durability_harness.py``).

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.config import JunoConfig
from repro.core.index import JunoIndex
from repro.datasets.synthetic import make_clustered_dataset
from repro.serving import (
    CompactionWorker,
    DurabilityPolicy,
    PersistenceError,
    ReplicaPolicy,
    ReplicaSupervisor,
    ServingConfig,
    ServingEngine,
    ShardedJunoIndex,
    load_mutable_index,
    save_mutable_index,
    search_results_equal,
)
from repro.storage import atomic_write_bytes, atomic_write_text, staged, staging_name
from repro.updates import MutableJunoIndex, RebuildPolicy, WalError, WriteAheadLog

from durability_harness import run_durability_crash_injection, run_wal_kill9


def _settings():
    return dict(
        num_clusters=8,
        num_subspaces=4,
        num_entries=8,
        num_threshold_samples=16,
        threshold_top_k=20,
        kmeans_iters=4,
        density_grid=10,
        seed=3,
    )


@pytest.fixture(scope="module")
def corpus():
    return make_clustered_dataset(
        name="durability",
        num_points=400,
        num_queries=6,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        seed=5,
    )


def _train_base(points):
    return JunoIndex(JunoConfig(**_settings())).train(points)


def _mutable(points, **kwargs):
    return MutableJunoIndex(_train_base(points), points, **kwargs)


class TestDurabilityPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="fsync"):
            DurabilityPolicy(fsync="sometimes")
        with pytest.raises(ValueError, match="group_window_s"):
            DurabilityPolicy(group_window_s=-0.001)
        with pytest.raises(ValueError, match="segment_records"):
            DurabilityPolicy(segment_records=0)

    def test_round_trip(self):
        policy = DurabilityPolicy(fsync="batch", group_window_s=0.01, segment_records=128)
        assert DurabilityPolicy.from_dict(policy.to_dict()) == policy
        assert json.loads(json.dumps(policy.to_dict())) == policy.to_dict()

    def test_unknown_keys_are_typed(self):
        with pytest.raises(ValueError, match="does not understand"):
            DurabilityPolicy.from_dict({"fsync": "never", "sync": True})

    def test_nests_on_serving_config(self):
        config = ServingConfig(durability=DurabilityPolicy(fsync="always"))
        restored = ServingConfig.from_dict(config.to_dict())
        assert restored.durability == config.durability
        assert ServingConfig().durability == DurabilityPolicy()  # default: never


class TestGroupCommit:
    def test_batch_mode_coalesces_fsyncs(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "ops.wal", DurabilityPolicy(fsync="batch", group_window_s=60.0)
        )
        for i in range(20):
            wal.append("delete", ids=[i])
        # one window covers the whole run: the first append fsynced, the
        # rest rode the window
        assert wal.append_count == 20
        assert 0 < wal.fsync_count <= 2
        assert wal.flushed_seq == 20
        assert wal.sync() == 20  # explicit drain makes the tail durable
        assert wal.durable_seq == 20
        wal.close()

    def test_never_mode_never_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal")  # default policy
        wal.append("compact")
        wal.close()
        assert wal.fsync_count == 0
        assert wal.durable_seq == 0

    def test_always_mode_is_durable_on_ack(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy(fsync="always"))
        violations = []

        def writer():
            for _ in range(25):
                seq = wal.append("compact")
                if wal.durable_seq < seq:  # acked => durable, immediately
                    violations.append(seq)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wal.close()
        assert violations == []
        assert wal.durable_seq == wal.last_seq == 100
        # coalescing: concurrent appends may share one fsync, but durability
        # is never free
        assert 0 < wal.fsync_count <= wal.append_count + 1

    def test_durable_watermark_is_a_prefix(self, tmp_path):
        """No record becomes durable before an earlier one: sampled durable
        watermarks are monotone and never exceed the flushed watermark."""
        wal = WriteAheadLog(
            tmp_path / "ops.wal", DurabilityPolicy(fsync="batch", group_window_s=0.0)
        )
        samples = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                samples.append((wal.durable_seq, wal.flushed_seq))

        def writer(worker):
            for i in range(30):
                wal.append("delete", ids=[worker * 1000 + i])

        watcher = threading.Thread(target=sampler)
        watcher.start()
        threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        watcher.join()
        wal.close()
        assert all(durable <= flushed for durable, flushed in samples)
        durables = [durable for durable, _ in samples]
        assert durables == sorted(durables)
        assert wal.durable_seq == wal.last_seq == 90


class TestTornTailRepair:
    def test_first_append_truncates_a_torn_tail(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path)
        wal.append("delete", ids=[1])
        wal.append("delete", ids=[2])
        wal.close()
        with path.open("a") as handle:
            handle.write('{"seq": 3, "op": "ups')  # crash mid-append
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 2  # the torn record never counted
        assert reopened.append("compact") == 3  # repair happens here
        assert reopened.tail_repairs == 1
        records = list(reopened.replay())
        assert [r["seq"] for r in records] == [1, 2, 3]
        reopened.close()
        # the torn bytes are gone from disk, not just skipped on read
        assert b'"ups' not in path.read_bytes()

    def test_valid_unterminated_tail_is_kept(self, tmp_path):
        """A crash after the record bytes but before the newline loses
        nothing: the record was durably written and must survive."""
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path)
        wal.append("delete", ids=[1])
        wal.append("delete", ids=[2])
        wal.close()
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 2
        assert reopened.append("compact") == 3
        assert reopened.tail_repairs == 1  # lossless repair: newline only
        assert [r["seq"] for r in reopened.replay()] == [1, 2, 3]
        reopened.close()

    def test_replay_survives_a_cut_at_every_byte_offset(self, tmp_path):
        """The property behind the crash harness: truncate the log at every
        possible offset; every cut must reopen, replay a clean record
        prefix, accept an append and replay again."""
        source = tmp_path / "ops.wal"
        wal = WriteAheadLog(source)
        wal.append("upsert", ids=[7], vectors=[[0.25, -1.5]])
        wal.append("delete", ids=[7])
        wal.append("compact")
        wal.close()
        payload = source.read_bytes()

        for cut in range(len(payload) + 1):
            prefix = payload[:cut]
            complete = prefix.count(b"\n")
            tail = prefix.rsplit(b"\n", 1)[-1]
            if tail.strip():
                try:  # unterminated-but-valid final record survives the cut
                    json.loads(tail)
                except ValueError:
                    pass
                else:
                    complete += 1
            path = tmp_path / f"cut-{cut}.wal"
            path.write_bytes(prefix)
            reopened = WriteAheadLog(path)
            assert reopened.last_seq == complete, f"cut at byte {cut}"
            assert reopened.append("compact") == complete + 1
            seqs = [r["seq"] for r in reopened.replay()]
            assert seqs == list(range(1, complete + 2)), f"cut at byte {cut}"
            reopened.close()


class TestSegments:
    def test_rotation_seals_segments_and_replay_spans_them(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path, DurabilityPolicy(segment_records=2))
        for i in range(5):
            wal.append("delete", ids=[i])
        assert len(list(tmp_path.glob("ops.wal.*.seg"))) == 2
        assert [r["seq"] for r in wal.replay()] == [1, 2, 3, 4, 5]
        assert [r["seq"] for r in wal.replay(after_seq=3)] == [4, 5]
        wal.close()
        # a fresh open learns last_seq from the chain and keeps appending
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 5
        assert reopened.append("compact") == 6
        reopened.close()

    def test_manual_rotate_is_atomic_and_idempotent(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path, DurabilityPolicy(fsync="batch"))
        wal.append("compact")
        sealed = wal.rotate()
        assert sealed is not None and sealed.suffix == ".seg"
        assert not path.exists()  # the active file moved wholesale
        assert wal.rotate() is None  # nothing active: no-op
        assert wal.append("compact") == 2  # a fresh active file starts
        assert [r["seq"] for r in wal.replay()] == [1, 2]
        wal.close()

    def test_truncate_through_garbage_collects_covered_segments(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path, DurabilityPolicy(segment_records=2))
        for i in range(6):
            wal.append("delete", ids=[i])
        removed = wal.truncate_through(4)
        assert len(removed) == 2  # segments sealed at seq 2 and 4
        assert [r["seq"] for r in wal.replay()] == [5, 6]
        assert wal.truncate_through(4) == []  # idempotent
        # covering everything rotates the active tail and removes it too
        assert len(wal.truncate_through(6)) == 1
        assert list(wal.replay()) == []
        assert wal.last_seq == 6  # the sequence does not rewind
        assert wal.append("compact") == 7
        wal.close()

    def test_unparseable_segment_name_is_typed(self, tmp_path):
        path = tmp_path / "ops.wal"
        WriteAheadLog(path).append("compact")
        (tmp_path / "ops.wal.junk.seg").write_text("")
        with pytest.raises(WalError, match="segment"):
            WriteAheadLog(path)


class TestAtomicSnapshots:
    def test_staged_cleans_up_after_a_crash(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"v1")
        with pytest.raises(RuntimeError, match="boom"):
            with staged(target) as tmp:
                tmp.write_bytes(b"v2-partial")
                raise RuntimeError("boom")
        assert target.read_bytes() == b"v1"  # the replace never happened
        assert list(tmp_path.glob(".*.tmp-*")) == []  # no staging litter
        atomic_write_text(target, "v2")
        assert target.read_text() == "v2"
        assert staging_name(target) != staging_name(target)  # collision-free

    def test_crash_mid_snapshot_keeps_the_previous_bundle(self, corpus, tmp_path, monkeypatch):
        index = _mutable(corpus.points, wal=WriteAheadLog(tmp_path / "ops.wal"))
        index.upsert([9001], corpus.queries[:1])
        snapshot = tmp_path / "snap"
        save_mutable_index(index, snapshot)
        reference = index.search(corpus.queries, 5, nprobs=4)

        index.delete([9001])
        monkeypatch.setattr(np, "savez_compressed", _explode)
        with pytest.raises((PersistenceError, RuntimeError)):
            save_mutable_index(index, snapshot)
        monkeypatch.undo()

        # the interrupted save published nothing: the manifest still names
        # the old generation and it loads bit-identically
        recovered = load_mutable_index(snapshot)
        assert search_results_equal(recovered.search(corpus.queries, 5, nprobs=4), reference)
        assert list(snapshot.glob(".*.tmp-*")) == []
        index.wal.close()

    def test_resave_replaces_the_generation_atomically(self, corpus, tmp_path):
        index = _mutable(corpus.points, wal=WriteAheadLog(tmp_path / "ops.wal"))
        snapshot = tmp_path / "snap"
        index.upsert([9001], corpus.queries[:1])
        save_mutable_index(index, snapshot)
        index.delete([9001])
        save_mutable_index(index, snapshot)
        # exactly one epoch generation remains after the re-save GC
        assert len(list(snapshot.glob("base-*"))) == 1
        assert len(list(snapshot.glob("updates-*.npz"))) == 1
        recovered = load_mutable_index(snapshot)
        assert recovered.state_digest() == index.state_digest()
        index.wal.close()

    def test_wal_gc_on_save_and_sequence_floor_on_load(self, corpus, tmp_path):
        wal_path = tmp_path / "ops.wal"
        index = _mutable(
            corpus.points, wal=WriteAheadLog(wal_path, DurabilityPolicy(segment_records=2))
        )
        for i in range(5):
            index.upsert([9100 + i], corpus.queries[i % len(corpus.queries)][None, :])
        snapshot = index.save(tmp_path / "snap", gc_wal=True)
        # the epoch snapshot covers every record: the log is fully collected
        assert list(index.wal.replay()) == []
        assert list(tmp_path.glob("ops.wal*")) == []
        index.wal.close()

        recovered = load_mutable_index(snapshot, wal=WriteAheadLog(wal_path))
        assert recovered.wal.last_seq == 5  # floored to the epoch
        recovered.upsert([9200], corpus.queries[:1])
        assert [r["seq"] for r in recovered.wal.replay()] == [6]
        assert recovered.state_digest() != index.state_digest()
        recovered.wal.close()


def _explode(*args, **kwargs):
    raise RuntimeError("simulated crash mid-snapshot")


class TestCompactionWorker:
    def test_requires_a_compactable_target(self):
        with pytest.raises(TypeError, match="maybe_compact"):
            CompactionWorker(object())
        with pytest.raises(ValueError, match="interval_s"):
            CompactionWorker(_Compactable(), interval_s=0.0)

    def test_background_thread_drains_the_delta_buffer(self, corpus):
        index = _mutable(corpus.points, policy=RebuildPolicy(delta_capacity=2))
        engine = ServingEngine(index)  # the worker unwraps the engine
        with CompactionWorker(engine, interval_s=0.005) as worker:
            assert worker.running
            deadline = threading.Event()
            for i in range(4):
                index.upsert([9300 + i], corpus.queries[i][None, :])
                deadline.wait(0.01)
            for _ in range(100):
                if len(index.delta) == 0:
                    break
                deadline.wait(0.01)
        assert not worker.running
        assert worker.target is index
        assert len(index.delta) == 0
        assert worker.ticks >= len(worker.compactions) >= 1
        assert worker.errors == []

    def test_tick_records_errors_and_keeps_going(self):
        target = _Compactable(fail=True)
        worker = CompactionWorker(target, interval_s=0.01)
        assert worker.tick() is None
        assert worker.tick() is None
        assert len(worker.errors) == 2
        target.fail = False
        assert worker.tick() is True
        assert [result for result, _ in worker.compactions] == [True]

    def test_start_is_idempotent(self):
        worker = CompactionWorker(_Compactable(), interval_s=30.0).start()
        thread = worker._thread
        assert worker.start()._thread is thread
        worker.stop()
        assert not worker.running

    def test_resident_background_compaction_preserves_bit_identity(self, corpus, tmp_path):
        """A CompactionWorker over a resident router: the compact op flows
        through the replicated op log while a writer keeps mutating, and
        every replica still reports one digest."""
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        )
        router.train(corpus.points)
        router.enable_updates(points=corpus.points, policy=RebuildPolicy(delta_capacity=2))
        bundle = router.save(tmp_path / "deployment")
        router.close()
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=2))
        with ShardedJunoIndex.load(bundle, config) as resident:
            with CompactionWorker(resident, interval_s=0.002) as worker:
                for i in range(6):
                    resident.upsert([8700 + 2 * i], corpus.queries[i][None, :])
                # The background thread may be starved on a loaded single-core
                # box; one explicit tick makes the compact op deterministic
                # without waiting on the scheduler.
                worker.tick()
            executor = resident.resident_executor()
            ops = [record["op"] for record in executor.op_log(0)]
            assert "compact" in ops  # the worker's op reached the log
            assert ReplicaSupervisor(resident).replicas_consistent()


class _Compactable:
    def __init__(self, fail=False):
        self.fail = fail

    def maybe_compact(self):
        if self.fail:
            raise RuntimeError("transient failover")
        return True


class TestShardDurabilityWiring:
    def test_enable_updates_threads_the_policy_into_every_wal(self, corpus, tmp_path):
        policy = DurabilityPolicy(fsync="batch", group_window_s=0.01)
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        )
        router.train(corpus.points)
        router.enable_updates(points=corpus.points, wal_dir=tmp_path, durability=policy)
        try:
            assert [shard.wal.durability for shard in router.shards] == [policy, policy]
        finally:
            router.close()

    def test_load_defaults_the_policy_from_the_serving_config(self, corpus, tmp_path):
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        )
        router.train(corpus.points)
        bundle = router.save(tmp_path / "immutable")
        router.close()
        config = ServingConfig(
            executor="sequential", durability=DurabilityPolicy(fsync="always")
        )
        with ShardedJunoIndex.load(bundle, config) as loaded:
            loaded.enable_updates(points=corpus.points, wal_dir=tmp_path / "wal")
            assert all(shard.wal.durability.fsync == "always" for shard in loaded.shards)


class TestHarnessesAtReducedScale:
    def test_crash_injection_recovers_every_cut(self, corpus, tmp_path):
        report = run_durability_crash_injection(
            lambda wal: MutableJunoIndex(
                _train_base(corpus.points),
                corpus.points,
                wal=wal,
                policy=RebuildPolicy(delta_capacity=3),
                exact_scores=True,
            ),
            tmp_path,
            corpus.queries,
            corpus.queries[:2],
            id_start=9400,
            num_steps=6,
            k=5,
            nprobs=4,
        )
        assert report.healthy, report
        assert report.digest_mismatches == 0
        assert report.result_mismatches == 0
        assert report.stale_reads == 0
        assert report.injection_points > report.num_records  # per-byte tail cuts ran

    def test_kill9_leaves_a_replayable_log(self, tmp_path):
        result = run_wal_kill9(
            tmp_path / "writer.wal", fsync="batch", min_bytes=2048, dim=4
        )
        assert result["records_survived"] > 0
        assert result["replayable_after_continue"]
