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
  the captured log (the property test);
* frame corruption -- a flipped byte in any frame but the last is a typed
  ``WalError`` on replay (``hypothesis`` fuzz plus a pass over every byte),
  and a damaged length that points past the end of the file is not a tear;
* JSON-lines logs of earlier versions (written by ``wal_reference.py``)
  replay to the same state as binary logs and are sealed, never appended to;
* the ``fsync="batch"`` committer thread -- the staleness bound with no
  further append, interruptible waits, pickling / fork, rotation and GC
  beside it, and an ``os.fsync`` error that is logged and counted;
* ``python -m repro.updates.wal dump``;
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
import logging
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

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
from repro.updates.wal import main as wal_main

from durability_harness import run_durability_crash_injection, run_wal_kill9
from wal_reference import JsonLinesWal


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


def _frame_ends(path, appends):
    """Run ``appends`` (callables taking the log) and return the file size after each."""
    wal = WriteAheadLog(path)
    ends = []
    for append in appends:
        append(wal)
        ends.append(path.stat().st_size)
    wal.close()
    return ends


_THREE_OPS = (
    lambda wal: wal.append("upsert", ids=[7], vectors=[[0.25, -1.5]]),
    lambda wal: wal.append("delete", ids=[7]),
    lambda wal: wal.append("compact"),
)


class TestTornTailRepair:
    def test_first_append_truncates_a_torn_tail(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path)
        wal.append("delete", ids=[1])
        wal.append("delete", ids=[2])
        wal.close()
        intact = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(intact[: len(intact) // 2 - 3])  # crash mid-append
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 2  # the torn record never counted
        assert reopened.append("compact") == 3  # repair happens here
        assert reopened.tail_repairs == 1
        records = list(reopened.replay())
        assert [r["seq"] for r in records] == [1, 2, 3]
        reopened.close()
        # the torn bytes are gone from disk, not just skipped on read
        assert path.read_bytes()[: len(intact)] == intact
        assert path.stat().st_size == len(intact) + 29  # + one compact frame

    def test_valid_unterminated_tail_is_kept(self, tmp_path):
        """A JSON-lines log of an earlier version whose last line lost only
        its newline loses nothing: the record was written and must survive."""
        path = tmp_path / "ops.wal"
        old = JsonLinesWal(path)
        old.append("delete", ids=[1])
        old.append("delete", ids=[2])
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        reopened = WriteAheadLog(path)
        assert reopened.last_seq == 2
        assert reopened.append("compact") == 3
        assert reopened.tail_repairs == 0  # nothing was torn
        assert [r["seq"] for r in reopened.replay()] == [1, 2, 3]
        reopened.close()

    def test_replay_survives_a_cut_at_every_byte_offset(self, tmp_path):
        """The property behind the crash harness: truncate the log at every
        possible offset; every cut must reopen, replay a clean record
        prefix, accept an append and replay again."""
        source = tmp_path / "ops.wal"
        ends = _frame_ends(source, _THREE_OPS)
        payload = source.read_bytes()

        for cut in range(len(payload) + 1):
            complete = sum(end <= cut for end in ends)
            path = tmp_path / f"cut-{cut}.wal"
            path.write_bytes(payload[:cut])
            reopened = WriteAheadLog(path)
            assert reopened.last_seq == complete, f"cut at byte {cut}"
            assert reopened._tail == ("clean" if cut in (0, *ends) else "torn")
            assert reopened.append("compact") == complete + 1
            seqs = [r["seq"] for r in reopened.replay()]
            assert seqs == list(range(1, complete + 2)), f"cut at byte {cut}"
            reopened.close()

    def test_a_torn_tail_is_never_sealed_into_a_segment(self, tmp_path):
        path = tmp_path / "ops.wal"
        ends = _frame_ends(path, _THREE_OPS)
        path.write_bytes(path.read_bytes()[: ends[-1] - 5])  # crash inside record 3
        reopened = WriteAheadLog(path)
        sealed = reopened.rotate()  # no append in between: rotate repairs first
        assert sealed.stat().st_size == ends[1] and reopened.tail_repairs == 1
        assert reopened.append("compact") == 3
        assert [r["seq"] for r in reopened.replay()] == [1, 2, 3]
        reopened.close()


class TestFrameCorruption:
    """ROADMAP item 4's fuzz, started: damage is a typed error, never a
    silently shorter log, a wrong vector or an untyped exception."""

    @pytest.fixture(scope="class")
    def log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("frames") / "ops.wal"
        ends = _frame_ends(
            path,
            (
                lambda wal: wal.append("upsert", ids=[7, 8], vectors=[[0.25, -1.5], [1e-17, 3.0]]),
                *_THREE_OPS[1:],
                lambda wal: wal.append("retrain"),
                lambda wal: wal.append("upsert", ids=[9], vectors=[[10.0, 0.1 + 0.2]]),
            ),
        )
        return path.read_bytes(), ends

    @staticmethod
    def _same(records, reference):
        return len(records) == len(reference) and all(
            a.keys() == b.keys() and all(np.array_equal(a[key], b[key]) for key in a)
            for a, b in zip(records, reference)
        )

    def test_a_flip_of_any_byte_is_typed(self, log, tmp_path):
        payload, ends = log
        path = tmp_path / "flipped.wal"
        path.write_bytes(payload)
        reference = list(WriteAheadLog(path).replay())
        assert [r["seq"] for r in reference] == [1, 2, 3, 4, 5]

        @settings(max_examples=len(payload) * 3, deadline=None, database=None)
        @given(st.integers(0, len(payload) - 1), st.integers(1, 255))
        def flip(position, mask):
            damaged = bytearray(payload)
            damaged[position] ^= mask
            path.write_bytes(bytes(damaged))
            try:
                records = list(WriteAheadLog(path).replay())
            except WalError:
                return  # typed: any other exception fails the test
            # Only damage to the final frame may pass for a torn tail, and
            # then every record before it must still be there, bit for bit.
            assert position >= ends[-2], f"flip at byte {position} was swallowed"
            assert self._same(records, reference[:-1])

        flip()
        # ... and every single byte, once, with all its bits turned over.
        for position in range(len(payload)):
            damaged = bytearray(payload)
            damaged[position] ^= 0xFF
            path.write_bytes(bytes(damaged))
            if position < ends[-2]:
                with pytest.raises(WalError):
                    list(WriteAheadLog(path).replay())

    def test_a_length_pointing_past_eof_mid_file_is_not_a_torn_tail(self, log, tmp_path):
        payload, ends = log
        path = tmp_path / "ops.wal"
        damaged = bytearray(payload)
        damaged[ends[0] + 4 : ends[0] + 8] = (len(payload) * 2).to_bytes(4, "little")
        path.write_bytes(bytes(damaged))
        wal = WriteAheadLog(path)  # opening is lazy about damage ...
        with pytest.raises(WalError, match="bad frame header"):
            list(wal.replay())
        with pytest.raises(WalError, match="refusing to append"):
            wal.append("compact")  # ... but nothing is written after it
        assert path.read_bytes() == bytes(damaged)

    def test_damage_inside_a_sealed_segment_is_typed_even_at_its_tail(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path, DurabilityPolicy(segment_records=2))
        for i in range(3):
            wal.append("delete", ids=[i])
        wal.close()
        segment = next(tmp_path.glob("ops.wal.*.seg"))
        segment.write_bytes(segment.read_bytes()[:-3])  # not the final file: not a torn tail
        with pytest.raises(WalError, match="truncated frame"):
            list(WriteAheadLog(path).replay())


class TestLegacyJsonLogs:
    """Logs written as JSON lines by earlier versions stay readable."""

    @staticmethod
    def _drive(index, corpus):
        index.upsert([9001, 9002], corpus.queries[:2])
        index.delete([9001, 3])
        index.upsert([5], corpus.queries[2:3])  # supersedes a trained point
        index.compact()
        index.upsert([9003], corpus.queries[3:4])
        return index

    def test_json_and_binary_logs_replay_to_the_same_state(self, corpus, tmp_path):
        live = self._drive(_mutable(corpus.points, wal=WriteAheadLog(tmp_path / "bin.wal")), corpus)
        live.wal.close()
        self._drive(_mutable(corpus.points, wal=JsonLinesWal(tmp_path / "json.wal")), corpus)
        assert (tmp_path / "json.wal").read_bytes().startswith(b'{"ids": [9001, 9002]')
        snapshot = save_mutable_index(_mutable(corpus.points), tmp_path / "epoch0")
        digests = {
            name: load_mutable_index(snapshot, wal=tmp_path / name).state_digest()
            for name in ("bin.wal", "json.wal")
        }
        assert digests["bin.wal"] == digests["json.wal"] == live.state_digest()

    def test_sealed_json_segments_then_a_binary_active_file(self, corpus, tmp_path):
        reference = self._drive(_mutable(corpus.points), corpus)
        reference.delete([9003])
        path = tmp_path / "ops.wal"
        old = self._drive(_mutable(corpus.points, wal=JsonLinesWal(path)), corpus)
        # what an old rotate() left: a sealed JSON segment, then an active JSON file
        os.replace(path, tmp_path / f"ops.wal.{3:020d}.seg")
        lines = (tmp_path / f"ops.wal.{3:020d}.seg").read_bytes().splitlines(keepends=True)
        (tmp_path / f"ops.wal.{3:020d}.seg").write_bytes(b"".join(lines[:3]))
        path.write_bytes(b"".join(lines[3:]) + b'{"seq": 6, "op": "ups')  # and a torn tail
        snapshot = save_mutable_index(_mutable(corpus.points), tmp_path / "epoch0")

        recovered = load_mutable_index(snapshot, wal=path)
        assert recovered.state_digest() == old.state_digest()
        recovered.delete([9003])  # the first append: repairs, seals the JSON file, writes a frame
        recovered.wal.close()
        assert recovered.wal.tail_repairs == 1
        assert sorted(p.name for p in tmp_path.glob("ops.wal*")) == [
            "ops.wal",
            f"ops.wal.{3:020d}.seg",
            f"ops.wal.{5:020d}.seg",
        ]
        assert path.read_bytes()[:1] == b"J"  # no file ever mixes formats
        assert [r["seq"] for r in WriteAheadLog(path).replay()] == [1, 2, 3, 4, 5, 6]
        assert load_mutable_index(snapshot, wal=path).state_digest() == reference.state_digest()

    def test_a_json_file_that_is_all_torn_tail_seals_nothing(self, tmp_path):
        path = tmp_path / "ops.wal"
        sealed = tmp_path / f"ops.wal.{2:020d}.seg"
        old = JsonLinesWal(sealed)
        old.append("delete", ids=[1])
        old.append("delete", ids=[2])
        path.write_bytes(b'{"seq": 3, "op": "del')  # the crash came before the first full line
        wal = WriteAheadLog(path)
        assert wal.last_seq == 2 and wal.append("compact") == 3
        wal.close()
        assert sealed.read_bytes().count(b"\n") == 2  # not overwritten by an empty segment
        assert [r["seq"] for r in WriteAheadLog(path).replay()] == [1, 2, 3]

    def test_damaged_json_is_typed_not_torn(self, tmp_path):
        path = tmp_path / "ops.wal"
        JsonLinesWal(path).append("delete", ids=[1])
        path.write_bytes(path.read_bytes() + b'{"seq": 2, "op": "del\xff')  # not what a cut leaves
        with pytest.raises(WalError, match="corrupt WAL record"):
            list(WriteAheadLog(path).replay())


class TestCommitter:
    """``fsync="batch"``: the fsync is a thread's job, not the caller's."""

    @staticmethod
    def _wait_durable(wal, seq, timeout_s):
        deadline = time.monotonic() + timeout_s
        while wal.durable_seq < seq and time.monotonic() < deadline:
            time.sleep(0.001)
        return wal.durable_seq

    def test_a_lone_append_becomes_durable_within_the_window(self, tmp_path):
        """The staleness bound of the durability table, with no further
        append to carry the fsync (the pre-committer code never got there)."""
        window = 0.05
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=window))
        wal.append("compact")  # creates the file: committed on the spot
        assert wal.durable_seq == 1
        fsyncs = wal.fsync_count
        seq = wal.append("delete", ids=[1])
        assert wal.durable_seq < seq and wal.fsync_count == fsyncs  # the append only flushed
        assert self._wait_durable(wal, seq, window + 1.0) == seq == wal.flushed_seq
        assert wal.fsync_count == fsyncs + 1
        wal.close()

    def test_one_fsync_covers_a_window_of_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=0.05))
        for i in range(50):
            wal.append("delete", ids=[i])
        assert self._wait_durable(wal, 50, 2.0) == 50
        assert wal.fsync_count <= 3  # the creating append's, then one per window
        wal.close()

    def test_close_and_sync_do_not_wait_for_the_window(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=60.0))
        wal.append("compact")
        wal.append("compact")
        begun = time.monotonic()
        assert wal.sync() == 2
        wal.append("compact")
        committer = wal._committer
        assert committer.is_alive()
        wal.close()
        assert time.monotonic() - begun < 5.0
        assert wal.durable_seq == 3 and not committer.is_alive()
        assert wal.append("compact") == 4  # a closed log reopens, committer and all
        assert wal._committer is not committer and wal._committer.is_alive()
        wal.close()

    def test_never_and_always_start_no_thread(self, tmp_path):
        for mode in ("never", "always"):
            wal = WriteAheadLog(tmp_path / f"{mode}.wal", DurabilityPolicy(mode))
            wal.append("compact")
            wal.append("compact")
            assert wal._committer is None
            wal.close()

    def test_an_idle_committer_retires(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.updates.wal._COMMITTER_IDLE_S", 0.01)
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=0.0))
        wal.append("compact")
        wal.append("compact")
        deadline = time.monotonic() + 5.0
        while wal._committer is not None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert wal._committer is None and wal.durable_seq == 2
        assert wal.append("compact") == 3  # the next append starts another
        assert self._wait_durable(wal, 3, 2.0) == 3
        wal.close()

    def test_the_committer_is_neither_pickled_nor_forked(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=0.001))
        wal.append("compact")
        wal.append("compact")
        assert wal._committer.is_alive()
        clone = pickle.loads(pickle.dumps(wal))
        assert clone._committer is None and clone.last_seq == 2
        assert self._wait_durable(wal, 2, 2.0) == 2

        pid = os.fork()
        if pid == 0:  # the child holds a copy of the object, not of the thread
            status = 1
            try:
                seq = wal.append("compact")
                status = 0 if self._wait_durable(wal, seq, 2.0) == seq else 2
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        wal.close()
        assert [r["seq"] for r in WriteAheadLog(wal.path).replay()] == [1, 2, 3]

    def test_rotation_and_gc_do_not_race_the_committer(self, tmp_path):
        """Four appenders (more than this box has cores), the committer and a
        thread that rotates and garbage-collects, on a short switch interval:
        no error anywhere, the watermark is a prefix throughout, and what is
        left on disk is a gapless suffix of the sequence."""
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=0.0))
        stop = threading.Event()
        failures, samples = [], []

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as exc:  # noqa: BLE001 - reported by the assert below
                    failures.append(exc)

            return threading.Thread(target=run)

        def maintain():
            while not stop.is_set():
                samples.append((wal.durable_seq, wal.flushed_seq))
                wal.rotate()
                wal.truncate_through(wal.durable_seq // 2)

        def write(worker):
            for i in range(100):
                wal.append("delete", ids=[worker * 1000 + i])

        maintainer = guarded(maintain)
        writers = [guarded(lambda worker=worker: write(worker)) for worker in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in (maintainer, *writers):
                thread.start()
            for thread in writers:
                thread.join(60.0)
            stop.set()
            maintainer.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in (maintainer, *writers))
        wal.close()
        assert failures == [] and wal.fsync_errors == 0
        assert all(durable <= flushed for durable, flushed in samples)
        assert [d for d, _ in samples] == sorted(d for d, _ in samples)
        assert wal.durable_seq == wal.flushed_seq == 400
        seqs = [r["seq"] for r in WriteAheadLog(wal.path).replay()]
        assert seqs == list(range(seqs[0], 401))  # GC only ever drops a prefix

    def test_an_fsync_error_in_the_thread_is_logged_and_counted(
        self, tmp_path, monkeypatch, caplog
    ):
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=0.0))
        wal.append("compact")
        real_fsync, failed = os.fsync, threading.Event()

        def failing_fsync(fd):
            failed.set()
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with caplog.at_level(logging.ERROR, logger="repro.updates.wal"):
            wal.append("compact")
            assert failed.wait(2.0)
            deadline = time.monotonic() + 2.0
            while wal.fsync_errors == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
        assert wal.fsync_errors == 1 and "wal_fsync_failed" in caplog.text
        assert wal.durable_seq == 1 and wal._committer.is_alive()  # not a dead thread
        monkeypatch.setattr(os, "fsync", real_fsync)
        seq = wal.append("compact")  # the next window succeeds and covers the backlog
        assert self._wait_durable(wal, seq, 2.0) == 3
        wal.close()


class TestDumpCommand:
    def test_dump_prints_one_json_line_per_record(self, tmp_path, capsys):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path, DurabilityPolicy(segment_records=2))
        wal.append("upsert", ids=[7, 8], vectors=[[0.25, -1.5, 2.0], [0.1, 0.2, 0.3]])
        wal.append("delete", ids=[7])
        wal.append("compact")
        wal.close()
        assert wal_main(["dump", str(path)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines == [
            {"seq": 1, "op": "upsert", "ids": [7, 8], "vectors": [2, 3]},
            {"seq": 2, "op": "delete", "ids": [7]},
            {"seq": 3, "op": "compact"},
        ]
        assert wal_main(["dump", "--vectors", str(path)]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first["vectors"] == [[0.25, -1.5, 2.0], [0.1, 0.2, 0.3]]

    def test_dump_exits_1_with_the_error_on_a_corrupt_or_missing_log(self, tmp_path):
        path = tmp_path / "ops.wal"
        _frame_ends(path, _THREE_OPS)
        damaged = bytearray(path.read_bytes())
        damaged[40] ^= 0x01
        path.write_bytes(bytes(damaged))
        for target, message in ((path, "checksum mismatch"), (tmp_path / "none.wal", "no write-")):
            done = subprocess.run(
                [sys.executable, "-m", "repro.updates.wal", "dump", str(target)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            )
            assert done.returncode == 1 and message in done.stderr
        assert done.stdout == ""


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
        with WriteAheadLog(path) as wal:
            wal.append("compact")
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
