"""Crash-injection proofs of the durable update layer (a helper module, not a test file).

:func:`run_durability_crash_injection` cuts a captured write-ahead log at
every record boundary and byte offset and recovers each cut;
:func:`run_wal_kill9` SIGKILLs a real writer process mid-append.
``tests/test_durability.py::TestHarnessesAtReducedScale`` asserts on their
verdicts.  They prove properties, they do not measure them: update-path
numbers live in the ledger (``benchmarks/ledger``, workload
``mixed_updates``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.serving import load_mutable_index, save_mutable_index, search_results_equal
from repro.updates import DurabilityPolicy, WriteAheadLog


@dataclass
class DurabilityReport:
    """Verdicts of one crash-injection run over the durable update layer.

    The writer's on-disk state (epoch snapshots + write-ahead log) is cut at
    every frame boundary, at the first and last byte inside every frame,
    and at *every byte offset of the tail frame* -- each cut simulating a
    writer killed at that instant.  Every cut is recovered through the real
    recovery path (:func:`repro.serving.persistence.load_mutable_index`:
    snapshot restore + WAL tail replay) and compared against the live
    reference index as it was at that point in the op stream.

    Attributes:
        num_records: op records the reference writer logged.
        wal_bytes: size of the captured log.
        injection_points: total crash points recovered (boundary + torn).
        boundary_points / torn_points: the two cut families.
        digest_mismatches: recoveries whose ``state_digest()`` differed from
            the reference state (must be 0: recovery is bit-identical).
        result_mismatches: recoveries whose probe search differed from the
            reference results at that point (must be 0).
        stale_reads: recovered searches that surfaced an id already deleted
            at that point of the stream (must be 0).
        repair_ok: a post-recovery append onto a torn log replayed cleanly
            (the torn-tail repair path, exercised end to end).
    """

    num_records: int = 0
    wal_bytes: int = 0
    injection_points: int = 0
    boundary_points: int = 0
    torn_points: int = 0
    digest_mismatches: int = 0
    result_mismatches: int = 0
    stale_reads: int = 0
    repair_ok: bool = False

    @property
    def healthy(self) -> bool:
        """The crash-consistency pass/fail line: every cut recovered bit-identically."""
        return (
            self.injection_points > 0
            and self.digest_mismatches == 0
            and self.result_mismatches == 0
            and self.stale_reads == 0
            and self.repair_ok
        )


def run_durability_crash_injection(
    make_index,
    workdir,
    fresh_vectors: np.ndarray,
    queries: np.ndarray,
    id_start: int,
    num_steps: int = 24,
    delete_every: int = 4,
    k: int = 10,
    **search_params,
) -> DurabilityReport:
    """Cut the writer's durable state at every crash point and recover each.

    Drives one reference :class:`~repro.updates.mutable.MutableJunoIndex`
    through a scripted upsert/delete stream (with policy-triggered
    compactions flowing through the same log), snapshotting twice -- once at
    epoch 0 and once mid-stream -- and checkpointing the log size, the
    ``state_digest()``, the probe-search results and the deleted-id set
    after every record.  The captured log bytes are then truncated at every
    record boundary, at the first/last byte inside each record and at every
    byte offset of the tail record; each truncation is recovered via
    :func:`~repro.serving.persistence.load_mutable_index` (most recent
    covering snapshot + WAL tail replay) and must reproduce the reference
    state at that record **bit-identically** -- digest match, identical
    probe results, zero stale reads.  Finally one torn cut takes a fresh
    append (the torn-tail repair) and must replay cleanly.

    Args:
        make_index: ``make_index(wal) -> MutableJunoIndex`` building the
            reference index over the harness-owned write-ahead log; called
            exactly once.
        workdir: scratch directory for the log, its cuts and the snapshots.
        fresh_vectors: pool of vectors the scripted upserts draw from.
        queries: probe queries for the per-record reference results.
        id_start: first fresh global id the script upserts.
        num_steps: scripted mutation steps (records can exceed this when
            compactions trigger).
        delete_every: every Nth step deletes the oldest live scripted id
            (the final step always deletes, keeping the tail record small
            so per-byte torn cuts stay tractable).
        k / search_params: probe-search shape.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wal_path = workdir / "reference.wal"
    # fsync mode is irrelevant here (the injection truncates captured bytes
    # itself); segmenting is disabled so the cuts span one active file.
    wal = WriteAheadLog(wal_path)
    index = make_index(wal)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    fresh_vectors = np.atleast_2d(np.asarray(fresh_vectors, dtype=np.float64))

    snap0 = workdir / "snapshot-epoch0"
    snap_mid = workdir / "snapshot-mid"
    save_mutable_index(index, snap0)

    offsets: list[int] = []  # log size after record j (offsets[0] == 0)
    digests: list[str] = []
    ref_results: list = []
    deleted_sets: list[frozenset] = []
    deleted: set[int] = set()

    def checkpoint() -> None:
        offsets.append(wal_path.stat().st_size if wal_path.is_file() else 0)
        digests.append(index.state_digest())
        ref_results.append(index.search(queries, k, **search_params))
        deleted_sets.append(frozenset(deleted))

    checkpoint()  # record 0: the epoch-0 state
    upserted: list[int] = []
    mid_step = max(num_steps // 2, 1)
    mid_epoch = None
    for step in range(1, num_steps + 1):
        deletable = [g for g in upserted if g not in deleted]
        if deletable and (step % delete_every == 0 or step == num_steps):
            victim = deletable[0]
            index.delete([victim])
            deleted.add(victim)
        else:
            gid = id_start + step
            index.upsert([gid], fresh_vectors[step % len(fresh_vectors)][None, :])
            upserted.append(gid)
        checkpoint()
        if index.maybe_compact():
            checkpoint()  # the compact op is its own logged record
        if step == mid_step:
            save_mutable_index(index, snap_mid)
            mid_epoch = len(offsets) - 1  # records covered by the mid snapshot
    wal.close()

    wal_bytes = wal_path.read_bytes()
    num_records = len(offsets) - 1
    boundary_cuts = set(offsets)
    torn_cuts: set[int] = set()
    for j in range(1, num_records + 1):
        start, end = offsets[j - 1], offsets[j]
        if end - start > 1:
            torn_cuts.update((start + 1, end - 1))  # first/last byte of each record
    torn_cuts.update(range(offsets[num_records - 1] + 1, offsets[num_records]))
    torn_cuts -= boundary_cuts

    report = DurabilityReport(
        num_records=num_records,
        wal_bytes=len(wal_bytes),
        boundary_points=len(boundary_cuts),
        torn_points=len(torn_cuts),
    )
    cut_path = workdir / "crash.wal"
    deepest_torn = max(torn_cuts, default=None)
    for cut in sorted(boundary_cuts | torn_cuts):
        cut_path.write_bytes(wal_bytes[:cut])
        j = bisect_right(offsets, cut) - 1  # frames fully contained in the cut
        snapshot = snap_mid if mid_epoch is not None and j >= mid_epoch else snap0
        recovered = load_mutable_index(snapshot, wal=WriteAheadLog(cut_path))
        report.injection_points += 1
        if recovered.state_digest() != digests[j]:
            report.digest_mismatches += 1
            continue
        observed = recovered.search(queries, k, **search_params)
        if not search_results_equal(observed, ref_results[j]):
            report.result_mismatches += 1
        returned = {int(g) for g in np.asarray(observed.ids).ravel() if g >= 0}
        report.stale_reads += len(returned & deleted_sets[j])
        if cut == deepest_torn:
            # End-to-end torn-tail repair: append onto the recovered log and
            # prove the repaired file replays cleanly through the new record.
            recovered.upsert([id_start + num_steps + 1], fresh_vectors[0][None, :])
            replayed = list(recovered.wal.replay())
            report.repair_ok = bool(replayed) and replayed[-1]["seq"] == recovered.wal.last_seq
        recovered.wal.close()
    if deepest_torn is None:
        report.repair_ok = True  # nothing torn to repair (degenerate tiny runs)
    return report


def run_wal_kill9(
    wal_path,
    fsync: str = "batch",
    group_window_s: float = 0.002,
    dim: int = 8,
    min_bytes: int = 4096,
    timeout_s: float = 30.0,
) -> dict:
    """SIGKILL a real writer process mid-append; assert the log survives.

    Complements the byte-level torn-write injection with the genuine
    article: a subprocess running a tight ``WriteAheadLog.append`` loop is
    killed with ``SIGKILL`` (no atexit, no flush, no goodbye) once the log
    has grown past ``min_bytes``.  The surviving file is then opened by a
    fresh :class:`~repro.updates.wal.WriteAheadLog` -- the scan must
    classify its tail, ``replay()`` must stream every complete record
    without raising, and a follow-up append must repair any torn tail and
    leave the log replayable through the new record.

    Returns a dict (records survived, tail state, repair counters).  POSIX
    only (``SIGKILL``); raises :class:`RuntimeError` elsewhere.
    """
    if os.name != "posix":  # pragma: no cover - exercised on POSIX CI only
        raise RuntimeError("run_wal_kill9 needs POSIX kill semantics")
    wal_path = Path(wal_path)
    wal_path.parent.mkdir(parents=True, exist_ok=True)
    package_root = Path(repro.__file__).resolve().parents[1]
    writer_code = (
        "import sys\n"
        "from pathlib import Path\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from repro.updates.wal import DurabilityPolicy, WriteAheadLog\n"
        "path, fsync, window, dim = sys.argv[2], sys.argv[3], float(sys.argv[4]), int(sys.argv[5])\n"
        "wal = WriteAheadLog(path, DurabilityPolicy(fsync=fsync, group_window_s=window))\n"
        "i = 0\n"
        "while True:\n"
        "    i += 1\n"
        "    wal.append('upsert', ids=[i], vectors=[[0.5] * dim])\n"
    )
    writer = subprocess.Popen(
        [
            sys.executable,
            "-c",
            writer_code,
            str(package_root),
            str(wal_path),
            fsync,
            str(group_window_s),
            str(dim),
        ]
    )
    try:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if writer.poll() is not None:
                raise RuntimeError(
                    f"WAL writer exited early with code {writer.returncode}"
                )
            if wal_path.is_file() and wal_path.stat().st_size >= min_bytes:
                break
            time.sleep(0.005)
        else:
            raise RuntimeError("WAL writer produced no output before the timeout")
    finally:
        writer.kill()  # SIGKILL: no flush, no cleanup
        writer.wait()

    survivor = WriteAheadLog(wal_path, DurabilityPolicy(fsync=fsync))
    tail_state = survivor._tail
    records = list(survivor.replay())
    records_survived = len(records)
    continuation_seq = survivor.append("upsert", ids=[-1], vectors=[[0.0] * dim])
    replayed = list(survivor.replay())
    survivor.close()
    return {
        "fsync": fsync,
        "records_survived": records_survived,
        "tail_state_on_reopen": tail_state,
        "tail_repairs": survivor.tail_repairs,
        "continuation_seq": continuation_seq,
        "replayable_after_continue": bool(replayed)
        and replayed[-1]["seq"] == continuation_seq
        and len(replayed) == records_survived + 1,
        "survived_bytes": int(wal_path.stat().st_size),
    }
