"""Append-only write-ahead log of mutable-index operations.

Durability for the streaming-update layer: every mutation of a
:class:`~repro.updates.mutable.MutableJunoIndex` is appended here *before*
it is applied, as one length-prefixed, CRC-checked binary **frame** per
record (all little-endian)::

    magic "J\\xffW1" | payload length u32 | crc32 u32 |      <- 12-byte header
    seq i64 | op u8 | n u32 | dim u32 | ids n*i64 | vectors n*dim*f64

``op`` indexes ``("upsert", "delete", "compact", "retrain")``; only upserts
carry vectors.  The payload length is redundant with ``n`` and ``dim`` on
purpose: a header whose length disagrees with them is *corrupt*, so a
damaged length that points past the end of the file is never mistaken for a
torn tail.  ``python -m repro.updates.wal dump <path>`` prints a log as one
JSON line per record.

Records carry a monotonically increasing sequence number.  Maintenance
operations (``compact`` / ``retrain``) are logged too: they mutate the
trained arrays deterministically, so replaying the op stream through the
same apply code paths reproduces the mutated index **bit-identically** --
which is how :func:`repro.serving.persistence.load_mutable_index` recovers
the mutations newer than the last epoch-stamped snapshot.

A torn final frame -- the file ends inside it, the classic crash-mid-append
shape -- is tolerated: replay stops before it, and the first append after
reopening *repairs* it (truncating the torn bytes) so a crash-then-continue
log stays replayable.  Anything else that does not check out (magic, length,
checksum, sequence order) raises a typed :class:`WalError`.

How durable an *acknowledged* append is, is the :class:`DurabilityPolicy`'s
call.  Under ``fsync="batch"`` the fsync is off the caller: appends flush and
return, and one lazily started committer thread issues a single ``os.fsync``
per ``group_window_s`` window for every record flushed inside it, so a
machine crash loses at most the current window whether or not another append
follows (``close`` / :meth:`WriteAheadLog.sync` drain it at once).  The
*durable watermark* (:attr:`WriteAheadLog.durable_seq`) always advances to a
sequence prefix; even ``"always"`` coalesces (one fsync can cover several
flushed records, and covered appenders skip their own).

The log can also be **segmented**: :meth:`WriteAheadLog.rotate` seals the
active file as an immutable ``<name>.<last_seq>.seg`` segment via an atomic
rename (``DurabilityPolicy.segment_records`` rotates automatically), and
:meth:`WriteAheadLog.truncate_through` garbage-collects every segment an
epoch snapshot covers, so the log stays proportional to the un-snapshotted tail.

Logs written as JSON lines by earlier versions stay *readable*: a file's
format is told from its first byte, and an active JSON file is sealed as a
segment before the first frame is appended, so no file ever mixes formats.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import sys
import threading
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.errors import ServingError
from repro.obs.log import event as log_event
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.storage import fsync_dir, fsync_path

_log = get_logger("updates.wal")

#: Valid :attr:`DurabilityPolicy.fsync` modes.
FSYNC_MODES = ("never", "batch", "always")

_SEGMENT_SUFFIX = ".seg"
#: Frame magic.  It does not start with ``{`` (a JSON-lines log does), and
#: its second byte is not ASCII, so a frame can never parse as a JSON line.
_MAGIC = b"J\xffW1"
_OPS = ("upsert", "delete", "compact", "retrain")
_HEAD = struct.Struct("<qBII")  # seq, op, n, dim: the fixed part of a payload
_FRAME = struct.Struct("<4sII" + _HEAD.format[1:])  # magic, payload length, crc32 + head
_HEADER_BYTES = _FRAME.size - _HEAD.size
#: A committer with nothing to do for this long exits; the next append
#: starts another, so an abandoned log holds no thread.
_COMMITTER_IDLE_S = 1.0


class WalError(ServingError):
    """Raised when a write-ahead log is corrupt or misused."""


@dataclass(frozen=True)
class DurabilityPolicy:
    """How hard the write-ahead log tries to survive a crash.

    Attributes:
        fsync: ``"never"`` flushes to the OS only (a *process* crash loses
            nothing, a machine crash can lose the tail), ``"always"`` fsyncs
            before every append returns (durable-on-ack), and ``"batch"``
            group-commits: appends only flush, and a committer thread issues
            one fsync per ``group_window_s`` window covering every record
            flushed inside it.
        group_window_s: the group-commit window for ``fsync="batch"`` --
            the maximum age of a flushed-but-not-yet-durable record (plus
            the fsync itself), and the minimum spacing between fsyncs.
        segment_records: rotate the active log file into an immutable
            sealed segment once it holds this many records (``None``
            disables automatic rotation; :meth:`WriteAheadLog.rotate` stays
            available).  Sealed segments are what
            :meth:`WriteAheadLog.truncate_through` can garbage-collect once
            an epoch snapshot covers them.
    """

    fsync: str = "never"
    group_window_s: float = 0.002
    segment_records: int | None = None

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_MODES:
            raise ValueError(f"fsync must be one of {FSYNC_MODES}")
        if self.group_window_s < 0:
            raise ValueError("group_window_s must be non-negative")
        if self.segment_records is not None and self.segment_records <= 0:
            raise ValueError("segment_records must be positive (or None to disable)")

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "fsync": self.fsync,
            "group_window_s": self.group_window_s,
            "segment_records": self.segment_records,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DurabilityPolicy":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"DurabilityPolicy does not understand keys {unknown}")
        return cls(**data)


# ------------------------------------------------------------------ readers
def _frames(path: Path, torn_ok: bool, payloads: bool = True) -> Iterator[tuple[dict, int]]:
    """``(record, end offset)`` per frame of a binary log file, streaming.

    With ``payloads=False`` (the open-time scan) frames are walked by their
    headers and neither read nor checksummed.  A frame the file ends inside
    of ends the iteration when ``torn_ok``; any other failed check raises.
    """
    size = path.stat().st_size
    start = 0
    with path.open("rb") as handle:
        while start < size:
            head = handle.read(_FRAME.size)
            if len(head) < _FRAME.size:
                # Shorter than any frame, so it can only be the tail: torn
                # if it is the beginning of a frame, damage otherwise.
                sound, length = _MAGIC.startswith(head[: len(_MAGIC)]), size
            else:
                magic, length, crc, seq, code, n, dim = _FRAME.unpack(head)
                sound = (
                    magic == _MAGIC
                    and code < len(_OPS)
                    and length == _HEAD.size + 8 * n * (1 + dim)
                )
            end = start + _HEADER_BYTES + length
            if not sound:
                raise WalError(f"corrupt WAL record at {path}@{start}: bad frame header")
            if end > size:  # a sound header whose frame the file ends inside of
                if torn_ok:
                    return
                raise WalError(f"corrupt WAL record at {path}@{start}: truncated frame")
            record = {"seq": seq, "op": _OPS[code]}
            if not payloads:
                handle.seek(end)
            else:
                body = handle.read(length - _HEAD.size)
                if zlib.crc32(body, zlib.crc32(head[_HEADER_BYTES:])) != crc:
                    raise WalError(f"corrupt WAL record at {path}@{start}: checksum mismatch")
                if code < 2:
                    record["ids"] = np.frombuffer(body, "<i8", n)
                if code == 0:
                    record["vectors"] = np.frombuffer(body, "<f8", n * dim, 8 * n).reshape(n, dim)
            yield record, end
            start = end


def _json_records(path: Path, torn_ok: bool) -> Iterator[tuple[dict, int]]:
    """``(record, end offset)`` per line of a JSON-lines log of earlier versions."""
    size, end = path.stat().st_size, 0
    with path.open("rb") as handle:
        for line_no, raw in enumerate(handle, 1):
            end += len(raw)
            try:
                record = json.loads(raw.decode("ascii"))
                record["seq"], record["op"] = int(record["seq"]), str(record["op"])
                if "ids" in record:
                    record["ids"] = np.asarray(record["ids"], dtype=np.int64)
                if "vectors" in record:
                    record["vectors"] = np.asarray(record["vectors"], dtype=np.float64)
            except (ValueError, KeyError, TypeError) as exc:
                torn = end == size and not raw.endswith(b"\n") and raw.isascii()
                if torn and torn_ok:
                    return  # torn final record: the prefix is the log
                raise WalError(f"corrupt WAL record at {path}:{line_no}: {exc}") from exc
            yield record, end


def _is_json(path: Path) -> bool:
    with path.open("rb") as handle:
        return handle.read(1) == b"{"


class WriteAheadLog:
    """An append-only log of binary operation frames with pluggable durability.

    Args:
        path: the *active* log file; created (including parents) on first
            append.  Sealed segments live alongside it as
            ``<name>.<last_seq:020d>.seg`` files and replay before it.
        durability: the :class:`DurabilityPolicy`; defaults to
            ``fsync="never"`` (the pre-durability behaviour).

    :attr:`last_seq` is the highest sequence number appended or observed on
    disk at open time, so appends after a reload continue the sequence.  The
    open-time scan is cheap: sealed segments contribute their name-encoded
    last sequence without being read, and the active file is walked frame
    header by frame header for its tail state (a damaged header makes the log
    refuse appends; the typed :class:`WalError` surfaces at :meth:`replay`).

    Appends are thread-safe; :attr:`durable_seq` only ever advances to a
    flushed *prefix* of the sequence.  Pickling keeps only the path, policy
    and sequence state (a process-pool copy re-opens lazily, never shares the
    handle and starts its own committer when it needs one).
    """

    def __init__(self, path: str | Path, durability: DurabilityPolicy | None = None) -> None:
        self.__setstate__({"path": path, "durability": durability, "last_seq": 0})
        self._scan()

    # ------------------------------------------------------------- open scan
    def _segments(self) -> list[Path]:
        """Sealed segment files, oldest first (zero-padded names sort)."""
        pattern = f"{self.path.name}.*{_SEGMENT_SUFFIX}"
        return sorted(self.path.parent.glob(pattern)) if self.path.parent.is_dir() else []

    def _segment_last_seq(self, segment: Path) -> int:
        """The last sequence number a sealed segment holds (name-encoded)."""
        stem = segment.name[len(self.path.name) + 1 : -len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError as exc:
            raise WalError(f"unparseable WAL segment name {segment.name!r}") from exc

    def _scan(self) -> None:
        """Learn ``last_seq`` and the tail state of the active file.

        ``_tail`` ends up ``"clean"``, ``"torn"`` (bytes past the last
        complete record: truncated by the first append) or ``"corrupt"``.
        """
        segments = self._segments()
        self.last_seq = self._segment_last_seq(segments[-1]) if segments else 0
        if not self.path.is_file() or self.path.stat().st_size == 0:
            return
        self._legacy = _is_json(self.path)
        scan = _json_records if self._legacy else partial(_frames, payloads=False)
        try:
            for record, end in scan(self.path, torn_ok=True):
                self._active_records += 1
                self._valid_bytes = end
                self.last_seq = max(self.last_seq, record["seq"])
        except WalError:
            self._tail = "corrupt"
            return
        if self._valid_bytes < self.path.stat().st_size:
            self._tail = "torn"

    # -------------------------------------------------------------- append
    def _repair_tail(self) -> None:
        """Truncate a torn tail (under ``_lock``, no handle open) *before*
        anything is written or sealed: a frame that followed a partial one
        would corrupt the log mid-file -- unreplayable, not merely shorter."""
        if self._tail == "corrupt":
            raise WalError(f"refusing to append to corrupt WAL {self.path}; replay() says where")
        if self._tail != "torn" or not self.path.is_file():
            return
        with self.path.open("rb+") as repair:
            repair.truncate(self._valid_bytes)
        if self.durability.fsync != "never":
            fsync_path(self.path)
        self.tail_repairs += 1
        get_registry().counter("repro_wal_tail_repairs_total").inc()
        repaired = {"path": str(self.path), "kind": "torn", "truncated_to_bytes": self._valid_bytes}
        log_event(_log, logging.WARNING, "wal_tail_repaired", **repaired)
        self._tail = "clean"

    def _ensure_open(self) -> bool:
        """Open the append handle (under ``_lock``); whether it created the file."""
        if self._handle is not None:
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        if self._legacy and self._active_records:
            self._seal_active()  # a JSON file of an earlier version: frames never follow lines
        self._legacy = False
        created = not self.path.exists()
        self._handle = self.path.open("ab")
        return created

    def append(self, op: str, ids=None, vectors=None) -> int:
        """Append one op record and flush it; returns its sequence number.

        ``ids`` (``upsert`` / ``delete``) and ``vectors`` (``upsert``) are
        logged as ``int64`` / ``float64`` bytes.  ``"always"`` returns
        fsynced, ``"batch"`` leaves the fsync to the committer thread,
        ``"never"`` only flushes; the append that *creates* the active file
        also makes the file itself durable (bytes and directory entry) unless
        the policy is ``"never"``.  Rotates afterwards when
        ``segment_records`` says so.
        """
        code = _OPS.index(op)  # ValueError on an unknown op, before anything is written
        ids = np.asarray(() if ids is None else ids, dtype="<i8").ravel()
        body, dim = ids.tobytes(), 0
        if (vectors is not None) != (code == 0):
            raise ValueError("upsert records carry vectors, the other ops do not")
        if vectors is not None:
            vectors = np.atleast_2d(np.asarray(vectors, dtype="<f8"))
            if vectors.ndim != 2 or vectors.shape[0] != ids.shape[0]:
                raise ValueError("an upsert record carries one vector per id")
            body, dim = body + vectors.tobytes(), vectors.shape[1]
        mode = self.durability.fsync
        with self._lock:
            created = self._ensure_open()
            seq = self.last_seq + 1
            head = _HEAD.pack(seq, code, ids.shape[0], dim)
            crc = zlib.crc32(body, zlib.crc32(head))
            frame = _FRAME.pack(_MAGIC, len(head) + len(body), crc, seq, code, ids.shape[0], dim)
            self._handle.write(frame + body)
            self._handle.flush()
            self.last_seq = self._flushed_seq = seq
            self._active_records += 1
            self.append_count += 1
            registry = get_registry()
            registry.counter("repro_wal_appends_total").inc()
            registry.counter("repro_wal_bytes_total").inc(len(frame) + len(body))
            if mode != "never":
                registry.gauge("repro_wal_pending_records").set(seq - self._durable_seq)
            if mode == "batch" and not created:
                self._wake_committer()
            rotate_due = (
                self.durability.segment_records is not None
                and self._active_records >= self.durability.segment_records
            )
        if mode == "always" or (created and mode == "batch"):
            with self._commit_lock:
                if seq > self._durable_seq:  # else a concurrent fsync already covered it
                    self._fsync_flushed()
            if created:
                fsync_dir(self.path.parent)
        if rotate_due:
            self.rotate()
        return seq

    # -------------------------------------------------------- group commit
    def _wake_committer(self) -> None:
        """Tell the committer a record is pending, starting it if need be.

        Under ``_lock``, which is also what the committer holds to decide it
        is idle: a wake-up can never fall between its check and its exit.
        """
        if self._committer is None or not self._committer.is_alive():
            # Fresh events per thread: nothing of a previous committer (one
            # that was stopped, or lost in a fork) is waited on again.
            self._wake, self._stop = threading.Event(), threading.Event()
            events = (self._wake, self._stop)
            self._committer = threading.Thread(
                target=self._commit_loop, args=events, name="wal-committer", daemon=True
            )
            self._committer.start()
        self._wake.set()

    def _commit_loop(self, wake: threading.Event, stop: threading.Event) -> None:
        """One ``os.fsync`` per window for whatever was flushed inside it."""
        while True:
            if not wake.wait(_COMMITTER_IDLE_S):
                with self._lock:
                    if not wake.is_set():
                        self._committer = None
                        return
            wake.clear()
            # The window is the group forming; close() cuts it short and
            # drains on its own thread.
            if stop.wait(self.durability.group_window_s):
                return
            try:
                with self._commit_lock:
                    if self._durable_seq < self._flushed_seq:
                        self._fsync_flushed()
            except OSError as exc:
                # Nothing became durable and nobody waits on this thread to
                # say so: log it, count it, stay alive for the next window
                # (``repro_wal_pending_records`` stays up meanwhile).
                failed = {"path": str(self.path), "error": str(exc)}
                log_event(_log, logging.ERROR, "wal_fsync_failed", **failed)
                get_registry().counter("repro_wal_fsync_errors_total").inc()
                self.fsync_errors += 1

    def _stop_committer(self) -> None:
        with self._lock:
            thread, self._committer = self._committer, None
            self._stop.set()
            self._wake.set()
        if thread is not None and thread.is_alive():
            thread.join()

    def _fsync_flushed(self) -> None:
        """fsync the open handle; advances the durable watermark to the
        flushed prefix.  Caller holds ``_commit_lock``, which is what keeps
        ``rotate`` / ``close`` from closing the handle under the fsync."""
        with self._lock:
            handle = self._handle
            target = self._flushed_seq
        if handle is None:
            return  # sealed or closed since: whoever did that made it durable
        os.fsync(handle.fileno())
        self.fsync_count += 1
        get_registry().counter("repro_wal_fsyncs_total").inc()
        # ``target`` was the flushed watermark -- a contiguous prefix of the
        # sequence -- when the fsync started, so durability never skips a
        # record: an acked-durable seq implies every earlier seq is durable.
        self._durable_seq = max(self._durable_seq, target)
        pending = self._flushed_seq - self._durable_seq
        get_registry().gauge("repro_wal_pending_records").set(pending)

    def sync(self) -> int:
        """Force everything flushed so far durable; returns the durable seq.

        The explicit drain for ``fsync="batch"`` pending windows (and an
        escape hatch under ``"never"``): unconditionally fsyncs the open
        handle on the calling thread, without waiting for the committer.
        """
        with self._commit_lock:
            self._fsync_flushed()
        return self._durable_seq

    @property
    def durable_seq(self) -> int:
        """Highest sequence number known fsynced (0 under ``fsync="never"``)."""
        return self._durable_seq

    @property
    def flushed_seq(self) -> int:
        """Highest sequence number flushed to the OS by this instance."""
        return self._flushed_seq

    # ------------------------------------------------------------- segments
    def _seal_active(self) -> Path:
        """Publish the (closed, repaired) active file as a segment; under ``_lock``."""
        durable = self.durability.fsync != "never"
        if durable:
            fsync_path(self.path)
            self.fsync_count += 1
            get_registry().counter("repro_wal_fsyncs_total").inc()
            self._durable_seq = max(self._durable_seq, self._flushed_seq)
        segment = self.path.with_name(f"{self.path.name}.{self.last_seq:020d}{_SEGMENT_SUFFIX}")
        os.replace(self.path, segment)
        if durable:
            fsync_dir(self.path.parent)
        self._active_records = 0
        return segment

    def rotate(self) -> Path | None:
        """Seal the active file as an immutable segment; atomic publication.

        The active file is fsynced (unless the policy is ``"never"``),
        atomically renamed to ``<name>.<last_seq:020d>.seg`` and the
        directory fsynced, so a crash leaves either the old active file or
        the published segment.  Returns the segment path, or ``None`` when
        there is nothing to seal; the next append starts a fresh active file.
        """
        with self._commit_lock, self._lock:
            if self._active_records == 0 or not self.path.is_file():
                return None
            if self._handle is None:
                self._repair_tail()  # a torn tail is never sealed in
            else:
                self._handle.close()
                self._handle = None
            return self._seal_active()

    def truncate_through(self, seq: int) -> list[Path]:
        """Garbage-collect log files fully covered by an epoch snapshot.

        Recovery restores the snapshot and replays only records newer than
        its epoch, so this removes every sealed segment whose (name-encoded)
        last sequence is ``<= seq`` -- sealing the active file first when the
        epoch covers *all* of it -- and returns the removed paths.  The live
        instance keeps its :attr:`last_seq` across full GC; a *fresh*
        ``WriteAheadLog`` over a fully-collected log knows no sequence floor,
        which is why :func:`repro.serving.persistence.load_mutable_index`
        re-seeds the attached log's ``last_seq`` from the snapshot epoch.
        """
        seq = int(seq)
        with self._lock:
            covered_active = self._active_records > 0 and self.last_seq <= seq
        if covered_active:
            self.rotate()
        removed = []
        for segment in self._segments():
            if self._segment_last_seq(segment) <= seq:
                segment.unlink(missing_ok=True)
                removed.append(segment)
        if removed:
            fsync_dir(self.path.parent)
        return removed

    # -------------------------------------------------------------- replay
    def replay(self, after_seq: int = 0) -> Iterator[dict]:
        """Yield records with ``seq > after_seq`` in log order, streaming.

        A record is a dict of ``seq``, ``op`` and -- where the op has them
        -- ``ids`` (``int64`` array) and ``vectors`` (``(n, dim)``
        ``float64`` array).  Spans sealed segments (oldest first) then the
        active file, one record in memory at a time.  A torn *final* record
        of the *final* file ends the iteration silently; any other failed
        check, or a sequence that is not strictly increasing, raises
        :class:`WalError`.
        """
        files = self._segments()
        if self.path.is_file():
            files.append(self.path)
        previous_seq = 0
        for path in files:
            read = _json_records if _is_json(path) else _frames
            for record, _ in read(path, torn_ok=path is files[-1]):
                if record["seq"] <= previous_seq:
                    raise WalError(
                        f"non-monotonic WAL sequence in {path} "
                        f"({record['seq']} after {previous_seq})"
                    )
                previous_seq = record["seq"]
                if previous_seq > after_seq:
                    yield record

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the append handle (idempotent); replay still works.

        Unless the policy is ``"never"`` a pending window is drained first --
        at once: the committer's wait is cut short -- so a cleanly closed log
        is durable through its last acknowledged record.
        """
        self._stop_committer()
        with self._commit_lock:
            try:
                if self.durability.fsync != "never":
                    self._fsync_flushed()
            finally:
                with self._lock:
                    if self._handle is not None:
                        self._handle.close()
                        self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Pickle as (path, policy, last_seq): neither the handle nor the
        committer thread ever crosses a process boundary."""
        return {"path": str(self.path), "durability": self.durability, "last_seq": self.last_seq}

    def __setstate__(self, state: dict) -> None:
        self.path = Path(state["path"])
        self.durability = state.get("durability") or DurabilityPolicy()
        self._handle: IO[bytes] | None = None
        self._lock = threading.Lock()
        self._commit_lock = threading.Lock()
        self._committer: threading.Thread | None = None
        self._wake, self._stop = threading.Event(), threading.Event()
        self._durable_seq = 0
        self._flushed_seq = 0
        self.fsync_count = 0
        self.fsync_errors = 0
        self.append_count = 0
        self.tail_repairs = 0
        self.last_seq = int(state["last_seq"])
        self._active_records = 0
        self._valid_bytes = 0
        self._tail = "clean"
        self._legacy = False


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.updates.wal dump <path> [--vectors]``: the log as JSON lines."""
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.updates.wal", description=main.__doc__)
    parser.add_argument("command", choices=["dump"], help="one JSON line per record")
    parser.add_argument("path", help="the active log file (sealed segments are found beside it)")
    parser.add_argument("--vectors", action="store_true", help="print vector values, not shapes")
    args = parser.parse_args(argv)
    try:
        wal = WriteAheadLog(args.path)
        if not wal.path.is_file() and not wal._segments():
            raise WalError(f"no write-ahead log at {wal.path}")
        for record in wal.replay():
            line = {"seq": record["seq"], "op": record["op"]}
            if "ids" in record:
                line["ids"] = record["ids"].tolist()
            if "vectors" in record:
                vectors = record["vectors"]
                line["vectors"] = vectors.tolist() if args.vectors else list(vectors.shape)
            json.dump(line, sys.stdout)
            sys.stdout.write("\n")
    except WalError as exc:
        print(exc, file=sys.stderr)
        return 1
    except BrokenPipeError:  # `... | head`: the reader has seen enough
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = ["FSYNC_MODES", "DurabilityPolicy", "WalError", "WriteAheadLog"]
