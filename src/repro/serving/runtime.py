"""Worker-resident shard runtime: what runs *inside* a serving worker process.

A fan-out that pickles every trained shard into a process on every batch
makes per-batch IPC grow with the corpus instead of the query batch.  This
module is the worker half of the resident architecture (the Megatron-style
"workers own their model state for a process lifetime" shape): each
:class:`ResidentWorker` is one :class:`multiprocessing.Process` running
:func:`serve`, which loads the assigned shard(s) from persisted per-shard
bundles exactly once and then answers requests over one duplex
:func:`multiprocessing.Pipe` until told to stop.  A request is
``(task, args)`` -- e.g. ``("search", (shard_id, queries, k, params))`` --
and a reply is ``(True, value)`` or ``(False, exception)``.  Shard bytes
cross the process boundary at boot (via the filesystem), never per batch.

The worker's state is the loop's locals: the booted shards, its replica id,
the attached shared-memory sets and a boot error that answers every request
with its type.  On the coordinator a reply that never comes -- EOF, a broken
pipe or the process sentinel firing -- is a :class:`WorkerDiedError`; any
other exception is the worker's own, re-raised with its type.

Layering: this module knows nothing about replicas or batching.  Replica
assignment, load balancing and failover live in :mod:`repro.serving.routing`;
the batching front-ends live in :mod:`repro.serving.scheduler` /
:mod:`repro.serving.async_scheduler`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from multiprocessing.connection import wait
from pathlib import Path
from typing import Sequence

from repro.errors import ServingError

#: Residency modes of a worker's shard arrays: ``"copy"`` gives every worker
#: a private copy (the original behaviour), ``"mmap"`` maps the bundle's
#: ``npy``-layout arrays read-only from the page cache, and ``"shm"``
#: attaches coordinator-created shared-memory segments -- both zero-copy
#: modes let N co-resident workers share one physical copy.
RESIDENCY_MODES = ("copy", "mmap", "shm")


class WorkerDiedError(ServingError):
    """A resident worker process died before answering a request."""


def boot_shards(
    bundle_path: str,
    shard_ids: Sequence[int],
    mutable: bool = False,
    residency: str = "copy",
    shm_descriptors: dict | None = None,
) -> tuple[dict, list]:
    """Make the assigned shards resident; returns ``(shards, shm_sets)``.

    Each shard is restored from its per-shard bundle (written by
    :meth:`repro.serving.shard.ShardedJunoIndex.save`).  ``mutable`` boots
    the shard as a :class:`~repro.updates.mutable.MutableJunoIndex` (from a
    mutable bundle), so the worker can apply replicated op payloads in
    addition to serving queries.

    ``residency`` picks how the trained arrays become resident: ``"copy"``
    reads private copies from the bundle, ``"mmap"`` maps the bundle's
    ``npy``-layout arrays read-only, and ``"shm"`` attaches the
    shared-memory segments whose descriptors arrive in ``shm_descriptors``
    (``{shard_id: {name: ShmArrayDescriptor}}``) -- the arrays themselves
    never cross the process boundary.  The returned
    :class:`~repro.serving.shm.ShmArraySet` objects must be kept alive for
    as long as the shards are served, or their views go stale.
    """
    from repro.serving.persistence import (
        index_from_arrays,
        load_index,
        load_mutable_index,
        read_manifest,
        shard_bundle_path,
    )
    from repro.serving.shm import ShmArraySet

    if residency not in RESIDENCY_MODES:
        raise ValueError(f"residency must be one of {RESIDENCY_MODES}")
    root = Path(bundle_path)
    shards: dict[int, object] = {}
    attached: list[ShmArraySet] = []
    for shard_id in shard_ids:
        shard_path = shard_bundle_path(root, shard_id)
        if mutable:
            # Mutable bundles replay WAL tails and mutate state in
            # place; zero-copy residency is validated away upstream.
            index = load_mutable_index(shard_path)
        elif residency == "shm":
            descriptors = (shm_descriptors or {}).get(int(shard_id))
            if descriptors is None:
                raise ValueError(
                    f"shm residency for shard {shard_id} needs its "
                    "shared-memory descriptors"
                )
            shm = ShmArraySet.attach(descriptors)
            attached.append(shm)
            index = index_from_arrays(read_manifest(shard_path, "juno-index"), shm.arrays())
        else:
            index = load_index(shard_path, mmap=residency == "mmap")
        shards[int(shard_id)] = index
    return shards, attached


def _resident_shard(shards: dict, shard_id: int):
    try:
        return shards[int(shard_id)]
    except KeyError:
        raise RuntimeError(
            f"shard {shard_id} is not resident in this worker (resident: {sorted(shards)})"
        ) from None


def _metrics(shards: dict, replica_id: int) -> dict:
    """This worker's registry snapshot, keyed by its incarnation identity.

    The ``(replica_id, pid)`` pair is the aggregation key at the
    coordinator: a respawned replica gets a fresh pid (and a fresh
    zeroed registry), so its snapshots never alias -- or double-count
    against -- the dead incarnation's last snapshot.
    """
    from repro.obs.metrics import get_registry

    return {
        "pid": os.getpid(),
        "replica_id": int(replica_id),
        "snapshot": get_registry().snapshot(),
    }


def _ping(shards: dict, replica_id: int) -> list[int]:
    """The shard ids resident in this worker (readiness probe)."""
    return sorted(shards)


def _search(shards: dict, replica_id: int, shard_id: int, queries, k: int, params: dict):
    """Run one shard's search against worker-resident state.

    The payload carries only the query batch and search knobs; the shard
    itself already lives in this process.  An explicit
    ``params["pipeline"]`` (shipped pickled) overrides the index's default
    pipeline.

    A propagated ``params["trace"]`` context is rebuilt into a worker-side
    :class:`~repro.obs.trace.Trace`: the whole call is wrapped in a
    ``shard_search`` span (tagged shard/replica/pid) whose children are the
    pipeline's stage spans, and the finished spans ride back to the
    coordinator in ``result.extra["trace"]``.  A registry snapshot
    piggybacks on every reply as ``result.extra["worker_metrics"]``.
    """
    index = _resident_shard(shards, shard_id)
    params = dict(params)
    trace_ctx = params.pop("trace", None)
    if trace_ctx is not None:
        from repro.obs.trace import Trace

        worker_trace = Trace.ensure(trace_ctx)
        with worker_trace.span(
            "shard_search",
            shard=int(shard_id),
            replica=int(replica_id),
            pid=os.getpid(),
        ):
            result = index.search(queries, k, trace=worker_trace, **params)
        # Re-export after the wrapping span closed so it ships too.
        result.extra["trace"] = worker_trace.to_dict()
    else:
        result = index.search(queries, k, **params)
    result.extra["worker_metrics"] = _metrics(shards, replica_id)
    return result


def _apply(shards: dict, replica_id: int, shard_id: int, ops: Sequence[dict]) -> dict:
    """Apply replicated mutation payloads to a worker-resident mutable shard.

    ``ops`` is a list of op records shaped like WAL records --
    ``{"op": "upsert", "ids": ..., "vectors": ...}``, ``{"op": "delete",
    "ids": ...}``, ``{"op": "compact"}``, ``{"op": "retrain"}`` -- applied in
    order through the shard's own mutation methods, so every replica of a
    shard that applies the same op stream reaches bit-identical state (the
    ops are deterministic; this is what keeps replicas consistent).  Returns
    a small report the routing layer uses for bookkeeping.
    """
    index = _resident_shard(shards, shard_id)
    if not callable(getattr(index, "upsert", None)):
        raise RuntimeError(
            f"shard {shard_id} is resident but immutable; save a mutable "
            "bundle (ShardedJunoIndex.enable_updates() then save()) to "
            "serve streaming updates"
        )
    for op in ops:
        kind = op["op"]
        if kind == "upsert":
            index.upsert(op["ids"], op["vectors"])
        elif kind == "delete":
            index.delete(op["ids"])
        elif kind == "compact":
            index.compact()
        elif kind == "retrain":
            index.retrain()
        else:
            raise ValueError(f"unknown mutable-index op {kind!r}")
    return {
        "shard_id": int(shard_id),
        "ops_applied": int(index.ops_applied),
        "live": int(index.num_points),
        # Maintenance signals for the coordinator's explicit maybe_compact()
        # scheduling: mutations never compact inline in the worker either.
        "maintenance_due": index.maintenance_due(),
        "auto_compact": bool(index.policy.auto_compact),
        # Buffer sizes feed the coordinator's shard_stats() balance
        # measurement without an extra round trip per shard.
        "delta": int(len(index.delta)),
        "tombstones": int(len(index.tombstones)),
        "worker_metrics": _metrics(shards, replica_id),
    }


def _state_digest(index) -> str:
    """Hex digest of a resident shard's observable state, bit for bit.

    Mutable shards carry their own digest
    (:meth:`~repro.updates.mutable.MutableJunoIndex.state_digest`, covering
    buffer and tombstones too); immutable shards are digested over their
    trained arrays here.  Replicas of one shard that applied the same op
    stream -- or none -- must produce identical digests.
    """
    from repro.updates.mutable import digest_arrays

    own = getattr(index, "state_digest", None)
    if callable(own):
        return own()
    return digest_arrays(
        (("codes", index.codes), ("labels", index.ivf.labels), ("centroids", index.ivf.centroids))
    )


def _state(shards: dict, replica_id: int, shard_id: int) -> dict:
    """Report one resident shard's state fingerprint (consistency probe).

    The recovery layer compares these across a shard's replicas: equal
    digests prove the replicas hold bit-identical state, which is exactly
    the guarantee op-log replay (respawn catch-up) must restore.  Mutable
    shards additionally report their applied-op count, buffer sizes and
    pending maintenance.
    """
    index = _resident_shard(shards, shard_id)
    report = {
        "shard_id": int(shard_id),
        "digest": _state_digest(index),
        "live": int(index.num_points),
    }
    if callable(getattr(index, "maintenance_due", None)):
        report["ops_applied"] = int(index.ops_applied)
        report["maintenance_due"] = index.maintenance_due()
        report["delta"] = int(len(index.delta))
        report["tombstones"] = int(len(index.tombstones))
    return report


def _die(shards: dict, replica_id: int) -> None:
    """Exit without cleanup or reply (failure injection for tests and drills)."""
    os._exit(1)


#: The requests a worker answers, by task name: each is called as
#: ``fn(shards, replica_id, *args)``.
TASKS = {
    "ping": _ping,
    "search": _search,
    "apply": _apply,
    "state": _state,
    "metrics": _metrics,
    "die": _die,
}


def serve(
    conn,
    bundle_path: str,
    shard_ids: Sequence[int],
    mutable: bool = False,
    residency: str = "copy",
    shm_descriptors: dict | None = None,
    replica_id: int = 0,
) -> None:
    """A worker's whole life: boot once, then receive -> dispatch -> send.

    Loops until it receives ``None`` or the coordinator's end of ``conn``
    closes.  A failing boot is *kept* rather than raised, and answers every
    later request with its type, so the coordinator sees the typed error
    instead of a dead worker.  ``replica_id`` is stamped (with the pid) into
    the worker's metrics snapshots and trace spans so coordinator-side
    aggregation can key per-incarnation data.
    """
    from repro.obs.metrics import set_registry

    # A forked worker inherits the coordinator's registry and its counts;
    # its snapshots must count this process's work alone.
    set_registry(None)
    shards: dict = {}
    error = None
    try:
        shards, _shm_sets = boot_shards(bundle_path, shard_ids, mutable, residency, shm_descriptors)
    except Exception as exc:  # noqa: BLE001 - answered typed to every request
        error = exc
    try:
        for task, args in iter(conn.recv, None):
            reply = (False, error)
            if error is None:
                try:
                    reply = (True, TASKS[task](shards, replica_id, *args))
                except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                    reply = (False, exc)
            try:
                conn.send(reply)
            except Exception as exc:  # noqa: BLE001 - an unpicklable value or error
                conn.send((False, RuntimeError(f"{task} reply could not be sent: {exc!r}")))
    except EOFError:
        pass  # the coordinator is gone


class ResidentWorker:
    """One worker process owning one replica of one (or more) shard(s).

    A :class:`multiprocessing.Process` running :func:`serve` over one duplex
    pipe.  :meth:`send` writes a request and returns this worker as the
    reply handle; :meth:`result` reads that request's reply.  The worker's
    lock is held from the send until the reply is read, so concurrent
    callers never read each other's replies; a caller that locks several
    workers must take them in one global order (the routing layer uses
    ``(shard, replica)``).  When a reply cannot come (EOF, a broken pipe or
    the process exited) the worker is closed and :class:`WorkerDiedError`
    is raised; ``alive`` then stays ``False``.

    Args:
        bundle_path: root of the sharded deployment bundle (the directory
            :meth:`ShardedJunoIndex.save` produced).
        shard_ids: shards this worker hosts (usually exactly one).
        replica_id: which replica of those shards this worker is.
        mutable: boot the shards as mutable indexes (from mutable bundles)
            so the worker accepts replicated op payloads.
        residency: how the worker makes shard arrays resident (one of
            :data:`RESIDENCY_MODES`).
        shm_descriptors: per-shard shared-memory descriptors
            (``{shard_id: {name: ShmArrayDescriptor}}``) when ``residency``
            is ``"shm"``; the coordinator owns the segments.

    Attributes:
        boot_payload_bytes: pickled size of the boot arguments --
            everything that crosses the process boundary to boot this
            worker.  With zero-copy residency this stays flat as the corpus
            grows (descriptors, not arrays, are shipped), which the
            residency tests pin as a regression guard.
    """

    def __init__(
        self,
        bundle_path: str | Path,
        shard_ids: Sequence[int],
        replica_id: int = 0,
        mutable: bool = False,
        residency: str = "copy",
        shm_descriptors: dict | None = None,
    ) -> None:
        self.shard_ids = tuple(int(s) for s in shard_ids)
        self.replica_id = int(replica_id)
        self.alive = True
        bootargs = (
            str(bundle_path),
            self.shard_ids,
            bool(mutable),
            str(residency),
            shm_descriptors,
            self.replica_id,
        )
        self.boot_payload_bytes = len(pickle.dumps(bootargs))
        self._lock = threading.Lock()
        self._send_error: BaseException | None = None
        self._conn, child = multiprocessing.Pipe()
        self._process = multiprocessing.Process(target=serve, args=(child, *bootargs), daemon=True)
        self._process.start()
        child.close()

    def send(self, task: str, *args) -> "ResidentWorker":
        """Send one request; returns this worker, whose :meth:`result` reads the reply.

        Blocks while another caller's request to this worker is unanswered.
        Never raises: a failed send is raised by :meth:`result`, so a caller
        that sent to several workers can always read every reply.
        """
        self._lock.acquire()
        try:
            self._conn.send((task, args))
        except BaseException as exc:  # noqa: BLE001 - raised by result()
            self._send_error = exc
        return self

    def result(self):
        """Read the reply to the last :meth:`send` and release the lock.

        Returns the worker's value or re-raises its exception with its
        type; raises :class:`WorkerDiedError` when the worker died first.
        """
        error, self._send_error = self._send_error, None
        try:
            if error is not None and not isinstance(error, OSError):
                raise error  # nothing was written, e.g. an unpicklable request
            try:
                if error is not None or self._conn not in wait(
                    [self._conn, self._process.sentinel]
                ):
                    raise EOFError("worker process exited") from error
                ok, value = self._conn.recv()
            except (EOFError, OSError) as exc:
                self._stop()
                raise WorkerDiedError(
                    f"worker for shards {self.shard_ids} (replica {self.replica_id}) died"
                ) from exc
            except BaseException:
                # Interrupted with a reply still owed: the pipe is out of step
                # with its requests, so this worker can serve no other caller.
                self._process.kill()
                self._stop()
                raise
        finally:
            self._lock.release()
        if not ok:
            raise value
        return value

    def call(self, task: str, *args):
        """One request and its reply (see :data:`TASKS` for the tasks)."""
        return self.send(task, *args).result()

    def pids(self) -> list[int]:
        """OS pid of the worker process, for RSS probes."""
        return [self._process.pid]

    def close(self) -> None:
        """Stop the worker process and wait for it to exit (idempotent).

        Waits for an unanswered request's reply first.
        """
        self.alive = False
        with self._lock:
            self._stop()

    def _stop(self) -> None:
        """Stop and reap the process; the caller holds the lock.

        The stop is an explicit message: a sibling worker forked later holds
        a copy of this pipe's coordinator end, so closing it alone would not
        reach EOF.
        """
        self.alive = False
        if not self._conn.closed:
            try:
                self._conn.send(None)
            except OSError:
                pass  # already dead
            self._conn.close()
        self._process.join()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"ResidentWorker(shards={self.shard_ids}, replica={self.replica_id}, {state})"
