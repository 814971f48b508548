"""Worker-resident shard runtime: what runs *inside* a serving worker process.

The original process-pool fan-out re-pickled every trained shard into the
pool on every batch, so per-batch IPC grew with the corpus instead of the
query batch.  This module is the worker half of the resident architecture
(the Megatron-style "workers own their model state for a process lifetime"
shape): a pool worker is booted with an initializer that loads its assigned
shard(s) from persisted per-shard bundles exactly once, keeps them in
process-global state, and from then on receives only
``(shard_id, queries, k, params)`` payloads.  Shard bytes cross the process
boundary at pool init (via the filesystem), never per batch.

Layering: this module knows nothing about replicas or batching.  Replica
assignment, load balancing and failover live in :mod:`repro.serving.routing`;
the batching front-ends live in :mod:`repro.serving.scheduler` /
:mod:`repro.serving.async_scheduler`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

#: Residency modes of a worker's shard arrays: ``"copy"`` gives every worker
#: a private copy (the original behaviour), ``"mmap"`` maps the bundle's
#: ``npy``-layout arrays read-only from the page cache, and ``"shm"``
#: attaches coordinator-created shared-memory segments -- both zero-copy
#: modes let N co-resident workers share one physical copy.
RESIDENCY_MODES = ("copy", "mmap", "shm")

#: Process-global state of a resident worker, populated by
#: :func:`resident_worker_init` when the pool boots the process.  Maps
#: ``shard_id -> JunoIndex`` (or its mutable wrapper); the ``"__error__"`` key
#: holds an initializer failure so tasks can re-raise it as a typed error
#: instead of breaking the pool, and ``"__shm__"`` retains the attached
#: :class:`~repro.serving.shm.ShmArraySet` objects so their views stay valid
#: for the worker's lifetime.
_RESIDENT_SHARDS: dict = {}


def resident_worker_init(
    bundle_path: str,
    shard_ids: Sequence[int],
    mutable: bool = False,
    residency: str = "copy",
    shm_descriptors: dict | None = None,
    replica_id: int = 0,
    piggyback_metrics: bool = True,
) -> None:
    """Pool initializer: make the assigned shards resident, once.

    Runs inside the freshly started worker process.  Each shard is restored
    from its per-shard bundle (written by
    :meth:`repro.serving.shard.ShardedJunoIndex.save`).  ``mutable`` boots
    the shard as a :class:`~repro.updates.mutable.MutableJunoIndex` (from a
    mutable bundle), so the worker can apply replicated op payloads
    (:func:`resident_apply_task`) in addition to serving queries.

    ``residency`` picks how the trained arrays become resident: ``"copy"``
    reads private copies from the bundle, ``"mmap"`` maps the bundle's
    ``npy``-layout arrays read-only, and ``"shm"`` attaches the
    shared-memory segments whose descriptors arrive in ``shm_descriptors``
    (``{shard_id: {name: ShmArrayDescriptor}}``) -- the arrays themselves
    never cross the process boundary.

    ``replica_id`` identifies which replica of its shards this worker is;
    it is stamped (with the pid) into the worker's metrics snapshots and
    trace spans so coordinator-side aggregation can key per-incarnation
    data.  ``piggyback_metrics=False`` stops search/apply replies from
    carrying registry snapshots (the explicit metrics task still works).

    A failing load is *recorded* rather than raised: an initializer exception
    would break the whole pool with an untyped
    :class:`~concurrent.futures.process.BrokenProcessPool`; instead every
    subsequent task re-raises the stored (typed) error.
    """
    from repro.serving.persistence import (
        index_from_arrays,
        load_index,
        load_mutable_index,
        read_manifest,
        shard_bundle_path,
    )
    from repro.obs.metrics import set_registry
    from repro.serving.shm import ShmArraySet

    # A forked worker inherits the coordinator's registry and its counts;
    # its snapshots must count this process's work alone.
    set_registry(None)
    _RESIDENT_SHARDS.clear()
    _RESIDENT_SHARDS["__meta__"] = {
        "replica_id": int(replica_id),
        "piggyback_metrics": bool(piggyback_metrics),
    }
    try:
        if residency not in RESIDENCY_MODES:
            raise ValueError(f"residency must be one of {RESIDENCY_MODES}")
        root = Path(bundle_path)
        attached: dict[int, ShmArraySet] = {}
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
                attached[int(shard_id)] = shm
                index = index_from_arrays(
                    read_manifest(shard_path, "juno-index"), shm.arrays()
                )
            else:
                index = load_index(shard_path, mmap=residency == "mmap")
            _RESIDENT_SHARDS[int(shard_id)] = index
        if attached:
            _RESIDENT_SHARDS["__shm__"] = attached
    except Exception as exc:  # noqa: BLE001 - re-raised typed by every task
        _RESIDENT_SHARDS["__error__"] = exc


def _check_worker_ready() -> None:
    error = _RESIDENT_SHARDS.get("__error__")
    if error is not None:
        raise error


def _worker_meta() -> dict:
    return _RESIDENT_SHARDS.get("__meta__", {})


def _worker_metrics_payload() -> dict:
    """This worker's registry snapshot, keyed by its incarnation identity.

    The ``(replica_id, pid)`` pair is the aggregation key at the
    coordinator: a respawned replica gets a fresh pid (and a fresh
    zeroed registry), so its snapshots never alias -- or double-count
    against -- the dead incarnation's last snapshot.
    """
    from repro.obs.metrics import get_registry

    return {
        "pid": os.getpid(),
        "replica_id": int(_worker_meta().get("replica_id", -1)),
        "snapshot": get_registry().snapshot(),
    }


def resident_metrics_task() -> dict:
    """Report this worker's registry snapshot (explicit collection op)."""
    _check_worker_ready()
    return _worker_metrics_payload()


def resident_ping_task() -> list[int]:
    """Report the shard ids resident in this worker (readiness probe).

    The routing layer submits this right after constructing a worker so a
    bad bundle fails fast with the initializer's typed error instead of
    surfacing on the first live batch -- and so the shard bundles are
    demonstrably loaded *before* any query payload is shipped.
    """
    _check_worker_ready()
    return sorted(sid for sid in _RESIDENT_SHARDS if isinstance(sid, int))


def resident_search_task(shard_id: int, queries, k: int, params: dict):
    """Run one shard's search against worker-resident state.

    The payload carries only the query batch and search knobs; the shard
    itself already lives in this process.  An explicit
    ``params["pipeline"]`` (shipped pickled, like the non-resident executors)
    overrides the index's default pipeline.

    A propagated ``params["trace"]`` context is rebuilt into a worker-side
    :class:`~repro.obs.trace.Trace`: the whole call is wrapped in a
    ``shard_search`` span (tagged shard/replica/pid) whose children are the
    pipeline's stage spans, and the finished spans ride back to the
    coordinator in ``result.extra["trace"]``.  Unless disabled at boot, a
    registry snapshot piggybacks on the reply as
    ``result.extra["worker_metrics"]``.
    """
    _check_worker_ready()
    try:
        index = _RESIDENT_SHARDS[int(shard_id)]
    except KeyError:
        raise RuntimeError(
            f"shard {shard_id} is not resident in this worker "
            f"(resident: {sorted(s for s in _RESIDENT_SHARDS if isinstance(s, int))})"
        ) from None
    params = dict(params)
    trace_ctx = params.pop("trace", None)
    if trace_ctx is not None:
        from repro.obs.trace import Trace

        worker_trace = Trace.ensure(trace_ctx)
        with worker_trace.span(
            "shard_search",
            shard=int(shard_id),
            replica=int(_worker_meta().get("replica_id", -1)),
            pid=os.getpid(),
        ):
            result = index.search(queries, k, trace=worker_trace, **params)
        # Re-export after the wrapping span closed so it ships too.
        result.extra["trace"] = worker_trace.to_dict()
    else:
        result = index.search(queries, k, **params)
    if _worker_meta().get("piggyback_metrics", True):
        result.extra["worker_metrics"] = _worker_metrics_payload()
    return result


def resident_apply_task(shard_id: int, ops: Sequence[dict]) -> dict:
    """Apply replicated mutation payloads to a worker-resident mutable shard.

    ``ops`` is a list of op records shaped like WAL records --
    ``{"op": "upsert", "ids": ..., "vectors": ...}``, ``{"op": "delete",
    "ids": ...}``, ``{"op": "compact"}``, ``{"op": "retrain"}`` -- applied in
    order through the shard's own mutation methods, so every replica of a
    shard that applies the same op stream reaches bit-identical state (the
    ops are deterministic; this is what keeps replicas consistent).  Returns
    a small report the routing layer uses for bookkeeping.
    """
    _check_worker_ready()
    try:
        index = _RESIDENT_SHARDS[int(shard_id)]
    except KeyError:
        raise RuntimeError(
            f"shard {shard_id} is not resident in this worker "
            f"(resident: {sorted(s for s in _RESIDENT_SHARDS if isinstance(s, int))})"
        ) from None
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
    report = {
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
    }
    if _worker_meta().get("piggyback_metrics", True):
        report["worker_metrics"] = _worker_metrics_payload()
    return report


def _state_digest(index) -> str:
    """Hex digest of a resident shard's observable state, bit for bit.

    Mutable shards carry their own digest
    (:meth:`~repro.updates.mutable.MutableJunoIndex.state_digest`, covering
    buffer and tombstones too); immutable shards are digested over their
    trained arrays here.  Replicas of one shard that applied the same op
    stream -- or none -- must produce identical digests.
    """
    own = getattr(index, "state_digest", None)
    if callable(own):
        return own()
    digest = hashlib.blake2b(digest_size=16)
    for name, array in (
        ("codes", index.codes),
        ("labels", index.ivf.labels),
        ("centroids", index.ivf.centroids),
    ):
        array = np.ascontiguousarray(np.asarray(array))
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def resident_state_task(shard_id: int) -> dict:
    """Report one resident shard's state fingerprint (consistency probe).

    The recovery layer compares these across a shard's replicas: equal
    digests prove the replicas hold bit-identical state, which is exactly
    the guarantee op-log replay (respawn catch-up) must restore.  Mutable
    shards additionally report their applied-op count, buffer sizes and
    pending maintenance.
    """
    _check_worker_ready()
    try:
        index = _RESIDENT_SHARDS[int(shard_id)]
    except KeyError:
        raise RuntimeError(
            f"shard {shard_id} is not resident in this worker "
            f"(resident: {sorted(s for s in _RESIDENT_SHARDS if isinstance(s, int))})"
        ) from None
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


def resident_die_task() -> None:
    """Kill the worker process without cleanup (failure injection).

    Exists so tests (and chaos drills) can simulate a worker crash: the
    worker exits hard mid-task, the owning pool breaks, and the routing
    layer must fail the batch over to a surviving replica.
    """
    os._exit(1)


class ResidentWorker:
    """One worker process owning one replica of one (or more) shard(s).

    A thin handle over a single-process :class:`ProcessPoolExecutor` whose
    initializer loads ``shard_ids`` from ``bundle_path``.  The handle tracks
    liveness: once the underlying pool breaks (worker death), the routing
    layer marks the replica dead and stops scheduling onto it.

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
        piggyback_metrics: have search/apply replies carry the worker's
            registry snapshot (see :func:`resident_worker_init`).

    Attributes:
        boot_payload_bytes: pickled size of the initializer arguments --
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
        piggyback_metrics: bool = True,
    ) -> None:
        self.bundle_path = str(bundle_path)
        self.shard_ids = tuple(int(s) for s in shard_ids)
        self.replica_id = int(replica_id)
        self.mutable = bool(mutable)
        self.residency = str(residency)
        self.piggyback_metrics = bool(piggyback_metrics)
        self.alive = True
        initargs = (
            self.bundle_path,
            self.shard_ids,
            self.mutable,
            self.residency,
            shm_descriptors,
            self.replica_id,
            self.piggyback_metrics,
        )
        self.boot_payload_bytes = len(pickle.dumps(initargs))
        self._pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=resident_worker_init,
            initargs=initargs,
        )

    def submit_ping(self) -> Future:
        """Queue a readiness probe (spawns the worker process if needed)."""
        return self._pool.submit(resident_ping_task)

    def ping(self) -> list[int]:
        """Block until the worker booted; returns its resident shard ids."""
        return self.submit_ping().result()

    def pids(self) -> list[int]:
        """OS pids of the worker's spawned process(es), for RSS probes."""
        return [proc.pid for proc in (self._pool._processes or {}).values()]

    def submit_search(self, shard_id: int, queries, k: int, params: dict) -> Future:
        """Queue one shard search on this worker (query-only payload)."""
        return self._pool.submit(resident_search_task, shard_id, queries, k, params)

    def submit_apply(self, shard_id: int, ops: Sequence[dict]) -> Future:
        """Queue a mutation-op payload on this worker (replication path)."""
        return self._pool.submit(resident_apply_task, shard_id, ops)

    def submit_state(self, shard_id: int) -> Future:
        """Queue a state-fingerprint probe (replica-consistency checks)."""
        return self._pool.submit(resident_state_task, shard_id)

    def submit_metrics(self) -> Future:
        """Queue an explicit registry-snapshot collection on this worker."""
        return self._pool.submit(resident_metrics_task)

    def submit_die(self) -> Future:
        """Queue a hard crash (failure injection); breaks the pool."""
        return self._pool.submit(resident_die_task)

    def mark_dead(self) -> None:
        """Record that the worker process died; the pool is unusable."""
        self.alive = False

    def close(self) -> None:
        """Shut the worker's pool down (idempotent; safe on broken pools)."""
        self.alive = False
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"ResidentWorker(shards={self.shard_ids}, replica={self.replica_id}, {state})"
