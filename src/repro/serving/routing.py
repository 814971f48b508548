"""Replicated shard routing for the worker-resident runtime.

This is the middle layer of the serving stack: above it sit the batching
front-ends (:mod:`repro.serving.scheduler` and
:mod:`repro.serving.async_scheduler`) and the
:class:`~repro.serving.shard.ShardedJunoIndex` router that k-way merges
per-shard results; below it sit the worker processes of
:mod:`repro.serving.runtime`, each owning its shard state for the life of
the process.

:class:`ResidentProcessShardExecutor` implements the
:class:`~repro.serving.executors.ShardExecutor` fan-out interface on top of
a replica table: every shard is hosted by ``num_replicas`` independent
worker processes, batches go round-robin over the live replicas, and when a
worker dies mid-batch (its pipe reaches EOF or its process exits) the batch
is transparently retried on a surviving replica.  Per-batch IPC is
query-only -- a payload is ``(shard_id, queries, k, params)`` -- so its
pickled size is independent of the corpus; shard bytes reach the workers
through the per-shard bundles on disk, at boot.  Mutable deployments
additionally broadcast op payloads to every live replica of the owning shard
(:meth:`apply_ops` -- the replicated op log), keeping replicas bit-identical
under streaming updates.

Every operation that talks to several workers goes in rounds
(:meth:`ResidentProcessShardExecutor._round`): send to each target in
``(shard, replica)`` order, then read every reply.  A worker's lock is held
from its send until its reply is read, and every thread takes those locks in
that one order and releases them all before the next round, so concurrent
callers (a search beside a compaction thread's ``apply_ops``) cannot
deadlock.  Shards whose worker died are retried in a fresh round on another
replica.
"""

from __future__ import annotations

import logging
import pickle
import threading
from pathlib import Path

from repro.errors import RecoveryError, ServingError
from repro.obs.log import event as log_event
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry, merge_snapshots
from repro.serving.executors import ShardExecutor
from repro.serving.runtime import RESIDENCY_MODES, ResidentWorker, WorkerDiedError
from repro.serving.shm import ShmArraySet

_log = get_logger("serving.routing")


class WorkerFailoverError(ServingError):
    """A shard's batch could not be completed on any replica."""


class _ReplicaSet:
    """The live replicas of one shard plus its round-robin cursor."""

    def __init__(self, shard_id: int, workers: list[ResidentWorker]) -> None:
        self.shard_id = int(shard_id)
        self.workers = list(workers)
        self._cursor = 0

    def alive(self) -> list[ResidentWorker]:
        return [worker for worker in self.workers if worker.alive]

    def pick(self, exclude: set[int] | None = None) -> ResidentWorker:
        """Next live replica in round-robin order, skipping ``exclude``."""
        exclude = exclude or set()
        candidates = [w for w in self.alive() if w.replica_id not in exclude]
        if not candidates:
            raise WorkerFailoverError(
                f"no surviving replica can serve shard {self.shard_id} "
                f"({len(self.workers)} configured, {len(self.alive())} alive, "
                f"{sorted(exclude)} excluded for this batch)"
            )
        worker = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return worker


class ResidentProcessShardExecutor(ShardExecutor):
    """Process fan-out over worker-resident shards with replicated routing.

    Args:
        bundle_path: directory written by
            :meth:`~repro.serving.shard.ShardedJunoIndex.save`; each worker
            loads its shard from the per-shard bundle inside it.
        num_shards: shard count; read from the bundle's ``manifest.json``
            when omitted.
        num_replicas: worker processes hosting *each* shard.  ``R > 1`` buys
            failover (a dying worker's batches retry on a sibling) and
            load-balancing headroom at the cost of ``R`` resident copies.
        warm: ping every worker at construction so a bad bundle raises its
            typed error immediately (and shard loading provably happens at
            boot, not on the first live batch).
        mutable: boot the workers from mutable per-shard bundles
            (:mod:`repro.updates`); :meth:`apply_ops` then broadcasts
            mutation payloads to every live replica of the owning shard.
        residency: how workers make shard arrays resident.  ``"copy"``
            (default) gives every worker a private copy; ``"mmap"`` maps the
            bundle's ``npy``-layout arrays read-only from the page cache;
            ``"shm"`` materialises each shard's arrays exactly once into
            executor-owned POSIX shared memory and ships only descriptors to
            the workers -- with either zero-copy mode, N replicas of a shard
            share one physical copy of its trained arrays.  Zero-copy modes
            require an immutable deployment: mutable shards replay WAL tails
            and mutate state in place, which cannot alias a shared mapping.

    Attributes:
        last_batch_payload_bytes: summed pickled size of the last fan-out's
            payloads -- the regression-tested IPC observable.  Stays flat as
            the corpus grows because payloads carry queries, never shards.
        retried_batches: shard batches that were re-routed to a surviving
            replica after a worker death.
        ops_broadcast: mutation payloads broadcast via :meth:`apply_ops`.
        replicas_respawned: dead replicas rebooted via
            :meth:`respawn_replica` (or the elasticity entry points).
        ops_replayed: op records replayed into freshly booted workers to
            catch their mutable state up before re-admission.
    """

    kind = "resident"
    resident = True

    def __init__(
        self,
        bundle_path: str | Path,
        num_shards: int | None = None,
        num_replicas: int = 1,
        warm: bool = True,
        mutable: bool = False,
        residency: str = "copy",
    ) -> None:
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if residency not in RESIDENCY_MODES:
            raise ValueError(
                f"residency must be one of {RESIDENCY_MODES}, got {residency!r}"
            )
        if mutable and residency != "copy":
            raise ValueError(
                "zero-copy residency (mmap/shm) requires an immutable deployment; "
                "mutable shards replay WAL tails and mutate state in place"
            )
        self.bundle_path = Path(bundle_path)
        if num_shards is None:
            from repro.serving.persistence import read_manifest
            from repro.serving.shard import SHARDED_KIND

            num_shards = int(read_manifest(self.bundle_path, SHARDED_KIND)["num_shards"])
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = int(num_shards)
        self.num_replicas = int(num_replicas)
        self.mutable = bool(mutable)
        self.residency = str(residency)
        self.last_batch_payload_bytes = 0
        self.retried_batches = 0
        self.ops_broadcast = 0
        self.replicas_respawned = 0
        self.ops_replayed = 0
        self._op_logs: dict[int, list[dict]] = {}
        # Per-incarnation worker registry snapshots, keyed by
        # (shard_id, replica_id, pid).  A respawned replica arrives under a
        # fresh pid with a zeroed registry, so the dead incarnation's last
        # snapshot keeps counting in the merged view exactly once -- the
        # aggregate stays monotonic with no double-counting across failover.
        self._metrics_lock = threading.Lock()
        self._worker_snapshots: dict[tuple[int, int, int], dict] = {}
        # Serialises op broadcasts across threads: a writer thread and a
        # background CompactionWorker submitting concurrently could reach
        # replicas in different interleavings, and identical op *order* per
        # replica is what keeps their states bit-identical.
        self._apply_lock = threading.Lock()
        self._injected_failures: set[tuple[int, int]] = set()
        self._closed = False
        self._replica_sets: list[_ReplicaSet] = []
        self._shm_sets: dict[int, ShmArraySet] = {}
        try:
            if self.residency == "shm":
                self._create_shm_sets()
            self._replica_sets = [
                _ReplicaSet(
                    shard_id,
                    [
                        self._make_worker(shard_id, replica)
                        for replica in range(self.num_replicas)
                    ],
                )
                for shard_id in range(self.num_shards)
            ]
            if warm:
                self.warm()
        except BaseException:
            # A failed boot (bad bundle, dead interpreter) must not leak the
            # worker processes already spawned for earlier shards/replicas, nor
            # the shared-memory segments already materialised.
            self.close()
            raise

    def _create_shm_sets(self) -> None:
        """Materialise every shard's arrays into executor-owned shared memory.

        One :class:`~repro.serving.shm.ShmArraySet` per shard, loaded
        straight from the per-shard bundle -- the single physical copy all
        of that shard's replicas attach to.  The executor is the owner: the
        segments are unlinked in :meth:`close`.
        """
        from repro.serving.persistence import (
            read_bundle_arrays,
            read_manifest,
            shard_bundle_path,
        )

        for shard_id in range(self.num_shards):
            bundle = shard_bundle_path(self.bundle_path, shard_id)
            manifest = read_manifest(bundle, "juno-index")
            arrays = read_bundle_arrays(bundle, manifest)
            self._shm_sets[shard_id] = ShmArraySet.create(
                arrays, prefix=f"repro-s{shard_id}"
            )

    def _make_worker(self, shard_id: int, replica_id: int) -> ResidentWorker:
        """Boot one worker with this executor's residency settings."""
        shm_set = self._shm_sets.get(shard_id)
        return ResidentWorker(
            self.bundle_path,
            (shard_id,),
            replica_id=replica_id,
            mutable=self.mutable,
            residency=self.residency,
            shm_descriptors=(
                {shard_id: shm_set.descriptors} if shm_set is not None else None
            ),
        )

    def boot_payload_bytes(self) -> int:
        """Summed pickled boot arguments of every configured worker.

        The boot-time IPC observable, the counterpart of
        :attr:`last_batch_payload_bytes`: with zero-copy residency the
        payloads carry bundle paths and shm descriptors instead of arrays,
        so this stays flat as the corpus grows (regression-tested).
        """
        return sum(
            worker.boot_payload_bytes
            for replica_set in self._replica_sets
            for worker in replica_set.workers
        )

    def resident_bytes(self) -> int:
        """Bytes of trained-array state held in executor-owned shared memory.

        Zero unless ``residency == "shm"``; one physical copy per shard
        regardless of the replica count.
        """
        return sum(shm.total_bytes for shm in self._shm_sets.values())

    def worker_pids(self) -> dict[tuple[int, int], int]:
        """``(shard_id, replica_id) -> pid`` of every live worker process.

        Used by the boot-residency benchmark to probe per-worker RSS from
        ``/proc``.
        """
        return {
            (worker.shard_ids[0], worker.replica_id): pid
            for worker in self._alive_workers()
            for pid in worker.pids()
        }

    def _alive_workers(self) -> list[ResidentWorker]:
        """Every live worker, in ``(shard, replica)`` order."""
        return [worker for replica_set in self._replica_sets for worker in replica_set.alive()]

    def _round(self, calls: list) -> dict:
        """Send every ``(worker, task, args)`` call, then read every reply.

        ``calls`` must be in ``(shard, replica)`` order, the one order in
        which every thread takes worker locks; each lock is released as its
        reply is read, so rounds cannot deadlock.  Returns ``{worker:
        value}`` for the workers that answered -- a worker that died is
        closed and left out -- and raises the first worker-side exception
        once every reply has been read.
        """
        sent = [worker.send(task, *args) for worker, task, args in calls]
        replies, error = {}, None
        for worker in sent:
            try:
                replies[worker] = worker.result()
            except WorkerDiedError:
                pass
            except BaseException as exc:  # noqa: BLE001 - raised after the round
                error = error or exc
        if error is not None:
            raise error
        return replies

    def _call_or_die(self, shard_id: int, worker: ResidentWorker, task: str, args: tuple):
        """The round call for one worker, or its crash when one was injected."""
        for key in ((shard_id, worker.replica_id), (shard_id, -1)):
            if key in self._injected_failures:
                self._injected_failures.discard(key)
                return worker, "die", ()
        return worker, task, args

    # ---------------------------------------------------------------- lifecycle
    def warm(self) -> None:
        """Boot every worker and verify its shard loaded (fail fast).

        The worker processes boot concurrently and one round pings them all,
        so startup costs one bundle load, not ``num_shards * num_replicas``.
        """
        workers = self._alive_workers()
        replies = self._round([(worker, "ping", ()) for worker in workers])
        for worker in workers:
            if replies.get(worker) != list(worker.shard_ids):
                raise WorkerFailoverError(
                    f"worker for shard {worker.shard_ids} died or reports "
                    f"shards {replies.get(worker)} at boot"
                )

    def alive_replicas(self, shard_id: int) -> list[int]:
        """Replica ids currently able to serve ``shard_id`` (diagnostics)."""
        return [w.replica_id for w in self._replica_sets[shard_id].alive()]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ResidentProcessShardExecutor is closed")

    def _replicas(self, shard_id: int) -> _ReplicaSet:
        """One shard's replica set; refuses a closed executor or an unknown shard."""
        self._check_open()
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"shard_id must be in [0, {self.num_shards})")
        return self._replica_sets[shard_id]

    def _slot(self, shard_id: int, replica_id: int) -> int:
        """Index of one replica in its shard's worker list."""
        workers = self._replicas(shard_id).workers
        for slot, worker in enumerate(workers):
            if worker.replica_id == replica_id:
                return slot
        raise ValueError(
            f"shard {shard_id} has no replica {replica_id} "
            f"(configured: {[w.replica_id for w in workers]})"
        )

    def close(self) -> None:
        """Shut every worker down and unlink owned shared memory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for replica_set in self._replica_sets:
            for worker in replica_set.workers:
                worker.close()
        # Workers have detached by now; destroying the segments last means no
        # live worker ever observes its resident arrays disappearing.
        for shm in self._shm_sets.values():
            shm.unlink()
        self._shm_sets = {}

    # ------------------------------------------------------------- fault inject
    def inject_failure(self, shard_id: int, replica_id: int | None = None) -> None:
        """Arrange for a worker to crash when the next batch reaches it.

        The test/chaos hook behind the failover guarantee: the poisoned
        worker dies *mid-fan-out* of a live batch, which must then complete
        (bit-identically) on a surviving replica.  ``replica_id=None``
        poisons whichever replica the router picks next.
        """
        self._replicas(shard_id)
        self._injected_failures.add((int(shard_id), -1 if replica_id is None else int(replica_id)))

    # ----------------------------------------------------------------- fan-out
    def search_shards(self, shards, queries, k: int, params: dict) -> list:
        """Fan one query batch out to every shard's resident workers.

        ``shards`` is accepted for interface compatibility but only its
        length is used -- the shard state lives in the workers.  Payloads are
        query-only; their summed pickled size is recorded in
        :attr:`last_batch_payload_bytes`.  Each round sends every pending
        shard to one live replica; shards whose worker died are retired and
        retried in the next round on another replica.
        """
        self._check_open()
        if len(shards) != self.num_shards:
            raise ValueError(
                f"router has {len(shards)} shards but the resident runtime was "
                f"built for {self.num_shards}"
            )
        # IPC observable: payloads are identical across shards except for the
        # small-int shard id, so pickling one and scaling keeps the metric
        # exact without re-serialising the batch once per shard.
        self.last_batch_payload_bytes = self.num_shards * len(
            pickle.dumps((0, queries, k, params))
        )
        results: dict[int, object] = {}
        excluded: dict[int, set[int]] = {shard_id: set() for shard_id in range(self.num_shards)}
        pending = list(range(self.num_shards))
        while pending:
            targets = [
                (shard_id, self._replica_sets[shard_id].pick(excluded[shard_id]))
                for shard_id in pending
            ]
            replies = self._round(
                [
                    self._call_or_die(shard_id, worker, "search", (shard_id, queries, k, params))
                    for shard_id, worker in targets
                ]
            )
            pending = []
            for shard_id, worker in targets:
                if worker in replies:
                    result = replies[worker]
                    self._ingest_worker_metrics(shard_id, result.extra.pop("worker_metrics"))
                    results[shard_id] = result
                else:
                    self._retire(worker)
                    excluded[shard_id].add(worker.replica_id)
                    pending.append(shard_id)
        return [results[shard_id] for shard_id in range(self.num_shards)]

    def _retire(self, worker: ResidentWorker) -> None:
        """Count and log a batch re-routed away from a dead worker."""
        self.retried_batches += 1
        get_registry().counter("repro_failover_retries_total").inc()
        log_event(
            _log,
            logging.WARNING,
            "replica_failover",
            shards=",".join(str(s) for s in worker.shard_ids),
            replica=worker.replica_id,
        )

    # ----------------------------------------------------------- observability
    def _ingest_worker_metrics(self, shard_id: int, payload: dict) -> None:
        """Store one worker incarnation's registry snapshot (latest wins).

        Snapshots are cumulative per process, so replacing the previous one
        from the same ``(shard, replica, pid)`` keeps the merged aggregate
        monotonic; a respawned replica's fresh pid opens a new key instead
        of overwriting the dead incarnation's final counts.
        """
        key = (int(shard_id), int(payload["replica_id"]), int(payload["pid"]))
        with self._metrics_lock:
            self._worker_snapshots[key] = payload["snapshot"]

    def worker_snapshots(self) -> dict:
        """The stored per-incarnation snapshots, keyed ``(shard, replica, pid)``."""
        with self._metrics_lock:
            return dict(self._worker_snapshots)

    def worker_metrics(self) -> dict:
        """Merged view of every worker snapshot seen so far (incl. dead ones)."""
        with self._metrics_lock:
            snapshots = list(self._worker_snapshots.values())
        return merge_snapshots(snapshots)

    def collect_metrics(self) -> dict:
        """Explicitly snapshot every live worker, then return the merged view.

        The pull half of cross-process aggregation (the push half is the
        piggybacked snapshot on task replies): one round of metrics
        requests to every live worker.  Workers found dead under the probe
        are closed and skipped.  The returned dict merges every incarnation
        ever seen -- dead replicas' final snapshots included -- so totals
        never move backwards.
        """
        self._check_open()
        replies = self._round([(worker, "metrics", ()) for worker in self._alive_workers()])
        for worker, payload in replies.items():
            self._ingest_worker_metrics(worker.shard_ids[0], payload)
        return self.worker_metrics()

    # ---------------------------------------------------------------- mutation
    def apply_ops(self, shard_id: int, ops: list) -> dict:
        """Broadcast mutation payloads to every live replica of one shard.

        The replicated op log: each op reaches *all* surviving replicas (the
        ops are deterministic, so replicas that applied the same stream hold
        bit-identical state), is retained in :meth:`op_log` for diagnostics
        and future replica respawn, and follows the same failover semantics
        as queries -- a replica that dies mid-apply is retired, and the op
        succeeds as long as at least one replica applied it.

        Returns the last surviving replica's report (``live`` point count,
        ``ops_applied``, buffer sizes and pending maintenance).

        Thread-safe: broadcasts are serialised under an internal lock, so a
        writer thread and a background
        :class:`~repro.serving.recovery.CompactionWorker` can mutate the
        same deployment concurrently and every replica still observes the
        ops in one global order (op order is what makes replicas
        bit-identical).
        """
        replica_set = self._replicas(shard_id)
        if not self.mutable:
            raise RuntimeError(
                "this resident deployment was booted from an immutable bundle; "
                "save a mutable bundle to serve streaming updates"
            )
        ops = list(ops)
        with self._apply_lock:
            workers = replica_set.alive()
            replies = self._round(
                [
                    self._call_or_die(shard_id, worker, "apply", (shard_id, ops))
                    for worker in workers
                ]
            )
            report = None
            for worker in workers:
                if worker in replies:
                    report = replies[worker]
                    self._ingest_worker_metrics(shard_id, report.pop("worker_metrics"))
                else:
                    log_event(
                        _log,
                        logging.WARNING,
                        "replica_died_during_apply",
                        shard=shard_id,
                        replica=worker.replica_id,
                    )
            if report is None:
                raise WorkerFailoverError(
                    f"no surviving replica could apply ops to shard {shard_id}"
                )
            self._op_logs.setdefault(shard_id, []).extend(ops)
            self.ops_broadcast += len(ops)
            get_registry().counter("repro_ops_broadcast_total").inc(len(ops))
            return report

    def op_log(self, shard_id: int) -> list:
        """The ops broadcast to one shard so far (replicated op log)."""
        return list(self._op_logs.get(int(shard_id), ()))

    def op_watermark(self, shard_id: int) -> int:
        """Epoch watermark of one shard's op log: ops broadcast so far.

        A replica is *caught up* exactly when it has applied every op below
        the current watermark; :meth:`respawn_replica` loops until the
        watermark it replayed to stops moving before re-admitting the
        worker.
        """
        return len(self._op_logs.get(int(shard_id), ()))

    # ---------------------------------------------------------------- recovery
    def dead_replicas(self) -> list[tuple[int, int]]:
        """``(shard_id, replica_id)`` of every replica known to be dead.

        "Known" means a batch, broadcast or probe already observed the
        death; a worker that died while idle is only discovered by
        :meth:`probe_replicas` (or the next batch that reaches it).
        """
        return [
            (replica_set.shard_id, worker.replica_id)
            for replica_set in self._replica_sets
            for worker in replica_set.workers
            if not worker.alive
        ]

    def probe_replicas(self) -> list[tuple[int, int]]:
        """Ping every allegedly-alive worker; returns the newly dead ones.

        The active half of failure detection: a worker that crashed between
        batches has no request outstanding, so nothing marks it dead until
        traffic (or this probe) reaches it.  One round pings every worker,
        so a sweep costs one round trip.
        """
        workers = self._alive_workers()
        replies = self._round([(worker, "ping", ()) for worker in workers])
        newly_dead = []
        for worker in workers:
            if worker in replies:
                continue
            newly_dead.append((worker.shard_ids[0], worker.replica_id))
            log_event(
                _log,
                logging.WARNING,
                "replica_dead",
                shard=worker.shard_ids[0],
                replica=worker.replica_id,
                detected_by="probe",
            )
        return newly_dead

    def _boot_caught_up_worker(self, shard_id: int, replica_id: int) -> tuple[ResidentWorker, int]:
        """Boot a fresh worker for one shard and replay the op log into it.

        The respawn recipe: the worker loads the shard from its on-disk
        bundle (the state at save time), then the retained op stream is
        replayed through the same apply path the live broadcasts used --
        deterministic ops, so the caught-up state is bit-identical to the
        survivors'.  The replay loops on the epoch watermark: ops broadcast
        while a chunk was being applied are picked up by the next pass, and
        the worker is only handed back (for admission) once the watermark
        stops moving.
        """
        worker = self._make_worker(shard_id, replica_id)
        replayed = 0
        try:
            worker.call("ping")
            while replayed < self.op_watermark(shard_id):
                pending = self._op_logs[shard_id][replayed:]
                worker.call("apply", shard_id, pending)
                replayed += len(pending)
        except WorkerDiedError as exc:
            raise RecoveryError(
                f"freshly booted replica {replica_id} of shard {shard_id} "
                f"died during op-log catch-up (after {replayed} ops)"
            ) from exc
        except BaseException:
            worker.close()
            raise
        return worker, replayed

    def respawn_replica(self, shard_id: int, replica_id: int) -> dict:
        """Reboot one dead replica from its bundle and catch it up.

        The self-healing path: a fresh worker process is booted from the
        shard's persisted bundle, the replicated op log is replayed into it
        (:meth:`_boot_caught_up_worker`), and only the fully caught-up
        worker is swapped into the routing table -- queries can never reach
        a replica that is behind the watermark, so recovery cannot cause
        stale reads.  Raises :class:`~repro.errors.RecoveryError` when the
        target replica is still alive (respawning over a live worker would
        drop its in-flight batches) or the respawn itself dies.

        Returns ``{"shard_id", "replica_id", "ops_replayed"}``.
        """
        slot = self._slot(shard_id, replica_id)
        workers = self._replica_sets[shard_id].workers
        old = workers[slot]
        if old.alive:
            raise RecoveryError(
                f"replica {replica_id} of shard {shard_id} is still alive; "
                "refusing to respawn over a serving worker"
            )
        worker, replayed = self._boot_caught_up_worker(shard_id, replica_id)
        old.close()
        workers[slot] = worker  # re-admitted only now
        self.replicas_respawned += 1
        self.ops_replayed += replayed
        registry = get_registry()
        registry.counter("repro_replicas_respawned_total").inc()
        registry.counter("repro_ops_replayed_total").inc(replayed)
        log_event(
            _log,
            logging.INFO,
            "replica_respawned",
            shard=shard_id,
            replica=replica_id,
            ops_replayed=replayed,
        )
        return {
            "shard_id": int(shard_id),
            "replica_id": int(replica_id),
            "ops_replayed": int(replayed),
        }

    # -------------------------------------------------------------- elasticity
    def add_replica(self, shard_id: int) -> int:
        """Grow one shard's replica set by a freshly caught-up worker.

        Online scale-out: the new worker boots from the bundle, replays the
        op log, and joins routing only once caught up -- the same admission
        rule as :meth:`respawn_replica`.  Returns the new replica id.
        """
        replica_set = self._replicas(shard_id)
        replica_id = 1 + max(
            (w.replica_id for w in replica_set.workers), default=-1
        )
        worker, replayed = self._boot_caught_up_worker(shard_id, replica_id)
        replica_set.workers.append(worker)
        self.ops_replayed += replayed
        get_registry().counter("repro_ops_replayed_total").inc(replayed)
        log_event(
            _log,
            logging.INFO,
            "replica_added",
            shard=shard_id,
            replica=replica_id,
            ops_replayed=replayed,
        )
        return replica_id

    def remove_replica(self, shard_id: int, replica_id: int) -> None:
        """Retire one replica (scale-in, or garbage-collect a dead slot).

        Removing the last replica of a shard -- alive or dead -- is refused:
        a shard with an empty replica set could never serve or heal again.
        """
        slot = self._slot(shard_id, replica_id)
        workers = self._replica_sets[shard_id].workers
        if len(workers) == 1:
            raise ValueError(
                f"cannot remove the last replica of shard {shard_id}; "
                "add a replacement first"
            )
        workers.pop(slot).close()

    # -------------------------------------------------------------- consistency
    def replica_states(self, shard_id: int) -> dict[int, dict]:
        """State fingerprints of one shard's live replicas, by replica id.

        One round probes every live replica.  Replicas that applied the same
        op stream report equal ``digest`` values; the chaos harness asserts
        exactly that after every recovery.  A replica that dies under the
        probe is closed and omitted.
        """
        replies = self._round(
            [(worker, "state", (shard_id,)) for worker in self._replicas(shard_id).alive()]
        )
        return {worker.replica_id: state for worker, state in replies.items()}
