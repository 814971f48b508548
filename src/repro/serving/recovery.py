"""Self-healing for the worker-resident cluster: detect, respawn, re-admit.

The routing layer (:mod:`repro.serving.routing`) survives worker death by
failing batches over to siblings -- but the survivor set only ever shrinks,
so every crash permanently spends replication headroom.  This module closes
the loop: a :class:`ReplicaSupervisor` sweeps the replica table for dead
workers (passively observed deaths, plus active ping probes for workers that
died idle), respawns each one from its on-disk shard bundle, replays the
executor's retained op log to catch mutable state up **bit-identically**
with the survivors, and re-admits the replica to routing only once it is at
the op-log watermark -- recovery can shrink capacity, never correctness.

The supervisor also owns the two *scheduled* maintenance duties that were
deliberately moved out of the request path:

* **elastic re-assignment** -- :meth:`ReplicaSupervisor.set_replicas` grows
  or shrinks every shard's replica set online (respawning dead slots before
  booting new ones);
* **compaction** -- :meth:`ReplicaSupervisor.maintain` runs the router's
  explicit ``maybe_compact()`` step, so delta buffers drain between batches
  instead of inside some unlucky client's upsert.

Everything on the supervisor is coordinator-side and synchronous: one
supervisor per executor, driven from whatever loop owns the deployment (the
chaos harness calls it once per writer cycle; a real deployment would tick
it from a timer).  :class:`CompactionWorker` is the asynchronous variant of
the compaction duty: a daemon thread that ticks ``maybe_compact()`` at an
interval, keeping delta-buffer drains entirely off the serving path while
the resulting op still flows through the replicated op log.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

from repro.errors import RecoveryError
from repro.obs.clock import resolve as resolve_clock
from repro.obs.log import event as log_event
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.serving.routing import ResidentProcessShardExecutor

_log = get_logger("serving.recovery")


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed replica recovery.

    Attributes:
        shard_id: shard whose replica died.
        replica_id: the respawned replica's id (unchanged across respawn).
        ops_replayed: op-log records replayed to catch the fresh worker up.
        duration_s: wall-clock from detection to re-admission, including
            process boot, bundle load and op-log replay.
    """

    shard_id: int
    replica_id: int
    ops_replayed: int
    duration_s: float


class ReplicaSupervisor:
    """Watches a resident executor's replica table and heals it.

    Args:
        target: the :class:`ResidentProcessShardExecutor` to supervise, or
            a router/engine built over one (anything exposing
            ``resident_executor()``, e.g.
            :class:`~repro.serving.shard.ShardedJunoIndex` or a
            :class:`~repro.serving.engine.ServingEngine` whose index is a
            resident router).  Passing the router additionally lets
            :meth:`maintain` schedule its ``maybe_compact()`` step.
        clock: monotonic time source for recovery timing (injectable);
            ``None`` uses the shared :func:`repro.obs.clock.now` source.

    Attributes:
        events: every :class:`RecoveryEvent` this supervisor completed.
    """

    def __init__(self, target, clock=None) -> None:
        self.router = None
        if isinstance(target, ResidentProcessShardExecutor):
            executor = target
        else:
            index = getattr(target, "index", target)  # unwrap a ServingEngine
            accessor = getattr(index, "resident_executor", None)
            if not callable(accessor):
                raise TypeError(
                    "ReplicaSupervisor needs a ResidentProcessShardExecutor or a "
                    f"router built over one, got {type(target).__name__}"
                )
            executor = accessor()
            self.router = index
        self.executor = executor
        self.clock = resolve_clock(clock)
        self.events: list[RecoveryEvent] = []

    def _record(self, event: RecoveryEvent) -> None:
        """Append one recovery to :attr:`events` and publish it."""
        self.events.append(event)
        registry = get_registry()
        registry.counter("repro_recoveries_total").inc()
        registry.histogram("repro_recovery_seconds").observe(event.duration_s)
        log_event(
            _log,
            logging.INFO,
            "replica_recovered",
            shard=event.shard_id,
            replica=event.replica_id,
            ops_replayed=event.ops_replayed,
            duration_s=f"{event.duration_s:.6f}",
        )

    # ---------------------------------------------------------------- detection
    def dead_replicas(self, probe: bool = False) -> list[tuple[int, int]]:
        """``(shard_id, replica_id)`` pairs currently dead.

        ``probe=True`` additionally pings every allegedly-alive worker
        first, so replicas that died *between* batches (no in-flight future
        to fail) are discovered too.
        """
        if probe:
            self.executor.probe_replicas()
        return self.executor.dead_replicas()

    # ----------------------------------------------------------------- healing
    def scan(self, probe: bool = False) -> list[RecoveryEvent]:
        """Respawn every dead replica; returns this sweep's recoveries.

        Each recovery is timed from detection to re-admission (process
        boot + bundle load + op-log replay) and appended to :attr:`events`.
        A sweep over a healthy table is a cheap no-op, so callers can tick
        this as often as they like.
        """
        recovered = []
        for shard_id, replica_id in self.dead_replicas(probe=probe):
            started = self.clock()
            report = self.executor.respawn_replica(shard_id, replica_id)
            event = RecoveryEvent(
                shard_id=shard_id,
                replica_id=replica_id,
                ops_replayed=int(report["ops_replayed"]),
                duration_s=max(self.clock() - started, 0.0),
            )
            self._record(event)
            recovered.append(event)
        return recovered

    # -------------------------------------------------------------- elasticity
    def set_replicas(self, num_replicas: int) -> dict[int, list[int]]:
        """Resize every shard's replica set to ``num_replicas`` live workers.

        Online join/leave: dead slots are respawned first (they already own
        a replica id and their recovery is the cheap path), then fresh
        replicas are added -- each booted from the bundle and caught up on
        the op log before admission -- and finally surplus live replicas are
        retired, highest replica id first.  Returns the live replica ids
        per shard after the resize.
        """
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        out: dict[int, list[int]] = {}
        for shard_id in range(self.executor.num_shards):
            alive = self.executor.alive_replicas(shard_id)
            dead = [r for s, r in self.executor.dead_replicas() if s == shard_id]
            for replica_id in dead:
                if len(alive) >= num_replicas:
                    self.executor.remove_replica(shard_id, replica_id)
                    continue
                started = self.clock()
                report = self.executor.respawn_replica(shard_id, replica_id)
                self._record(
                    RecoveryEvent(
                        shard_id=shard_id,
                        replica_id=replica_id,
                        ops_replayed=int(report["ops_replayed"]),
                        duration_s=max(self.clock() - started, 0.0),
                    )
                )
                alive.append(replica_id)
            while len(alive) < num_replicas:
                alive.append(self.executor.add_replica(shard_id))
            while len(alive) > num_replicas:
                self.executor.remove_replica(shard_id, max(alive))
                alive.remove(max(alive))
            out[shard_id] = sorted(alive)
        return out

    # ------------------------------------------------------------- maintenance
    def maintain(self) -> list[int]:
        """Run the router's explicit ``maybe_compact()`` maintenance step.

        Returns the shard ids that compacted.  Requires the supervisor to
        have been built over a router (not a bare executor) with updates
        enabled; raises :class:`~repro.errors.RecoveryError` otherwise so a
        misconfigured maintenance loop fails loudly instead of silently
        never compacting.
        """
        if self.router is None or not callable(getattr(self.router, "maybe_compact", None)):
            raise RecoveryError(
                "this supervisor was built over a bare executor; construct it "
                "from the mutable router (ReplicaSupervisor(router)) to "
                "schedule compaction"
            )
        return self.router.maybe_compact()

    # ------------------------------------------------------------- consistency
    def replicas_consistent(self, shard_id: int | None = None) -> bool:
        """Whether every live replica of a shard reports the same digest.

        With ``shard_id=None`` all shards are checked.  This is the
        bit-identity guarantee the op-log design promises; the chaos
        harness asserts it after every recovery.
        """
        shard_ids = (
            range(self.executor.num_shards) if shard_id is None else (int(shard_id),)
        )
        for sid in shard_ids:
            digests = {
                state["digest"] for state in self.executor.replica_states(sid).values()
            }
            if len(digests) > 1:
                return False
        return True


class CompactionWorker:
    """Runs ``maybe_compact()`` on a background thread, off the serving path.

    Compaction (delta-buffer drain, drift-triggered retrain) was already an
    *explicit* maintenance step rather than an inline side effect of some
    unlucky upsert; this worker moves it off the caller's thread entirely.
    A daemon thread ticks at a fixed interval, calling the target's
    ``maybe_compact()`` -- for a mutable router the resulting compact op is
    still broadcast through the replicated op log (and therefore serialised
    against concurrent writer ops by the executor's apply lock), so every
    replica observes it at the same point in the op order and replica
    bit-identity is preserved.

    Args:
        target: anything exposing a callable ``maybe_compact()`` -- a
            :class:`~repro.updates.mutable.MutableJunoIndex`, a mutable
            :class:`~repro.serving.shard.ShardedJunoIndex` (local or
            resident), or a :class:`~repro.serving.engine.ServingEngine`
            built over one (unwrapped via its ``index`` attribute).
        interval_s: seconds between ticks; the worker wakes early on
            :meth:`stop`.
        clock: monotonic time source for compaction timing (injectable);
            ``None`` uses the shared :func:`repro.obs.clock.now` source.

    Attributes:
        compactions: ``(result, duration_s)`` per tick that compacted
            something (a truthy/-non-empty ``maybe_compact()`` return).
        errors: exceptions raised by ``maybe_compact()`` ticks; the worker
            keeps ticking (a transient failover mid-compaction must not
            silently end maintenance forever).
    """

    def __init__(self, target, interval_s: float = 0.05, clock=None) -> None:
        target = getattr(target, "index", target)  # unwrap a ServingEngine
        if not callable(getattr(target, "maybe_compact", None)):
            raise TypeError(
                "CompactionWorker needs a target with maybe_compact() -- a "
                "mutable index, a mutable router, or an engine over one; got "
                f"{type(target).__name__}"
            )
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.target = target
        self.interval_s = float(interval_s)
        self.clock = resolve_clock(clock)
        self.compactions: list[tuple[object, float]] = []
        self.errors: list[Exception] = []
        self.ticks = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "CompactionWorker":
        """Start the background thread (idempotent); returns ``self``."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="compaction-worker", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    def tick(self) -> object:
        """One maintenance pass: call ``maybe_compact()`` and record it.

        Public so tests and synchronous maintenance loops can drive the
        same code path the background thread runs.  Returns the
        ``maybe_compact()`` result (``False``/``[]``/``None`` when nothing
        was due), or ``None`` when it raised (the exception is recorded in
        :attr:`errors`).
        """
        self.ticks += 1
        started = self.clock()
        try:
            result = self.target.maybe_compact()
        except Exception as exc:
            self.errors.append(exc)
            return None
        compacted = bool(result) if not isinstance(result, (list, tuple)) else bool(len(result))
        if compacted:
            duration = max(self.clock() - started, 0.0)
            self.compactions.append((result, duration))
            get_registry().counter("repro_compactions_total").inc()
            log_event(
                _log,
                logging.INFO,
                "compaction",
                shards=(
                    ",".join(str(s) for s in result)
                    if isinstance(result, (list, tuple))
                    else "-"
                ),
                duration_s=f"{duration:.6f}",
            )
        return result

    def stop(self) -> None:
        """Stop the background thread and wait for the in-flight tick."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def running(self) -> bool:
        """Whether the background thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "CompactionWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["CompactionWorker", "RecoveryEvent", "ReplicaSupervisor"]
