"""Chaos drill over the self-healing serving layer (a helper module, not a test file).

:func:`run_chaos_recovery` kills resident workers mid mixed read/write
traffic, lets a :class:`~repro.serving.recovery.ReplicaSupervisor` heal them,
and returns the verdicts ``tests/test_recovery.py::TestChaosHarness`` asserts
on.  It proves a property, it does not measure one: serving numbers live in
the ledger (``benchmarks/ledger``, workloads ``resident_serving`` and
``mixed_updates``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.errors import OverloadError
from repro.serving import AdmissionPolicy, AsyncBatchingScheduler, search_results_equal


@dataclass
class ChaosRecoveryReport:
    """Measured behaviour of one chaos run: kills under mixed load, healed.

    The self-healing acceptance report: workers are killed mid mixed
    read/write workload, the :class:`~repro.serving.recovery.ReplicaSupervisor`
    respawns them from their shard bundles and replays the op log, and the
    run ends with three correctness verdicts -- no stale read was ever
    served, the chaos deployment's final results are bit-identical to an
    unkilled control run fed the same op sequence, and every shard's live
    replicas report one state digest.

    Attributes:
        num_readers / num_reads: closed-loop read side of the workload.
        num_upserts / num_deletes: write ops applied (to chaos *and* control).
        kills_injected: worker crashes injected mid-run.
        recoveries: completed respawns
            (:class:`~repro.serving.recovery.RecoveryEvent`).
        ops_replayed: op-log records replayed across all recoveries.
        recovery_max_s: slowest detection-to-readmission recovery.
        recovery_bound_s: the bound the run was measured against.
        recovery_within_bound: every recovery finished inside the bound.
        stale_reads: probes that returned a deleted id (must be 0).
        results_match_control: final full-batch search of the chaos
            deployment is bit-identical to the control run.
        replicas_consistent: every shard's live replicas share one digest.
        num_overloaded / admission: admission-control counters (when a
            bounded :class:`~repro.serving.config.AdmissionPolicy` ran).
    """

    num_readers: int
    num_reads: int
    num_upserts: int
    num_deletes: int
    kills_injected: int
    recoveries: list = field(default_factory=list)
    ops_replayed: int = 0
    recovery_max_s: float = 0.0
    recovery_bound_s: float = 0.0
    recovery_within_bound: bool = True
    stale_reads: int = 0
    results_match_control: bool = False
    replicas_consistent: bool = False
    num_overloaded: int = 0
    admission: dict = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """All correctness verdicts at once (the chaos pass/fail line)."""
        return (
            self.stale_reads == 0
            and self.results_match_control
            and self.replicas_consistent
            and self.recovery_within_bound
            and len(self.recoveries) >= self.kills_injected > 0
        )


def run_chaos_recovery(
    engine,
    supervisor,
    control,
    queries: np.ndarray,
    id_start: int,
    k: int = 10,
    num_readers: int = 4,
    reads_per_client: int = 12,
    num_writes: int = 10,
    kill_before_write: tuple[int, ...] = (2, 6),
    recovery_bound_s: float = 60.0,
    max_batch_size: int | None = None,
    max_wait_s: float = 0.002,
    visibility_probes: int = 8,
    seed: int = 0,
    admission: AdmissionPolicy | None = None,
    **search_params,
) -> ChaosRecoveryReport:
    """Kill replicas mid mixed read/write workload and verify the healing.

    The chaos drill behind the self-healing guarantees: ``num_readers``
    closed-loop clients stream queries through a batching scheduler while a
    **single deterministic writer** applies ``num_writes`` upsert/delete
    cycles -- each op is applied to the chaos ``engine`` *and* to an unkilled
    ``control`` deployment loaded from the same bundle, so the op sequences
    are identical by construction.  Immediately before the write cycles in
    ``kill_before_write``, a replica of the owning shard is poisoned
    (:meth:`~repro.serving.routing.ResidentProcessShardExecutor.inject_failure`),
    so the very next op broadcast crashes a worker mid-``apply_ops``; the
    ``supervisor`` then sweeps, respawns the dead worker from its bundle,
    replays the retained op log, and re-admits it.  Writer cycles end with
    ``supervisor.maintain()`` / ``control.maybe_compact()`` in lockstep, so
    scheduled compaction triggers identically on both sides.

    The writer is single on purpose: concurrent writers would interleave
    nondeterministically against the control run and void the bit-identity
    verdict.  Readers are the concurrency -- they race the kills and the
    catch-up and must never observe a deleted id.

    Args:
        engine: the chaos deployment -- a mutable resident
            :class:`~repro.serving.shard.ShardedJunoIndex` (or a
            :class:`~repro.serving.engine.ServingEngine` over one).
        supervisor: a :class:`~repro.serving.recovery.ReplicaSupervisor`
            built over ``engine``'s router (so :meth:`maintain` works).
        control: an unkilled deployment of the same bundle (any executor)
            receiving the same op sequence; the bit-identity reference.
        queries: reader query pool, also the template pool for writes.
        id_start: first global id the writer may allocate.
        kill_before_write: write-cycle indexes that start with a kill.
        recovery_bound_s: recovery-time bound the report is judged against.
    """
    if num_readers <= 0 or reads_per_client <= 0:
        raise ValueError("num_readers and reads_per_client must be positive")
    if num_writes <= 0:
        raise ValueError("num_writes must be positive")
    kill_set = {int(cycle) for cycle in kill_before_write}
    out_of_range = sorted(cycle for cycle in kill_set if not 0 <= cycle < num_writes)
    if out_of_range:
        raise ValueError(f"kill_before_write cycles {out_of_range} not in [0, {num_writes})")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if max_batch_size is None:
        max_batch_size = num_readers + 1
    executor = supervisor.executor
    rng = np.random.default_rng(seed)
    jitter = 1e-3 * rng.standard_normal((num_writes, queries.shape[1]))
    reads = [0]
    stale_reads = [0]
    upserts = [0]
    deletes = [0]
    kills = [0]
    overloaded = [0]

    async def _probe(scheduler: AsyncBatchingScheduler, vector: np.ndarray):
        try:
            return await scheduler.submit(vector)
        except OverloadError:
            overloaded[0] += 1
            return None, None

    async def _reader(client_id: int, scheduler: AsyncBatchingScheduler) -> None:
        for request in range(reads_per_client):
            query = queries[(client_id + request * num_readers) % queries.shape[0]]
            ids, _scores = await _probe(scheduler, query)
            if ids is not None:
                reads[0] += 1

    async def _writer(scheduler: AsyncBatchingScheduler) -> None:
        previous: tuple[int, np.ndarray] | None = None
        for cycle in range(num_writes):
            if cycle in kill_set:
                # Poison a replica of the shard this cycle's upsert owns: the
                # op broadcast below crashes it mid-apply_ops.
                executor.inject_failure((id_start + cycle) % executor.num_shards)
                kills[0] += 1
            new_id = int(id_start + cycle)
            vector = queries[cycle % queries.shape[0]] + jitter[cycle]
            engine.upsert([new_id], vector[None, :])
            control.upsert([new_id], vector[None, :])
            upserts[0] += 1
            for _ in range(visibility_probes):
                ids, _scores = await _probe(scheduler, vector)
                if ids is not None and new_id in ids:
                    break
            if previous is not None:
                old_id, old_vector = previous
                engine.delete([old_id])
                control.delete([old_id])
                deletes[0] += 1
                ids, _scores = await _probe(scheduler, old_vector)
                if ids is not None and old_id in ids:
                    stale_reads[0] += 1
            # Scheduled maintenance, in lockstep with the control run: both
            # sides saw the same ops, so compaction triggers identically.
            supervisor.maintain()
            control.maybe_compact()
            # Heal: respawn whatever died this cycle (probing catches workers
            # that crashed with no in-flight future to fail).
            supervisor.scan(probe=True)
            previous = (new_id, vector)

    async def _run() -> dict:
        async with AsyncBatchingScheduler(
            engine,
            k=k,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            admission=admission,
            **search_params,
        ) as scheduler:
            await asyncio.gather(
                *(_reader(client_id, scheduler) for client_id in range(num_readers)),
                _writer(scheduler),
            )
            return scheduler.admission_stats()

    admission_stats = asyncio.run(_run())
    supervisor.scan(probe=True)  # heal any straggler before the verdicts
    final_chaos = engine.search(queries, k, **search_params)
    final_control = control.search(queries, k, **search_params)
    durations = [event.duration_s for event in supervisor.events]
    return ChaosRecoveryReport(
        num_readers=num_readers,
        num_reads=reads[0],
        num_upserts=upserts[0],
        num_deletes=deletes[0],
        kills_injected=kills[0],
        recoveries=list(supervisor.events),
        ops_replayed=sum(event.ops_replayed for event in supervisor.events),
        recovery_max_s=max(durations) if durations else 0.0,
        recovery_bound_s=recovery_bound_s,
        recovery_within_bound=all(d <= recovery_bound_s for d in durations),
        stale_reads=stale_reads[0],
        results_match_control=search_results_equal(final_chaos, final_control),
        replicas_consistent=supervisor.replicas_consistent(),
        num_overloaded=overloaded[0],
        admission=admission_stats,
    )

