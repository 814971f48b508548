"""Tests for self-healing serving: config API, admission control, recovery.

Covers the acceptance criteria of the elastic-serving tentpole and its
satellites:

* the typed :class:`~repro.serving.config.ServingConfig` /
  :class:`~repro.serving.config.ReplicaPolicy` /
  :class:`~repro.serving.config.AdmissionPolicy` API -- validation and
  ``to_dict``/``from_dict`` round-trips;
* the unified :class:`~repro.errors.ServingError` exception hierarchy;
* admission control in the async batching front-end -- bounded queue,
  reject vs shed-oldest, and the load-shedding counters;
* replica respawn with op-log catch-up: a worker killed mid-``apply_ops``
  broadcast is respawned from its shard bundle, replays the retained op
  log, reports a state digest bit-identical to the survivors and is only
  then re-admitted to routing;
* online elasticity (:meth:`ReplicaSupervisor.set_replicas`, add/remove);
* explicit scheduled compaction (``maybe_compact``) behaving identically
  on the local and worker-resident paths;
* a reduced-scale chaos run through ``chaos_harness.run_chaos_recovery``.

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.datasets.synthetic import make_clustered_dataset
from repro.serving import (
    AdmissionPolicy,
    AsyncBatchingScheduler,
    OverloadError,
    PersistenceError,
    RecoveryError,
    ReplicaPolicy,
    ReplicaSupervisor,
    ServingConfig,
    ServingEngine,
    ServingError,
    ShardedJunoIndex,
    ThreadShardExecutor,
    WalError,
    WorkerFailoverError,
    search_results_equal,
)
from repro.updates import RebuildPolicy

from chaos_harness import run_chaos_recovery


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


@pytest.fixture(scope="module")
def corpus():
    return make_clustered_dataset(
        name="recovery",
        num_points=600,
        num_queries=8,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        seed=5,
    )


@pytest.fixture(scope="module")
def mutable_bundle(corpus, tmp_path_factory):
    """A saved 2-shard mutable deployment (the respawn source of truth)."""
    router = ShardedJunoIndex.from_dim(
        corpus.dim, num_shards=2, executor="sequential", **_settings()
    )
    router.train(corpus.points)
    router.enable_updates(points=corpus.points)
    bundle = router.save(tmp_path_factory.mktemp("recovery") / "deployment")
    router.close()
    return bundle


class _EchoEngine:
    """Minimal engine for scheduler-level tests: no index, no training."""

    def __init__(self):
        self.batch_sizes = []

    def search(self, queries, k, **params):
        queries = np.atleast_2d(queries)
        self.batch_sizes.append(queries.shape[0])
        ids = np.tile(np.arange(k), (queries.shape[0], 1))
        scores = np.zeros((queries.shape[0], k), dtype=np.float64)
        return ids, scores


class TestErrorHierarchy:
    def test_every_serving_failure_shares_one_base(self):
        for exc_type in (
            OverloadError,
            RecoveryError,
            WalError,
            PersistenceError,
            WorkerFailoverError,
        ):
            assert issubclass(exc_type, ServingError)
        # backward compatible with code catching the old bare RuntimeError
        assert issubclass(ServingError, RuntimeError)

    def test_one_except_clause_catches_the_whole_stack(self):
        with pytest.raises(ServingError):
            raise OverloadError("queue full")
        with pytest.raises(ServingError):
            raise WorkerFailoverError("no surviving replica")


class TestServingConfig:
    def test_round_trip(self):
        config = ServingConfig(
            executor="resident",
            num_workers=3,
            load_shards=False,
            replicas=ReplicaPolicy(num_replicas=2, warm=False),
            admission=AdmissionPolicy(max_queue_depth=16, overload="shed_oldest"),
            label="prod",
        )
        assert ServingConfig.from_dict(config.to_dict()) == config
        assert ReplicaPolicy.from_dict(config.replicas.to_dict()) == config.replicas
        assert AdmissionPolicy.from_dict(config.admission.to_dict()) == config.admission

    def test_with_updates_returns_a_modified_copy(self):
        base = ServingConfig()
        changed = base.with_updates(executor="resident", label="x")
        assert changed.executor == "resident" and changed.label == "x"
        assert base.executor == "thread" and base.label is None

    def test_validation(self):
        with pytest.raises(ValueError, match="executor must be one of"):
            ServingConfig(executor="gpu")
        with pytest.raises(ValueError, match="num_workers must be positive"):
            ServingConfig(num_workers=0)
        with pytest.raises(ValueError, match="num_replicas must be positive"):
            ReplicaPolicy(num_replicas=0)
        with pytest.raises(ValueError, match="max_queue_depth must be positive"):
            AdmissionPolicy(max_queue_depth=-1)
        with pytest.raises(ValueError, match="overload must be one of"):
            AdmissionPolicy(max_queue_depth=4, overload="drop_newest")
        with pytest.raises(ValueError, match="does not understand keys"):
            ServingConfig.from_dict({"executor": "thread", "replica_count": 2})
        with pytest.raises(ValueError, match=r"does not understand keys \['backend'\]"):
            ServingConfig.from_dict({"executor": "thread", "backend": "numpy"})
        for removed in ("affinity", "worker_stage_cache"):
            with pytest.raises(ValueError, match=rf"does not understand keys \['{removed}'\]"):
                ServingConfig.from_dict({"replicas": {"num_replicas": 2, removed: True}})

    def test_to_dict_names_every_field(self):
        """The JSON form carries exactly the dataclass fields, so every key
        ``to_dict`` writes is one ``from_dict`` understands."""
        config = ServingConfig()
        assert set(config.to_dict()) == {f.name for f in dataclasses.fields(ServingConfig)}
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_live_executor_instance_has_no_json_form(self):
        executor = ThreadShardExecutor(num_workers=1)
        try:
            config = ServingConfig(executor=executor)
            with pytest.raises(ValueError, match="no JSON form"):
                config.to_dict()
        finally:
            executor.close()

    def test_admission_bounded_property(self):
        assert not AdmissionPolicy().bounded
        assert AdmissionPolicy(max_queue_depth=1).bounded

    def test_load_rejects_non_config_positional(self, mutable_bundle):
        with pytest.raises(TypeError, match="must be a ServingConfig"):
            ShardedJunoIndex.load(mutable_bundle, 4)


class TestAdmissionControl:
    def _frozen_clock(self):
        return lambda: 0.0  # the max-wait flush never fires on its own

    def test_reject_raises_at_the_submitting_client(self):
        engine = _EchoEngine()

        async def run():
            async with AsyncBatchingScheduler(
                engine,
                k=3,
                max_batch_size=100,
                max_wait_s=10.0,
                clock=self._frozen_clock(),
                admission=AdmissionPolicy(max_queue_depth=2),
            ) as scheduler:
                queued = [
                    asyncio.ensure_future(scheduler.submit(np.full(4, float(i))))
                    for i in range(2)
                ]
                await asyncio.sleep(0)
                assert scheduler.num_pending == 2
                with pytest.raises(OverloadError, match="admission queue is full"):
                    await scheduler.submit(np.full(4, 9.0))
                stats = scheduler.admission_stats()
                assert stats["rejected"] == 1 and stats["admitted"] == 2
                assert stats["peak_queue_depth"] == 2
                await scheduler.flush()
                for task in queued:
                    ids, _scores = await task
                    assert ids.shape == (3,)

        asyncio.run(run())
        assert engine.batch_sizes == [2]

    def test_shed_oldest_fails_the_head_of_line_client(self):
        engine = _EchoEngine()

        async def run():
            async with AsyncBatchingScheduler(
                engine,
                k=3,
                max_batch_size=100,
                max_wait_s=10.0,
                clock=self._frozen_clock(),
                admission=AdmissionPolicy(max_queue_depth=2, overload="shed_oldest"),
            ) as scheduler:
                oldest = asyncio.ensure_future(scheduler.submit(np.zeros(4)))
                second = asyncio.ensure_future(scheduler.submit(np.ones(4)))
                await asyncio.sleep(0)
                # the fresh query is admitted; the oldest pays for it
                ids, _scores = await asyncio.gather(
                    scheduler.submit(np.full(4, 2.0)),
                    scheduler.flush(),
                )
                with pytest.raises(OverloadError, match="shed"):
                    await oldest
                await second  # still served: only the head of line was shed
                assert scheduler.num_pending == 0
                stats = scheduler.admission_stats()
                assert stats["shed"] == 1 and stats["rejected"] == 0
                assert stats["admitted"] == 3
                return ids

        asyncio.run(run())
        assert engine.batch_sizes == [2]  # shed query never reached the engine

    def test_unbounded_policy_is_a_no_op(self):
        engine = _EchoEngine()

        async def run():
            async with AsyncBatchingScheduler(
                engine, k=3, max_batch_size=4, admission=AdmissionPolicy()
            ) as scheduler:
                results = await asyncio.gather(
                    *(scheduler.submit(np.full(4, float(i))) for i in range(8))
                )
                assert len(results) == 8
                stats = scheduler.admission_stats()
                assert stats["rejected"] == 0 and stats["shed"] == 0

        asyncio.run(run())

    def test_admission_must_be_typed(self):
        with pytest.raises(TypeError, match="AdmissionPolicy"):
            AsyncBatchingScheduler(_EchoEngine(), admission={"max_queue_depth": 4})

    def test_serve_async_defaults_admission_from_config(self, corpus, mutable_bundle):
        config = ServingConfig(
            executor="sequential",
            admission=AdmissionPolicy(max_queue_depth=7, overload="shed_oldest"),
        )
        with ShardedJunoIndex.load(mutable_bundle, config) as router:
            engine = ServingEngine(router, config=config)
            scheduler = engine.serve_async(k=5, nprobs=4)
            assert scheduler.admission == config.admission
            # an explicit admission wins over the config default
            override = AdmissionPolicy(max_queue_depth=2)
            assert engine.serve_async(k=5, admission=override).admission == override
            assert engine.label == "sharded-juno"


class TestRespawnCatchUp:
    def test_kill_mid_apply_respawn_replays_bit_identically(self, corpus, mutable_bundle):
        """A replica killed mid-``apply_ops`` broadcast is respawned from the
        bundle, caught up via op-log replay, digests equal to the survivor,
        and -- after the survivor is killed too -- alone serves results
        bit-identical to a local control fed the same ops."""
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=2))
        with (
            ShardedJunoIndex.load(mutable_bundle, config) as resident,
            ShardedJunoIndex.load(mutable_bundle, ServingConfig(executor="sequential")) as local,
        ):
            executor = resident.resident_executor()

            def write(gid):
                vector = corpus.queries[gid % len(corpus.queries)][None, :]
                resident.upsert([gid], vector)
                local.upsert([gid], vector)

            for gid in (8300, 8301, 8302, 8303):
                write(gid)

            # Kill replica 0 of shard 0 in the middle of an op broadcast:
            # the poisoned worker crashes applying 8304, the survivor
            # finishes the op, and the log retains it for replay.
            executor.inject_failure(0, replica_id=0)
            write(8304)  # contiguous block 8 -> owned by shard 0
            assert (0, 0) in executor.dead_replicas()
            assert executor.alive_replicas(0) == [1]

            watermark = executor.op_watermark(0)
            report = executor.respawn_replica(0, 0)
            assert report["ops_replayed"] == watermark > 0
            assert executor.alive_replicas(0) == [0, 1]
            assert executor.replicas_respawned == 1
            assert executor.ops_replayed == watermark

            # bit-identical state: both replicas report one digest
            states = executor.replica_states(0)
            assert set(states) == {0, 1}
            assert len({state["digest"] for state in states.values()}) == 1

            # Now kill the survivor mid-broadcast: only the *respawned*
            # replica can serve shard 0, so parity with the local control
            # proves catch-up really restored the mutations.
            executor.inject_failure(0, replica_id=1)
            write(8306)
            assert executor.alive_replicas(0) == [0]
            observed = resident.search(corpus.queries, 5, nprobs=4)
            expected = local.search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(observed, expected)

    def test_respawn_refuses_live_replicas_and_unknown_ids(self, mutable_bundle):
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=1))
        with ShardedJunoIndex.load(mutable_bundle, config) as resident:
            executor = resident.resident_executor()
            with pytest.raises(RecoveryError, match="still alive"):
                executor.respawn_replica(0, 0)
            with pytest.raises(ValueError, match="no replica"):
                executor.respawn_replica(0, 5)

    def test_supervisor_scan_times_recoveries(self, corpus, mutable_bundle):
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=2))
        ticks = iter(range(100))
        with ShardedJunoIndex.load(mutable_bundle, config) as resident:
            supervisor = ReplicaSupervisor(resident, clock=lambda: float(next(ticks)))
            executor = resident.resident_executor()
            resident.upsert([8400], corpus.queries[:1])
            executor.inject_failure(1, replica_id=0)
            # 9300 lives in contiguous block 9 -> shard 1: triggers the kill
            resident.upsert([9300], corpus.queries[1:2])
            events = supervisor.scan()
            assert [e.shard_id for e in events] == [1]
            assert events[0].ops_replayed == executor.op_watermark(1)
            assert events[0].duration_s == 1.0  # one fake-clock tick
            assert supervisor.events == events
            assert supervisor.scan() == []  # healthy table: a no-op sweep

    def test_supervisor_requires_a_resident_target(self, mutable_bundle):
        with ShardedJunoIndex.load(mutable_bundle, ServingConfig(executor="thread")) as router:
            with pytest.raises(TypeError, match="resident"):
                ReplicaSupervisor(router)


class TestElasticity:
    def test_add_and_remove_replicas_online(self, corpus, mutable_bundle):
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=1))
        with ShardedJunoIndex.load(mutable_bundle, config) as resident:
            executor = resident.resident_executor()
            resident.upsert([8500], corpus.queries[:1])
            before = resident.search(corpus.queries, 5, nprobs=4)

            # join: the new replica replays the op log before admission
            new_id = executor.add_replica(0)
            assert executor.alive_replicas(0) == [0, new_id]
            states = executor.replica_states(0)
            assert len({state["digest"] for state in states.values()}) == 1
            assert search_results_equal(before, resident.search(corpus.queries, 5, nprobs=4))

            # leave: back down to one replica; serving is unaffected
            executor.remove_replica(0, new_id)
            assert executor.alive_replicas(0) == [0]
            assert search_results_equal(before, resident.search(corpus.queries, 5, nprobs=4))
            with pytest.raises(ValueError, match="last replica"):
                executor.remove_replica(0, 0)

    def test_set_replicas_resizes_every_shard(self, corpus, mutable_bundle):
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=1))
        with ShardedJunoIndex.load(mutable_bundle, config) as resident:
            supervisor = ReplicaSupervisor(resident)
            resident.upsert([8600], corpus.queries[:1])
            layout = supervisor.set_replicas(3)
            assert layout == {0: [0, 1, 2], 1: [0, 1, 2]}
            assert supervisor.replicas_consistent()
            layout = supervisor.set_replicas(1)
            assert layout == {0: [0], 1: [0]}
            with pytest.raises(ValueError, match="must be positive"):
                supervisor.set_replicas(0)


class TestScheduledCompaction:
    def test_resident_and_local_maybe_compact_agree(self, corpus, tmp_path):
        """Same ops, same policy => the explicit maintenance step compacts
        the same shards on the resident and local paths, and the resident
        compaction lands in the op log (replay-safe)."""

        def build():
            router = ShardedJunoIndex.from_dim(
                corpus.dim, num_shards=2, executor="sequential", **_settings()
            )
            router.train(corpus.points)
            router.enable_updates(points=corpus.points, policy=RebuildPolicy(delta_capacity=2))
            return router

        ids = np.array([8700, 8702, 8704, 8706])  # contiguous block 8: all owned by shard 0
        vectors = corpus.queries[:4]

        local = build()
        local.upsert(ids, vectors)
        assert len(local.shards[0].delta) == 4  # mutations never compact inline
        assert local.maybe_compact() == [0]
        assert len(local.shards[0].delta) == 0
        assert local.maybe_compact() == []  # nothing due any more
        result_local = local.search(corpus.queries, 5, nprobs=4)
        local.close()

        resident_src = build()
        bundle = resident_src.save(tmp_path / "compact")
        resident_src.close()
        config = ServingConfig(
            executor="resident", replicas=ReplicaPolicy(num_replicas=2)
        )
        with ShardedJunoIndex.load(bundle, config) as resident:
            executor = resident.resident_executor()
            resident.upsert(ids, vectors)
            assert resident.maybe_compact() == [0]
            # the compact op was broadcast and retained for respawn replay
            assert executor.op_log(0)[-1]["op"] == "compact"
            assert resident.maybe_compact() == []
            result_resident = resident.search(corpus.queries, 5, nprobs=4)
            supervisor = ReplicaSupervisor(resident)
            assert supervisor.replicas_consistent()
            # a replica respawned after the compact replays it too
            executor.inject_failure(0, replica_id=0)
            resident.upsert([8708], corpus.queries[4:5])
            supervisor.scan()
            assert supervisor.replicas_consistent()
        assert search_results_equal(result_local, result_resident)

    def test_supervisor_maintain_runs_router_compaction(self, corpus, mutable_bundle):
        config = ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=1))
        with ShardedJunoIndex.load(mutable_bundle, config) as resident:
            supervisor = ReplicaSupervisor(resident)
            assert supervisor.maintain() == []  # nothing due: a cheap no-op
            bare = ReplicaSupervisor(resident.resident_executor())
            with pytest.raises(RecoveryError, match="bare executor"):
                bare.maintain()

    def test_engine_maybe_compact_passthrough(self, corpus, mutable_bundle):
        with ShardedJunoIndex.load(mutable_bundle, ServingConfig(executor="sequential")) as router:
            engine = ServingEngine(router)
            assert engine.maybe_compact() == []
        frozen = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        ).train(corpus.points)
        with frozen, ServingEngine(frozen) as engine:
            with pytest.raises(TypeError, match="streaming updates"):
                engine.maybe_compact()


class TestChaosHarness:
    def test_small_chaos_run_is_healthy(self, corpus, mutable_bundle):
        chaos = ShardedJunoIndex.load(
            mutable_bundle,
            ServingConfig(
                executor="resident",
                replicas=ReplicaPolicy(num_replicas=2),
                label="chaos",
            ),
        )
        control = ShardedJunoIndex.load(mutable_bundle, ServingConfig(executor="thread"))
        supervisor = ReplicaSupervisor(chaos)
        with chaos, control:
            report = run_chaos_recovery(
                chaos,
                supervisor,
                control,
                corpus.queries,
                id_start=10_000,
                k=5,
                num_readers=2,
                reads_per_client=4,
                num_writes=5,
                kill_before_write=(1, 3),
                recovery_bound_s=60.0,
                admission=AdmissionPolicy(max_queue_depth=32),
                nprobs=4,
            )
        assert report.kills_injected == 2
        assert len(report.recoveries) >= 2
        assert report.ops_replayed > 0
        assert report.stale_reads == 0
        assert report.results_match_control
        assert report.replicas_consistent
        assert report.recovery_within_bound
        assert report.healthy

    def test_chaos_rejects_out_of_range_kill_cycles(self, corpus, mutable_bundle):
        with ShardedJunoIndex.load(
            mutable_bundle,
            ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=2)),
        ) as chaos:
            supervisor = ReplicaSupervisor(chaos)
            with pytest.raises(ValueError, match="kill_before_write"):
                run_chaos_recovery(
                    chaos,
                    supervisor,
                    chaos,
                    corpus.queries,
                    id_start=10_000,
                    num_writes=3,
                    kill_before_write=(5,),
                )
