"""Tests for streaming updates through the serving stack.

Covers the serving half of the mutable-index tentpole:

* sharded routing -- ``ShardedJunoIndex.upsert/delete`` route ops to the
  owning shard, searches return global ids and merged scores stay on one
  exact scale;
* mutable bundles -- a mutable deployment saves/loads (locally and into
  resident workers) and keeps serving the mutated corpus;
* replica consistency -- resident op payloads broadcast to every live
  replica (the replicated op log) and survive a worker death with the same
  failover semantics as queries;
* replica routing -- consecutive batches alternate over a shard's live
  replicas;
* the engine mutation API.

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.datasets.synthetic import make_clustered_dataset
from repro.serving import (
    ReplicaPolicy,
    ResidentProcessShardExecutor,
    ServingEngine,
    ServingConfig,
    ShardedJunoIndex,
    WorkerFailoverError,
    merge_shard_results,
    search_results_equal,
)
from repro.updates import MutableJunoIndex, RebuildPolicy


def _resident(num_replicas=1):
    return ServingConfig(
        executor="resident", replicas=ReplicaPolicy(num_replicas=num_replicas)
    )


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
        name="updates-serving",
        num_points=600,
        num_queries=8,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        seed=5,
    )


def _train_mutable_router(
    corpus,
    num_shards=2,
    executor="sequential",
    new_id_assignment="contiguous",
    **update_kwargs,
):
    router = ShardedJunoIndex.from_dim(
        corpus.dim,
        num_shards=num_shards,
        executor=executor,
        new_id_assignment=new_id_assignment,
        **_settings(),
    )
    router.train(corpus.points)
    router.enable_updates(points=corpus.points, **update_kwargs)
    return router


class TestShardedUpdates:
    def test_upsert_and_delete_route_to_owning_shard(self, corpus):
        router = _train_mutable_router(corpus)
        assert router.mutable
        assert router.new_id_assignment == "contiguous"
        # Contiguous homing: both fresh ids fall in id block 4 -> shard 0,
        # so the burst of consecutive new ids lands on a single shard.
        new_ids = np.array([5000, 5001])
        router.upsert(new_ids, corpus.queries[:2])
        for gid in (5000, 5001):
            assert gid in router.shards[0].delta
            assert gid not in router.shards[1].delta
        result = router.search(corpus.queries[:2], 5, nprobs=4)
        assert result.ids[0, 0] == 5000 and result.ids[1, 0] == 5001
        assert router.num_points == corpus.num_points + 2

        victim = int(result.ids[0, 1])  # a trained global id
        router.delete([victim, 5000, 5001])
        after = router.search(corpus.queries, 5, nprobs=4)
        assert not np.isin(after.ids, [victim, 5000, 5001]).any()
        assert router.num_points == corpus.num_points - 1
        router.close()

    def test_legacy_modulo_homing_behind_flag(self, corpus):
        """The pre-contiguous rule survives behind ``new_id_assignment``.

        Parity: the legacy router homes consecutive fresh ids round-robin
        (5000 -> shard 0, 5001 -> shard 1), and search results match the
        contiguous router's bit-for-bit -- homing changes op fan-out, never
        scores.
        """
        legacy = _train_mutable_router(corpus, new_id_assignment="modulo")
        contiguous = _train_mutable_router(corpus)
        new_ids = np.array([5000, 5001])
        for router in (legacy, contiguous):
            router.upsert(new_ids, corpus.queries[:2])
        for shard_id, gid in ((0, 5000), (1, 5001)):
            assert gid in legacy.shards[shard_id].delta
        legacy_result = legacy.search(corpus.queries, 5, nprobs=4)
        contiguous_result = contiguous.search(corpus.queries, 5, nprobs=4)
        assert search_results_equal(legacy_result, contiguous_result)
        legacy.close()
        contiguous.close()

    def test_merged_scores_share_one_exact_scale(self, corpus):
        router = _train_mutable_router(corpus)
        # only shard 0 holds buffered vectors; shard 1 must still rescore
        router.upsert([5000], corpus.queries[:1])
        result = router.search(corpus.queries[:1], 10, nprobs=4)
        assert result.extra["reranked"] is True
        # L2 exact scores are ascending and start at the self-match
        assert result.scores[0, 0] == 0.0
        assert (np.diff(result.scores[0]) >= 0).all()
        router.close()

    def test_delete_unknown_id_raises(self, corpus):
        router = _train_mutable_router(corpus)
        with pytest.raises(KeyError, match="not live"):
            router.delete([999_999])
        router.close()

    def test_immutable_router_rejects_mutations(self, corpus):
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        ).train(corpus.points)
        with pytest.raises(RuntimeError, match="enable_updates"):
            router.upsert([1], corpus.queries[:1])
        router.close()

    def test_enable_updates_requires_corpus_and_rejects_rerank(self, corpus):
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        ).train(corpus.points)
        with pytest.raises(ValueError, match="raw corpus"):
            router.enable_updates()
        router.enable_exact_rerank(corpus.points)
        with pytest.raises(ValueError, match="exact_rerank"):
            router.enable_updates(points=corpus.points)
        router.close()

    def test_merge_with_none_mapping_keeps_global_ids(self, corpus):
        router = _train_mutable_router(corpus)
        results = [shard.search(corpus.queries, 5, nprobs=4) for shard in router.shards]
        merged = merge_shard_results(results, [None, None], 5, router.metric)
        assert merged.ids.shape == (corpus.queries.shape[0], 5)
        assert merged.ids.max() < corpus.num_points  # already-global ids
        router.close()

    def test_sharded_vs_single_mutable_parity(self, corpus):
        """Same mutations through the router and a single mutable index
        retrieve the same live set (exact scores, global ids)."""
        router = _train_mutable_router(corpus)
        from repro.core.config import JunoConfig
        from repro.core.index import JunoIndex

        single = MutableJunoIndex(
            JunoIndex(JunoConfig(num_subspaces=corpus.dim // 2, **_settings())).train(
                corpus.points
            ),
            corpus.points,
            exact_scores=True,
        )
        rng = np.random.default_rng(31)
        fresh = corpus.points[:8] + 0.02 * rng.standard_normal((8, corpus.dim))
        fresh_ids = np.arange(7000, 7008)
        removed = np.array([10, 11, 12, 13])
        for target in (router, single):
            target.upsert(fresh_ids, fresh)
            target.delete(removed)

        from repro.datasets.ground_truth import compute_ground_truth
        from repro.metrics.recall import recall_k_at_n

        keep = np.ones(corpus.num_points, dtype=bool)
        keep[removed] = False
        live_points = np.concatenate([corpus.points[keep], fresh])
        live_ids = np.concatenate([np.flatnonzero(keep), fresh_ids])
        truth = live_ids[compute_ground_truth(live_points, corpus.queries, k=10)]

        ours = router.search(corpus.queries, 10, nprobs=8)
        theirs = single.search(corpus.queries, 10, nprobs=8)
        assert not np.isin(ours.ids, removed).any()
        assert not np.isin(theirs.ids, removed).any()
        our_recall = recall_k_at_n(ours.ids, truth, 10, 10)
        their_recall = recall_k_at_n(theirs.ids, truth, 10, 10)
        # both deployments keep serving the mutated corpus; the sharded
        # router (finer per-shard clustering + exact merge rescoring) must
        # not fall below the single index's level
        assert their_recall >= 0.4
        assert our_recall >= their_recall - 0.05
        router.close()


class TestResidentMutableServing:
    @pytest.fixture(scope="class")
    def mutated_bundle(self, corpus, tmp_path_factory):
        router = _train_mutable_router(corpus)
        router.upsert([5000], corpus.queries[:1])
        router.delete([0])
        bundle = router.save(tmp_path_factory.mktemp("mutable") / "deployment")
        expected = router.search(corpus.queries, 5, nprobs=4)
        router.close()
        return bundle, expected

    def test_mutable_bundle_reloads_locally(self, corpus, mutated_bundle):
        bundle, expected = mutated_bundle
        with ShardedJunoIndex.load(bundle) as reloaded:
            assert reloaded.mutable
            observed = reloaded.search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(expected, observed)
            # and it keeps accepting mutations
            reloaded.upsert([6000], corpus.queries[1:2])
            assert reloaded.search(corpus.queries[1:2], 5, nprobs=4).ids[0, 0] == 6000

    def test_resident_workers_serve_and_mutate(self, corpus, mutated_bundle):
        bundle, expected = mutated_bundle
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            assert executor.mutable
            observed = resident.search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(expected, observed)

            resident.upsert([7777], corpus.queries[1:2])
            assert executor.ops_broadcast == 1
            assert executor.op_log(7777 % 2)[0]["op"] == "upsert"
            hit = resident.search(corpus.queries[1:2], 5, nprobs=4)
            assert hit.ids[0, 0] == 7777

            # replica consistency: two batches (round-robin sends them to
            # different replicas) both see the mutation
            other = resident.search(corpus.queries[1:3], 5, nprobs=4)
            assert other.ids[0, 0] == 7777

            # failover: kill a replica of the owning shard mid-batch; the
            # survivor serves the mutated state bit-identically
            executor.inject_failure(7777 % 2)
            survivor = resident.search(corpus.queries[1:2], 5, nprobs=4)
            assert search_results_equal(hit, survivor)
            assert executor.retried_batches >= 1

            # ops keep applying on the surviving replica
            resident.delete([7777])
            gone = resident.search(corpus.queries[1:2], 5, nprobs=4)
            assert 7777 not in gone.ids

    def test_make_resident_carries_the_mutable_flag(self, corpus, tmp_path):
        """A mutable router switched to the resident runtime must boot its
        workers from the mutable bundles it just saved (regression: the
        executor defaulted to immutable and the warm-up ping failed)."""
        router = _train_mutable_router(corpus)
        router.upsert([4242], corpus.queries[:1])
        expected = router.search(corpus.queries, 5, nprobs=4)
        router.make_resident(tmp_path / "mutable-resident", _resident())
        try:
            assert router.executor_spec.mutable
            observed = router.search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(expected, observed)
            router.delete([4242])
            assert 4242 not in router.search(corpus.queries, 5, nprobs=4).ids
        finally:
            router.close()

    def test_apply_ops_requires_mutable_deployment(self, corpus, tmp_path):
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        ).train(corpus.points)
        bundle = router.save(tmp_path / "frozen")
        router.close()
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            with pytest.raises(RuntimeError, match="immutable bundle"):
                resident.executor_spec.apply_ops(0, [{"op": "compact"}])

    def test_apply_ops_fails_over_to_survivors_and_exhausts(self, corpus, mutated_bundle):
        bundle, _ = mutated_bundle
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            executor.inject_failure(0, replica_id=0)
            report = executor.apply_ops(0, [{"op": "upsert", "ids": np.array([8000]),
                                             "vectors": corpus.queries[:1]}])
            assert report["live"] > 0
            assert executor.alive_replicas(0) == [1]
            executor.inject_failure(0, replica_id=1)
            with pytest.raises(WorkerFailoverError, match="no surviving replica"):
                executor.apply_ops(0, [{"op": "compact"}])

    def test_replica_killed_mid_broadcast_replays_bit_identically(
        self, corpus, mutated_bundle
    ):
        """Satellite acceptance: a replica that dies mid-``apply_ops``
        broadcast is respawned from the bundle, replays the retained op log
        past the missed op, and converges to the survivor's exact state."""
        bundle, _ = mutated_bundle
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            shard_id = 8400 % 2
            executor.inject_failure(shard_id, replica_id=0)
            # the broadcast kills replica 0 mid-apply; the survivor applies it
            resident.upsert([8400], corpus.queries[2:3])
            assert executor.dead_replicas() == [(shard_id, 0)]
            assert executor.op_watermark(shard_id) >= 1

            report = executor.respawn_replica(shard_id, 0)
            assert report["ops_replayed"] == executor.op_watermark(shard_id)
            states = executor.replica_states(shard_id)
            assert states[0]["digest"] == states[1]["digest"]

            # kill the survivor with the next broadcast: the replayed
            # replica alone must serve the op it never saw applied live
            executor.inject_failure(shard_id, replica_id=1)
            resident.upsert([8402], corpus.queries[3:4])
            assert executor.alive_replicas(shard_id) == [0]
            alone = resident.search(corpus.queries[2:4], 5, nprobs=4)
            assert alone.ids[0, 0] == 8400
            assert alone.ids[1, 0] == 8402


class TestReplicaRouting:
    def test_replicas_alternate_round_robin(self, corpus, tmp_path):
        """With R=2, consecutive batches of one shard go to alternate
        replicas: each worker's pipeline counts one more batch."""
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=1, executor="sequential", **_settings()
        ).train(corpus.points)
        bundle = router.save(tmp_path / "rr")
        router.close()
        executor = ResidentProcessShardExecutor(bundle, num_replicas=2)

        def batches_per_replica():
            return {
                replica: next(
                    (
                        entry["value"]
                        for entry in snapshot["counters"]
                        if entry["name"] == "repro_pipeline_batches_total"
                    ),
                    0.0,
                )
                for (_shard, replica, _pid), snapshot in executor.worker_snapshots().items()
            }

        try:
            for _ in range(2):
                executor.search_shards([None], corpus.queries, 5, {"nprobs": 4})
            executor.collect_metrics()
            assert batches_per_replica() == {0: 1.0, 1: 1.0}
        finally:
            executor.close()

    def test_round_robin_falls_back_on_replica_death(self, corpus, tmp_path):
        """A replica that dies mid-batch leaves the rotation: the batch and
        every later one are served by the survivor, with no further retry."""
        router = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=1, executor="sequential", **_settings()
        ).train(corpus.points)
        expected = router.search(corpus.queries, 5, nprobs=4)
        bundle = router.save(tmp_path / "fallback")
        router.close()
        with ShardedJunoIndex.load(bundle, _resident(num_replicas=2)) as resident:
            executor = resident.executor_spec
            assert search_results_equal(expected, resident.search(corpus.queries, 5, nprobs=4))
            executor.inject_failure(0)  # whichever replica the rotation picks next
            failover = resident.search(corpus.queries, 5, nprobs=4)
            assert search_results_equal(expected, failover)
            assert executor.retried_batches == 1
            assert len(executor.alive_replicas(0)) == 1
            for _ in range(2):
                again = resident.search(corpus.queries, 5, nprobs=4)
                assert search_results_equal(expected, again)
            assert executor.retried_batches == 1


class TestReadYourWrites:
    """Concurrent readers and writers share one async batching front-end."""

    def test_next_probe_sees_upsert_and_never_a_deleted_id(self, corpus):
        from repro.core.config import JunoConfig
        from repro.core.index import JunoIndex

        mutable = MutableJunoIndex(
            JunoIndex(JunoConfig(num_subspaces=corpus.dim // 2, **_settings())).train(
                corpus.points
            ),
            corpus.points,
        )
        engine = ServingEngine(mutable, label="mutable")
        num_readers, num_writers, reads_per_reader, writes_per_writer = 3, 2, 4, 3
        id_start = corpus.num_points + 100
        jitter = 1e-3 * np.random.default_rng(0).standard_normal(
            (num_writers * writes_per_writer, corpus.dim)
        )
        reads, invisible, stale = [], [], []

        async def reader(reader_id, scheduler):
            for request in range(reads_per_reader):
                query = corpus.queries[(reader_id + request * num_readers) % len(corpus.queries)]
                ids, _scores = await scheduler.submit(query)
                reads.append(ids)

        async def writer(writer_id, scheduler):
            previous = None
            for cycle in range(writes_per_writer):
                slot = writer_id * writes_per_writer + cycle
                new_id = id_start + slot
                # a jittered clone of a query: L2 self-search must retrieve it
                vector = corpus.queries[slot % len(corpus.queries)] + jitter[slot]
                engine.upsert([new_id], vector[None, :])
                ids, _scores = await scheduler.submit(vector)
                if new_id not in ids:
                    invisible.append(new_id)
                if previous is not None:
                    old_id, old_vector = previous
                    engine.delete([old_id])
                    ids, _scores = await scheduler.submit(old_vector)
                    if old_id in ids:
                        stale.append(old_id)
                previous = (new_id, vector)

        async def scenario():
            async with engine.serve_async(
                k=5, max_batch_size=num_readers + num_writers, max_wait_s=0.002, nprobs=4
            ) as scheduler:
                await asyncio.gather(
                    *(reader(reader_id, scheduler) for reader_id in range(num_readers)),
                    *(writer(writer_id, scheduler) for writer_id in range(num_writers)),
                )
                return scheduler.stats()

        stats = asyncio.run(scenario())
        assert len(reads) == num_readers * reads_per_reader
        # reads and probes really shared batches, so writes interleaved with them
        assert stats.mean_batch_size > 1.0
        assert invisible == []  # read-your-writes on the very next awaited probe
        assert stale == []  # a tombstoned id never surfaces


class TestEngineMutationAPI:
    def test_engine_routes_mutations_to_mutable_backends(self, corpus):
        from repro.core.config import JunoConfig
        from repro.core.index import JunoIndex

        mutable = MutableJunoIndex(
            JunoIndex(JunoConfig(num_subspaces=corpus.dim // 2, **_settings())).train(
                corpus.points
            ),
            corpus.points,
            policy=RebuildPolicy(delta_capacity=16),
        )
        engine = ServingEngine(mutable)
        assert engine.backend == "mutable-juno"
        assert engine.supports_updates
        engine.upsert([9000], corpus.queries[:1])
        result = engine.search(corpus.queries[:1], k=5, nprobs=4)
        assert result.ids[0, 0] == 9000
        engine.delete([9000])
        assert 9000 not in engine.search(corpus.queries[:1], k=5, nprobs=4).ids

    def test_engine_rejects_mutations_on_frozen_backends(self, corpus, juno_l2):
        engine = ServingEngine(juno_l2)
        assert not engine.supports_updates
        with pytest.raises(TypeError, match="streaming updates"):
            engine.upsert([1], corpus.queries[:1])
        sharded = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential", **_settings()
        ).train(corpus.points)
        frozen = ServingEngine(sharded)
        assert not frozen.supports_updates
        with pytest.raises(TypeError, match="streaming updates"):
            frozen.delete([1])
        sharded.close()
