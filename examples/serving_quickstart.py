"""Serving quickstart: shard, persist, reload and serve batched traffic.

Run with::

    python examples/serving_quickstart.py

The script trains a 4-shard JUNO deployment on a DEEP-like surrogate,
persists every shard to disk, restores the deployment in a fresh router
(no retraining), and then serves a single-query stream through the
batching scheduler and the engine facade -- printing recall, the measured
scheduler throughput and the modelled RTX 4090 throughput for JUNO and
the exact baseline behind the same interface.

It then switches the deployment to the worker-resident runtime (each shard
loaded once into replicated worker processes; per-batch IPC is query-only)
and serves concurrent asyncio clients through the async batching front-end
-- the three-layer serving architecture described in ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro import (
    CostModel,
    ExactSearch,
    ReplicaPolicy,
    ServingConfig,
    ServingEngine,
    ShardedJunoIndex,
    make_deep_like,
    recall_at,
)

NUM_SHARDS = 4
K = 10


def main() -> None:
    # 1. Dataset plus exact ground truth.
    dataset = make_deep_like(num_points=6_000, num_queries=64)
    ground_truth = dataset.ensure_ground_truth(k=K)
    print(f"dataset: {dataset.name}  N={dataset.num_points}  D={dataset.dim}")

    # 2. Train the sharded deployment: four independent JUNO indexes, each
    #    owning a round-robin partition of the corpus.
    sharded = ShardedJunoIndex.from_dim(
        dataset.dim,
        num_shards=NUM_SHARDS,
        num_clusters=48,
        num_entries=64,
        num_threshold_samples=64,
        kmeans_iters=10,
        seed=7,
    )
    sharded.train(dataset.points)
    print(f"trained {NUM_SHARDS} shards, sizes {sharded.shard_sizes()}")

    # 3. Persist and restore: a serving process starts from the bundle
    #    without paying any training cost.
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "deployment"
        sharded.save(bundle)
        files = sorted(p.relative_to(bundle) for p in bundle.rglob("*") if p.is_file())
        print(f"persisted {len(files)} files under {bundle.name}/ (e.g. {files[0]})")
        serving = ShardedJunoIndex.load(bundle)
    print("restored the deployment from disk (no retraining)")

    # 4. Serve a single-query stream through the scheduler; compare with the
    #    exact baseline behind the same engine interface.
    cost_model = CostModel("rtx4090")
    juno_engine = ServingEngine(serving, label="JUNO x4 shards", cost_model=cost_model)
    exact_engine = ServingEngine(
        ExactSearch(metric=dataset.metric).add(dataset.points),
        label="exact",
        cost_model=cost_model,
    )

    header = f"{'system':<16} {'recall@10':>10} {'measured QPS':>14} {'modelled QPS':>14}"
    print()
    print(header)
    for engine, params in ((juno_engine, {"nprobs": 8}), (exact_engine, {})):
        scheduler = engine.make_scheduler(k=K, max_batch_size=16, **params)
        tickets = [scheduler.submit(query) for query in dataset.queries]
        scheduler.flush()
        ids = [ticket.result()[0] for ticket in tickets]
        recall = recall_at(ids, ground_truth, K)
        stats = scheduler.stats()
        result = engine.search(dataset.queries, k=K, **params)
        modelled = engine.modelled_qps(result)
        print(
            f"{engine.label:<16} {recall:>10.3f} {stats.qps:>14.3g} {modelled:>14.3g}"
            f"   ({stats.num_batches} batches of ~{stats.mean_batch_size:.0f})"
        )

    # 5. Worker-resident serving + async front-end: persist the deployment,
    #    boot two worker processes per shard (each loads its shard bundle
    #    once; afterwards only query arrays cross the process boundary) and
    #    serve concurrent asyncio clients through `await submit(query)`.
    with tempfile.TemporaryDirectory() as tmp:
        serving.make_resident(
            Path(tmp) / "resident",
            ServingConfig(executor="resident", replicas=ReplicaPolicy(num_replicas=2)),
        )
        # the engine context shuts the resident worker processes down even if
        # a step below fails (engine.close() -> router.close() -> executor)
        with ServingEngine(serving, label="JUNO resident") as resident_engine:

            async def async_clients() -> float:
                async with resident_engine.serve_async(
                    k=K, max_batch_size=16, max_wait_s=0.002, nprobs=8
                ) as scheduler:
                    tasks = [
                        asyncio.ensure_future(scheduler.submit(query))
                        for query in dataset.queries
                    ]
                    rows = await asyncio.gather(*tasks)
                ids = [row_ids for row_ids, _ in rows]
                return recall_at(ids, ground_truth, K)

            async_recall = asyncio.run(async_clients())
            payload_bytes = serving.executor_spec.last_batch_payload_bytes
            print()
            print(
                f"resident async serving: recall@10 {async_recall:.3f}, "
                f"last fan-out shipped {payload_bytes / 1024:.1f} KiB of query payloads "
                f"({NUM_SHARDS} shards x 2 replicas resident in workers)"
            )
            # Measured serving throughput and latency live in the ledger:
            #   python3 benchmarks/ledger/run.py --workload resident_serving

    # 6. Streaming updates (docs/updates.md): make the original router
    #    mutable, then upsert -> query -> delete while it keeps serving.
    #    Upserts land in an exact-scored delta buffer (visible to the very
    #    next search), deletes are tombstoned so they never surface, and the
    #    ops route to the shard that owns each id.
    sharded.enable_updates(points=dataset.points)
    fresh_id = dataset.num_points + 1
    fresh_vector = dataset.queries[0][None, :]

    sharded.upsert([fresh_id], fresh_vector)
    hit = sharded.search(fresh_vector, k=3, nprobs=8)
    print()
    print(f"upserted id {fresh_id}: top-3 for its own vector -> {hit.ids[0].tolist()}")

    sharded.delete([fresh_id])
    gone = sharded.search(fresh_vector, k=3, nprobs=8)
    assert fresh_id not in gone.ids
    print(f"deleted id {fresh_id}: top-3 now {gone.ids[0].tolist()} (tombstone holds)")
    print(f"live points: {sharded.num_points} (back to the trained corpus)")
    sharded.close()


if __name__ == "__main__":
    main()
