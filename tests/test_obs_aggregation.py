"""Cross-process observability over the worker-resident runtime.

The acceptance tests of the observability tentpole, run against a real
2-shard x 2-replica resident deployment:

* worker registry snapshots piggyback on task replies and merge at the
  coordinator into exact, monotonic totals;
* a replica killed mid-run is not double-counted after respawn -- the dead
  incarnation's final snapshot keeps counting exactly once, the respawned
  process opens a fresh ``(shard, replica, pid)`` key;
* every query's trace stitches coordinator and worker spans under one
  trace id;
* the merged snapshot renders to Prometheus text with per-stage latency
  histograms aggregated across worker processes, and the live HTTP
  exporter serves it;
* legacy per-executor counter fields and the registry counters stay in
  parity.

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro.datasets.synthetic import make_clustered_dataset
from repro.obs import ObservabilityConfig, get_registry, render_prometheus, set_registry
from repro.serving import (
    ReplicaPolicy,
    ServingConfig,
    ServingEngine,
    ShardedJunoIndex,
)

NUM_SHARDS = 2
NUM_REPLICAS = 2
RT_COUNTERS = ("repro_rt_rays_total", "repro_rt_hits_total", "repro_rt_slots_total")


def _resident():
    return ServingConfig(
        executor="resident",
        replicas=ReplicaPolicy(num_replicas=NUM_REPLICAS),
    )


@pytest.fixture()
def registry():
    """A fresh registry for the coordinator's own counters (workers start
    theirs at zero when they boot)."""
    previous = set_registry(None)
    try:
        yield get_registry()
    finally:
        set_registry(previous)


@pytest.fixture(scope="module")
def corpus():
    return make_clustered_dataset(
        name="obs-aggregation",
        num_points=600,
        num_queries=8,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        seed=5,
    )


@pytest.fixture(scope="module")
def bundle(corpus, tmp_path_factory):
    sharded = ShardedJunoIndex.from_dim(
        corpus.dim,
        num_shards=NUM_SHARDS,
        executor="sequential",
        num_clusters=8,
        num_entries=8,
        num_threshold_samples=16,
        kmeans_iters=4,
        seed=3,
    ).train(corpus.points)
    return sharded.save(tmp_path_factory.mktemp("obs-agg") / "deployment")


def _counter(snapshot: dict, name: str) -> float:
    return sum(entry["value"] for entry in snapshot["counters"] if entry["name"] == name)


def _worker_total(executor, name: str) -> float:
    return _counter(executor.worker_metrics(), name)


class TestCrossProcessAggregation:
    def test_piggybacked_snapshots_sum_exactly_and_stay_monotonic(self, corpus, bundle):
        """Each search fans the batch out to one replica per shard, so the
        merged worker-side query total is exactly shards x queries x
        searches -- and it only ever grows."""
        num_queries = corpus.queries.shape[0]
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            totals = []
            for sweep in range(3):
                resident.search(corpus.queries, k=5, nprobs=4)
                totals.append(_worker_total(executor, "repro_pipeline_queries_total"))
                assert totals[-1] == NUM_SHARDS * num_queries * (sweep + 1)
            assert totals == sorted(totals)
            # snapshots arrived via piggyback alone -- no explicit collection
            assert len(executor.worker_snapshots()) >= NUM_SHARDS

    def test_merged_rt_ratios_are_ratios_of_sums(self, corpus, bundle):
        """Two workers' snapshots merge by summing, so index-health ratios
        are exported as counters: dividing the merged sums gives the pooled
        ratio, where summed per-worker ratios would read about double."""
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            result = resident.search(corpus.queries, k=5, nprobs=4)
            snapshots = executor.worker_snapshots()
            assert len(snapshots) == NUM_SHARDS
            merged = {name: _worker_total(executor, name) for name in RT_COUNTERS}
        rays, hits, slots = (merged[name] for name in RT_COUNTERS)
        assert rays == result.work.rt_rays and hits == result.work.rt_hits
        assert hits / rays == result.work.rt_hits / result.work.rt_rays
        num_entries = slots / rays
        assert num_entries == 8  # the bundle's codebook size
        per_worker = [
            {e["name"]: e["value"] for e in snap["counters"]} for snap in snapshots.values()
        ]
        assert all(w["repro_rt_hits_total"] <= w["repro_rt_slots_total"] for w in per_worker)
        summed_ratios = sum(
            w["repro_rt_hits_total"] / w["repro_rt_slots_total"] for w in per_worker
        )
        assert 0.0 < hits / slots <= 1.0 and hits / slots < summed_ratios

    def test_collect_metrics_pulls_every_live_worker(self, corpus, bundle):
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            resident.search(corpus.queries, k=5, nprobs=4)
            # the search reached one replica per shard; the pull reaches all
            assert len(executor.worker_snapshots()) == NUM_SHARDS
            merged = executor.collect_metrics()
            keys = executor.worker_snapshots()
            assert len(keys) == NUM_SHARDS * NUM_REPLICAS
            pids = {pid for _shard, _replica, pid in keys}
            assert len(pids) == NUM_SHARDS * NUM_REPLICAS
            assert os.getpid() not in pids
            total = sum(
                entry["value"]
                for entry in merged["counters"]
                if entry["name"] == "repro_pipeline_queries_total"
            )
            assert total == NUM_SHARDS * corpus.queries.shape[0]

    def test_failover_and_respawn_do_not_double_count(self, corpus, bundle):
        """The dead incarnation's final snapshot keeps counting exactly once;
        the respawned replica starts a fresh key at zero."""
        num_queries = corpus.queries.shape[0]
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            executor.collect_metrics()  # seed snapshots from all four workers
            resident.search(corpus.queries, k=5, nprobs=4)
            before = _worker_total(executor, "repro_pipeline_queries_total")
            assert before == NUM_SHARDS * num_queries

            executor.inject_failure(0)
            resident.search(corpus.queries, k=5, nprobs=4)  # fails over
            after_failover = _worker_total(executor, "repro_pipeline_queries_total")
            assert after_failover == NUM_SHARDS * num_queries * 2
            ((shard_id, replica_id),) = executor.dead_replicas()
            assert shard_id == 0
            dead_keys = {
                key for key in executor.worker_snapshots() if key[:2] == (0, replica_id)
            }
            assert len(dead_keys) == 1

            executor.respawn_replica(shard_id, replica_id)
            resident.search(corpus.queries, k=5, nprobs=4)
            executor.collect_metrics()
            after_respawn = _worker_total(executor, "repro_pipeline_queries_total")
            # exact: the dead incarnation's counts appear once, the fresh
            # process starts at zero, and the third sweep lands on top
            assert after_respawn == NUM_SHARDS * num_queries * 3
            respawn_keys = {
                key for key in executor.worker_snapshots() if key[:2] == (0, replica_id)
            }
            # old and new incarnation coexist under distinct pids
            assert dead_keys < respawn_keys
            assert len(respawn_keys) == 2

    def test_workers_boot_with_an_empty_registry(self, corpus, bundle, registry):
        """Searches the coordinator ran before the workers booted are not the
        workers': every worker reports zero batches until it serves one."""
        with ShardedJunoIndex.load(bundle) as local:
            local.search(corpus.queries, k=5, nprobs=4)
        assert _counter(registry.snapshot(), "repro_pipeline_batches_total") > 0
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            executor.collect_metrics()
            snapshots = executor.worker_snapshots()
        assert len(snapshots) == NUM_SHARDS * NUM_REPLICAS
        for snapshot in snapshots.values():
            assert _counter(snapshot, "repro_pipeline_batches_total") == 0

    def test_legacy_fields_and_registry_counters_agree(self, corpus, bundle, registry):
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            executor = resident.executor_spec
            executor.inject_failure(0)
            resident.search(corpus.queries, k=5, nprobs=4)
            ((shard_id, replica_id),) = executor.dead_replicas()
            executor.respawn_replica(shard_id, replica_id)
            counters = {
                (entry["name"]): entry["value"]
                for entry in registry.snapshot()["counters"]
            }
            assert counters["repro_failover_retries_total"] == executor.retried_batches == 1
            assert counters["repro_replicas_respawned_total"] == executor.replicas_respawned == 1
            assert counters["repro_ops_replayed_total"] == executor.ops_replayed


class TestStitchedTraces:
    def test_every_query_trace_spans_coordinator_and_workers(
        self, corpus, bundle, registry
    ):
        with ShardedJunoIndex.load(bundle, _resident()) as resident:
            for _sweep in range(2):
                result = resident.search(corpus.queries, k=5, nprobs=4)
                exported = result.extra["trace"]
                spans = exported["spans"]
                assert {span["trace_id"] for span in spans} == {exported["trace_id"]}
                pids = {span["pid"] for span in spans}
                assert os.getpid() in pids
                assert len(pids - {os.getpid()}) == NUM_SHARDS  # one worker pid per leg
                fan_out = next(s for s in spans if s["name"] == "fan_out")
                worker_roots = [s for s in spans if s["name"] == "shard_search"]
                assert len(worker_roots) == NUM_SHARDS
                for root in worker_roots:
                    assert root["parent_id"] == fan_out["span_id"]
                    assert root["pid"] != os.getpid()
                stage_spans = [s for s in spans if s["name"].startswith("stage:")]
                assert len(stage_spans) >= NUM_SHARDS  # worker pipeline stages came back
                worker_ids = {root["span_id"] for root in worker_roots}
                assert all(s["parent_id"] in worker_ids for s in stage_spans)


class TestExposition:
    def test_merged_snapshot_renders_per_stage_histograms(self, corpus, bundle, registry):
        config = _resident()
        with ShardedJunoIndex.load(bundle, config) as resident:
            with ServingEngine(resident, config=config) as engine:
                engine.search(corpus.queries, k=5, nprobs=4)
                text = render_prometheus(engine.metrics_snapshot())
        assert "# TYPE repro_stage_seconds histogram" in text
        # per-stage series, aggregated across the worker processes
        assert 'repro_stage_seconds_bucket{le="+Inf",stage="score"}' in text
        assert 'repro_stage_seconds_count{stage="top_k"}' in text
        assert "repro_pipeline_batches_total" in text

    def test_live_exporter_serves_cross_process_stage_histograms(self, corpus, bundle, registry):
        """The opt-in HTTP exporter, end to end over a resident deployment."""
        config = _resident().with_updates(observability=ObservabilityConfig(exporter=True))
        with ShardedJunoIndex.load(bundle, config) as resident:
            with ServingEngine(resident, config=config) as engine:
                for _ in range(3):
                    engine.search(corpus.queries, k=5, nprobs=4)
                url = engine.metrics_exporter.url
                with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
                    text = response.read().decode("utf-8")
                with urllib.request.urlopen(f"{url}/metrics.json", timeout=10) as response:
                    snapshot = json.loads(response.read().decode("utf-8"))
                worker_pids = {
                    pid for _shard, _replica, pid in resident.resident_executor().worker_snapshots()
                }
        assert "# TYPE repro_stage_seconds histogram" in text
        assert any(h["name"] == "repro_stage_seconds" for h in snapshot["histograms"])
        assert len(worker_pids) >= 2 and os.getpid() not in worker_pids
