"""Unit tests for the observability package (:mod:`repro.obs`).

Covers the metrics registry (instruments, snapshots, merging, Prometheus
rendering), the shared clock, structured logging, the frozen
:class:`ObservabilityConfig`, the HTTP exporter, and per-query tracing --
including in-process trace stitching through ``JunoIndex.search`` and a
sequential-executor ``ShardedJunoIndex.search``.  Cross-process aggregation
over the worker-resident runtime lives in ``tests/test_obs_aggregation.py``.
"""

from __future__ import annotations

import json
import logging
import math
import urllib.error
import urllib.request

import pytest

from repro.obs import clock as obs_clock
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsExporter,
    ObservabilityConfig,
    Span,
    Trace,
    get_registry,
    merge_snapshots,
    render_prometheus,
    set_registry,
)
from repro.obs.log import PACKAGE_LOGGER_NAME, event, get_logger


@pytest.fixture()
def registry():
    """A fresh default registry, restored after the test."""
    previous = set_registry(None)
    try:
        yield get_registry()
    finally:
        set_registry(previous)


class TestInstruments:
    def test_counter_is_monotonic_and_labelled(self, registry):
        counter = registry.counter("requests_total", stage="score")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        # get-or-create: same (name, labels) is the same instrument
        assert registry.counter("requests_total", stage="score") is counter
        assert registry.counter("requests_total", stage="merge") is not counter
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        gauge = registry.gauge("queue_depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0

    def test_histogram_percentiles_are_ordered(self, registry):
        hist = registry.histogram("latency_seconds")
        for value in (0.0001, 0.001, 0.002, 0.01, 0.02, 0.1, 0.5, 1.0, 2.0, 8.0):
            hist.observe(value)
        assert hist.count == 10
        assert hist.sum == pytest.approx(11.6331)
        p50, p90, p99 = hist.percentile(0.5), hist.percentile(0.9), hist.percentile(0.99)
        assert 0 < p50 <= p90 <= p99 <= DEFAULT_LATENCY_BUCKETS[-1]
        summary = hist.summary()
        assert summary["count"] == 10
        assert summary["p50"] == pytest.approx(p50)

    def test_histogram_overflow_lands_in_inf_bucket(self, registry):
        hist = registry.histogram("latency_seconds")
        hist.observe(1e9)
        # +Inf bucket percentiles report the last finite bound
        assert hist.percentile(0.5) == DEFAULT_LATENCY_BUCKETS[-1]

    def test_empty_histogram_percentile_is_nan(self, registry):
        assert math.isnan(registry.histogram("latency_seconds").percentile(0.5))

    def test_bad_quantile_and_bad_buckets_raise(self, registry):
        hist = registry.histogram("latency_seconds")
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            registry.histogram("unsorted", buckets=(2.0, 1.0))


class TestSnapshots:
    def test_snapshot_shape_is_json_able(self, registry):
        registry.counter("a_total", stage="x").inc(2)
        registry.gauge("b").set(7)
        registry.histogram("c_seconds").observe(0.003)
        snap = registry.snapshot()
        json.dumps(snap)  # must be JSON-able: it rides the IPC boundary
        assert snap["counters"] == [{"name": "a_total", "labels": {"stage": "x"}, "value": 2.0}]
        assert snap["gauges"][0]["value"] == 7.0
        (hist,) = snap["histograms"]
        assert hist["count"] == 1 and len(hist["counts"]) == len(hist["buckets"]) + 1

    def test_merge_sums_counters_gauges_and_buckets(self, registry):
        registry.counter("a_total").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat_seconds").observe(0.01)
        snap = registry.snapshot()
        merged = merge_snapshots([snap, snap, {"not": "a snapshot"}, None])
        assert merged["counters"][0]["value"] == 6.0
        assert merged["gauges"][0]["value"] == 4.0
        (hist,) = merged["histograms"]
        assert hist["count"] == 2
        assert sum(hist["counts"]) == 2

    def test_merge_keeps_first_on_bucket_mismatch(self):
        a = {"histograms": [{"name": "h", "labels": {}, "buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}]}
        b = {"histograms": [{"name": "h", "labels": {}, "buckets": [2.0], "counts": [5, 0], "sum": 9.0, "count": 5}]}
        (hist,) = merge_snapshots([a, b])["histograms"]
        assert hist["count"] == 1  # mismatched bounds are dropped, not mis-summed

    def test_render_prometheus_text(self, registry):
        registry.counter("repro_x_total", stage="rt select").inc(2)
        registry.gauge("repro_depth").set(3)
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0)).observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{stage="rt select"} 2' in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        # cumulative buckets: 0.05 <= 0.1; 5.0 lands in +Inf
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text


class TestClock:
    def test_default_is_perf_counter_like(self):
        a = obs_clock.now()
        b = obs_clock.now()
        assert b >= a

    def test_use_clock_swaps_and_restores(self):
        fake = lambda: 42.0  # noqa: E731
        with obs_clock.use_clock(fake):
            assert obs_clock.now() == 42.0
        assert obs_clock.now() != 42.0

    def test_resolve_prefers_explicit_clock(self):
        fake = lambda: 1.0  # noqa: E731
        assert obs_clock.resolve(fake) is fake
        assert obs_clock.resolve(None) is obs_clock.now

    def test_schedulers_resolve_none_to_shared_clock(self, juno_l2):
        from repro.serving import BatchingScheduler, ServingEngine

        scheduler = BatchingScheduler(ServingEngine(juno_l2), k=3)
        assert scheduler.clock is obs_clock.now
        explicit = lambda: 0.0  # noqa: E731
        assert BatchingScheduler(ServingEngine(juno_l2), k=3, clock=explicit).clock is explicit


class TestLogging:
    def test_package_logger_is_silent_by_default(self):
        package_logger = logging.getLogger(PACKAGE_LOGGER_NAME)
        assert any(isinstance(h, logging.NullHandler) for h in package_logger.handlers)

    def test_event_formats_key_value_lines(self, caplog):
        logger = get_logger("test.events")
        with caplog.at_level(logging.INFO, logger=PACKAGE_LOGGER_NAME):
            event(logger, logging.INFO, "replica_respawned", shard=1, replica=0)
            event(logger, logging.WARNING, "wal_tail_repaired", kind="torn path=x")
        assert "replica_respawned shard=1 replica=0" in caplog.text
        # values containing spaces/equals are repr-quoted to stay grep-able
        assert "wal_tail_repaired kind='torn path=x'" in caplog.text

    def test_event_below_level_emits_nothing(self, caplog):
        logger = get_logger("test.quiet")
        with caplog.at_level(logging.ERROR, logger=PACKAGE_LOGGER_NAME):
            event(logger, logging.DEBUG, "noise", key="value")
        assert caplog.text == ""


class TestObservabilityConfig:
    def test_defaults_round_trip(self):
        config = ObservabilityConfig()
        assert not config.exporter
        assert ObservabilityConfig.from_dict(config.to_dict()) == config

    def test_piggyback_metrics_key_is_unknown(self):
        """Worker replies always carry their metrics snapshot; the key that
        switched that off is rejected like any other unknown key."""
        with pytest.raises(ValueError, match="piggyback_metrics"):
            ObservabilityConfig.from_dict({"piggyback_metrics": False})

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(port=-1)
        with pytest.raises(ValueError):
            ObservabilityConfig(port=70000)
        with pytest.raises(ValueError):
            ObservabilityConfig(host="")
        with pytest.raises(ValueError):
            ObservabilityConfig.from_dict({"exporter": True, "bogus": 1})

    def test_nested_in_serving_config(self):
        from repro.serving import ServingConfig

        config = ServingConfig(observability=ObservabilityConfig(exporter=True, port=9999))
        data = config.to_dict()
        assert data["observability"]["exporter"] is True
        rebuilt = ServingConfig.from_dict(data)
        assert rebuilt.observability == config.observability


class TestExporter:
    def _fetch(self, url: str) -> tuple[int, bytes]:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()

    def test_serves_metrics_json_and_health(self, registry):
        registry.counter("repro_demo_total").inc(5)
        with MetricsExporter(registry.snapshot) as exporter:
            status, body = self._fetch(f"{exporter.url}/metrics")
            assert status == 200 and b"repro_demo_total 5" in body
            status, body = self._fetch(f"{exporter.url}/metrics.json")
            assert json.loads(body)["counters"][0]["value"] == 5.0
            status, body = self._fetch(f"{exporter.url}/healthz")
            assert status == 200 and body == b"ok\n"
        assert not exporter.running

    def test_unknown_path_is_404_and_collect_failure_is_500(self):
        def broken():
            raise RuntimeError("collect exploded")

        with MetricsExporter(broken) as exporter:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._fetch(f"{exporter.url}/nope")
            err.value.close()  # the error carries the response body
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                self._fetch(f"{exporter.url}/metrics")
            err.value.close()
            assert err.value.code == 500

    def test_requires_callable_collect(self):
        with pytest.raises(TypeError):
            MetricsExporter({"not": "callable"})


class TestTrace:
    def test_nested_spans_form_a_tree(self):
        trace = Trace()
        with trace.span("outer", k=5) as outer:
            with trace.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attributes == {"k": 5}
        assert {s.trace_id for s in trace.spans} == {trace.trace_id}
        assert trace.to_dict()["spans"][0]["name"] == "inner"  # closed first

    def test_context_propagates_and_adopt_stitches(self):
        coordinator = Trace()
        with coordinator.span("fan_out"):
            context = coordinator.context()
            # context dicts are what ride the IPC boundary
            json.dumps(context)
            worker = Trace.ensure(context)
            with worker.span("shard_search", shard=0):
                pass
            payload = worker.to_dict()["spans"]
        adopted = coordinator.adopt(payload)
        assert adopted == 1
        assert {s.trace_id for s in coordinator.spans} == {coordinator.trace_id}
        shard_span = next(s for s in coordinator.spans if s.name == "shard_search")
        fan_out = next(s for s in coordinator.spans if s.name == "fan_out")
        assert shard_span.parent_id == fan_out.span_id

    def test_ensure_coercions(self):
        trace = Trace()
        assert Trace.ensure(trace) is trace
        assert Trace.ensure(None).trace_id != trace.trace_id
        child = Trace.ensure({"trace_id": "abc", "parent_span_id": "p-1"})
        assert child.trace_id == "abc" and child.current_span_id == "p-1"
        with pytest.raises(TypeError):
            Trace.ensure(42)

    def test_span_round_trips_through_dict(self):
        span = Span("t", "s-1", "merge", parent_id="p", start_s=1.0, duration_s=0.5, pid=7)
        assert Span.from_dict(span.to_dict()).to_dict() == span.to_dict()


class TestTraceIntegration:
    def test_juno_search_records_stage_spans_when_traced(self, juno_l2, l2_dataset, registry):
        trace = Trace()
        result = juno_l2.search(l2_dataset.queries[:4], k=5, nprobs=4, trace=trace)
        exported = result.extra["trace"]
        assert exported["trace_id"] == trace.trace_id
        names = {span["name"] for span in exported["spans"]}
        assert "stage:score" in names and "stage:top_k" in names
        # the traversal is a child of the RT stage, so the program's own
        # trace separates it from the hit-time decode
        rt_stage = next(s for s in exported["spans"] if s["name"] == "stage:rt_select")
        traversals = [s for s in exported["spans"] if s["name"] == "rt_trace"]
        assert traversals and all(s["parent_id"] == rt_stage["span_id"] for s in traversals)
        # one traversal per block of rays, each over every subspace
        assert sum(s["attributes"]["rays"] for s in traversals) == 4 * 4
        assert 0.0 < sum(s["duration_s"] for s in traversals) <= rt_stage["duration_s"]
        assert result.extra["stage_seconds"]["rt_select"] == rt_stage["duration_s"]
        # the score stage gathers from the LUT as it is: no child span
        score_stage = next(s for s in exported["spans"] if s["name"] == "stage:score")
        assert not [s for s in exported["spans"] if s["parent_id"] == score_stage["span_id"]]

    def test_untraced_search_stays_span_free(self, juno_l2, l2_dataset, registry):
        result = juno_l2.search(l2_dataset.queries[:4], k=5, nprobs=4)
        assert "trace" not in result.extra

    def test_sharded_search_stitches_one_trace(self, registry):
        from repro.datasets.synthetic import make_clustered_dataset
        from repro.serving import ShardedJunoIndex

        corpus = make_clustered_dataset(
            name="obs-trace", num_points=400, num_queries=6, dim=8,
            num_components=8, query_jitter=0.2, seed=11,
        )
        sharded = ShardedJunoIndex.from_dim(
            corpus.dim, num_shards=2, executor="sequential",
            num_clusters=8, num_entries=4, num_threshold_samples=16,
            kmeans_iters=3, seed=3,
        ).train(corpus.points)
        result = sharded.search(corpus.queries, k=5, nprobs=4)
        exported = result.extra["trace"]
        trace_ids = {span["trace_id"] for span in exported["spans"]}
        assert trace_ids == {exported["trace_id"]}
        names = [span["name"] for span in exported["spans"]]
        assert names.count("stage:score") == 2  # one per shard leg
        for required in ("sharded_search", "fan_out", "merge"):
            assert required in names
        root = next(s for s in exported["spans"] if s["name"] == "sharded_search")
        assert root["parent_id"] is None

    def test_engine_forwards_trace_param(self, juno_l2, l2_dataset, registry):
        from repro.serving import ServingEngine

        trace = Trace()
        with ServingEngine(juno_l2) as engine:
            assert engine.accepts("trace")
            result = engine.search(l2_dataset.queries[:2], k=3, nprobs=4, trace=trace)
        assert result.extra["trace"]["trace_id"] == trace.trace_id


class TestPipelineInstrumentation:
    def test_instrumented_run_publishes_stage_metrics(self, juno_l2, l2_dataset, registry):
        result = juno_l2.search(l2_dataset.queries[:4], k=5, nprobs=4)
        snap = registry.snapshot()
        counters = {entry["name"]: entry["value"] for entry in snap["counters"]}
        assert counters["repro_rt_rays_total"] == result.work.rt_rays
        assert counters["repro_rt_hits_total"] == result.work.rt_hits
        assert (
            counters["repro_rt_hits_total"] / counters["repro_rt_slots_total"]
            == result.selected_entry_fraction
        )
        # ratios are not exported as gauges: merged snapshots sum them
        assert not {"repro_rt_hits_per_ray", "repro_selected_entry_fraction"} & {
            entry["name"] for entry in snap["gauges"]
        }
        counter_names = {entry["name"] for entry in snap["counters"]}
        histogram_names = {entry["name"] for entry in snap["histograms"]}
        assert "repro_pipeline_batches_total" in counter_names
        assert "repro_stage_seconds" in histogram_names
        queries_total = next(
            entry for entry in snap["counters"]
            if entry["name"] == "repro_pipeline_queries_total"
        )
        assert queries_total["value"] == 4.0

    def test_bare_pipeline_publishes_nothing(self, juno_l2, l2_dataset, registry):
        from repro.pipeline import default_search_pipeline

        bare = default_search_pipeline()
        bare.instrument = False
        juno_l2.search(l2_dataset.queries[:4], k=5, nprobs=4, pipeline=bare)
        snap = registry.snapshot()
        assert snap["counters"] == [] and snap["histograms"] == [] and snap["gauges"] == []

    def test_composition_preserves_instrument_flag(self):
        from repro.pipeline import default_search_pipeline

        bare = default_search_pipeline()
        bare.instrument = False
        assert bare.without_stage("top_k").instrument is False


class TestTrainInstrumentation:
    def test_train_exports_its_four_steps(self, l2_dataset, registry):
        from repro.core.index import JunoIndex

        index = JunoIndex.for_dataset(l2_dataset, num_clusters=8, num_entries=16, kmeans_iters=2)
        start = obs_clock.now()
        index.train(l2_dataset.points)
        wall = obs_clock.now() - start
        steps = {
            entry["labels"]["step"]: entry["value"]
            for entry in registry.snapshot()["gauges"]
            if entry["name"] == "repro_train_step_seconds"
        }
        assert set(steps) == {"ivf", "pq_train", "encode", "finalize"}
        assert all(seconds > 0.0 for seconds in steps.values())
        assert sum(steps.values()) <= wall


class TestWalInstrumentation:
    """What an operator needs to see the durability table's bound hold."""

    def test_pending_records_gauge_follows_the_committer(self, tmp_path, registry):
        import time

        from repro.updates.wal import DurabilityPolicy, WriteAheadLog

        pending = registry.gauge("repro_wal_pending_records")
        wal = WriteAheadLog(tmp_path / "ops.wal", DurabilityPolicy("batch", group_window_s=0.02))
        wal.append("compact")  # creates the file: durable on return
        assert pending.value == 0
        wal.append("compact")
        wal.append("compact")
        assert pending.value == wal.flushed_seq - wal.durable_seq == 2  # set by append ...
        deadline = time.monotonic() + 2.0
        while pending.value and time.monotonic() < deadline:
            time.sleep(0.001)
        assert wal.durable_seq == 3 and pending.value == 0  # ... and by the committer
        wal.close()

    def test_bytes_counter_is_the_size_of_the_log(self, tmp_path, registry):
        from repro.updates.wal import WriteAheadLog

        wal = WriteAheadLog(tmp_path / "ops.wal")
        wal.append("upsert", ids=[1, 2], vectors=[[0.5] * 4, [1.5] * 4])
        wal.append("delete", ids=[1])
        wal.close()
        assert registry.counter("repro_wal_bytes_total").value == wal.path.stat().st_size
        assert registry.counter("repro_wal_appends_total").value == 2
        assert registry.gauge("repro_wal_pending_records").value == 0  # "never" tracks none
