"""``resident_serving``: two shards in worker processes behind the async scheduler.

The deployment is the one ``docs/serving.md`` describes: a
``ShardedJunoIndex`` trained in process, saved as a bundle, and loaded back
with ``executor="resident"`` so each shard lives in its own worker process;
a ``ServingEngine`` over it, fed by an ``AsyncBatchingScheduler``.  Two
asyncio clients (the machine has two cores) each await an answer before
sending the next query, so batches hold about two queries and every batch
pays one fan-out: submit, pickle, worker search, reply, merge.

The trained in-process router is kept as the reference: the same shards
searched through the sequential executor must return the same ids, and its
latency is the denominator of the fan-out tax.
"""

from __future__ import annotations

import asyncio
import bisect
import pickle
import statistics
from contextlib import ExitStack
from time import perf_counter

import numpy as np

import repro.serving.shard as shard_module
from repro.errors import OverloadError, ServingError
from repro.serving import ReplicaPolicy, ServingConfig, ServingEngine, ShardedJunoIndex

from . import spans as sp
from .common import (
    Inputs,
    Ledger,
    Sizes,
    Speedometer,
    equal_slices,
    loop_metrics,
    median,
    peak_rss_mb,
    percentile,
    pool_rows,
    pss_mb,
    recall_10_at_10,
    scratch_dir,
)
from .search_workloads import (
    SETUP_TARGETS,
    SPEED_SAMPLE_S,
    add_speed_spans,
    STAGE_SPANS,
    Requests,
    corrected_qps,
    count_metrics,
    request_scale,
    setup_layer_metrics,
    tail_metrics,
)

#: Reply sizes are computed with ``pickle.dumps`` by the benchmark, inside the
#: traced request, so only this many batches pay for it.
REPLY_SIZE_BATCHES = 8
#: Requests of the in-process latency reference.
INPROCESS_REQUESTS = 24


def serve_phase(
    engine, sizes: Sizes, pool, seconds: float, start: int, ledger: Ledger, phase, speedometer=None
):
    """``num_clients`` closed-loop asyncio clients for ``seconds``.

    Client ``c`` walks the pool from ``start + c`` in strides of the client
    count, so together they issue every pool row once, in order.  One request
    is one ``submit`` of one query.  A speedometer, when given, is sampled by
    a task of its own between batches.
    """
    clients = sizes.num_clients

    async def sample_speed(deadline: float) -> None:
        while perf_counter() < deadline:
            speedometer.sample()
            await asyncio.sleep(SPEED_SAMPLE_S)

    async def client(scheduler, offset: int, deadline: float, requests: Requests) -> None:
        cursor = start + offset
        while perf_counter() < deadline:
            query = pool[cursor % pool.shape[0]]
            begun = perf_counter()
            phase.attempted += 1
            try:
                ids, _ = await scheduler.submit(query)
            except OverloadError:
                ledger.notes["overloaded"] = ledger.notes.get("overloaded", 0) + 1
                ledger.fail(phase, "request refused by admission control")
            except ServingError as exc:
                ledger.fail(phase, f"request failed: {exc}")
            else:
                requests.record(cursor, begun, perf_counter(), ids.copy())
            cursor += clients

    async def drive() -> Requests:
        async with engine.serve_async(
            k=sizes.k,
            max_batch_size=clients,
            max_wait_s=sizes.max_wait_s,
            nprobs=sizes.nprobs,
        ) as scheduler:
            requests = Requests(perf_counter())
            deadline = requests.phase_start + seconds
            tasks = [
                asyncio.ensure_future(client(scheduler, offset, deadline, requests))
                for offset in range(clients)
            ]
            if speedometer is not None:
                tasks.append(asyncio.ensure_future(sample_speed(deadline)))
            await asyncio.gather(*tasks)
            return requests

    requests = asyncio.run(drive())
    phase.duration_s = requests.wall
    phase.samples = len(requests)
    for ids in requests.id_rows:
        ledger.check_rows(phase, ids, sizes.num_points)
    return requests


def ids_in_pool_order(requests: Requests, start: int = 0):
    """``(count, ids)`` of the longest run of pool rows ``start, start+1, ...`` served."""
    order = np.argsort(requests.first_query, kind="stable")
    cursors = np.asarray(requests.first_query)[order]
    count = 0
    while count < cursors.shape[0] and cursors[count] == start + count:
        count += 1
    ids = np.concatenate([requests.id_rows[i] for i in order[:count]]) if count else np.zeros((0, 1))
    return count, ids


def inprocess_search(reference, sizes: Sizes, queries):
    return reference.search(queries, sizes.k, nprobs=sizes.nprobs)


def check_against_inprocess(ledger: Ledger, reference, sizes: Sizes, pool, requests: Requests):
    """Resident ids must equal the same shards searched in this process.

    Returns the in-process results (the traced run takes its counts from them:
    a fixed sample, so the counts repeat exactly).
    """
    phase = ledger.phase("inprocess_identity")
    count, ids = ids_in_pool_order(requests)
    sample = min(sizes.identity_sample, count)
    begun = perf_counter()
    results = [
        inprocess_search(reference, sizes, pool_rows(pool, lo, min(sizes.batch, sample - lo)))
        for lo in range(0, sample, sizes.batch)
    ]
    phase.duration_s = perf_counter() - begun
    ledger.check_identical(
        phase,
        ids[:sample],
        np.concatenate([r.ids for r in results]) if results else np.zeros((0, 1)),
        "resident against in-process sequential executor",
    )
    return results, sample


class BatchTracer:
    """Turns each traced ``engine.search`` into a batch tree of spans.

    The coordinator's layers are timed by the benchmark's wrappers.  What the
    workers did is only visible in the program's own ``result.extra["trace"]``
    (read, never altered): its ``shard_search`` and ``stage:*`` spans are
    adopted under the fan-out span.
    """

    def __init__(self, recorder: sp.SpanRecorder, executor) -> None:
        self.recorder = recorder
        self.executor = executor
        self.batches: list[sp.Span] = []
        self.sizes: list[int] = []
        self.request_bytes: list[int] = []
        self.reply_bytes: list[int] = []
        self.cache_hits = 0
        self.cache_misses = 0

    def on_result(self, span: sp.Span, result) -> None:
        if span.name == "serving.fan_out":
            if len(self.reply_bytes) < REPLY_SIZE_BATCHES:
                self.reply_bytes.append(sum(len(pickle.dumps(reply)) for reply in result))
            return
        if span.name != "serving.engine_search":
            return
        label = f"batch-{len(self.batches)}"
        tree = self.recorder.spans[span.id :]
        for node in tree:
            node.request = label
        self.batches.append(span)
        self.sizes.append(int(result.ids.shape[0]))
        self.request_bytes.append(int(self.executor.last_batch_payload_bytes))
        for counts in result.extra.get("stage_cache", {}).values():
            self.cache_hits += counts.get("hits", 0)
            self.cache_misses += counts.get("misses", 0)
        fan_out = next((node for node in tree if node.name == "serving.fan_out"), None)
        if fan_out is None:
            return
        adopted = {}
        program_spans = result.extra.get("trace", {}).get("spans", [])
        for item in program_spans:
            if item["name"] == "shard_search":
                adopted[item["span_id"]] = self.recorder.add(
                    "serving.worker_search",
                    item["start_s"],
                    item["start_s"] + item["duration_s"],
                    parent=fan_out.id,
                    request=label,
                    pid=item["pid"],
                )
        for item in program_spans:
            worker = adopted.get(item.get("parent_id"))
            if worker is not None and item["name"].startswith("stage:"):
                self.recorder.add(
                    "pipeline." + item["name"][len("stage:") :],
                    item["start_s"],
                    item["start_s"] + item["duration_s"],
                    parent=worker.id,
                    request=label,
                    pid=item["pid"],
                )


def link_requests(recorder: sp.SpanRecorder, requests: Requests, batches) -> list:
    """One ``request`` span per client request: queue wait, then its batch.

    Returns ``(request span, batch span)`` pairs.  A closed-loop client has
    one query in flight, so its batch is the first to start after it submitted.
    """
    starts = [batch.start for batch in batches]
    pairs = []
    for cursor, begun, ended in zip(requests.first_query, requests.starts, requests.ends):
        at = bisect.bisect_left(starts, begun)
        if at == len(batches) or batches[at].end > ended + sp.NESTING_TOLERANCE_S:
            continue  # served by a batch that was not traced
        batch = batches[at]
        root = recorder.add("request", begun, ended, request=cursor)
        recorder.add("serving.queue_wait", begun, batch.start, parent=root.id, request=cursor)
        recorder.add("serving.batch", batch.start, batch.end, parent=root.id, request=cursor)
        pairs.append((root, batch))
    return pairs


def serving_layer_metrics(
    ledger: Ledger, recorder: sp.SpanRecorder, tracer: BatchTracer, pairs, scale
) -> None:
    spans = recorder.spans
    children = sp.children_of(spans)
    fan_out_ms, worker_ms, ipc_ms, submit_ms, reply_ms = [], [], [], [], []
    stage_ms = {name: [] for name in STAGE_SPANS}
    layered_s = {}  # batch id -> fan-out + merge, the layers a request waits on
    for batch in tracer.batches:
        parts = {s.name: s for s in children.get(batch.id, [])}
        fan_out, merge = parts.get("serving.fan_out"), parts.get("serving.merge")
        if fan_out is None or merge is None:
            continue
        layered_s[batch.id] = fan_out.duration + merge.duration
        workers = [s for s in children.get(fan_out.id, []) if s.name == "serving.worker_search"]
        if not workers:
            continue
        # A fan-out waits for its slower shard, so that shard's search is the
        # worker time on the blocking path, and its stages are the stages.
        slowest = max(workers, key=lambda s: s.duration)
        to_ms = scale(batch) * 1e3
        fan_out_ms.append(fan_out.duration * to_ms)
        worker_ms.append(slowest.duration * to_ms)
        ipc_ms.append((fan_out.duration - slowest.duration) * to_ms)
        submit_ms.append((min(s.start for s in workers) - fan_out.start) * to_ms)
        reply_ms.append((fan_out.end - max(s.end for s in workers)) * to_ms)
        for stage in children.get(slowest.id, []):
            if stage.name in stage_ms:
                stage_ms[stage.name].append(stage.duration * to_ms)

    metrics = ledger.metrics
    metrics["serving.fan_out_ms"] = median(fan_out_ms)
    metrics["serving.worker_search_ms"] = median(worker_ms)
    metrics["serving.ipc_overhead_ms"] = median(ipc_ms)
    metrics["serving.ipc_submit_ms"] = median(submit_ms)
    metrics["serving.ipc_reply_ms"] = median(reply_ms)
    metrics["serving.merge_ms"] = sp.median_ms(spans, "serving.merge", scale)
    metrics["serving.queue_wait_ms"] = sp.median_ms(spans, "serving.queue_wait", scale)
    metrics["serving.batch_size_mean"] = statistics.fmean(tracer.sizes) if tracer.sizes else 0.0
    metrics["serving.request_pickle_bytes"] = median(tracer.request_bytes)
    metrics["serving.reply_pickle_bytes"] = median(tracer.reply_bytes)
    for name, values in stage_ms.items():
        metrics[f"{name}_ms"] = median(values)
    # Here the layers of a request are queue wait, fan-out and merge; the rest
    # (scheduler, engine facade, trace stitching, result delivery) is nobody's.
    total = sum(request.duration for request, _ in pairs)
    layered = sum(
        (batch.start - request.start) + layered_s.get(batch.id, 0.0) for request, batch in pairs
    )
    metrics["pipeline.unattributed_fraction"] = 1.0 - layered / total if total else 0.0
    lookups = tracer.cache_hits + tracer.cache_misses
    metrics["pipeline.cache_hit_rate"] = tracer.cache_hits / lookups if lookups else 0.0


def set_up(sizes: Sizes, inputs: Inputs, bundle, traced: bool, recorder, ledger: Ledger, cleanup):
    """Train, persist, boot: returns ``(in-process reference, engine, executor)``.

    Everything that holds processes is registered with ``cleanup`` the moment
    it exists, so a failure half-way leaves no worker behind.
    """
    setup = ledger.phase("setup")
    setup.attempted = 1
    begun = perf_counter()
    reference = ShardedJunoIndex(
        sizes.juno_config(), num_shards=sizes.num_shards, executor="sequential"
    )
    cleanup.callback(reference.close)
    # The wrappers come off before the workers are forked: a worker must run
    # the program as it is.
    with sp.timed_calls(recorder, SETUP_TARGETS if traced else []):
        with recorder.span("setup", request="setup"):
            reference.train(inputs.points)
            with recorder.span("serving.persist_save"):
                reference.save(bundle)
            with recorder.span("serving.boot"):
                deployment = ShardedJunoIndex.load(
                    bundle,
                    ServingConfig(
                        executor="resident",
                        replicas=ReplicaPolicy(num_replicas=1, residency="copy"),
                    ),
                )
                cleanup.callback(deployment.close)
    engine = ServingEngine(deployment)
    setup.duration_s = perf_counter() - begun
    ledger.metrics["setup_s"] = setup.duration_s
    return reference, engine, deployment.resident_executor()


def run_untraced(sizes: Sizes, inputs: Inputs, seconds: float, ledger: Ledger, reference, engine):
    pool = inputs.queries
    measured = ledger.phase("measured")
    speedometer = Speedometer()
    requests = serve_phase(engine, sizes, pool, seconds, 0, ledger, measured, speedometer)
    loop_metrics(
        ledger,
        requests.starts,
        requests.ends,
        1,
        requests.phase_start,
        equal_slices(len(requests)),
        speedometer,
    )
    count, ids = ids_in_pool_order(requests)
    served = min(sizes.recall_prefix, count)
    ledger.notes["recall_queries"] = served
    ledger.metrics["recall_10_at_10"] = recall_10_at_10(
        ids[:served], inputs.points, pool_rows(pool, 0, served)
    )
    check_against_inprocess(ledger, reference, sizes, pool, requests)
    ledger.metrics["peak_rss_mb"] = peak_rss_mb()


def run_traced(
    sizes: Sizes, inputs: Inputs, seconds: float, ledger: Ledger, recorder, reference, engine, executor
):
    pool = inputs.queries
    speedometer = Speedometer()
    reference_phase = ledger.phase("untraced_reference")
    untraced = serve_phase(
        engine, sizes, pool, seconds * 0.25, 0, ledger, reference_phase, speedometer
    )
    tracer = BatchTracer(recorder, executor)
    targets = [
        (engine, "search", "serving.engine_search"),
        (executor, "search_shards", "serving.fan_out"),
        (shard_module, "merge_shard_results", "serving.merge"),
    ]
    traced_phase = ledger.phase("traced")
    with sp.timed_calls(recorder, targets, on_result=tracer.on_result):
        requests = serve_phase(
            engine, sizes, pool, seconds * 0.75, 0, ledger, traced_phase, speedometer
        )
    pairs = link_requests(recorder, requests, tracer.batches)

    # The stopwatch must not change the answer.
    traced_count, traced_ids = ids_in_pool_order(requests)
    untraced_count, untraced_ids = ids_in_pool_order(untraced)
    shared = min(traced_count, untraced_count)
    ledger.check_identical(
        ledger.phase("stopwatch_identity"),
        traced_ids[:shared],
        untraced_ids[:shared],
        "traced against untraced ids",
    )
    results, sample = check_against_inprocess(ledger, reference, sizes, pool, requests)

    inprocess = ledger.phase("inprocess_latency")
    timings = []
    for i in range(INPROCESS_REQUESTS):
        speedometer.sample()
        queries = pool_rows(pool, i * sizes.num_clients, sizes.num_clients)
        begun = perf_counter()
        inprocess_search(reference, sizes, queries)
        timings.append((perf_counter() - begun) * 1e3 * speedometer.factor_at(begun))
    inprocess.attempted = inprocess.samples = INPROCESS_REQUESTS
    inprocess.duration_s = sum(timings) / 1e3

    metrics = ledger.metrics
    setup_layer_metrics(ledger, recorder.spans)
    count_metrics(ledger, results, sample)
    scale = request_scale(recorder.spans, speedometer, roots=("request", "serving.engine_search"))
    serving_layer_metrics(ledger, recorder, tracer, pairs, scale)
    metrics["serving.inprocess_latency_p50_ms"] = percentile(timings, 50)
    metrics["serving.boot_payload_bytes"] = float(executor.boot_payload_bytes())
    metrics["serving.worker_pss_mb"] = sum(pss_mb(pid) for pid in executor.worker_pids().values())
    metrics["serving.failover_retries"] = float(executor.retried_batches)
    metrics["serving.overloaded"] = float(ledger.notes.get("overloaded", 0))
    tail_metrics(
        ledger,
        speedometer,
        requests.starts,
        requests.ends,
        corrected_qps(speedometer, len(requests), requests.phase_start, max(requests.ends)),
        corrected_qps(speedometer, len(untraced), untraced.phase_start, max(untraced.ends)),
    )
    add_speed_spans(recorder, speedometer)


def run(sizes: Sizes, inputs: Inputs, seconds: float, traced: bool, ledger: Ledger):
    recorder = sp.SpanRecorder()
    with scratch_dir() as tmp, ExitStack() as cleanup:
        reference, engine, executor = set_up(
            sizes, inputs, tmp / "bundle", traced, recorder, ledger, cleanup
        )
        warmup = ledger.phase("warmup")
        serve_phase(
            engine, sizes, inputs.queries, sizes.warmup_s, sizes.query_pool // 2, ledger, warmup
        )
        if not traced:
            run_untraced(sizes, inputs, seconds, ledger, reference, engine)
            return []
        run_traced(sizes, inputs, seconds, ledger, recorder, reference, engine, executor)
        return recorder.spans
