"""``batch_search`` and ``single_query``: one caller, one in-process index.

The two workloads train the same index with the same parameters and differ
only in how many queries one ``JunoIndex.search`` call carries (32 or 1), so
a difference between them is a difference in batch size and nothing else.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.baselines.exact import ExactSearch
from repro.baselines.ivfpq import IVFPQIndex
from repro.core.index import JunoIndex
from repro.ivf.inverted_file import InvertedFileIndex
from repro.pipeline import stages
from repro.quantization.product_quantizer import ProductQuantizer
from repro.rt.tracer import RayTracer

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
    recall_10_at_10,
)

#: Calls timed during set-up, and the span each becomes.
SETUP_TARGETS = [
    (InvertedFileIndex, "train", "ivf.train"),
    (ProductQuantizer, "train", "quantization.pq_train"),
    (ProductQuantizer, "encode", "quantization.encode"),
    (JunoIndex, "rebuild_scene", "rt.bvh_build"),
]

#: Calls timed on the query path: every stage's ``run(ctx)``, and the BVH
#: traversal inside ``rt_select`` (one call per subspace).
STAGE_TARGETS = [
    (stages.CoarseFilterStage, "run", "pipeline.coarse_filter"),
    (stages.ThresholdStage, "run", "pipeline.threshold"),
    (stages.RTSelectStage, "run", "pipeline.rt_select"),
    (stages.ScoreStage, "run", "pipeline.score"),
    (stages.TopKStage, "run", "pipeline.top_k"),
    (stages.DeltaMergeStage, "run", "pipeline.delta_merge"),
    (RayTracer, "trace_vertical_batch", "rt.trace"),
]
STAGE_SPANS = [name for _, _, name in STAGE_TARGETS if name.startswith("pipeline.")]

#: Least time between two samples of the machine's speed inside a loop.
SPEED_SAMPLE_S = 0.1

#: Count metrics are taken over this many of the first traced queries, so that
#: they repeat exactly for a fixed seed however long the phase runs.
COUNT_PREFIX = 256


class Requests:
    """What a closed loop saw: one entry per ``search`` call."""

    def __init__(self, phase_start: float) -> None:
        self.phase_start = phase_start
        self.first_query: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.id_rows: list[np.ndarray] = []
        self.results: list = []

    def __len__(self) -> int:
        return len(self.ends)

    @property
    def wall(self) -> float:
        return (self.ends[-1] - self.phase_start) if self.ends else 0.0

    def latencies_ms(self) -> np.ndarray:
        return (np.asarray(self.ends) - np.asarray(self.starts)) * 1e3

    def record(self, first_query: int, begun: float, ended: float, ids, result=None) -> None:
        self.first_query.append(first_query)
        self.starts.append(begun)
        self.ends.append(ended)
        self.id_rows.append(np.atleast_2d(ids))
        self.results.append(result)

    def ids(self) -> np.ndarray:
        return np.concatenate(self.id_rows)


def closed_loop(
    search, pool, batch: int, seconds: float, start: int = 0, recorder=None, speedometer=None
) -> Requests:
    """One caller issuing ``search(batch of queries)`` back to back.

    The next request leaves only when the previous one returned.  Requests
    walk the query pool from ``start`` so none repeats inside a phase.  A
    speedometer, when given, is sampled between requests, about every 100 ms.
    """
    requests = Requests(perf_counter())
    deadline = requests.phase_start + seconds
    cursor = start
    sampled = 0.0
    while perf_counter() < deadline:
        if speedometer is not None and perf_counter() - sampled >= SPEED_SAMPLE_S:
            speedometer.sample()
            sampled = perf_counter()
        queries = pool_rows(pool, cursor, batch)
        if recorder is None:
            begun = perf_counter()
            result = search(queries)
            ended = perf_counter()
        else:
            with recorder.span("request", request=len(requests)) as span:
                result = search(queries)
            begun, ended = span.start, span.end
        ids = result.ids if hasattr(result, "ids") else result[0]
        requests.record(cursor, begun, ended, ids, result)
        cursor += batch
    return requests


def train_index(sizes: Sizes, points: np.ndarray, ledger: Ledger, recorder=None) -> JunoIndex:
    """Set-up as a user does it: ``JunoIndex(config).train(points)``.

    Returns the trained index and records ``setup_s``; with a recorder the
    training's layers are timed too.
    """
    phase = ledger.phase("setup")
    phase.attempted = 1
    index = JunoIndex(sizes.juno_config())
    begun = perf_counter()
    if recorder is None:
        index.train(points)
    else:
        with sp.timed_calls(recorder, SETUP_TARGETS), recorder.span("setup", request="setup"):
            index.train(points)
    phase.duration_s = perf_counter() - begun
    ledger.metrics["setup_s"] = phase.duration_s
    return index


def setup_layer_metrics(ledger: Ledger, spans) -> None:
    """Split the ``setup`` span into the layers that trained.

    What is left -- subspace inverted indices, density maps, the threshold
    regressor, residuals -- is the set-up span's own time.
    """
    children = sp.children_of(spans)
    for span_name, metric in (
        ("ivf.train", "ivf.train_s"),
        ("quantization.pq_train", "quantization.pq_train_s"),
        ("quantization.encode", "quantization.encode_s"),
        ("rt.bvh_build", "rt.bvh_build_s"),
        ("serving.persist_save", "serving.persist_save_s"),
        ("serving.boot", "serving.boot_s"),
    ):
        ledger.metrics[metric] = sum(
            s.duration for s in spans if s.name == span_name and s.request == "setup"
        )
    ledger.metrics["core.train_other_s"] = sum(
        sp.self_time(s, children.get(s.id, [])) for s in spans if s.name == "setup"
    )


def end_to_end_metrics(
    ledger: Ledger, requests: Requests, batch: int, points, pool, prefix: int, speedometer
) -> None:
    loop_metrics(
        ledger,
        requests.starts,
        requests.ends,
        batch,
        requests.phase_start,
        equal_slices(len(requests)),
        speedometer,
    )
    served = min(prefix, len(requests) * batch)
    ledger.notes["recall_queries"] = served
    ledger.metrics["recall_10_at_10"] = recall_10_at_10(
        requests.ids()[:served], points, pool_rows(pool, requests.first_query[0], served)
    )
    ledger.metrics["peak_rss_mb"] = peak_rss_mb()


def request_scale(spans, speedometer, roots=("request",)):
    """``scale(span)``: the machine's speed factor when the span's request began.

    Per-layer times are corrected the way the end-to-end ones are, so that the
    two can be compared; the span file keeps the times as they were measured.
    """
    table = {s.request: speedometer.factor_at(s.start) for s in spans if s.name in roots}
    return lambda span: table.get(span.request, 1.0)


def stage_layer_metrics(ledger: Ledger, spans, scale) -> None:
    """Per-request medians of every stage, and what no stage accounts for."""
    for name in STAGE_SPANS:
        ledger.metrics[f"{name}_ms"] = sp.median_ms(spans, name, scale)
    ledger.metrics["rt.trace_ms"] = sp.median_ms(spans, "rt.trace", scale)
    children = sp.children_of(spans)
    # Decoding hit times and assembling the CSR tables is rt_select's own
    # time: its span minus the traversals it called.
    decode = [
        sp.self_time(s, children.get(s.id, [])) * scale(s) * 1e3
        for s in spans
        if s.name == "pipeline.rt_select"
    ]
    ledger.metrics["core.lut_decode_ms"] = median(decode)
    calls = [s for s in spans if s.name == "request"]
    total = sum(s.duration for s in calls)
    unattributed = sum(sp.self_time(s, children.get(s.id, [])) for s in calls)
    ledger.metrics["pipeline.unattributed_fraction"] = unattributed / total if total else 0.0


def count_metrics(ledger: Ledger, results, queries: int) -> None:
    """Work per query and per ray, summed over ``results`` (``queries`` of them)."""
    rays = sum(r.work.rt_rays for r in results)
    ledger.metrics["rt.node_visits_per_ray"] = sum(r.work.rt_node_visits for r in results) / rays
    ledger.metrics["rt.prim_tests_per_ray"] = sum(r.work.rt_prim_tests for r in results) / rays
    ledger.metrics["rt.hits_per_ray"] = sum(r.work.rt_hits for r in results) / rays
    ledger.metrics["core.adc_lookups_per_query"] = sum(r.work.adc_lookups for r in results) / queries
    ledger.metrics["pipeline.candidates_per_query"] = (
        sum(r.extra.get("num_candidates", 0.0) for r in results) / queries
    )
    # Ray-weighted, as the shard merge weights it.  (The engine facade moves
    # the fraction from the result into its ``extra``.)
    ledger.metrics["core.selected_entry_fraction"] = (
        sum(
            r.extra.get("selected_entry_fraction", getattr(r, "selected_entry_fraction", 0.0))
            * r.work.rt_rays
            for r in results
        )
        / rays
    )
    hits = misses = 0
    for result in results:
        for counts in result.extra.get("stage_cache", {}).values():
            hits += counts.get("hits", 0)
            misses += counts.get("misses", 0)
    ledger.metrics["pipeline.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0


def corrected_qps(speedometer, queries: int, begin: float, end: float) -> float:
    """Throughput of a whole phase, corrected by the machine's speed over it."""
    factor, kernel_s = speedometer.window(begin, end)
    wall = (end - begin - kernel_s) * factor
    return queries / wall if wall > 0 else 0.0


def tail_metrics(ledger: Ledger, speedometer, starts, ends, traced_qps, untraced_qps) -> None:
    """The ungated tail, and what the benchmark's own tracing cost."""
    latencies = [
        (end - start) * 1e3 * speedometer.factor_at(start) for start, end in zip(starts, ends)
    ]
    ledger.notes["tail_samples"] = len(latencies)
    ledger.metrics["tail.latency_p99_ms"] = percentile(latencies, 99)
    ledger.metrics["tail.latency_max_ms"] = float(max(latencies))
    ledger.metrics["obs.trace_overhead_fraction"] = (
        1.0 - traced_qps / untraced_qps if untraced_qps else 0.0
    )


def add_speed_spans(recorder: sp.SpanRecorder, speedometer) -> None:
    """Record the speedometer's timed passes, for a reader of the span file."""
    for began, spent, cost in zip(speedometer.times, speedometer.spent, speedometer.costs):
        recorder.add("ledger.speed_kernel", began + spent - cost, began + spent, request="speed")


def check_phase(ledger: Ledger, phase, requests: Requests, valid_ids: int) -> None:
    phase.duration_s = requests.wall
    phase.attempted += len(requests)
    phase.samples = len(requests)
    for ids in requests.id_rows:
        ledger.check_rows(phase, ids, valid_ids)


def check_batch_invariance(
    ledger: Ledger, index, sizes: Sizes, pool, requests: Requests, batch: int
) -> None:
    """The same query must get the same ids alone and inside a batch of 32."""
    phase = ledger.phase("batch_invariance")
    sample = min(sizes.identity_sample, len(requests) * batch)
    queries = pool_rows(pool, requests.first_query[0], sample)
    begun = perf_counter()
    if batch == 1:
        other = index.search(queries, sizes.k, nprobs=sizes.nprobs).ids
    else:
        sample = min(sample, 8)
        other = np.concatenate(
            [index.search(queries[i : i + 1], sizes.k, nprobs=sizes.nprobs).ids for i in range(sample)]
        )
    phase.duration_s = perf_counter() - begun
    ledger.check_identical(
        phase, other, requests.ids()[:sample], f"batch of {batch} against the other batch size"
    )


def measure_baselines(ledger: Ledger, index: JunoIndex, sizes: Sizes, inputs: Inputs) -> None:
    """The references the paper's ratio is read against, on the same batches.

    The IVFPQ baseline shares JUNO's trained inverted file, codebooks and
    codes: JUNO *is* that index plus the selective LUT, so the comparison
    holds everything but the selectivity fixed (and costs no second training).
    """
    ivfpq = IVFPQIndex(
        num_clusters=sizes.num_clusters,
        num_subspaces=sizes.dim // 2,
        num_entries=sizes.num_entries,
        metric=index.metric,
    )
    ivfpq.ivf, ivfpq.pq, ivfpq.codes = index.ivf, index.pq, index.codes
    ivfpq.dim, ivfpq.num_points = index.dim, index.num_points
    exact = ExactSearch(index.metric).add(inputs.points)
    budget = 0.3 if sizes.smoke else 1.5
    speedometer = Speedometer()
    for name, search in (
        ("ivfpq", lambda q: ivfpq.search(q, sizes.k, nprobs=sizes.nprobs)),
        ("exact", lambda q: exact.search(q, sizes.k)),
    ):
        phase = ledger.phase(f"baseline_{name}")
        requests = closed_loop(search, inputs.queries, sizes.batch, budget, speedometer=speedometer)
        check_phase(ledger, phase, requests, sizes.num_points)
        ledger.metrics[f"baselines.{name}_qps"] = corrected_qps(
            speedometer, len(requests) * sizes.batch, requests.phase_start, requests.ends[-1]
        )
        if name == "ivfpq":
            served = len(requests) * sizes.batch
            ledger.metrics["baselines.ivfpq_recall_10_at_10"] = recall_10_at_10(
                requests.ids(), inputs.points, pool_rows(inputs.queries, 0, served)
            )


def run(sizes: Sizes, inputs: Inputs, seconds: float, traced: bool, batch: int, ledger: Ledger):
    """Run ``batch_search`` (``batch`` 32) or ``single_query`` (``batch`` 1).

    Returns the spans recorded (empty when untraced).
    """
    recorder = sp.SpanRecorder() if traced else None
    index = train_index(sizes, inputs.points, ledger, recorder)
    pool = inputs.queries

    def search(queries):
        return index.search(queries, sizes.k, nprobs=sizes.nprobs)

    warmup = ledger.phase("warmup")
    check_phase(
        ledger,
        warmup,
        closed_loop(search, pool, batch, sizes.warmup_s, start=sizes.query_pool // 2),
        sizes.num_points,
    )

    if not traced:
        measured = ledger.phase("measured")
        speedometer = Speedometer()
        requests = closed_loop(search, pool, batch, seconds, speedometer=speedometer)
        check_phase(ledger, measured, requests, sizes.num_points)
        end_to_end_metrics(
            ledger, requests, batch, inputs.points, pool, sizes.recall_prefix, speedometer
        )
        check_batch_invariance(ledger, index, sizes, pool, requests, batch)
        return []

    # Traced run: a quarter of the time untraced, as the reference the traced
    # throughput is compared with, then the traced phase over the same queries.
    speedometer = Speedometer()
    reference_phase = ledger.phase("untraced_reference")
    reference = closed_loop(search, pool, batch, seconds * 0.25, speedometer=speedometer)
    check_phase(ledger, reference_phase, reference, sizes.num_points)
    traced_phase = ledger.phase("traced")
    with sp.timed_calls(recorder, STAGE_TARGETS):
        requests = closed_loop(
            search, pool, batch, seconds * 0.75, recorder=recorder, speedometer=speedometer
        )
    check_phase(ledger, traced_phase, requests, sizes.num_points)

    # The stopwatch must not change the answer.
    stopwatch = ledger.phase("stopwatch_identity")
    shared = min(len(reference), len(requests)) * batch
    ledger.check_identical(
        stopwatch, requests.ids()[:shared], reference.ids()[:shared], "traced against untraced ids"
    )

    setup_layer_metrics(ledger, recorder.spans)
    stage_layer_metrics(ledger, recorder.spans, request_scale(recorder.spans, speedometer))
    counted = max(1, min(COUNT_PREFIX // batch, len(requests)))
    ledger.notes["count_queries"] = counted * batch
    count_metrics(ledger, requests.results[:counted], counted * batch)
    tail_metrics(
        ledger,
        speedometer,
        requests.starts,
        requests.ends,
        corrected_qps(speedometer, len(requests) * batch, requests.phase_start, requests.ends[-1]),
        corrected_qps(
            speedometer, len(reference) * batch, reference.phase_start, reference.ends[-1]
        ),
    )
    if batch > 1:
        measure_baselines(ledger, index, sizes, inputs)
    add_speed_spans(recorder, speedometer)
    return recorder.spans
