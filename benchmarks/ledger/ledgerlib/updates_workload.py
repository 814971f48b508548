"""``mixed_updates``: the same pipeline with writes beside the reads.

A ``MutableJunoIndex`` (base trained on the first 6000 points, write-ahead
log with ``fsync="batch"``) sits behind a ``ServingEngine``; one client
repeats a fixed cycle -- ``upsert`` 8 vectors, ``delete`` 4 ids, 4
single-query reads, ``maybe_compact()``.  Every write is mirrored into a
model (an array of vectors and a liveness mask), so that after the run every
read can be checked against what was live when it was issued.

The cycle is a pure function of the cycle number, so the state after ``n``
cycles is the same in every run of a seed; only how many cycles fit into the
measured phase depends on the machine.
"""

from __future__ import annotations

import os
import statistics
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from repro.errors import ServingError
from repro.serving import ServingEngine
from repro.updates.mutable import MutableJunoIndex, RebuildPolicy
from repro.updates.wal import DurabilityPolicy, WriteAheadLog

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
    pool_rows,
    recall_10_at_10,
    scratch_dir,
)
from .search_workloads import (
    STAGE_TARGETS,
    add_speed_spans,
    corrected_qps,
    count_metrics,
    request_scale,
    setup_layer_metrics,
    stage_layer_metrics,
    tail_metrics,
    train_index,
)

READS_PER_CYCLE = 4
BASE_DELETES_PER_CYCLE = 3
#: ``retrain_due`` must never flip inside a run: once it does,
#: ``maybe_compact()`` stops compacting, the delta scan grows without bound
#: and the run would measure its own length.  Retraining is not part of this
#: workload, so the drift limit is put out of reach.
NO_RETRAIN_DRIFT = 1e9


class UpdateCycle:
    """Drives the cycle, mirrors the writes, and logs every operation."""

    def __init__(self, engine, index, sizes: Sizes, inputs: Inputs, ledger: Ledger, recorder=None):
        self.engine = engine
        self.index = index
        self.sizes = sizes
        self.ledger = ledger
        self.recorder = recorder
        self.speedometer = None  # sampled once a cycle when set
        self.pool = inputs.queries
        base = sizes.base_points
        self.fresh = np.concatenate([inputs.points[base:], inputs.fresh])
        self.base = base
        self.model = np.concatenate([inputs.points[:base], self.fresh])
        self.alive = np.zeros(self.model.shape[0], dtype=bool)
        self.alive[:base] = True
        self.cycle = 0
        self.next_query = 0
        self.max_cycles = min(
            self.fresh.shape[0] // sizes.upserts_per_cycle,
            (base - 1) // BASE_DELETES_PER_CYCLE,
        )
        # Logs, one entry per operation.
        self.reads: list[tuple] = []  # (cycle, expected top-1 or -1, begun, ended, ids)
        self.alive_at: list[np.ndarray] = []  # liveness after the writes of each cycle
        self.compaction_ends: list[float] = []
        self.delta_sizes: list[int] = []
        self.tombstone_fractions: list[float] = []

    # ------------------------------------------------------------- one operation
    def _timed(self, name: str, label: str, call):
        """Run one client operation; returns ``(outcome, begun, ended)``."""
        if self.recorder is None:
            begun = perf_counter()
            outcome = call()
            return outcome, begun, perf_counter()
        with self.recorder.span(name, request=label) as span:
            outcome = call()
        return outcome, span.start, span.end

    def step(self, phase) -> None:
        sizes, cycle = self.sizes, self.cycle
        per = sizes.upserts_per_cycle
        new_ids = self.base + per * cycle + np.arange(per)
        vectors = self.fresh[per * cycle : per * (cycle + 1)]
        base_deletes = BASE_DELETES_PER_CYCLE * cycle + np.arange(BASE_DELETES_PER_CYCLE)
        recent = self.base + per * (cycle - 1) if cycle else self.base - 1
        doomed = np.append(base_deletes, recent)

        phase.attempted += 2
        try:
            self._timed(
                "updates.upsert", f"upsert-{cycle}", lambda: self.engine.upsert(new_ids, vectors)
            )
            self.alive[new_ids] = True
        except (KeyError, ValueError, ServingError) as exc:
            self.ledger.fail(phase, f"upsert failed: {exc}")
        try:
            self._timed("updates.delete", f"delete-{cycle}", lambda: self.engine.delete(doomed))
            self.alive[doomed] = False
        except (KeyError, ValueError, ServingError) as exc:
            self.ledger.fail(phase, f"delete failed: {exc}")
        self.alive_at.append(self.alive.copy())
        self.delta_sizes.append(len(self.index.delta))
        self.tombstone_fractions.append(len(self.index.tombstones) / self.index.base.num_points)

        if self.speedometer is not None:
            self.speedometer.sample()

        # Read 0 asks for a vector upserted a moment ago: it must come back
        # first.  The other reads take the next rows of the query pool.
        own = int(new_ids[3])
        for read in range(READS_PER_CYCLE):
            if read == 0:
                query, expected = self.model[own], own
            else:
                query, expected = self.pool[self.next_query % self.pool.shape[0]], -1
                self.next_query += 1
            phase.attempted += 1
            try:
                result, begun, ended = self._timed(
                    "request",
                    f"read-{len(self.reads)}",
                    lambda: self.engine.search(query[None, :], sizes.k, nprobs=sizes.nprobs),
                )
            except ServingError as exc:
                self.ledger.fail(phase, f"read failed: {exc}")
                continue
            self.reads.append((cycle, expected, begun, ended, result.ids[0].copy()))

        if self.recorder is not None:
            # Not on the read path (the merge stage scores the delta itself):
            # a probe of the delta layer's own exact scan at its current size.
            with self.recorder.span("updates.delta_search", request=f"probe-{cycle}"):
                self.index.delta.search(self.model[own][None, :], sizes.k)

        phase.attempted += 1
        try:
            compacted, _, ended = self._timed(
                "updates.maybe_compact", f"compact-{cycle}", self.engine.maybe_compact
            )
            if compacted:
                self.compaction_ends.append(ended)
        except ServingError as exc:
            self.ledger.fail(phase, f"maybe_compact failed: {exc}")
        self.cycle += 1

    def run_cycles(self, phase, cycles=None, seconds=None) -> float:
        """Run a number of cycles or for a time; returns the phase's start."""
        begun = perf_counter()
        done = 0
        while (cycles is None or done < cycles) and (
            seconds is None or perf_counter() - begun < seconds
        ):
            if self.cycle >= self.max_cycles:
                self.ledger.notes["inputs_exhausted"] = True
                break
            self.step(phase)
            done += 1
        phase.duration_s = perf_counter() - begun
        return begun

    # ------------------------------------------------------------------ checks
    def check_reads(self, phase, first_read: int = 0) -> None:
        """No read returns an id that was not live; a self-query is top-1."""
        for cycle, expected, _, _, ids in self.reads[first_read:]:
            phase.attempted += 1
            if not self.ledger.check_rows(phase, ids, self.model.shape[0]):
                continue
            returned = ids[ids >= 0]
            if not self.alive_at[cycle][returned].all():
                self.ledger.fail(phase, f"cycle {cycle}: a read returned a deleted id")
            elif expected >= 0 and (ids.shape[0] == 0 or ids[0] != expected):
                self.ledger.fail(phase, f"cycle {cycle}: just-upserted id {expected} is not top-1")

    def quiesced_recall(self, phase):
        """Score recall against brute force over the live set, nothing in flight.

        Runs after the fixed warm-up cycles, so the state -- and the number --
        is the same in every run of a seed.  Returns the recall and the
        results (the traced run takes its work counts from them).
        """
        sizes = self.sizes
        count = sizes.recall_pass_queries
        queries = pool_rows(self.pool, self.pool.shape[0] - count, count)
        begun = perf_counter()
        results = [
            self.engine.search(queries[lo : lo + 64], sizes.k, nprobs=sizes.nprobs)
            for lo in range(0, count, 64)
        ]
        phase.duration_s = perf_counter() - begun
        phase.attempted += len(results)
        phase.samples = count
        ids = np.concatenate([result.ids for result in results])
        self.ledger.check_rows(phase, ids, self.model.shape[0])
        live = np.flatnonzero(self.alive)
        if not self.alive[ids[ids >= 0]].all():
            self.ledger.fail(phase, "the quiesced pass returned a deleted id")
        return recall_10_at_10(ids, self.model[live], queries, point_ids=live), results


def period_slices(cycle: UpdateCycle, first_read: int, phase_start: float):
    """``(begin, index ranges)`` cutting the phase's reads at compaction ends.

    A period runs from the end of one compaction to the end of the next, so
    every slice holds the same work; slicing by request count would put one
    compaction in some slices and two in others.  Reads before the first
    compaction and after the last belong to no whole period.  Without two
    compactions in the phase (the smoke sizes) the reads are sliced by count.
    """
    ends = [read[3] for read in cycle.reads[first_read:]]
    marks = [mark for mark in cycle.compaction_ends if mark >= phase_start]
    cuts = np.searchsorted(ends, marks, side="right")
    if len(marks) < 2 or cuts[0] == 0:
        return phase_start, equal_slices(len(ends))
    # Slice walls run between last reads, so each holds exactly one compaction.
    return ends[cuts[0] - 1], list(zip(cuts[:-1], cuts[1:]))


def update_layer_metrics(ledger: Ledger, cycle: UpdateCycle, spans, wal, wal_marks, scale) -> None:
    children = sp.children_of(spans)
    upserts = [s for s in spans if s.name == "updates.upsert"]
    appends = [
        child
        for upsert in upserts
        for child in children.get(upsert.id, [])
        if child.name == "updates.wal_append"
    ]
    compactions = [s for s in spans if s.name == "updates.compact"]
    metrics = ledger.metrics

    metrics["updates.write_latency_p50_ms"] = median([s.duration * scale(s) * 1e3 for s in upserts])
    metrics["updates.wal_append_us"] = median([s.duration * scale(s) * 1e6 for s in appends])
    metrics["updates.upsert_apply_ms"] = median(
        [sp.self_time(s, children.get(s.id, [])) * scale(s) * 1e3 for s in upserts]
    )
    metrics["updates.delta_search_ms"] = sp.median_ms(spans, "updates.delta_search", scale)
    metrics["updates.delta_size_mean"] = statistics.fmean(cycle.delta_sizes)
    metrics["updates.tombstone_fraction"] = statistics.fmean(cycle.tombstone_fractions)
    metrics["updates.compactions"] = float(len(compactions))
    metrics["updates.compaction_ms"] = median([s.duration * scale(s) * 1e3 for s in compactions])
    metrics["updates.compaction_stall_max_ms"] = max(
        (s.duration * scale(s) * 1e3 for s in spans if s.name == "updates.maybe_compact"),
        default=0.0,
    )
    appended = wal.append_count - wal_marks["appends"]
    metrics["updates.wal_fsyncs_per_write"] = (
        (wal.fsync_count - wal_marks["fsyncs"]) / appended if appended else 0.0
    )
    metrics["updates.wal_bytes_per_vector_byte"] = wal_marks["bytes_per_vector_byte"]


def run_untraced(cycle: UpdateCycle, seconds: float, ledger: Ledger) -> None:
    measured = ledger.phase("measured")
    first_read = len(cycle.reads)
    cycle.speedometer = Speedometer()
    phase_start = cycle.run_cycles(measured, seconds=seconds)
    reads = cycle.reads[first_read:]
    measured.samples = len(reads)
    begin, slices = period_slices(cycle, first_read, phase_start)
    loop_metrics(
        ledger,
        [read[2] for read in reads],
        [read[3] for read in reads],
        1,
        begin,
        slices,
        cycle.speedometer,
    )
    cycle.check_reads(ledger.phase("read_checks"))
    if cycle.index.retrain_due:
        ledger.fail(measured, "retrain_due flipped: the delta scan was unbounded")
    ledger.metrics["peak_rss_mb"] = peak_rss_mb()


def run_traced(cycle: UpdateCycle, seconds: float, ledger: Ledger, recorder, wal, wal_marks):
    sizes, engine = cycle.sizes, cycle.engine
    speedometer = cycle.speedometer = Speedometer()
    reference_phase = ledger.phase("untraced_reference")
    first_read = len(cycle.reads)
    reference_start = cycle.run_cycles(reference_phase, seconds=seconds * 0.25)
    untraced_qps = corrected_qps(
        speedometer, len(cycle.reads) - first_read, reference_start, perf_counter()
    )

    cycle.recorder = recorder
    traced_phase = ledger.phase("traced")
    first_read = len(cycle.reads)
    wal_marks.update(appends=wal.append_count, fsyncs=wal.fsync_count)
    cycle.delta_sizes.clear()
    cycle.tombstone_fractions.clear()
    targets = STAGE_TARGETS + [
        (WriteAheadLog, "append", "updates.wal_append"),
        (MutableJunoIndex, "compact", "updates.compact"),
    ]
    probe = pool_rows(cycle.pool, 0, 8)
    with sp.timed_calls(recorder, targets):
        traced_start = cycle.run_cycles(traced_phase, seconds=seconds * 0.75)
        traced_end = perf_counter()
        with recorder.span("stopwatch_probe", request="stopwatch"):
            timed_ids = engine.search(probe, sizes.k, nprobs=sizes.nprobs).ids
    # The stopwatch must not change the answer: same state, same queries,
    # wrappers off.
    ledger.check_identical(
        ledger.phase("stopwatch_identity"),
        timed_ids,
        engine.search(probe, sizes.k, nprobs=sizes.nprobs).ids,
        "traced against untraced ids",
    )
    reads = cycle.reads[first_read:]
    traced_phase.samples = len(reads)
    cycle.check_reads(ledger.phase("read_checks"))

    scale = request_scale(
        recorder.spans,
        speedometer,
        roots=(
            "request",
            "updates.upsert",
            "updates.delete",
            "updates.maybe_compact",
            "updates.delta_search",
        ),
    )
    setup_layer_metrics(ledger, recorder.spans)
    stage_layer_metrics(ledger, recorder.spans, scale)
    update_layer_metrics(ledger, cycle, recorder.spans, wal, wal_marks, scale)
    tail_metrics(
        ledger,
        speedometer,
        [read[2] for read in reads],
        [read[3] for read in reads],
        corrected_qps(speedometer, len(reads), traced_start, traced_end),
        untraced_qps,
    )
    add_speed_spans(recorder, speedometer)


def run(sizes: Sizes, inputs: Inputs, seconds: float, traced: bool, ledger: Ledger):
    recorder = sp.SpanRecorder() if traced else None
    base_points = inputs.points[: sizes.base_points]
    with scratch_dir() as tmp, ExitStack() as cleanup:
        base = train_index(sizes, base_points, ledger, recorder)
        begun = perf_counter()
        wal = WriteAheadLog(tmp / "updates.wal", durability=DurabilityPolicy(fsync="batch"))
        cleanup.callback(wal.close)
        index = MutableJunoIndex(
            base,
            base_points,
            wal=wal,
            policy=RebuildPolicy(delta_capacity=sizes.delta_capacity, max_drift=NO_RETRAIN_DRIFT),
        )
        engine = ServingEngine(index)
        wrapped = perf_counter() - begun
        ledger.metrics["setup_s"] += wrapped
        ledger.phases[0].duration_s += wrapped
        cycle = UpdateCycle(engine, index, sizes, inputs, ledger)

        # Warm-up is a fixed number of cycles, not a time, so that the quiesced
        # recall pass after it sees the same state in every run of a seed.
        cycle.run_cycles(ledger.phase("warmup"), cycles=sizes.warmup_cycles)
        vector_bytes = cycle.cycle * sizes.upserts_per_cycle * sizes.dim * 8
        wal_marks = {"bytes_per_vector_byte": os.path.getsize(wal.path) / max(vector_bytes, 1)}
        recall, results = cycle.quiesced_recall(ledger.phase("quiesced_recall"))

        if not traced:
            ledger.metrics["recall_10_at_10"] = recall
            run_untraced(cycle, seconds, ledger)
            return []
        count_metrics(ledger, results, sizes.recall_pass_queries)
        run_traced(cycle, seconds, ledger, recorder, wal, wal_marks)
        return recorder.spans
