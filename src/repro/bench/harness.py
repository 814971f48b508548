"""Parameter sweeps producing QPS/recall measurements (Fig. 12/13/14).

JUNO sweeps accept a custom staged
:class:`~repro.pipeline.pipeline.QueryPipeline` and attach the per-stage
wall-clock and cost-model breakdowns to every
:class:`~repro.metrics.qps.ThroughputRecord` (``extra["stage_seconds"]`` /
``extra["stage_modelled_s"]``), so a sweep shows *where* each configuration
spends its modelled time, not just the end-to-end number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.ivfpq import IVFPQIndex
from repro.core.config import QualityMode
from repro.core.index import JunoIndex
from repro.gpu.cost_model import CostModel
from repro.metrics.qps import ThroughputRecord, pareto_frontier
from repro.metrics.recall import recall_k_at_n
from repro.pipeline.pipeline import QueryPipeline
from repro.serving.engine import ServingEngine
from repro.serving.shard import ShardedJunoIndex


def _stage_extras(result_extra: dict, cost_model: CostModel) -> dict:
    """Per-stage timing/modelled-latency extras for a throughput record.

    ``stage_seconds`` from a sharded index is summed over shards (aggregate
    per-shard work time, not elapsed wall-clock under a parallel executor);
    see :meth:`repro.serving.engine.ServingEngine.stage_seconds`.
    """
    extras: dict = {}
    stage_seconds = result_extra.get("stage_seconds")
    if stage_seconds:
        extras["stage_seconds"] = dict(stage_seconds)
    stage_work = result_extra.get("stage_work")
    if stage_work:
        extras["stage_modelled_s"] = cost_model.stage_latencies(stage_work)
    return extras


@dataclass
class SweepConfig:
    """Parameters of one QPS/recall sweep.

    Attributes:
        nprobs_values: the coarse-cluster probe counts swept.
        threshold_scales: threshold scaling factors swept (JUNO only).
        quality_modes: JUNO quality modes swept.
        ef_values: beam widths swept for HNSW backends (engine sweeps only).
        k: neighbours retrieved per query.
        recall_k: ``k`` of the Recall-k@n metric (1 for R1@100).
        recall_n: ``n`` of the Recall-k@n metric (100 for R1@100).
        pipelined: whether JUNO's latencies use the RT/Tensor pipeline.
    """

    nprobs_values: tuple[int, ...] = (1, 2, 4, 8, 16)
    threshold_scales: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)
    ef_values: tuple[int, ...] = (16, 32, 64)
    quality_modes: tuple[QualityMode, ...] = (QualityMode.HIGH, QualityMode.LOW)
    k: int = 100
    recall_k: int = 1
    recall_n: int = 100
    pipelined: bool = True


@dataclass
class QPSRecallSweep:
    """All measurements of one configuration family plus its Pareto frontier.

    Attributes:
        label: family name (e.g. ``"JUNO"`` or ``"PQ48"``).
        records: every (recall, QPS) point measured.
        frontier: the Pareto-optimal subset, sorted by recall.
    """

    label: str
    records: list[ThroughputRecord] = field(default_factory=list)

    @property
    def frontier(self) -> list[ThroughputRecord]:
        """Pareto-optimal records sorted by recall ascending."""
        return pareto_frontier(self.records)

    def best_qps_at_recall(self, min_recall: float) -> ThroughputRecord | None:
        """Highest-QPS record meeting a recall requirement, if any."""
        eligible = [r for r in self.records if r.recall >= min_recall]
        if not eligible:
            return None
        return max(eligible, key=lambda r: r.qps)


def run_baseline_sweep(
    index: IVFPQIndex,
    queries: np.ndarray,
    ground_truth: np.ndarray,
    sweep: SweepConfig,
    cost_model: CostModel,
    label: str = "FAISS-IVFPQ",
) -> QPSRecallSweep:
    """Measure the baseline at every ``nprobs`` value."""
    out = QPSRecallSweep(label=label)
    for nprobs in sweep.nprobs_values:
        result = index.search(queries, k=sweep.k, nprobs=nprobs)
        recall = recall_k_at_n(result.ids, ground_truth, sweep.recall_k, sweep.recall_n)
        latency = cost_model.serial_latency(result.work)
        out.records.append(
            ThroughputRecord(
                label=label,
                recall=recall,
                qps=result.work.num_queries / latency.total_s,
                latency_s=latency.total_s,
                num_queries=result.work.num_queries,
                extra={"nprobs": nprobs},
            )
        )
    return out


def run_juno_sweep(
    index: JunoIndex | ShardedJunoIndex,
    queries: np.ndarray,
    ground_truth: np.ndarray,
    sweep: SweepConfig,
    cost_model: CostModel,
    label: str = "JUNO",
    pipelined: bool | None = None,
    pipeline: QueryPipeline | None = None,
) -> QPSRecallSweep:
    """Measure JUNO across nprobs x scale x quality-mode combinations.

    ``index`` may be a single :class:`JunoIndex` or a
    :class:`~repro.serving.shard.ShardedJunoIndex`: the sharded router
    exposes the same search signature, returns global ids and aggregates
    shard work into one :class:`~repro.gpu.work.SearchWork`, so sweeps run
    against a sharded deployment unchanged (``nprobs`` is then per shard).
    ``pipeline`` optionally substitutes a custom staged query pipeline for
    every search in the sweep; per-stage breakdowns land in each record's
    ``extra``.
    """
    pipelined = sweep.pipelined if pipelined is None else pipelined
    out = QPSRecallSweep(label=label)
    for mode in sweep.quality_modes:
        for nprobs in sweep.nprobs_values:
            for scale in sweep.threshold_scales:
                result = index.search(
                    queries,
                    k=sweep.k,
                    nprobs=nprobs,
                    quality_mode=mode,
                    threshold_scale=scale,
                    pipeline=pipeline,
                )
                recall = recall_k_at_n(
                    result.ids, ground_truth, sweep.recall_k, sweep.recall_n
                )
                latency = cost_model.latency(result.work, pipelined=pipelined)
                extra = {
                    "nprobs": nprobs,
                    "threshold_scale": scale,
                    "quality_mode": mode.value,
                    "selected_fraction": result.selected_entry_fraction,
                }
                extra.update(_stage_extras(result.extra, cost_model))
                out.records.append(
                    ThroughputRecord(
                        label=f"{label}-{mode.value}",
                        recall=recall,
                        qps=result.work.num_queries / latency.total_s,
                        latency_s=latency.total_s,
                        num_queries=result.work.num_queries,
                        extra=extra,
                    )
                )
    return out


def run_engine_sweep(
    engine: ServingEngine,
    queries: np.ndarray,
    ground_truth: np.ndarray,
    sweep: SweepConfig,
    cost_model: CostModel,
    label: str | None = None,
    pipelined: bool | None = None,
    pipeline: QueryPipeline | None = None,
) -> QPSRecallSweep:
    """Measure any :class:`ServingEngine` backend over its supported knobs.

    The sweep grid adapts to the backend: JUNO engines sweep the full
    ``nprobs`` x ``threshold_scale`` x ``quality_mode`` grid, IVFPQ engines
    sweep ``nprobs`` only, HNSW engines sweep the ``ef`` beam width and
    knob-free backends (exact search) produce a single record.  Latencies
    default to the pipelined cost model for JUNO backends and the serial
    model otherwise, matching how the paper places the systems on one QPS
    axis.  ``pipeline`` substitutes a custom staged query pipeline on
    backends that accept one (raises otherwise, like any unsupported knob).
    """
    label = label if label is not None else engine.label
    if pipelined is None:
        pipelined = sweep.pipelined and engine.accepts("quality_mode")
    grids: list[dict] = [{}]
    if engine.accepts("nprobs"):
        grids = [{"nprobs": nprobs} for nprobs in sweep.nprobs_values]
    if engine.accepts("ef"):
        grids = [{**grid, "ef": ef} for grid in grids for ef in sweep.ef_values]
    if engine.accepts("quality_mode"):
        grids = [
            {**grid, "quality_mode": mode, "threshold_scale": scale}
            for grid in grids
            for mode in sweep.quality_modes
            for scale in sweep.threshold_scales
        ]
    if pipeline is not None:
        grids = [{**grid, "pipeline": pipeline} for grid in grids]
    out = QPSRecallSweep(label=label)
    for params in grids:
        result = engine.search(queries, k=sweep.k, **params)
        recall = recall_k_at_n(result.ids, ground_truth, sweep.recall_k, sweep.recall_n)
        latency = cost_model.latency(result.work, pipelined=pipelined)
        extra = {
            key: getattr(value, "value", value)
            for key, value in params.items()
            if key != "pipeline"
        }
        extra["backend"] = engine.backend
        extra.update(_stage_extras(result.extra, cost_model))
        out.records.append(
            ThroughputRecord(
                label=label,
                recall=recall,
                qps=result.work.num_queries / latency.total_s,
                latency_s=latency.total_s,
                num_queries=result.work.num_queries,
                extra=extra,
            )
        )
    return out


def speedup_summary(
    juno: QPSRecallSweep,
    baseline: QPSRecallSweep,
    recall_bands: tuple[float, ...] = (0.99, 0.97, 0.95, 0.9, 0.8, 0.6),
) -> list[dict[str, float]]:
    """JUNO-vs-baseline speed-up at several recall requirements (Fig. 13(a) axis).

    For each recall requirement, both systems contribute the highest-QPS
    configuration that still meets the requirement; bands that neither system
    can reach are skipped.
    """
    rows: list[dict[str, float]] = []
    for band in recall_bands:
        juno_best = juno.best_qps_at_recall(band)
        base_best = baseline.best_qps_at_recall(band)
        if juno_best is None or base_best is None:
            continue
        rows.append(
            {
                "recall_requirement": band,
                "juno_qps": juno_best.qps,
                "baseline_qps": base_best.qps,
                "speedup": juno_best.qps / base_best.qps,
            }
        )
    return rows
