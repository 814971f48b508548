"""Fig. 12: QPS vs recall Pareto curves on every dataset (the headline result).

For each dataset surrogate the benchmark sweeps the baseline over ``nprobs``
and JUNO over (nprobs, threshold scale, quality mode), prints every measured
point plus the Pareto frontier, and summarises the speed-up at the recall
bands the paper quotes (Sec. 6.2: 2.1x-4.4x average, up to 8.5x).
"""

import pytest

from repro.bench.harness import (
    SweepConfig,
    run_baseline_sweep,
    run_juno_sweep,
    speedup_summary,
)
from repro.bench.report import emit, format_records_table, format_table
from repro.core.config import QualityMode

SWEEP = SweepConfig(
    nprobs_values=(1, 2, 4, 8),
    threshold_scales=(0.4, 0.7, 1.0),
    quality_modes=(QualityMode.HIGH, QualityMode.MEDIUM, QualityMode.LOW),
    k=100,
    recall_k=1,
    recall_n=100,
)

# The paper's quality bands (Sec. 6.3) extended down to 0.6 so that the MIPS
# surrogate, whose baseline recall tops out lower (as in the paper's TTI
# panel), still contributes comparable bands.
RECALL_BANDS = (0.99, 0.97, 0.95, 0.9, 0.8, 0.7, 0.6)


def _run_dataset(workload, rtx4090, label, include_hnsw=True):
    dataset = workload.dataset
    juno = run_juno_sweep(
        workload.juno, dataset.queries, dataset.ground_truth, SWEEP, rtx4090, label="JUNO"
    )
    baseline = run_baseline_sweep(
        workload.baseline, dataset.queries, dataset.ground_truth, SWEEP, rtx4090, label="IVFPQ"
    )
    emit()
    emit(format_records_table(juno.frontier, title=f"Fig 12 [{label}]: JUNO Pareto frontier"))
    emit()
    emit(format_records_table(baseline.records, title=f"Fig 12 [{label}]: IVFPQ baseline"))
    if include_hnsw:
        hnsw = run_baseline_sweep(
            workload.baseline_hnsw,
            dataset.queries,
            dataset.ground_truth,
            SWEEP,
            rtx4090,
            label="IVFPQ+HNSW",
        )
        emit()
        emit(format_records_table(hnsw.records, title=f"Fig 12 [{label}]: IVFPQ+HNSW baseline"))
    summary = speedup_summary(juno, baseline, recall_bands=RECALL_BANDS)
    emit()
    emit(format_table(summary, title=f"Fig 12 [{label}]: JUNO speed-up over the baseline"))
    return juno, baseline, summary


@pytest.mark.parametrize("which", ["deep", "sift", "tti"])
def test_fig12_qps_recall(which, deep_workload, sift_workload, tti_workload, rtx4090, benchmark):
    workload = {"deep": deep_workload, "sift": sift_workload, "tti": tti_workload}[which]
    label = {"deep": "DEEP-like", "sift": "SIFT-like", "tti": "TTI-like"}[which]
    juno, baseline, summary = benchmark.pedantic(
        _run_dataset, args=(workload, rtx4090, label), rounds=1, iterations=1
    )
    assert summary, "both systems must reach at least one recall band"
    # The paper's headline: JUNO wins at the reachable quality bands, with the
    # largest wins at the lower quality requirements.  The MIPS dataset (TTI)
    # shows smaller gains, exactly as in the paper (Sec. 6.2: 2.04x there).
    speedups = [row["speedup"] for row in summary]
    min_expected = 1.05 if which == "tti" else 1.5
    assert max(speedups) > min_expected
    assert speedups[-1] >= speedups[0] * 0.7  # low-quality bands are not worse
    # Best recall of JUNO is competitive with the baseline's best.
    best_juno = max(r.recall for r in juno.records)
    best_base = max(r.recall for r in baseline.records)
    assert best_juno >= best_base - 0.1


def test_fig12_r100_at_1000(deep_workload, rtx4090, benchmark):
    """The stricter R100@1000 metric on the DEEP surrogate."""
    sweep = SweepConfig(
        nprobs_values=(2, 4, 8),
        threshold_scales=(0.7, 1.0),
        quality_modes=(QualityMode.HIGH,),
        k=1000,
        recall_k=100,
        recall_n=1000,
    )
    workload = deep_workload
    dataset = workload.dataset

    def _run():
        juno = run_juno_sweep(
            workload.juno, dataset.queries, dataset.ground_truth, sweep, rtx4090, label="JUNO"
        )
        base = run_baseline_sweep(
            workload.baseline, dataset.queries, dataset.ground_truth, sweep, rtx4090, label="IVFPQ"
        )
        return juno, base

    juno, base = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit()
    emit(format_records_table(juno.frontier, title="Fig 12 [DEEP-like] R100@1000: JUNO frontier"))
    emit()
    emit(format_records_table(base.records, title="Fig 12 [DEEP-like] R100@1000: IVFPQ baseline"))
    best_juno = max(r.recall for r in juno.records)
    best_base = max(r.recall for r in base.records)
    assert best_juno >= best_base - 0.1
