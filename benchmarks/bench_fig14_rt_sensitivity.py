"""Fig. 14(a): JUNO vs FAISS on a GPU without RT cores (A100).
Fig. 14(b): average advantage over the baseline across GPUs (4090 / A40 / A100).

Without RT cores, OptiX falls back to the CUDA cores: the selective algorithm
alone still helps at low quality requirements, but at high quality the
emulation overhead erodes the advantage -- and the faster the RT core, the
larger JUNO's edge.
"""

from repro.bench.harness import SweepConfig, run_baseline_sweep, run_juno_sweep, speedup_summary
from repro.bench.report import emit, format_table
from repro.core.config import QualityMode
from repro.gpu.cost_model import CostModel

SWEEP = SweepConfig(
    nprobs_values=(1, 2, 4, 8),
    threshold_scales=(0.4, 0.7, 1.0),
    quality_modes=(QualityMode.HIGH, QualityMode.LOW),
    k=100,
    recall_k=1,
    recall_n=100,
)
RECALL_BANDS = (0.97, 0.95, 0.9, 0.8)


def test_fig14a_no_rt_core(sift_workload, benchmark):
    workload = sift_workload
    dataset = workload.dataset
    a100 = CostModel("a100")

    def _run():
        juno = run_juno_sweep(
            workload.juno, dataset.queries, dataset.ground_truth, SWEEP, a100,
            label="JUNO w/o RT core",
        )
        base = run_baseline_sweep(
            workload.baseline, dataset.queries, dataset.ground_truth, SWEEP, a100,
            label="FAISS",
        )
        return juno, base

    juno, base = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = speedup_summary(juno, base, recall_bands=RECALL_BANDS)
    emit()
    emit(format_table(rows, title="Fig 14(a): JUNO without RT cores vs FAISS on A100"))
    assert rows
    # Without RT cores the advantage shrinks (or disappears) as the quality
    # requirement rises -- the loosest band is where the algorithmic
    # enhancement alone pays off best.
    assert rows[0]["speedup"] <= rows[-1]["speedup"] + 1e-9
    # And emulation costs real throughput: the same sweep on the RTX 4090
    # must beat the A100 numbers at every band (the point of Fig. 14).
    rtx = CostModel("rtx4090")
    juno_rtx = run_juno_sweep(
        workload.juno, dataset.queries, dataset.ground_truth, SWEEP, rtx, label="JUNO"
    )
    base_rtx = run_baseline_sweep(
        workload.baseline, dataset.queries, dataset.ground_truth, SWEEP, rtx, label="FAISS"
    )
    rows_rtx = {r["recall_requirement"]: r for r in speedup_summary(juno_rtx, base_rtx, RECALL_BANDS)}
    for row in rows:
        assert rows_rtx[row["recall_requirement"]]["speedup"] > row["speedup"]


def test_fig14b_speedup_across_gpus(sift_workload, benchmark):
    workload = sift_workload
    dataset = workload.dataset

    def _run():
        rows = []
        for device in ("rtx4090", "a40", "a100"):
            model = CostModel(device)
            juno = run_juno_sweep(
                workload.juno, dataset.queries, dataset.ground_truth, SWEEP, model, label="JUNO"
            )
            base = run_baseline_sweep(
                workload.baseline, dataset.queries, dataset.ground_truth, SWEEP, model, label="FAISS"
            )
            summary = speedup_summary(juno, base, recall_bands=RECALL_BANDS)
            average = sum(r["speedup"] for r in summary) / len(summary)
            rows.append({"device": model.device.name, "avg_speedup": average})
        return rows

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit()
    emit(format_table(rows, title="Fig 14(b): average JUNO speed-up over FAISS per GPU"))
    by_device = {row["device"]: row["avg_speedup"] for row in rows}
    # Gen-3 RT cores (Ada) beat Gen-2 (Ampere), which beat CUDA emulation.
    assert by_device["RTX 4090"] > by_device["Tesla A40"]
    assert by_device["Tesla A40"] > by_device["Tesla A100"]
