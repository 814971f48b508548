"""Image-retrieval scenario: sweep the quality/throughput trade-off (L2 metric).

This mirrors the paper's motivating recommendation/retrieval workload: image
descriptors (SIFT-like surrogate), a strict and a relaxed quality target, and
the question "how much throughput does each target cost?".  The script sweeps
JUNO's knobs (nprobs, threshold scale, quality mode), prints the Pareto
frontier and reports the best configuration for each recall requirement.

Run with::

    python examples/image_retrieval_l2.py
"""

from __future__ import annotations

from repro import CostModel, IVFPQIndex, JunoIndex, make_sift_like
from repro.bench.harness import SweepConfig, run_baseline_sweep, run_juno_sweep, speedup_summary
from repro.bench.report import format_records_table, format_table
from repro.core.config import QualityMode


def main() -> None:
    dataset = make_sift_like(num_points=8_000, num_queries=64)
    dataset.ensure_ground_truth(k=100)
    print(f"dataset: {dataset.name}  N={dataset.num_points}  D={dataset.dim}")

    juno = JunoIndex.for_dataset(dataset, num_clusters=64, num_entries=128).train(dataset.points)
    baseline = IVFPQIndex(
        num_clusters=64, num_subspaces=dataset.dim // 2, num_entries=128
    ).train(dataset.points)

    sweep = SweepConfig(
        nprobs_values=(1, 2, 4, 8),
        threshold_scales=(0.4, 0.7, 1.0),
        quality_modes=(QualityMode.HIGH, QualityMode.LOW),
    )
    cost_model = CostModel("rtx4090")
    juno_sweep = run_juno_sweep(juno, dataset.queries, dataset.ground_truth, sweep, cost_model)
    base_sweep = run_baseline_sweep(baseline, dataset.queries, dataset.ground_truth, sweep, cost_model)

    print()
    print(format_records_table(juno_sweep.frontier, title="JUNO Pareto frontier (recall vs QPS)"))
    print()
    print(format_records_table(base_sweep.records, title="IVFPQ baseline"))
    print()
    print(format_table(
        speedup_summary(juno_sweep, base_sweep, recall_bands=(0.97, 0.95, 0.9, 0.8)),
        title="Speed-up at each quality requirement",
    ))

    for requirement in (0.95, 0.8):
        best = juno_sweep.best_qps_at_recall(requirement)
        if best is None:
            print(f"\nno JUNO configuration reaches recall {requirement}")
            continue
        print(
            f"\nbest JUNO config for recall >= {requirement}: "
            f"{best.extra['quality_mode']} nprobs={best.extra['nprobs']} "
            f"scale={best.extra['threshold_scale']} -> recall {best.recall:.3f}, "
            f"{best.qps:,.0f} QPS"
        )


if __name__ == "__main__":
    main()
