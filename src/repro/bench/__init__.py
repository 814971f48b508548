"""Benchmark harness: workload builders, sweeps, Pareto extraction and reports.

These utilities are shared by the scripts in ``benchmarks/`` (one per paper
figure) and by the examples.  They keep the figure scripts short: each figure
script only picks the workload and the sweep, then delegates measurement and
formatting here.
"""

from repro.bench.harness import (
    QPSRecallSweep,
    SweepConfig,
    run_baseline_sweep,
    run_juno_sweep,
    speedup_summary,
)
from repro.bench.report import format_records_table, format_table

__all__ = [
    "QPSRecallSweep",
    "SweepConfig",
    "run_baseline_sweep",
    "run_juno_sweep",
    "speedup_summary",
    "format_table",
    "format_records_table",
]
