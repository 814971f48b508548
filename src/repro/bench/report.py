"""Plain-text table formatting for benchmark output.

Every figure benchmark prints the rows/series the paper reports; these
helpers keep that output aligned and consistent so EXPERIMENTS.md can quote
it directly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.metrics.qps import ThroughputRecord


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None, title: str | None = None) -> str:
    """Format a list of dict rows as an aligned plain-text table.

    Args:
        rows: the records to print.
        columns: explicit column order; defaults to the keys of the first row.
        title: optional title printed above the table.

    Returns:
        The formatted table as a single string.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_records_table(records: Sequence[ThroughputRecord], title: str | None = None) -> str:
    """Format throughput records (recall, QPS and their parameters)."""
    rows = []
    for record in records:
        row = {
            "label": record.label,
            "recall": record.recall,
            "qps": record.qps,
        }
        row.update({k: v for k, v in record.extra.items()})
        rows.append(row)
    return format_table(rows, title=title)


def emit(text: str = "") -> None:
    """Print benchmark output on the real stdout, bypassing pytest capture.

    The figure benchmarks are meant to leave their tables in the console (and
    in ``bench_output.txt`` via ``tee``) even when pytest captures stdout of
    passing tests, so they write to ``sys.__stdout__`` directly.
    """
    import sys

    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    stream.write(str(text) + "\n")
    stream.flush()
