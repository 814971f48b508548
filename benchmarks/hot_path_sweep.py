#!/usr/bin/env python3
"""Hot-path sparsity sweep: ``rt_select + score`` time and a result digest per cell.

    python3 benchmarks/hot_path_sweep.py [--tree DIR] [--points N] [--repeats N]
        [--json OUT] [--against PARENT.json]

Trains the ledger's index (seed 1) and searches it in 24 cells -- quality mode
(JUNO-H/M/L) x ``threshold_scale`` (0.1, 0.25, 0.5, 1.0) x batch (1, 32) --
nine searches per cell.  A cell's time is the median ``rt_select`` plus the
median ``score`` stage time of the nine (the selective LUT is one table
written by the first and read by the second, so a change can move time
between them: their sum is what must hold up).  A cell also records two
digests, one of every id and one of every id and score, and recall@10 of its
searches against brute force (computed once).  Run it on the parent and on
the change when touching ``rt/tracer.py``, ``core/selective_lut.py`` or
``pipeline/fused.py``: recall must match cell for cell, the digests say
whether ids or only scores moved, and the time must hold at low
``threshold_scale`` too, not only in the dense regime the ledger runs.

A single pass on a shared box wanders by +-20 %, so a cell keeps the best of
``--repeats`` passes over *all* cells, and ``--json OUT`` keeps the best of
what OUT already holds -- which is how parent and change alternate::

    for i in 1 2 3 4 5 6; do
      python3 benchmarks/hot_path_sweep.py --tree ../parent --repeats 1 --json parent.json
      python3 benchmarks/hot_path_sweep.py --repeats 1 --json change.json --against parent.json
    done

``--tree`` names the checkout whose ``src/`` and ``benchmarks/ledger/`` are
measured (default: the one this file is in).  ``--against`` prints every
cell's time over the parent's and which digests differ from it, and exits
non-zero when a cell's recall differs or a cell is missing on either side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

MODES = ("juno-h", "juno-m", "juno-l")
SCALES = (0.1, 0.25, 0.5, 1.0)
BATCHES = (1, 32)
SEARCHES = 9


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--points", type=int, default=None, help="corpus size (default: ledger's)")
    parser.add_argument("--repeats", type=int, default=3, help="passes over all cells; best kept")
    parser.add_argument("--json", type=Path, default=None, metavar="OUT")
    parser.add_argument("--against", type=Path, default=None, metavar="PARENT.json")
    return parser.parse_args(argv)


def _median_ms(results, stage: str) -> float:
    times = sorted(r.extra["stage_seconds"][stage] for r in results)
    return times[len(times) // 2] * 1e3


def _digest(arrays) -> str:
    return hashlib.blake2b(b"".join(a.tobytes() for a in arrays), digest_size=6).hexdigest()


def sweep_once(index, queries, truth, recall_k_at_n) -> dict[str, dict]:
    """One pass over the 24 cells: ``{cell: {ms, rt_select_ms, digests, recall}}``."""
    cells = {}
    for mode, scale, batch in product(MODES, SCALES, BATCHES):
        results = [
            index.search(
                queries[i * batch : (i + 1) * batch],
                k=10,
                nprobs=8,
                quality_mode=mode,
                threshold_scale=scale,
            )
            for i in range(SEARCHES)
        ]
        rt_select_ms = _median_ms(results, "rt_select")
        ids = np.concatenate([r.ids for r in results])
        cells[f"{mode}/{scale}/{batch}"] = {
            "ms": rt_select_ms + _median_ms(results, "score"),
            "rt_select_ms": rt_select_ms,
            "digest": _digest([a for r in results for a in (r.ids, r.scores)]),
            "ids_digest": _digest([r.ids for r in results]),
            "recall": float(recall_k_at_n(ids, truth[: ids.shape[0]], k=10, n=10)),
            "selected_fraction": results[-1].selected_entry_fraction,
        }
    return cells


def keep_best(best: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """Fold ``new`` into ``best`` per cell; returns the cells whose digests differ."""
    differing = []
    for cell, record in new.items():
        kept = best.setdefault(cell, record)
        if kept["digest"] != record["digest"]:
            differing.append(cell)
        kept["rt_select_ms"] = min(kept["rt_select_ms"], record["rt_select_ms"])
        kept["ms"] = min(kept["ms"], record["ms"])
    return differing


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for path in (args.tree / "benchmarks" / "ledger", args.tree / "src"):
        if not path.is_dir():
            raise SystemExit(f"{path} is not in the tree; nothing to measure")
        sys.path.insert(0, str(path))
    from ledgerlib.common import Sizes, make_inputs
    from repro.core.index import JunoIndex
    from repro.datasets.ground_truth import compute_ground_truth
    from repro.metrics.recall import recall_k_at_n

    sizes = Sizes() if args.points is None else replace(Sizes(), num_points=args.points)
    inputs = make_inputs(sizes, 1)
    index = JunoIndex(sizes.juno_config()).train(inputs.points)
    searched = inputs.queries[: SEARCHES * max(BATCHES)]
    truth = compute_ground_truth(inputs.points, searched, k=10)

    cells: dict[str, dict] = {}
    unstable: list[str] = []
    if args.json is not None and args.json.exists():
        cells = json.loads(args.json.read_text())
    for _ in range(args.repeats):
        unstable += keep_best(cells, sweep_once(index, inputs.queries, truth, recall_k_at_n))
    if unstable:
        print(f"digests differ between passes of one tree (stale {args.json}?): {unstable}")
        return 1
    if args.json is not None:
        args.json.write_text(json.dumps(cells, indent=1) + "\n")

    parent = {} if args.against is None else json.loads(args.against.read_text())
    recall_moved = []
    for cell, record in cells.items():
        line = (
            f"{cell:<16} frac={record['selected_fraction']:.3f} recall={record['recall']:.4f} "
            f"rt_select+score_ms={record['ms']:6.2f} (rt_select {record['rt_select_ms']:6.2f}) "
            f"{record['ids_digest']}/{record['digest']}"
        )
        if cell in parent:
            was = parent[cell]
            line += f"  x{record['ms'] / was['ms']:.2f} of parent {was['ms']:.2f}"
            if was["ids_digest"] != record["ids_digest"]:
                line += "  IDS DIFFER"
            elif was["digest"] != record["digest"]:
                line += "  scores differ, every id equal"
            if was["recall"] != record["recall"]:
                recall_moved.append(cell)
                line += f"  RECALL {was['recall']:.4f} -> {record['recall']:.4f}"
        print(line)
    missing = sorted(set(parent) ^ set(cells)) if parent else []
    if recall_moved or missing:
        print(f"against {args.against}: recall moved in {recall_moved}, cells missing {missing}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
