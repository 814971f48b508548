#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py --workload <name|all> --seed <n> \
        [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
    python3 benchmarks/ledger/run.py --validate <record.json>

One run sets up the workload's deployment, warms it, measures a closed loop
for ``--seconds`` and checks the outputs.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the benchmark's own spans are recorded
around the calls into every layer, the per-layer metrics are printed, and the
spans are written to a file when the run ends.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--workload all`` runs every workload untraced and traced, each in its own
process so that peak memory is per workload.  See ``README.md`` beside this
file for the catalogue.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Keys every output record must carry (``--validate`` rejects one without).
PROVENANCE_KEYS = (
    "git_sha",
    "cpu_count",
    "python",
    "numpy",
    "blas_threads",
    "workload",
    "seed",
    "seconds",
    "traced",
    "comparable",
    "parameters",
    "phases",
    "correct",
    "attempted",
    "failed",
    "metrics",
)
PHASE_KEYS = ("name", "duration_s", "attempted", "succeeded", "failed", "samples")


def _prepare_imports() -> None:
    """Pin BLAS/OpenMP pools to one thread, then make the program importable.

    Must run before NumPy is first imported; worker processes inherit the
    environment.  ``src/`` is found relative to this file, so the command
    needs no ``PYTHONPATH``.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not (HERE.parent.parent / "src" / "repro").is_dir():
        raise SystemExit("the program (src/repro) is not in this checkout; nothing to measure")
    for path in (HERE.parent.parent / "src", HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=None, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; output not comparable")
    parser.add_argument("--out", type=Path, default=None, help="where records and spans go")
    parser.add_argument("--validate", type=Path, default=None, metavar="RECORD")
    args = parser.parse_args(argv)
    if args.validate is None and args.workload is None:
        parser.error("give --workload or --validate")
    return args


def declared_metrics(declaration: dict, traced: bool) -> dict:
    """``name -> unit`` of the metrics a run with this ``--trace`` must print."""
    section = declaration["per_layer"] if traced else declaration["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_workload(name: str, sizes, seed: int, seconds: float, traced: bool, ledger) -> list:
    """Dispatch to the workload; returns the spans it recorded."""
    from ledgerlib import search_workloads, serving_workload, updates_workload
    from ledgerlib.common import make_inputs

    inputs = make_inputs(sizes, seed)
    if name == "batch_search":
        return search_workloads.run(sizes, inputs, seconds, traced, sizes.batch, ledger)
    if name == "single_query":
        return search_workloads.run(sizes, inputs, seconds, traced, 1, ledger)
    if name == "resident_serving":
        return serving_workload.run(sizes, inputs, seconds, traced, ledger)
    if name == "mixed_updates":
        return updates_workload.run(sizes, inputs, seconds, traced, ledger)
    raise SystemExit(f"unknown workload {name!r}")


def run_one(args: argparse.Namespace, declaration: dict) -> int:
    from ledgerlib import spans as sp
    from ledgerlib.common import OUT_DIR, Ledger, Sizes, provenance

    sizes = Sizes.smoke_sizes() if args.smoke else Sizes()
    seconds = args.seconds if args.seconds is not None else float(declaration["run_seconds"])
    traced = bool(args.trace)
    units = declared_metrics(declaration, traced)
    ledger = Ledger()
    spans = run_workload(args.workload, sizes, args.seed, seconds, traced, ledger)

    if traced:
        # A layer the workload does not exercise did no work: it reports 0.
        for name in units:
            ledger.metrics.setdefault(name, 0.0)
        violations = sp.nesting_violations(spans)
        ledger.metrics["ledger.span_violations"] = float(len(violations))
        check = ledger.phase("span_self_check")
        check.attempted = 1
        for violation in violations:
            ledger.fail(check, violation)
        ledger.metrics["ledger.failed_fraction"] = ledger.failed / max(ledger.attempted, 1)

    metrics = {}
    for name, unit in units.items():
        value = ledger.metrics.get(name)
        if value is None or not math.isfinite(value):
            ledger.fail(ledger.phase("metrics"), f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": float(value), "unit": unit}
    # A run measures some metrics of the other section on its way (a traced
    # run still times its set-up); those are simply not printed.
    undeclared = sorted(
        set(ledger.metrics)
        - set(declared_metrics(declaration, True))
        - set(declared_metrics(declaration, False))
    )
    if undeclared:
        ledger.fail(ledger.phase("metrics"), f"undeclared metrics {undeclared}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    out_dir = args.out if args.out is not None else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    record = {
        **provenance(sizes, args.workload, args.seed, seconds, traced),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "phases": [phase.to_dict() for phase in ledger.phases],
        "notes": ledger.notes,
        "problems": ledger.problems,
        **result,
    }
    if traced:
        span_file = out_dir / f"{stem}.spans.jsonl"
        sp.dump(span_file, spans)
        record["span_file"] = span_file.name
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    comparable = "" if record["comparable"] else "  [smoke sizes: NOT comparable]"
    print(f"# {args.workload} seed={args.seed} seconds={seconds} trace={int(traced)}{comparable}")
    for phase in record["phases"]:
        print(
            f"# phase {phase['name']}: {phase['duration_s']:.3f} s, attempted "
            f"{phase['attempted']}, succeeded {phase['succeeded']}, failed {phase['failed']}"
        )
    for problem in ledger.problems:
        print(f"# PROBLEM {problem}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, declaration: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in declaration["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            command += ["--seed", str(args.seed), "--trace", str(trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.out is not None:
                command += ["--out", str(args.out)]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"# {workload} trace={trace} exited with {done.returncode}")
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                combined["metrics"][f"{workload}:{name}"] = entry
    print(json.dumps(combined))
    return 0


def validate(path: Path, declaration: dict) -> int:
    """Reject a record missing provenance or carrying an undeclared metric."""
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    problems = [f"missing key {key!r}" for key in PROVENANCE_KEYS if key not in record]
    for phase in record.get("phases", []):
        problems += [
            f"phase {phase.get('name')!r} missing {key!r}" for key in PHASE_KEYS if key not in phase
        ]
    if not record.get("phases"):
        problems.append("no phases recorded")
    if "traced" in record and "metrics" in record:
        units = declared_metrics(declaration, bool(record["traced"]))
        problems += [f"undeclared metric {n!r}" for n in sorted(set(record["metrics"]) - set(units))]
        problems += [f"declared metric {n!r} absent" for n in sorted(set(units) - set(record["metrics"]))]
        for name, entry in record["metrics"].items():
            value = entry.get("value") if isinstance(entry, dict) else None
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"metric {name!r} has no finite value")
            elif name in units and entry.get("unit") != units[name]:
                problems.append(f"metric {name!r} has unit {entry.get('unit')!r}, not {units[name]!r}")
    for problem in problems:
        print(f"INVALID {path}: {problem}")
    if not problems:
        print(f"valid {path}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    _prepare_imports()
    from ledgerlib.common import load_declaration

    declaration = load_declaration()
    if args.validate is not None:
        return validate(args.validate, declaration)
    if args.workload == "all":
        return run_all(args, declaration)
    if args.workload not in {w["name"] for w in declaration["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    return run_one(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
