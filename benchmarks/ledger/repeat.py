#!/usr/bin/env python3
"""Run the benchmark twice on the current tree and hold it to its own bounds.

    python3 benchmarks/ledger/repeat.py [--runs N] [--seed S] [--workload NAME ...]

Two sets of runs of the same code, one after the other.  A set is ``--runs``
untraced runs of every workload, run ``i`` with seed ``S + i``.  For every
workload and end-to-end metric it prints both sets' medians, how much worse the
second is than the first as a share of the first, and PASS or FAIL against the
metric's bound in ``BENCHMARK.json``.  With four runs or more it also prints
each set's spread -- the distance between the first and third quartile as a
share of the median -- and fails a metric (other than ``setup_s``) whose
spread exceeds its bound: that is the test a benchmark must pass before its
numbers can carry a claim.  Exits non-zero on any FAIL or incorrect run.

``--runs 1`` (the default) is the quick check; ``--runs 10`` is the full one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    """Interquartile distance over the median, as the acceptance test takes it."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        declaration = json.load(handle)
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=0, help="run i uses seed + i")
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    args = parser.parse_args(argv)

    failures = 0
    for workload in args.workload or names:
        sets = []
        for _ in range(2):
            results = [run_once(workload, args.seed + i) for i in range(args.runs)]
            incorrect = sum(not result["correct"] for result in results)
            if incorrect:
                print(f"FAIL {workload}: {incorrect} of {args.runs} runs incorrect")
                failures += 1
            sets.append(results)
        for metric in declaration["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in results] for results in sets]
            medians = [statistics.median(v) for v in values]
            worse = worsening(medians[0], medians[1], metric["better"])
            passed = worse <= bound
            line = (
                f"{workload:17s} {name:16s} {medians[0]:12.5g} {medians[1]:12.5g} "
                f"{metric['unit']:10s} worse by {worse:+7.2%} (bound {bound:.0%})"
            )
            if args.runs >= 4:
                spreads = [spread(v) for v in values]
                line += f"  spread {spreads[0]:6.2%} {spreads[1]:6.2%}"
                if name != "setup_s":
                    passed = passed and max(spreads) <= bound
            print(f"{'PASS' if passed else 'FAIL'} {line}", flush=True)
            failures += not passed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
