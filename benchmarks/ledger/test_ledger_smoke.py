"""Smoke test of the ledger at ``--smoke`` sizes (N = 1000, 1 s phases).

Run by path -- it is not part of the tier-1 suite:

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
DECLARATION = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=170, check=False
    )


def ledger_processes() -> list[str]:
    """Command lines of live processes started from ``run.py`` (workers fork from it)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            command = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if str(RUN).encode() in command:
            found.append(command.decode(errors="replace"))
    return found


def shared_memory() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric_and_leaves_nothing(workload, trace, tmp_path):
    segments_before = shared_memory()
    done = run_cli(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke", "--out", str(tmp_path),
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert "NOT comparable" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    section = DECLARATION["per_layer" if trace else "end_to_end"]
    declared = {metric["name"]: metric["unit"] for metric in section}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
        assert sum(line.startswith(f"{name} = ") for line in lines) == 1, name

    record = tmp_path / f"{workload}-seed3-trace{trace}.json"
    assert json.loads(record.read_text(encoding="utf-8"))["comparable"] is False
    assert run_cli("--validate", str(record)).returncode == 0
    if trace:
        spans = (tmp_path / f"{workload}-seed3-trace1.spans.jsonl").read_text(encoding="utf-8")
        assert {"id", "name", "start", "end", "parent", "request"} <= set(json.loads(spans.splitlines()[0]))

    assert ledger_processes() == []
    assert shared_memory() <= segments_before
    assert list((HERE / "out").glob("tmp-*")) == []


def test_validate_rejects_missing_provenance_and_undeclared_metrics(tmp_path):
    done = run_cli(
        "--workload", "single_query", "--seed", "3", "--seconds", "1", "--smoke", "--out", str(tmp_path)
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    path = tmp_path / "single_query-seed3-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))

    stripped = dict(record)
    del stripped["git_sha"]
    path.write_text(json.dumps(stripped), encoding="utf-8")
    rejected = run_cli("--validate", str(path))
    assert rejected.returncode == 1 and "git_sha" in rejected.stdout

    extra = json.loads(json.dumps(record))
    extra["metrics"]["made_up_ms"] = {"value": 1.0, "unit": "ms"}
    path.write_text(json.dumps(extra), encoding="utf-8")
    rejected = run_cli("--validate", str(path))
    assert rejected.returncode == 1 and "made_up_ms" in rejected.stdout


def test_injected_wrong_id_is_counted_as_a_failure(monkeypatch, capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("ledger_run", RUN)
    ledger_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger_run)
    ledger_run._prepare_imports()
    from repro.core.index import JunoIndex

    genuine = JunoIndex.search
    calls = []

    def search_with_one_wrong_id(self, *args, **kwargs):
        result = genuine(self, *args, **kwargs)
        calls.append(None)
        if len(calls) == 6:  # past the warm-up, inside the measured phase
            result.ids[0, 0] = 10**6
        return result

    monkeypatch.setattr(JunoIndex, "search", search_with_one_wrong_id)
    ledger_run.main(
        ["--workload", "batch_search", "--seed", "3", "--seconds", "1", "--smoke", "--out", str(tmp_path)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
