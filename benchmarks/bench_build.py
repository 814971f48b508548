"""Index-build benchmark: checkpointed pipeline wall-clock and parallel speedup.

Measures what the data-parallel build pipeline (:mod:`repro.build`) changes
about the offline phase: per-step wall-clock, peak RSS, and the speedup of
the embarrassingly parallel ``assign``/``encode`` steps when fanned out over
worker processes.  The same chunked corpus is built twice into fresh build
roots -- once with ``num_workers=1`` (everything inline) and once with
``num_workers=4`` -- and both bundles must digest bit-identical to each
other *and* to the in-memory ``ShardedJunoIndex.train``; the emitted bundle
is then booted through worker-resident serving and must answer queries
bit-identically to an in-process load.

The table is printed with the machine's ``cpu_count``: on a single-core
container the 4-worker build cannot beat the serial one (processes timeshare
the core and pay IPC on top), so the >=1.5x speedup assertion only arms when
at least 4 cores are actually available.
"""

from __future__ import annotations

import os
import resource

from repro.bench.report import emit, format_table
from repro.build import BuildPlan, bundle_state_digest, run_build
from repro.datasets.registry import scaled_default, write_chunked_corpus
from repro.datasets.synthetic import make_deep_like
from repro.serving import ServingConfig, ShardedJunoIndex, search_results_equal

NUM_SHARDS = 2
CHUNK_SIZE = 1_024
PARALLEL_WORKERS = 4
K = 10
NPROBS = 8

#: Steps whose work fans out per corpus chunk -- the parallel section.
PARALLEL_STEPS = ("assign", "encode")


def _peak_rss_mb() -> float:
    """High-water RSS of this process and its (reaped) children, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024


def _timed_build(plan: BuildPlan) -> dict:
    rss_before = _peak_rss_mb()
    report = run_build(plan)
    row = {
        "workers": plan.num_workers,
        "wall_s": report.wall_seconds,
        "peak_rss_mb": max(_peak_rss_mb(), rss_before),
        "digest": bundle_state_digest(report.bundle),
    }
    for name in report.steps:
        row[f"{name}_s"] = report.step_seconds(name)
    row["parallel_s"] = sum(report.step_seconds(name) for name in PARALLEL_STEPS)
    return row


def test_build_pipeline(tmp_path):
    dataset = make_deep_like(num_points=scaled_default(6_000), num_queries=32, seed=31)
    corpus = write_chunked_corpus(
        dataset.points, tmp_path / "corpus", chunk_size=CHUNK_SIZE, queries=dataset.queries
    )

    rows = []
    for workers in (1, PARALLEL_WORKERS):
        plan = BuildPlan(
            corpus=tmp_path / "corpus",
            out=tmp_path / f"build-w{workers}",
            num_shards=NUM_SHARDS,
            num_workers=workers,
        )
        rows.append(_timed_build(plan))
    serial, parallel = rows
    speedup = serial["parallel_s"] / max(parallel["parallel_s"], 1e-9)

    # Parity oracle at benchmark scale: both builds, and the in-memory
    # trainer, produce byte-identical deployment bundles.
    plan = BuildPlan(corpus=tmp_path / "corpus", out=tmp_path / "unused", num_shards=NUM_SHARDS)
    router = ShardedJunoIndex(plan.config, num_shards=NUM_SHARDS, assignment=plan.assignment)
    router.train(dataset.points)
    router.save(tmp_path / "in-memory")
    memory_digest = bundle_state_digest(tmp_path / "in-memory")
    assert serial["digest"] == parallel["digest"] == memory_digest

    # The emitted bundle must serve -- resident workers and an in-process
    # load answer bit-identically.
    queries = corpus.load_queries()
    bundle = tmp_path / "build-w1" / "bundle"
    with ShardedJunoIndex.load(bundle, ServingConfig(executor="resident")) as resident:
        resident_results = resident.search(queries, K, nprobs=NPROBS)
    local = ShardedJunoIndex.load(bundle)
    assert search_results_equal(resident_results, local.search(queries, K, nprobs=NPROBS))

    cpu_count = os.cpu_count() or 1
    for row in rows:
        row.pop("digest")
    emit()
    emit(
        format_table(
            rows,
            title=f"Checkpointed build [{dataset.name}]: {corpus.num_points} points, "
            f"{corpus.num_chunks} chunks, {NUM_SHARDS} shards, {cpu_count} cpus",
        )
    )
    emit(f"assign+encode speedup ({PARALLEL_WORKERS} workers vs 1): {speedup:.2f}x")

    # Real fan-out needs real cores: the speedup floor only arms when the
    # machine can actually run the workers concurrently.
    if cpu_count >= PARALLEL_WORKERS:
        assert speedup >= 1.5, (
            f"assign+encode speedup {speedup:.2f}x < 1.5x with "
            f"{PARALLEL_WORKERS} workers on {cpu_count} cpus"
        )
