"""What the four workloads share: sizes, inputs, estimators, checks, provenance.

Nothing here reads an environment variable or a clock-dependent default: the
sizes below *are* the benchmark's definition, and every input array is a pure
function of ``--seed``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.config import JunoConfig
from repro.datasets.ground_truth import compute_ground_truth
from repro.datasets.synthetic import make_clustered_dataset
from repro.metrics.recall import recall_k_at_n

LEDGER_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = LEDGER_DIR.parent.parent
OUT_DIR = LEDGER_DIR / "out"

@dataclass(frozen=True)
class Sizes:
    """The sizes that define the benchmark.  ``smoke`` shrinks them for the
    smoke test only; a smoke record is marked non-comparable."""

    smoke: bool = False
    num_points: int = 8000
    dim: int = 96
    num_components: int = 128
    anisotropy: float = 1.4
    # Chosen so the coarse filter is actually tested: at the synthetic
    # generator's default spread every true neighbour sits in the query's own
    # cluster and recall is the same at nprobs 1 and 8.  See the README.
    cluster_spread: float = 0.7
    query_jitter: float = 0.35
    query_pool: int = 4096
    num_clusters: int = 64
    num_entries: int = 128
    threshold_samples: int = 64
    kmeans_iters: int = 10
    k: int = 10
    nprobs: int = 8
    batch: int = 32
    warmup_s: float = 1.0
    # resident_serving
    num_shards: int = 2
    num_clients: int = 2
    max_wait_s: float = 0.002
    identity_sample: int = 64
    # mixed_updates
    base_points: int = 6000
    fresh_pool: int = 8192
    upserts_per_cycle: int = 8
    delta_capacity: int = 128
    warmup_cycles: int = 27
    recall_pass_queries: int = 384
    # Recall is scored over this many of the first queries a phase serves: a
    # fixed prefix, so the number is the same in every run of a seed.
    recall_prefix: int = 512

    @classmethod
    def smoke_sizes(cls) -> "Sizes":
        return cls(
            smoke=True,
            num_points=1000,
            num_components=16,
            query_pool=512,
            num_clusters=16,
            num_entries=32,
            threshold_samples=32,
            kmeans_iters=4,
            warmup_s=0.2,
            identity_sample=8,
            base_points=750,
            fresh_pool=1024,
            delta_capacity=32,
            warmup_cycles=6,
            recall_pass_queries=64,
            recall_prefix=64,
        )

    def juno_config(self) -> JunoConfig:
        """JUNO-H at ``threshold_scale`` 1.0, the config every workload trains."""
        return JunoConfig(
            num_clusters=self.num_clusters,
            num_subspaces=self.dim // 2,
            num_entries=self.num_entries,
            num_threshold_samples=self.threshold_samples,
            kmeans_iters=self.kmeans_iters,
        )


@dataclass
class Inputs:
    """Everything generated from the seed; the program only ever sees these."""

    points: np.ndarray  # (N, D) float64 corpus
    queries: np.ndarray  # (query_pool, D) float64, no request repeats one
    fresh: np.ndarray  # (fresh_pool, D) float64 vectors for upserts


def make_inputs(sizes: Sizes, seed: int) -> Inputs:
    """DEEP-like corpus (unit-norm, clustered), a query pool and fresh vectors.

    Queries and fresh vectors are jittered copies of corpus points, like a
    held-out sample of the same distribution.
    """
    dataset = make_clustered_dataset(
        name=f"ledger-deep-like-{sizes.num_points}",
        num_points=sizes.num_points,
        num_queries=sizes.query_pool + sizes.fresh_pool,
        dim=sizes.dim,
        num_components=sizes.num_components,
        anisotropy=sizes.anisotropy,
        cluster_spread=sizes.cluster_spread,
        query_jitter=sizes.query_jitter,
        seed=seed,
    )
    arrays = []
    for array in (dataset.points, dataset.queries):
        array = array.astype(np.float64)
        array /= np.maximum(np.linalg.norm(array, axis=1, keepdims=True), 1e-12)
        arrays.append(array)
    points, jittered = arrays
    return Inputs(
        points=points,
        queries=jittered[: sizes.query_pool],
        fresh=jittered[sizes.query_pool :],
    )


def pool_rows(pool: np.ndarray, start: int, count: int) -> np.ndarray:
    """``count`` consecutive pool rows from ``start``, wrapping at the end."""
    index = np.arange(start, start + count) % pool.shape[0]
    return pool[index]


# ------------------------------------------------------------------ estimators
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    """Median, or 0 for a layer that recorded nothing."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


#: A phase is cut into this many slices of equally many requests.
SLICES = 8


def equal_slices(count: int, slices: int = SLICES) -> list[tuple[int, int]]:
    """Index ranges cutting ``count`` requests into equally many per slice."""
    slices = max(1, min(slices, count))
    bounds = [round(i * count / slices) for i in range(slices + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class Speedometer:
    """Measures how fast the machine is *right now*, with a fixed kernel.

    This sandbox is a slice of a shared host, and the speed of a core moves
    between about 0.6 and 1.0 of its best for seconds to tens of seconds at a
    time (no steal time is reported; every stage of the program and this
    kernel slow down together).  A phase of ten seconds therefore mostly
    measures the host's other tenants: sizing runs of one commit spread by 10
    to 25 %.  So the closed loops interleave this kernel with their requests
    -- a gather, arithmetic, a sort, a scan and a small matrix product over
    fixed 1 MB arrays (larger than a query's working set in L1, like the
    program's own tables), about a millisecond -- and every timing is
    corrected by what the kernel cost around it, relative to
    ``NOMINAL_KERNEL_S``.  The kernel's time is taken out of the phase.
    """

    #: The kernel's cost on an undisturbed core of the sandbox the benchmark
    #: was sized on.  A constant: it fixes the scale of the corrected numbers
    #: and cancels in every comparison of two commits.
    NOMINAL_KERNEL_S = 0.0012

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        size = 131072
        self._values = rng.standard_normal(size)
        self._index = rng.integers(0, size, size)
        self._left = rng.standard_normal((64, 96))
        self._right = rng.standard_normal((96, 256))
        self.times: list[float] = []
        self.costs: list[float] = []  # the timed pass
        self.spent: list[float] = []  # both passes: what a sample took out of the phase

    def _kernel(self) -> None:
        gathered = self._values[self._index]
        gathered = gathered * gathered + self._values
        np.sort(gathered[:32768])
        np.cumsum(gathered)
        (self._left @ self._right).argmin(axis=0)

    def sample(self) -> None:
        # The program has just filled the caches with its own data; the first
        # pass brings the kernel's arrays back so that the timed pass measures
        # the core, not what the program evicted.
        first = perf_counter()
        self._kernel()
        begun = perf_counter()
        self._kernel()
        ended = perf_counter()
        self.times.append(first)
        self.costs.append(ended - begun)
        self.spent.append(ended - first)

    def factor_at(self, moment: float) -> float:
        """Speed factor around ``moment``: over the samples within half a second."""
        return self.window(moment - 0.5, moment + 0.5)[0]

    def window(self, begin: float, end: float) -> tuple[float, float]:
        """``(speed factor, kernel seconds)`` of the samples in ``[begin, end]``.

        The factor is nominal cost over median cost: below 1 when the machine
        is slower than nominal.  Without a sample in the window, the nearest
        sample stands in.
        """
        times = np.asarray(self.times)
        costs = np.asarray(self.costs)
        if times.shape[0] == 0:
            return 1.0, 0.0
        inside = (times >= begin) & (times <= end)
        if not inside.any():
            nearest = int(np.argmin(np.abs(times - (begin + end) / 2.0)))
            return self.NOMINAL_KERNEL_S / float(costs[nearest]), 0.0
        return (
            self.NOMINAL_KERNEL_S / float(np.median(costs[inside])),
            float(np.asarray(self.spent)[inside].sum()),
        )


def best_quartile(values, better: str) -> float:
    """The quartile of per-slice values on the ``better`` side.

    What disturbs a slice -- another tenant's burst, the scheduler moving a
    worker, a page fault storm -- only ever slows it down, so the better
    quartile is the program least disturbed, and it still needs a quarter of
    the slices to agree on the number.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0] if values else 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high if better == "higher" else low


def loop_metrics(
    ledger: "Ledger", starts, ends, queries_per_request, begin: float, slices, speedometer
) -> None:
    """``search_qps``, ``latency_p50_ms`` and ``latency_p90_ms`` of a closed loop.

    Requests are ordered by completion and cut into ``slices`` (index ranges).
    A slice's wall time runs from the previous slice's last completion (from
    ``begin`` for the first) to its own, less the speedometer's own time, so
    a slice holds whole requests.  Each slice yields a throughput, a median
    and a p90 latency, corrected by the machine's speed during the slice
    (times are multiplied by the slice's speed factor); the reported number
    is the :func:`best_quartile` over slices.  The uncorrected pooled numbers
    go into the record's notes.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    order = np.argsort(ends, kind="stable")
    latencies = (ends - starts)[order] * 1e3
    ends = ends[order]
    rates, medians, p90s, factors = [], [], [], []
    previous = begin
    for lo, hi in slices:
        if hi <= lo or ends[hi - 1] <= previous:
            continue
        factor, kernel_s = speedometer.window(previous, ends[hi - 1])
        wall = (ends[hi - 1] - previous - kernel_s) * factor
        rates.append((hi - lo) * queries_per_request / wall)
        medians.append(percentile(latencies[lo:hi], 50) * factor)
        p90s.append(percentile(latencies[lo:hi], 90) * factor)
        factors.append(factor)
        previous = ends[hi - 1]
    ledger.metrics["search_qps"] = best_quartile(rates, "higher")
    ledger.metrics["latency_p50_ms"] = best_quartile(medians, "lower")
    ledger.metrics["latency_p90_ms"] = best_quartile(p90s, "lower")
    if factors:
        wall = ends[-1] - begin
        ledger.notes["uncorrected"] = {
            "search_qps": float(ends.shape[0] * queries_per_request / wall),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "speed_factor_min": min(factors),
            "speed_factor_median": median(factors),
            "speed_factor_max": max(factors),
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pss_mb(pid: int) -> float:
    """Proportional set size of another process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def recall_10_at_10(retrieved, points, queries, point_ids=None) -> float:
    """``recall_k_at_n(k=10, n=10)`` against brute force over ``points``.

    ``point_ids`` names the rows of ``points`` when they are not ``0..N-1``
    (the live set of a mutated index).
    """
    truth = compute_ground_truth(points, queries, k=10)
    if point_ids is not None:
        truth = np.asarray(point_ids)[truth]
    return float(recall_k_at_n(retrieved, truth, k=10, n=10))


# ---------------------------------------------------------------------- checks
@dataclass
class Phase:
    """Operations of one phase: attempted, failed, and how long it ran."""

    name: str
    duration_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    samples: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "succeeded": self.attempted - self.failed}


@dataclass
class Ledger:
    """Accumulates a run's metrics, phases and failures."""

    metrics: dict = field(default_factory=dict)
    phases: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def phase(self, name: str) -> Phase:
        phase = Phase(name)
        self.phases.append(phase)
        return phase

    def fail(self, phase: Phase, message: str, count: int = 1) -> None:
        phase.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{phase.name}: {message}")

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases)

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases)

    def check_rows(self, phase: Phase, ids: np.ndarray, valid_ids: int) -> bool:
        """Returned ids must be in range and unique per row (``-1`` pads)."""
        ids = np.atleast_2d(np.asarray(ids))
        if ((ids < -1) | (ids >= valid_ids)).any():
            self.fail(phase, f"id out of range [0, {valid_ids})")
            return False
        ordered = np.sort(ids, axis=1)
        if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any():
            self.fail(phase, "duplicate id in one result row")
            return False
        return True

    def check_identical(self, phase: Phase, got: np.ndarray, want: np.ndarray, what: str) -> None:
        """One attempted operation per row; a differing row is a failure."""
        got = np.atleast_2d(got)
        want = np.atleast_2d(want)
        phase.attempted += int(want.shape[0])
        differing = int((got != want).any(axis=1).sum()) if got.shape == want.shape else want.shape[0]
        if differing:
            self.fail(phase, f"{what}: {differing} of {want.shape[0]} rows differ", differing)


# ------------------------------------------------------------------ filesystem
@contextmanager
def scratch_dir():
    """A directory under ``out/`` for bundles and logs, removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------------ provenance
def git_sha() -> str:
    """Commit of the tree, or ``"unknown"`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def provenance(sizes: Sizes, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "comparable": not sizes.smoke,
        "parameters": asdict(sizes),
    }


def load_declaration() -> dict:
    """The root ``BENCHMARK.json``: the metric names, units and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
