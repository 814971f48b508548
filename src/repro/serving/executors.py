"""Pluggable fan-out backends for the sharded serving router.

The thread pool that shipped with :class:`~repro.serving.shard.ShardedJunoIndex`
is GIL-bound outside NumPy kernels, so the Python-heavy parts of the staged
query pipeline (per-query candidate loops, LUT row materialisation) serialise
across shards.  This module abstracts the fan-out behind a two-method
executor interface -- :meth:`ShardExecutor.search_shards` and
:meth:`ShardExecutor.close` -- with three backends:

* :class:`SequentialShardExecutor` -- in-process loop, zero overhead, the
  reference for correctness tests;
* :class:`ThreadShardExecutor` -- shared-memory thread pool, best when the
  NumPy kernels dominate;
* :class:`~repro.serving.routing.ResidentProcessShardExecutor` (in
  :mod:`repro.serving.routing`) -- worker-resident processes booted from
  per-shard disk bundles, each answering over its own pipe, with replicated
  routing and failover, for true parallelism of the Python-level stage
  code; per-batch payloads carry queries only.

All executors are context managers with idempotent ``close()``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

_EXECUTOR_KINDS = ("sequential", "thread")


class ShardExecutor:
    """Interface of a fan-out backend: search every shard, then close.

    ``resident`` marks executors whose workers own their shard state for the
    process lifetime; the router sends such executors mutations as op
    payloads (``apply_ops``) instead of applying them to local shards.
    """

    kind: str = "abstract"
    resident: bool = False

    def search_shards(self, shards: Sequence, queries, k: int, params: dict) -> list:
        """Search every shard with one query batch, preserving shard order.

        ``params`` are the keyword arguments of
        :meth:`repro.core.index.JunoIndex.search` (including an optional
        per-shard ``pipeline``).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; safe to call repeatedly."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialShardExecutor(ShardExecutor):
    """Searches shards one after another in the calling thread."""

    kind = "sequential"

    def search_shards(self, shards: Sequence, queries, k: int, params: dict) -> list:
        return [shard.search(queries, k, **params) for shard in shards]


class ThreadShardExecutor(ShardExecutor):
    """Thread-pool fan-out (NumPy releases the GIL in the hot kernels).

    The pool is created on first use and reused across batches (the serving
    hot path flushes a batch every few milliseconds; per-batch pool creation
    would dominate).  ``close()`` shuts it down and is idempotent; the next
    search after a close transparently builds a fresh pool.
    """

    kind = "thread"

    def __init__(self, num_workers: int) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = int(num_workers)
        self._pool: ThreadPoolExecutor | None = None

    def search_shards(self, shards: Sequence, queries, k: int, params: dict) -> list:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.num_workers)
        return list(self._pool.map(lambda shard: shard.search(queries, k, **params), shards))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_shard_executor(spec: "str | ShardExecutor", num_workers: int) -> ShardExecutor:
    """Build (or pass through) a fan-out executor.

    Args:
        spec: an executor instance (returned as-is), or one of
            ``"sequential"``, ``"thread"``.  The thread pool collapses to
            sequential when ``num_workers <= 1``.
        num_workers: worker budget of the thread pool.

    Returns:
        A ready-to-use :class:`ShardExecutor`.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    if spec == "resident":
        raise ValueError(
            "the resident executor needs a shard bundle on disk; build it via "
            "ShardedJunoIndex.load(path, ServingConfig(executor='resident')) / "
            "make_resident(path), or construct a "
            "repro.serving.routing.ResidentProcessShardExecutor directly"
        )
    if spec not in _EXECUTOR_KINDS:
        raise ValueError(f"executor must be one of {_EXECUTOR_KINDS} or a ShardExecutor")
    if spec == "sequential" or num_workers <= 1:
        return SequentialShardExecutor()
    return ThreadShardExecutor(num_workers)
