"""Serving layer: persistence, sharding, batching and the engine facade.

The paper (Sec. 5) describes a single-process index; this package turns it
into a deployable serving substrate.  Trained indexes are persisted once and
loaded by any number of serving processes (:mod:`repro.serving.persistence`),
large corpora are partitioned across independently trained shards whose
results are k-way merged back into a global top-k
(:mod:`repro.serving.shard`), online single-query traffic is batched to keep
the RT/Tensor pipeline busy (:mod:`repro.serving.scheduler` synchronously,
:mod:`repro.serving.async_scheduler` for concurrent asyncio clients), and
every index family in the repository is served through one uniform interface
(:mod:`repro.serving.engine`).

The fan-out behind the sharded router is layered (see ``docs/serving.md``):
a batching **front-end** feeds the **routing layer**
(:mod:`repro.serving.routing`: replica selection, load balancing, failover),
which dispatches query-only payloads to the **worker runtime**
(:mod:`repro.serving.runtime`: processes that load their shard from a
per-shard bundle once and keep it resident for their lifetime).

Deployments are described by a typed, frozen
:class:`~repro.serving.config.ServingConfig` (with nested
:class:`~repro.serving.config.ReplicaPolicy` and
:class:`~repro.serving.config.AdmissionPolicy`, plus the WAL
:class:`~repro.updates.wal.DurabilityPolicy`).  Failures share one
exception hierarchy rooted at :class:`~repro.errors.ServingError`, and the
self-healing loop -- dead-replica detection, respawn from bundle, op-log
catch-up, re-admission -- lives in :mod:`repro.serving.recovery`.
"""

from repro.errors import OverloadError, RecoveryError, ServingError
from repro.serving.async_scheduler import AsyncBatchingScheduler
from repro.serving.config import (
    AdmissionPolicy,
    DurabilityPolicy,
    ObservabilityConfig,
    ReplicaPolicy,
    ServingConfig,
)
from repro.serving.engine import EngineResult, ServingEngine
from repro.serving.executors import (
    SequentialShardExecutor,
    ShardExecutor,
    ThreadShardExecutor,
    make_shard_executor,
)
from repro.serving.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    load_index,
    load_mutable_index,
    save_index,
    save_mutable_index,
    search_results_equal,
    shard_bundle_path,
)
from repro.serving.recovery import CompactionWorker, RecoveryEvent, ReplicaSupervisor
from repro.serving.routing import (
    ResidentProcessShardExecutor,
    WorkerFailoverError,
)
from repro.serving.runtime import ResidentWorker
from repro.serving.scheduler import (
    BatchingScheduler,
    BatchRecord,
    QueryTicket,
    SchedulerStats,
)
from repro.serving.shard import (
    ResidentShardHandle,
    ShardedJunoIndex,
    merge_shard_results,
)
from repro.updates.wal import WalError

__all__ = [
    "AdmissionPolicy",
    "AsyncBatchingScheduler",
    "BatchRecord",
    "BatchingScheduler",
    "CompactionWorker",
    "DurabilityPolicy",
    "EngineResult",
    "FORMAT_VERSION",
    "ObservabilityConfig",
    "OverloadError",
    "PersistenceError",
    "QueryTicket",
    "RecoveryError",
    "RecoveryEvent",
    "ReplicaPolicy",
    "ReplicaSupervisor",
    "ResidentProcessShardExecutor",
    "ResidentShardHandle",
    "ResidentWorker",
    "SchedulerStats",
    "SequentialShardExecutor",
    "ServingConfig",
    "ServingEngine",
    "ServingError",
    "ShardExecutor",
    "ShardedJunoIndex",
    "ThreadShardExecutor",
    "WalError",
    "WorkerFailoverError",
    "load_index",
    "load_mutable_index",
    "make_shard_executor",
    "merge_shard_results",
    "save_index",
    "save_mutable_index",
    "search_results_equal",
    "shard_bundle_path",
]
