"""Typed serving configuration: one frozen object describes a deployment.

``ShardedJunoIndex.load(path, config)`` and ``make_resident(path, config)``
take every deployment setting through three frozen dataclasses:

* :class:`ServingConfig` -- how a deployment is constructed (fan-out
  executor, worker count, whether the coordinator materialises shards) plus
  the two nested policies;
* :class:`ReplicaPolicy` -- the worker-resident replica table (replica
  count, warm boot, residency mode);
* :class:`AdmissionPolicy` -- the async front-end's overload story (bounded
  pending queue, reject vs shed-oldest).

:class:`~repro.updates.wal.DurabilityPolicy` (defined next to the
write-ahead log it governs, re-exported here) nests under
:attr:`ServingConfig.durability` so a deployment's crash-consistency story
travels with the rest of its shape.

All three round-trip through ``to_dict`` / ``from_dict`` (nested), so a
deployment's shape can live in a JSON config file next to its bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.obs.config import ObservabilityConfig
from repro.updates.wal import DurabilityPolicy

_OVERLOAD_POLICIES = ("reject", "shed_oldest")
_EXECUTOR_KINDS = ("sequential", "thread", "resident")
_RESIDENCY_MODES = ("copy", "mmap", "shm")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Overload behaviour of the async batching front-end.

    Attributes:
        max_queue_depth: pending queries the scheduler will hold before the
            policy engages; ``None`` disables admission control (the queue
            is then bounded only by the flush-on-size batching policy).
        overload: what happens to the overflow -- ``"reject"`` raises a
            typed :class:`~repro.errors.OverloadError` at the submitting
            client (backpressure), ``"shed_oldest"`` fails the *oldest*
            queued client instead and admits the fresh query (the freshest
            traffic is the most likely to still have a waiting caller).
    """

    max_queue_depth: int | None = None
    overload: str = "reject"

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive (or None to disable)")
        if self.overload not in _OVERLOAD_POLICIES:
            raise ValueError(f"overload must be one of {_OVERLOAD_POLICIES}")

    @property
    def bounded(self) -> bool:
        """Whether this policy actually bounds the queue."""
        return self.max_queue_depth is not None

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {"max_queue_depth": self.max_queue_depth, "overload": self.overload}

    @classmethod
    def from_dict(cls, data: dict) -> "AdmissionPolicy":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        return cls(**_checked(cls, data))


@dataclass(frozen=True)
class ReplicaPolicy:
    """Shape of the worker-resident replica table.

    Attributes:
        num_replicas: worker processes hosting each shard; ``R > 1`` buys
            failover and respawn headroom at the cost of ``R`` resident
            copies.
        warm: ping every worker at boot so a bad bundle fails fast.
        residency: how workers make shard arrays resident -- ``"copy"``
            (private copies, the default), ``"mmap"`` (read-only maps of the
            bundle's ``npy``-layout arrays) or ``"shm"`` (coordinator-owned
            shared-memory segments).  The zero-copy modes let all replicas
            of a shard share one physical copy; they require an immutable
            deployment.
    """

    num_replicas: int = 1
    warm: bool = True
    residency: str = "copy"

    def __post_init__(self) -> None:
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.residency not in _RESIDENCY_MODES:
            raise ValueError(f"residency must be one of {_RESIDENCY_MODES}")

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "num_replicas": self.num_replicas,
            "warm": self.warm,
            "residency": self.residency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicaPolicy":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        return cls(**_checked(cls, data))


@dataclass(frozen=True)
class ServingConfig:
    """How one serving deployment is constructed, as a single typed value.

    Attributes:
        executor: fan-out backend -- ``"sequential"``, ``"thread"`` or
            ``"resident"`` (the worker-resident runtime).  A ready
            :class:`~repro.serving.executors.ShardExecutor` *instance* is
            accepted too (the caller keeps its lifecycle), but such a config
            is no longer serialisable: :meth:`to_dict` refuses, because a
            live executor has no JSON form.
        num_workers: fan-out parallelism for the local executors; ``None``
            defaults to one worker per shard.
        load_shards: whether the coordinator also materialises shard
            indexes locally; ``None`` keeps the executor-dependent default
            (local executors yes, resident no).
        replicas: the :class:`ReplicaPolicy` (resident executor only).
        admission: the :class:`AdmissionPolicy` applied by
            :meth:`~repro.serving.engine.ServingEngine.serve_async`.
        durability: the :class:`~repro.updates.wal.DurabilityPolicy` every
            write-ahead log of the deployment opens with (fsync mode,
            group-commit window, segment rotation).  Consumed by
            :meth:`~repro.serving.shard.ShardedJunoIndex.enable_updates`
            when the deployment turns mutable.
        observability: the :class:`~repro.obs.config.ObservabilityConfig`
            governing metrics exposition (opt-in HTTP exporter started by
            :class:`~repro.serving.engine.ServingEngine`).
        label: display name for engines built over the deployment.
    """

    executor: object = "thread"
    num_workers: int | None = None
    load_shards: bool | None = None
    replicas: ReplicaPolicy = field(default_factory=ReplicaPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    durability: DurabilityPolicy = field(default_factory=DurabilityPolicy)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    label: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.executor, str) and self.executor not in _EXECUTOR_KINDS:
            raise ValueError(f"executor must be one of {_EXECUTOR_KINDS}")
        if self.num_workers is not None and self.num_workers <= 0:
            raise ValueError("num_workers must be positive (or None for one per shard)")

    def with_updates(self, **changes) -> "ServingConfig":
        """A copy with the given fields replaced (frozen-dataclass idiom)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        if not isinstance(self.executor, str):
            raise ValueError(
                "a ServingConfig carrying a live ShardExecutor instance has "
                "no JSON form; use one of the named executor kinds"
            )
        return {
            "executor": self.executor,
            "num_workers": self.num_workers,
            "load_shards": self.load_shards,
            "replicas": self.replicas.to_dict(),
            "admission": self.admission.to_dict(),
            "durability": self.durability.to_dict(),
            "observability": self.observability.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        """Rebuild from :meth:`to_dict` output; unknown keys raise."""
        data = _checked(cls, data)
        if "replicas" in data:
            data["replicas"] = ReplicaPolicy.from_dict(data["replicas"])
        if "admission" in data:
            data["admission"] = AdmissionPolicy.from_dict(data["admission"])
        if "durability" in data:
            data["durability"] = DurabilityPolicy.from_dict(data["durability"])
        if "observability" in data:
            data["observability"] = ObservabilityConfig.from_dict(data["observability"])
        return cls(**data)


def _checked(cls, data: dict) -> dict:
    """``data`` as kwargs for ``cls``, rejecting keys it does not declare."""
    fields = set(cls.__dataclass_fields__)
    unknown = sorted(set(data) - fields)
    if unknown:
        raise ValueError(f"{cls.__name__} does not understand keys {unknown}")
    return dict(data)


__all__ = [
    "AdmissionPolicy",
    "DurabilityPolicy",
    "ObservabilityConfig",
    "ReplicaPolicy",
    "ServingConfig",
]
