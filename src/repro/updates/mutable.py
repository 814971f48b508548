"""The mutable-index layer: streaming upserts/deletes over a trained JUNO index.

Every layer below this one assumes a frozen corpus -- training (Alg. 1) is
offline and expensive, so mutations cannot re-run it.
:class:`MutableJunoIndex` makes a trained :class:`~repro.core.index.JunoIndex`
serve live writes with the classic LSM-shaped recipe:

* **upserts** land in a :class:`~repro.updates.delta.DeltaIndex` -- an
  exact-scored in-memory buffer searched alongside the trained index and
  k-way merged into one top-k by
  :class:`~repro.pipeline.stages.DeltaMergeStage` (read-your-writes: a
  vector is at full recall the moment ``upsert`` returns);
* **deletes** are logical: the id joins a
  :class:`~repro.updates.tombstones.TombstoneSet` and the merge stage
  filters it from every result (the search over-fetches from the base index
  so tombstone masking never shortens the returned top-k);
* a **write-ahead log** (:class:`~repro.updates.wal.WriteAheadLog`) records
  every op before it is applied; replaying the log over the last persisted
  snapshot reproduces the mutated index bit-identically
  (:func:`repro.serving.persistence.load_mutable_index`);
* the **online compactor** (:meth:`MutableJunoIndex.compact`) drains the
  buffer into the trained index *retrain-free*: fresh vectors are assigned
  to their nearest existing coarse cluster (the k-means assignment rule the
  training labels came from), PQ-encoded with the existing codebooks, and
  the posting lists / subspace inverted indices are rebuilt from the merged
  arrays while tombstoned rows are physically purged (the RT scene depends
  on neither and is kept);
* a :class:`RebuildPolicy` decides *when*: the explicit
  :meth:`MutableJunoIndex.maybe_compact` maintenance step compacts once the
  buffer crosses a size threshold (mutations themselves never compact
  inline, so upsert/delete latency stays flat), and cumulative drift
  (mutated mass since training as a fraction of the trained corpus) flags
  when the frozen density maps / threshold regressor / codebooks have
  drifted enough that a full :meth:`retrain` is warranted.

The wrapper exposes the :meth:`search` signature of ``JunoIndex`` but
returns **global** ids (the ids callers upserted), so the serving stack --
engine facade, sharded router, resident workers -- runs unchanged on top.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.index import JunoIndex, JunoSearchResult
from repro.metrics.distances import Metric, pairwise_distance
from repro.updates.delta import DeltaIndex
from repro.updates.tombstones import TombstoneSet
from repro.updates.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.pipeline import QueryPipeline


def digest_arrays(named_arrays) -> str:
    """Hex blake2b digest of ``(name, array)`` pairs: names, dtypes, shapes, bytes."""
    digest = hashlib.blake2b(digest_size=16)
    for name, array in named_arrays:
        array = np.ascontiguousarray(np.asarray(array))
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class RebuildPolicy:
    """When the mutable layer compacts, and when drift warrants retraining.

    Attributes:
        delta_capacity: buffered upserts (or tombstones) past which
            :meth:`MutableJunoIndex.maybe_compact` compacts (the buffer is
            exact-scored, so its cost grows linearly with its size;
            compaction folds it into the indexed structures).
        max_drift: cumulative mutated mass -- upserted + deleted points
            since the last training, as a fraction of the trained corpus
            size -- past which :attr:`MutableJunoIndex.retrain_due` turns
            true.  Compaction keeps *serving* correct under drift (exact
            merge scores, purged tombstones) but cannot refresh the frozen
            density maps, threshold regressor or codebooks; retraining can.
        auto_compact: let :meth:`MutableJunoIndex.maybe_compact` act on the
            ``delta_capacity`` trigger (disable for deployments that stage
            the buffer deliberately and compact on their own schedule).
            Compaction never runs inside ``upsert``/``delete`` themselves:
            it is an explicit, schedulable step -- the
            :class:`~repro.serving.recovery.ReplicaSupervisor` (or any
            maintenance loop) calls ``maybe_compact()`` between batches, so
            mutation latency is never compaction-shaped.
    """

    delta_capacity: int = 1024
    max_drift: float = 0.5
    auto_compact: bool = True

    def __post_init__(self) -> None:
        if self.delta_capacity <= 0:
            raise ValueError("delta_capacity must be positive")
        if self.max_drift <= 0:
            raise ValueError("max_drift must be positive")


class MutableJunoIndex:
    """A trained JUNO index that accepts upserts and deletes while serving.

    Args:
        base: a *trained* :class:`JunoIndex`; the wrapper takes ownership
            (compaction rewrites its posting lists / codes in place).
        vectors: ``(N, D)`` raw corpus the base was trained on, row-aligned
            with the base index's local ids.  Retained for exact candidate
            rescoring in the merge stage, for compaction (PQ-encoding fresh
            vectors needs residuals) and for :meth:`retrain`.
        global_ids: ``(N,)`` global id of each base row; defaults to
            ``arange(N)``.  Sharded deployments pass their shard's global-id
            mapping so every shard speaks global ids natively.
        wal: optional :class:`WriteAheadLog` (or path); when set, every
            mutation is logged before it is applied.
        policy: compaction/retrain :class:`RebuildPolicy`.
        exact_scores: always return exact metric scores (squared L2 /
            inner product) even when no mutation is pending.  The sharded
            router enables this per shard so merged scores share one scale.
    """

    def __init__(
        self,
        base: JunoIndex,
        vectors: np.ndarray,
        global_ids: np.ndarray | None = None,
        wal: "WriteAheadLog | str | Path | None" = None,
        policy: RebuildPolicy | None = None,
        exact_scores: bool = False,
    ) -> None:
        if not base.is_trained:
            raise ValueError("MutableJunoIndex needs a trained base index")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape != (base.num_points, base.dim):
            raise ValueError(
                f"vectors must be the base corpus of shape "
                f"{(base.num_points, base.dim)}, got {vectors.shape}"
            )
        self.base = base
        self._vectors = vectors.copy()
        if global_ids is None:
            global_ids = np.arange(base.num_points, dtype=np.int64)
        self._global_ids = np.asarray(global_ids, dtype=np.int64).copy()
        if self._global_ids.shape != (base.num_points,):
            raise ValueError("global_ids must map every base row to a global id")
        self.delta = DeltaIndex(base.dim, base.metric)
        self.tombstones = TombstoneSet()
        self.policy = policy if policy is not None else RebuildPolicy()
        self.exact_scores = bool(exact_scores)
        self.wal = WriteAheadLog(wal) if isinstance(wal, (str, Path)) else wal
        self._reindex_rows()
        self._trained_points = int(base.num_points)
        self._mutated_since_train = 0
        self.ops_applied = 0

    # ------------------------------------------------------------ delegation
    @property
    def is_trained(self) -> bool:
        """Whether the wrapped base index finished its offline phase."""
        return self.base.is_trained

    @property
    def config(self):
        """The base index's :class:`~repro.core.config.JunoConfig`."""
        return self.base.config

    @property
    def metric(self) -> Metric:
        """Ranking metric shared with the base index."""
        return self.base.metric

    @property
    def dim(self) -> int | None:
        """Vector dimensionality."""
        return self.base.dim

    @property
    def num_points(self) -> int:
        """Live point count: base rows not tombstoned, plus the buffer."""
        return int(self.base.num_points - len(self.tombstones) + len(self.delta))

    @property
    def drift(self) -> float:
        """Mutated mass since training over the trained corpus size."""
        return self._mutated_since_train / max(self._trained_points, 1)

    @property
    def retrain_due(self) -> bool:
        """Whether cumulative drift crossed the policy's retrain threshold."""
        return self.drift >= self.policy.max_drift

    def live_ids(self) -> np.ndarray:
        """Sorted global ids currently visible to search."""
        base_live = self._global_ids[~self._dead_rows]
        return np.sort(np.concatenate([base_live, self.delta.ids]))

    # -------------------------------------------------------------- mutation
    def upsert(self, ids: np.ndarray, vectors: np.ndarray) -> "MutableJunoIndex":
        """Insert or replace vectors by global id; visible to the next search.

        An id owned by the trained base index is superseded: its stale
        trained copy is tombstoned and the fresh vector serves from the
        delta buffer until the next compaction folds it in.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape != (ids.shape[0], self.base.dim):
            raise ValueError(
                f"expected vectors of shape {(ids.shape[0], self.base.dim)}, "
                f"got {vectors.shape}"
            )
        self._log("upsert", ids=ids, vectors=vectors)
        self._apply_upsert(ids, vectors)
        return self

    def delete(self, ids: np.ndarray) -> "MutableJunoIndex":
        """Delete live points by global id; they never surface again.

        Raises :class:`KeyError` when any id is not currently live, *before*
        anything is logged or applied (failed ops must not enter the WAL).
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        missing = [
            int(g)
            for g in ids
            if not (
                (int(g) in self._row_of and int(g) not in self.tombstones)
                or int(g) in self.delta
            )
        ]
        if missing:
            raise KeyError(f"cannot delete ids that are not live: {missing}")
        self._log("delete", ids=ids)
        self._apply_delete(ids)
        return self

    def compact(self) -> "MutableJunoIndex":
        """Drain the delta buffer into the trained index, retrain-free.

        Fresh vectors are assigned to their nearest existing coarse cluster
        (the same L2 assignment rule the training labels came from),
        PQ-encoded against that cluster's residual frame with the *existing*
        codebooks, and appended to the trained arrays; tombstoned rows are
        physically purged.  Posting lists and the subspace inverted indices
        are rebuilt from the merged arrays -- deterministically, so a
        replayed ``compact`` op reproduces the state bit for bit.  The RT
        scene is a function of the codebooks and the sphere radius alone
        and is kept as it is; the density maps, threshold regressor and
        codebooks are *not* refitted, and that accumulated drift is what
        :attr:`retrain_due` watches.

        A no-op (nothing buffered, nothing tombstoned) is not logged.
        """
        if len(self.delta) == 0 and len(self.tombstones) == 0:
            return self
        self._log("compact")
        self._apply_compact()
        return self

    def retrain(self) -> "MutableJunoIndex":
        """Re-run the offline phase (Alg. 1) over the current live corpus.

        The full-rebuild escape hatch the drift policy points at: training is
        seeded, so a replayed ``retrain`` op is deterministic too.
        """
        self._log("retrain")
        self._apply_retrain()
        return self

    def maintenance_due(self) -> str:
        """``"retrain"``, ``"compact"`` or ``"none"`` under the policy."""
        if self.retrain_due:
            return "retrain"
        if (
            len(self.delta) >= self.policy.delta_capacity
            or len(self.tombstones) >= self.policy.delta_capacity
        ):
            return "compact"
        return "none"

    def maybe_compact(self) -> bool:
        """Compact iff the policy's capacity trigger has fired; returns whether.

        The explicit maintenance step that replaced in-band auto-compaction:
        mutations only buffer (their latency stays flat), and whoever owns
        the serving loop -- the
        :class:`~repro.serving.recovery.ReplicaSupervisor`, a cron tick, a
        test -- calls this between batches.  Compacts when the policy allows
        it (``auto_compact``) and :meth:`maintenance_due` reports
        ``"compact"``; a due *retrain* is deliberately not acted on here
        (retraining is expensive enough to demand an explicit
        :meth:`retrain` call).
        """
        if not self.policy.auto_compact:
            return False
        if self.maintenance_due() != "compact":
            return False
        self.compact()
        return True

    def state_digest(self) -> str:
        """Hex digest naming the complete mutable state, bit for bit.

        Covers the trained arrays (codes, labels, centroids), the raw
        corpus, the global-id mapping, the delta buffer and the tombstone
        set -- everything a search can observe.  Two replicas that applied
        the same op stream produce the same digest; the recovery layer uses
        this to assert a respawned replica caught up bit-identically.
        """
        delta_ids, delta_vectors = self.delta.snapshot()
        return digest_arrays(
            (
                ("codes", self.base.codes),
                ("labels", self.base.ivf.labels),
                ("centroids", self.base.ivf.centroids),
                ("global_ids", self._global_ids),
                ("vectors", self._vectors),
                ("delta_ids", delta_ids),
                ("delta_vectors", delta_vectors),
                ("tombstones", self.tombstones.to_array()),
            )
        )

    # --------------------------------------------------------- op application
    def _log(self, op: str, **fields) -> None:
        if self.wal is not None:
            self.wal.append(op, **fields)

    def apply_record(self, record: dict) -> None:
        """Apply one WAL-shaped op record (replay and replication path).

        Used by :func:`repro.serving.persistence.load_mutable_index` to
        replay the log tail: ``record`` is what
        :meth:`~repro.updates.wal.WriteAheadLog.replay` yields, ``ids`` an
        ``int64`` array and ``vectors`` an ``(n, dim)`` ``float64`` array.
        Replay must reproduce exactly what the original mutation did, so
        this routes through the same ``_apply_*`` code paths without
        re-logging or re-triggering policy maintenance (maintenance that
        *did* trigger was logged as its own record).
        """
        op = record["op"]
        if op == "upsert":
            self._apply_upsert(record["ids"], record["vectors"])
        elif op == "delete":
            self._apply_delete(record["ids"])
        elif op == "compact":
            self._apply_compact()
        elif op == "retrain":
            self._apply_retrain()
        else:
            raise ValueError(f"unknown mutable-index op {op!r}")

    def _reindex_rows(self) -> None:
        """Rebuild the id -> base row map; the new rows are all live."""
        self._row_of = {int(g): row for row, g in enumerate(self._global_ids)}
        self._dead_rows = np.zeros(self._global_ids.shape[0], dtype=bool)

    def _tombstone(self, ids) -> None:
        """Tombstone the trained copies of whichever ``ids`` the base owns.

        ``_dead_rows`` is the tombstone set by base row, kept current here
        so that a search filters with one gather instead of a set lookup.
        """
        in_base = [int(g) for g in ids if int(g) in self._row_of]
        if in_base:
            self.tombstones.add(in_base)
            self._dead_rows[[self._row_of[g] for g in in_base]] = True

    def _apply_upsert(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        self._tombstone(ids)
        self.delta.upsert(ids, vectors)
        self._mutated_since_train += int(ids.shape[0])
        self.ops_applied += 1

    def _apply_delete(self, ids: np.ndarray) -> None:
        self.delta.discard(ids)
        self._tombstone(ids)
        self._mutated_since_train += int(ids.shape[0])
        self.ops_applied += 1

    def _merged_live_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(live_mask, delta_ids, delta_vectors)`` of the current state."""
        delta_ids, delta_vectors = self.delta.snapshot()
        return ~self._dead_rows, delta_ids, delta_vectors

    def _apply_compact(self) -> None:
        base = self.base
        live_mask, delta_ids, delta_vectors = self._merged_live_state()
        if delta_ids.size:
            # k-means assignment (L2 to the nearest centroid) -- the rule the
            # training labels came from, for either search metric.
            distances = pairwise_distance(delta_vectors, base.ivf.centroids, Metric.L2)
            new_labels = np.argmin(distances, axis=1).astype(base.ivf.labels.dtype)
            residuals = delta_vectors - base.ivf.centroids[new_labels]
            new_codes = base.pq.encode(residuals)
            base.codes = np.concatenate([base.codes[live_mask], new_codes])
            base.ivf.labels = np.concatenate([base.ivf.labels[live_mask], new_labels])
        else:
            base.codes = base.codes[live_mask]
            base.ivf.labels = base.ivf.labels[live_mask]
        self._vectors = np.concatenate([self._vectors[live_mask], delta_vectors])
        self._global_ids = np.concatenate([self._global_ids[live_mask], delta_ids])
        base.num_points = int(self._global_ids.shape[0])
        base.ivf.posting_lists = [
            np.flatnonzero(base.ivf.labels == cluster_id).astype(np.int64)
            for cluster_id in range(base.ivf.num_clusters)
        ]
        # The scene is a function of the codebooks and the sphere radius,
        # which compaction does not touch: only the layout is rebuilt.
        base.rebuild_layout()
        self._reindex_rows()
        self.tombstones.clear()
        self.delta.clear()
        self.ops_applied += 1

    def _apply_retrain(self) -> None:
        live_mask, delta_ids, delta_vectors = self._merged_live_state()
        vectors = np.concatenate([self._vectors[live_mask], delta_vectors])
        global_ids = np.concatenate([self._global_ids[live_mask], delta_ids])
        self.base.train(vectors)
        self._vectors = vectors
        self._global_ids = global_ids
        self._reindex_rows()
        self.tombstones.clear()
        self.delta.clear()
        self._trained_points = int(vectors.shape[0])
        self._mutated_since_train = 0
        self.ops_applied += 1

    # ----------------------------------------------------------------- search
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobs: int = 8,
        quality_mode=None,
        threshold_scale: float | None = None,
        pipeline: "QueryPipeline | None" = None,
        trace=None,
    ) -> JunoSearchResult:
        """Search the mutated corpus; returns **global** neighbour ids.

        Arguments match :meth:`JunoIndex.search`.  The base index is
        over-fetched by the tombstone count so masking deleted ids never
        shortens the top-k, then a :class:`DeltaMergeStage` appended to the
        pipeline remaps/filters/merges down to ``k``.  With no pending
        mutation (and ``exact_scores`` off) results are bit-identical to the
        base index's.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        from repro.pipeline.stages import DeltaMergeStage

        delta_ids, delta_vectors = self.delta.snapshot()
        stage = DeltaMergeStage(
            k=int(k),
            base_global_ids=self._global_ids,
            base_vectors=self._vectors,
            delta_ids=delta_ids,
            delta_vectors=delta_vectors,
            dead_rows=self._dead_rows,
            always_exact=self.exact_scores,
        )
        active = pipeline if pipeline is not None else self.base.default_pipeline()
        fetch_k = int(k) + len(self.tombstones)
        return self.base.search(
            queries,
            fetch_k,
            nprobs=nprobs,
            quality_mode=quality_mode,
            threshold_scale=threshold_scale,
            pipeline=active.appended(stage),
            trace=trace,
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path, gc_wal: bool = False) -> Path:
        """Write an epoch-stamped snapshot bundle of the mutated state.

        See :func:`repro.serving.persistence.save_mutable_index`; load with
        :func:`repro.serving.persistence.load_mutable_index`, which replays
        any WAL records newer than the snapshot's epoch.  ``gc_wal=True``
        additionally truncates the attached write-ahead log through the
        snapshot's epoch once it is durably published.
        """
        from repro.serving.persistence import save_mutable_index

        return save_mutable_index(self, path, gc_wal=gc_wal)

    @classmethod
    def load(
        cls,
        path: str | Path,
        wal: "WriteAheadLog | str | Path | None" = None,
        policy: RebuildPolicy | None = None,
    ) -> "MutableJunoIndex":
        """Restore a snapshot written by :meth:`save`, replaying the WAL tail."""
        from repro.serving.persistence import load_mutable_index

        return load_mutable_index(path, wal=wal, policy=policy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MutableJunoIndex(live={self.num_points}, delta={len(self.delta)}, "
            f"tombstones={len(self.tombstones)}, drift={self.drift:.3f})"
        )
