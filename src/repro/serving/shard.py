"""Sharded JUNO serving: partition the corpus, fan out, k-way merge.

A production corpus does not fit one index: real ANN deployments decompose
the database into shards that are trained, persisted and served
independently, and a thin routing layer fans each query batch out and merges
the per-shard top-k lists (the FAISS "decomposed IVF" recipe).  This module
applies that decomposition to :class:`~repro.core.index.JunoIndex`:

* every shard is a complete, independently trained JUNO index over a subset
  of the corpus (its own IVF clustering, PQ codebooks, density maps,
  threshold regressor and RT scene);
* shard-local neighbour ids are remapped to global corpus ids before
  merging, so callers never observe shard-local ids;
* the per-shard :class:`~repro.core.index.JunoSearchResult` records are
  k-way merged into a single global top-k with aggregated
  :class:`~repro.gpu.work.SearchWork` counters and per-stage breakdowns.

Fan-out runs on a pluggable :class:`~repro.serving.executors.ShardExecutor`
(sequential, thread pool, or worker-resident processes).  With
``exact_rerank`` enabled the router appends an
:class:`~repro.pipeline.stages.ExactRerankStage` after the k-way merge:
per-shard scores live in shard-local PQ frames, so at aggressive
``threshold_scale`` the merged ranking mixes incomparable scales, and the
exact rescoring restores a globally consistent order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.config import JunoConfig, QualityMode
from repro.core.index import JunoIndex, JunoSearchResult
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric, padded_top_k
from repro.obs.trace import Trace
from repro.pipeline.context import QueryContext
from repro.pipeline.pipeline import QueryPipeline
from repro.pipeline.stages import ExactRerankStage
from repro.serving.config import ServingConfig
from repro.serving.executors import (
    ShardExecutor,
    make_shard_executor,
)
from repro.serving.persistence import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    PersistenceError,
    config_from_manifest,
    load_index,
    load_mutable_index,
    read_manifest,
    save_index,
    save_mutable_index,
    shard_bundle_path,
)
from repro.storage import atomic_write_text, staged

SHARDED_KIND = "sharded-juno-index"
_SHARD_IDS_NAME = "shard_ids.npz"


class ResidentShardHandle:
    """Coordinator-side stand-in for a shard that lives in worker processes.

    A bundle-backed resident deployment keeps the trained shard state in its
    workers; the coordinator only needs the shard *count* (fan-out width)
    and the global-id mappings (k-way merge).  Loading the full indexes into
    the coordinator as well would duplicate the whole corpus-sized index in
    router RAM and double bundle reads at boot, so ``load(executor=
    "resident")`` installs these handles instead.  Any attempt to search one
    locally fails loudly.
    """

    is_trained = True

    def __init__(self, shard_id: int, bundle_path: Path) -> None:
        self.shard_id = int(shard_id)
        self.bundle_path = Path(bundle_path)

    def search(self, *args, **kwargs):
        raise RuntimeError(
            f"shard {self.shard_id} is resident in worker processes (bundle "
            f"{self.bundle_path}); it cannot be searched in the coordinator. "
            "Load with load_shards=True for a coordinator-local copy."
        )
_ASSIGNMENTS = ("round_robin", "contiguous")

#: How *previously unseen* global ids are homed to a shard on upsert.
#: ``"contiguous"`` (default) assigns fixed-size id blocks to shards in
#: rotation, so a burst of fresh consecutive ids lands on one shard and an
#: upsert batch touches few owners; ``"modulo"`` is the legacy
#: ``global_id % num_shards`` deal (one shard hop per consecutive id),
#: kept behind the flag for bundles/deployments that already homed ids
#: that way.
_NEW_ID_ASSIGNMENTS = ("contiguous", "modulo")

#: Block size of the contiguous new-id homing rule.
_NEW_ID_BLOCK = 1024
_RERANK_CORPUS_NAME = "rerank_corpus.npz"

#: Delta-imbalance warning rule of :meth:`ShardedJunoIndex.shard_stats`: warn
#: when the largest per-shard delta buffer exceeds FACTOR times the mean of
#: the other shards' buffers and is at least MIN entries (tiny buffers are
#: noise, not skew).
_DELTA_IMBALANCE_FACTOR = 4.0
_DELTA_IMBALANCE_MIN = 32


def _checked_config(config: "ServingConfig | None") -> ServingConfig:
    """``config`` or the default; anything else in its place is a caller error."""
    if config is None:
        return ServingConfig()
    if not isinstance(config, ServingConfig):
        raise TypeError(
            f"config must be a ServingConfig, not {type(config).__name__}; "
            "executor, worker and replica settings are its fields"
        )
    return config


def router_manifest_dict(
    config: JunoConfig,
    num_shards: int,
    assignment: str,
    new_id_assignment: str,
    dim: int,
    num_points: int,
    exact_rerank: bool = False,
    rerank_depth: int | None = None,
    mutable: bool = False,
) -> dict:
    """The top-level manifest of a sharded deployment bundle.

    One canonical constructor shared by :meth:`ShardedJunoIndex.save` and
    the data-parallel build pipeline (:mod:`repro.build`), so a
    pipeline-emitted bundle is byte-compatible with a router-saved one and
    :meth:`ShardedJunoIndex.load` (including the worker-resident runtime)
    consumes both unchanged.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": SHARDED_KIND,
        "config": asdict(config),
        "num_shards": int(num_shards),
        "assignment": assignment,
        "new_id_assignment": new_id_assignment,
        "dim": int(dim),
        "num_points": int(num_points),
        "exact_rerank": bool(exact_rerank),
        "rerank_depth": rerank_depth,
        "mutable": bool(mutable),
    }


def merge_shard_results(
    results: Sequence[JunoSearchResult],
    global_ids: Sequence[np.ndarray],
    k: int,
    metric: Metric,
) -> JunoSearchResult:
    """Merge per-shard search results into one global top-k result.

    Args:
        results: one :class:`JunoSearchResult` per shard, all produced from
            the same query batch with the same quality mode.  Rows may be
            padded with ``-1`` ids (shards whose probed clusters yielded
            fewer than ``k`` candidates).
        global_ids: per shard, the ``(n_shard,)`` array mapping shard-local
            point ids to global corpus ids -- or ``None`` for a shard whose
            results already carry global ids (mutable shards speak global
            ids natively; see :mod:`repro.updates`).
        k: neighbours to keep per query after the merge.
        metric: metric the results were ranked under (decides direction).

    Returns:
        A :class:`JunoSearchResult` with exactly ``(Q, k)`` ids/scores
        (padded with ``-1`` / the metric-and-mode's worst score when the
        shards yielded fewer than ``k`` candidates), summed work counters
        (``num_queries`` stays the batch size, not the batch size times the
        shard count), aggregated per-stage breakdowns and a ray-weighted
        average of the per-shard selected-entry fractions.
    """
    if not results:
        raise ValueError("merge_shard_results needs at least one shard result")
    if len(results) != len(global_ids):
        raise ValueError("results and global_ids must have one entry per shard")
    num_queries = results[0].ids.shape[0]
    mode = results[0].quality_mode
    reranked = bool(results[0].extra.get("reranked"))
    for result in results[1:]:
        if result.ids.shape[0] != num_queries:
            raise ValueError("shard results disagree on the query batch size")
        if result.quality_mode is not mode:
            raise ValueError("shard results were produced with different quality modes")
        if bool(result.extra.get("reranked")) != reranked:
            raise ValueError(
                "cannot merge reranked and non-reranked shard results: their "
                "scores are on different scales"
            )
    # A per-shard ExactRerankStage replaces the mode's native scores with
    # exact metric-direction scores (squared L2 ascending / IP descending),
    # so the merge direction must follow the metric, not the quality mode.
    if reranked:
        higher_is_better = not Metric(metric).lower_is_better
    else:
        higher_is_better = mode.higher_is_better(metric)
    worst = -np.inf if higher_is_better else np.inf

    remapped: list[np.ndarray] = []
    masked_scores: list[np.ndarray] = []
    for result, mapping in zip(results, global_ids):
        padded = result.ids < 0
        if mapping is None:
            ids = np.where(padded, -1, result.ids).astype(np.int64)
        else:
            mapping = np.asarray(mapping, dtype=np.int64)
            ids = mapping[np.where(padded, 0, result.ids)]
            ids[padded] = -1
        remapped.append(ids)
        masked_scores.append(np.where(padded, worst, result.scores))

    cat_ids = np.concatenate(remapped, axis=1)
    cat_scores = np.concatenate(masked_scores, axis=1)
    merged_ids, merged_scores = padded_top_k(
        cat_ids, cat_scores, k, higher_is_better=higher_is_better, worst=worst
    )

    work = SearchWork(num_queries=0, lut_pairwise_dims=results[0].work.lut_pairwise_dims)
    for result in results:
        work.merge(result.work)
    work.num_queries = num_queries

    rays = np.array([max(result.work.rt_rays, 0.0) for result in results])
    fractions = np.array([result.selected_entry_fraction for result in results])
    if rays.sum() > 0:
        selected_fraction = float(np.average(fractions, weights=rays))
    else:
        selected_fraction = float(fractions.mean())

    extra = {
        "num_candidates": float(sum(r.extra.get("num_candidates", 0.0) for r in results)),
        "rt_hits": float(sum(r.extra.get("rt_hits", 0.0) for r in results)),
        "per_shard_candidates": [float(r.extra.get("num_candidates", 0.0)) for r in results],
    }
    if reranked:
        extra["reranked"] = True
    # Per-stage seconds are summed over shards, i.e. they are aggregate
    # per-shard *work* time: under a parallel executor the shards overlap,
    # so these sums can exceed the batch's elapsed wall-clock by up to the
    # shard count.  (Work counters sum correctly by construction.)
    stage_seconds: dict[str, float] = {}
    stage_work: dict[str, SearchWork] = {}
    for result in results:
        for name, seconds in result.extra.get("stage_seconds", {}).items():
            stage_seconds[name] = stage_seconds.get(name, 0.0) + float(seconds)
        for name, shard_work in result.extra.get("stage_work", {}).items():
            if name in stage_work:
                stage_work[name].merge(shard_work)
            else:
                stage_work[name] = shard_work.copy()
    for merged_stage_work in stage_work.values():
        merged_stage_work.num_queries = num_queries
    if stage_seconds:
        extra["stage_seconds"] = stage_seconds
    if stage_work:
        extra["stage_work"] = stage_work
    # Worker-side trace spans ride back in each shard result's
    # extra["trace"]; collect them so the coordinator can stitch them under
    # its own parent span (ShardedJunoIndex.search adopts and re-exports
    # the full trace as extra["trace"]).
    trace_spans: list = []
    for result in results:
        shard_trace = result.extra.get("trace")
        if isinstance(shard_trace, dict):
            trace_spans.extend(shard_trace.get("spans", ()))
    if trace_spans:
        extra["trace_spans"] = trace_spans
    return JunoSearchResult(
        ids=merged_ids,
        scores=merged_scores,
        work=work,
        quality_mode=mode,
        threshold_scale=results[0].threshold_scale,
        selected_entry_fraction=selected_fraction,
        extra=extra,
    )


class ShardedJunoIndex:
    """JUNO behind a shard router: N independent indexes, one result.

    The search interface mirrors :class:`JunoIndex` (same arguments, same
    :class:`JunoSearchResult` with *global* neighbour ids), so everything
    built on top of the single-process index -- the benchmark harness, the
    serving engine, recall metrics -- works unchanged against a sharded
    deployment.

    Args:
        config: per-shard :class:`JunoConfig`.  Each shard trains its own
            clustering over its partition, so ``num_clusters`` is a
            *per-shard* budget.  For recall parity with an unsharded index
            keep the same ``num_clusters`` per shard: partitions are
            ``num_shards`` times smaller, so clusters get finer, residuals
            stay small and the PQ approximation quality matches the single
            index.  Scaling ``num_clusters`` down by ``num_shards`` instead
            equalises the probed corpus fraction (throughput parity) but
            coarsens the residual quantisation and costs recall.
        num_shards: number of partitions.
        assignment: ``"round_robin"`` (default) deals points
            ``global_id % num_shards``, giving every shard an unbiased
            sample of the corpus; ``"contiguous"`` splits the id range into
            blocks, which preserves any locality of the insertion order.
        num_workers: fan-out parallelism; ``1`` searches shards
            sequentially.  Defaults to one worker per shard.
        executor: fan-out backend -- ``"thread"`` (default),
            ``"sequential"``, or a ready
            :class:`~repro.serving.executors.ShardExecutor` instance.
        exact_rerank: when ``True``, :meth:`train` retains the corpus and
            every search appends an
            :class:`~repro.pipeline.stages.ExactRerankStage` after the
            k-way merge (see :meth:`enable_exact_rerank`).
        rerank_depth: merged candidates kept per query for the rerank;
            defaults to all ``num_shards * k`` of them.
        new_id_assignment: how previously unseen global ids are homed on
            upsert -- ``"contiguous"`` (default) rotates fixed-size id
            blocks across shards so bursts of fresh ids land together;
            ``"modulo"`` is the legacy per-id ``global_id % num_shards``
            rule.  Persisted in the bundle manifest so reloaded deployments
            keep homing ids the same way.
    """

    def __init__(
        self,
        config: JunoConfig,
        num_shards: int,
        assignment: str = "round_robin",
        num_workers: int | None = None,
        executor: str | ShardExecutor = "thread",
        exact_rerank: bool = False,
        rerank_depth: int | None = None,
        new_id_assignment: str = "contiguous",
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if assignment not in _ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {_ASSIGNMENTS}")
        if new_id_assignment not in _NEW_ID_ASSIGNMENTS:
            raise ValueError(
                f"new_id_assignment must be one of {_NEW_ID_ASSIGNMENTS}"
            )
        if rerank_depth is not None and rerank_depth <= 0:
            raise ValueError("rerank_depth must be positive")
        self.config = config
        self.metric = config.metric
        self.num_shards = int(num_shards)
        self.assignment = assignment
        self.new_id_assignment = new_id_assignment
        self.num_workers = int(num_workers) if num_workers is not None else self.num_shards
        self.executor_spec = executor
        self.exact_rerank = bool(exact_rerank)
        self.rerank_depth = int(rerank_depth) if rerank_depth is not None else None
        self.shards: list[JunoIndex] = []
        self.shard_global_ids: list[np.ndarray] = []
        self.dim: int | None = None
        self.num_points: int = 0
        # Streaming updates (repro.updates): when enabled, shards are
        # MutableJunoIndex wrappers (or resident workers hosting them) that
        # return global ids natively, and upsert/delete route ops by owner.
        self._mutable = False
        self._owner_map: dict[int, int] | None = None
        # Deployment-level WAL durability policy (from ServingConfig); the
        # default every enable_updates() WAL opens with unless overridden.
        self._durability = None
        self._resident_live: dict[int, int] = {}
        # Latest per-shard maintenance signal from resident apply reports,
        # consumed by the explicit maybe_compact() scheduling step.
        self._resident_maintenance: dict[int, dict] = {}
        self._rerank_points: np.ndarray | None = None
        self._executor: ShardExecutor | None = None
        self._executor_key: tuple | None = None
        # A router *owns* an executor instance it built itself (load() with
        # executor="resident", or make_resident()); caller-supplied instances
        # stay caller-owned and survive close().
        self._owns_spec_executor = False
        if not isinstance(executor, ShardExecutor):
            # Validate eagerly so a typo fails at construction, not first search.
            make_shard_executor(executor, 1).close()

    # ------------------------------------------------------------- factory
    @classmethod
    def from_dim(cls, dim: int, num_shards: int, **config_overrides) -> "ShardedJunoIndex":
        """Build a sharded index for ``dim``-dimensional vectors (``M = 2``)."""
        if dim % 2 != 0:
            raise ValueError("the RT-core mapping requires an even dimensionality")
        assignment = config_overrides.pop("assignment", "round_robin")
        num_workers = config_overrides.pop("num_workers", None)
        executor = config_overrides.pop("executor", "thread")
        exact_rerank = config_overrides.pop("exact_rerank", False)
        rerank_depth = config_overrides.pop("rerank_depth", None)
        new_id_assignment = config_overrides.pop("new_id_assignment", "contiguous")
        config_overrides.setdefault("num_subspaces", dim // 2)
        return cls(
            JunoConfig(**config_overrides),
            num_shards=num_shards,
            assignment=assignment,
            num_workers=num_workers,
            executor=executor,
            exact_rerank=exact_rerank,
            rerank_depth=rerank_depth,
            new_id_assignment=new_id_assignment,
        )

    # ----------------------------------------------------------------- train
    @property
    def is_trained(self) -> bool:
        """Whether every shard finished its offline phase."""
        return bool(self.shards) and all(shard.is_trained for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """Number of points per shard (balance diagnostics)."""
        return [int(ids.shape[0]) for ids in self.shard_global_ids]

    def shard_stats(self, warn_imbalance: bool = True) -> list[dict]:
        """Per-shard live/delta/tombstone sizes -- the balance measurement.

        One dict per shard with keys ``shard_id``, ``points`` (live count),
        ``delta`` (buffered upserts awaiting compaction) and ``tombstones``.
        Immutable shards report zero delta/tombstones; for a bundle-backed
        resident deployment the delta/tombstone sizes come from the latest
        apply/state report of that shard's workers and are ``None`` until a
        report has been seen (the coordinator holds no shard state of its
        own).

        When ``warn_imbalance`` is set (the default), a
        :class:`RuntimeWarning` is emitted if one shard's delta buffer has
        grown to more than ``4x`` the mean of the *other* shards' buffers
        (and is at least 32 entries -- tiny buffers are noise, not skew):
        skewed write traffic concentrates compaction cost and
        drift on that shard, and rebalancing -- moving the shard boundary or
        re-homing new ids -- is the fix this measurement motivates.
        """
        stats: list[dict] = []
        for shard_id, shard in enumerate(self.shards):
            base_points = int(self.shard_global_ids[shard_id].shape[0])
            if isinstance(shard, ResidentShardHandle):
                report = self._resident_maintenance.get(shard_id, {})
                stats.append(
                    {
                        "shard_id": shard_id,
                        "points": int(self._resident_live.get(shard_id, base_points)),
                        "delta": report.get("delta"),
                        "tombstones": report.get("tombstones"),
                    }
                )
                continue
            delta = getattr(shard, "delta", None)
            tombstones = getattr(shard, "tombstones", None)
            stats.append(
                {
                    "shard_id": shard_id,
                    "points": int(shard.num_points) if shard.num_points else base_points,
                    "delta": len(delta) if delta is not None else 0,
                    "tombstones": len(tombstones) if tombstones is not None else 0,
                }
            )
        if warn_imbalance:
            deltas = [s["delta"] for s in stats if s["delta"] is not None]
            if len(deltas) > 1:
                largest = max(deltas)
                rest = [d for i, d in enumerate(deltas) if i != deltas.index(largest)]
                mean = sum(rest) / len(rest)
                if (
                    largest >= _DELTA_IMBALANCE_MIN
                    and largest > _DELTA_IMBALANCE_FACTOR * max(mean, 1.0)
                ):
                    worst = max(
                        (s for s in stats if s["delta"] == largest),
                        key=lambda s: s["shard_id"],
                    )
                    warnings.warn(
                        f"shard delta-size imbalance: shard {worst['shard_id']} buffers "
                        f"{largest} upserts vs a mean of {mean:.1f} across "
                        f"{self.num_shards} shards; skewed write traffic concentrates "
                        "compaction cost there (consider re-homing new ids or "
                        "splitting the shard)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return stats

    def _assign(self, num_points: int) -> np.ndarray:
        ids = np.arange(num_points, dtype=np.int64)
        if self.assignment == "round_robin":
            return ids % self.num_shards
        return (ids * self.num_shards) // max(num_points, 1)

    def train(self, points: np.ndarray) -> "ShardedJunoIndex":
        """Partition the corpus and train one full JUNO index per shard."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.dim = points.shape[1]
        self.num_points = points.shape[0]
        if self.num_points < self.num_shards:
            raise ValueError(
                f"cannot split {self.num_points} points across {self.num_shards} shards"
            )
        assignments = self._assign(self.num_points)
        self.shards = []
        self.shard_global_ids = []
        for shard_id in range(self.num_shards):
            global_ids = np.flatnonzero(assignments == shard_id).astype(np.int64)
            shard_config = self.config.with_updates(seed=self.config.seed + 101 * shard_id)
            shard = JunoIndex(shard_config)
            shard.train(points[global_ids])
            self.shards.append(shard)
            self.shard_global_ids.append(global_ids)
        if self.exact_rerank:
            self._rerank_points = points
        return self

    # ------------------------------------------------------------ exact rerank
    def enable_exact_rerank(
        self, points: np.ndarray, rerank_depth: int | None = None
    ) -> "ShardedJunoIndex":
        """Attach the raw corpus and rerank merged candidates exactly.

        Args:
            points: the full ``(num_points, dim)`` corpus in global id order
                (the same array the router was trained on).
            rerank_depth: merged candidates kept per query before the exact
                rescoring; ``None`` keeps all ``num_shards * k``.

        Returns:
            ``self`` (builder style).
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.num_points and points.shape[0] != self.num_points:
            raise ValueError(
                f"rerank corpus has {points.shape[0]} points but the router was "
                f"trained on {self.num_points}"
            )
        if rerank_depth is not None and rerank_depth <= 0:
            raise ValueError("rerank_depth must be positive")
        self._rerank_points = points
        self.exact_rerank = True
        if rerank_depth is not None:
            self.rerank_depth = int(rerank_depth)
        return self

    def disable_exact_rerank(self) -> "ShardedJunoIndex":
        """Drop the rerank corpus and return to plain merged results."""
        self.exact_rerank = False
        self._rerank_points = None
        return self

    # ------------------------------------------------------- streaming updates
    @property
    def mutable(self) -> bool:
        """Whether this router accepts :meth:`upsert` / :meth:`delete`."""
        return self._mutable

    def enable_updates(
        self,
        points: np.ndarray | None = None,
        wal_dir: "str | Path | None" = None,
        policy=None,
        durability=None,
    ) -> "ShardedJunoIndex":
        """Wrap every local shard in a mutable-index layer (:mod:`repro.updates`).

        Each shard becomes a
        :class:`~repro.updates.mutable.MutableJunoIndex` carrying its
        partition of the raw corpus and its global-id mapping, so it speaks
        global ids natively; :meth:`upsert` / :meth:`delete` then route ops
        to the owning shard.  Every mutable shard returns *exact* metric
        scores (``exact_scores=True``) so the k-way merge always ranks on
        one comparable scale, no matter which shards hold buffered vectors.

        Args:
            points: the full ``(num_points, dim)`` corpus in global id order;
                defaults to the retained rerank corpus.  Required because the
                mutable layer rescoring/compaction needs raw vectors.
            wal_dir: when given, each shard appends its ops to
                ``wal_dir/shard_XXX.wal`` (write-ahead durability).
            policy: per-shard :class:`~repro.updates.mutable.RebuildPolicy`.
            durability: :class:`~repro.updates.wal.DurabilityPolicy` every
                shard WAL opens with (fsync mode, group-commit window,
                segment rotation); defaults to the deployment policy of the
                :class:`~repro.serving.config.ServingConfig` the router was
                loaded with, else ``fsync="never"``.
        """
        from repro.updates.mutable import MutableJunoIndex
        from repro.updates.wal import WriteAheadLog

        if not self.is_trained:
            raise RuntimeError("enable_updates requires a trained router")
        if any(isinstance(shard, (ResidentShardHandle, MutableJunoIndex)) for shard in self.shards):
            raise RuntimeError(
                "enable_updates needs coordinator-local immutable shards; a "
                "resident deployment becomes mutable by saving a mutable "
                "bundle and loading it with executor='resident'"
            )
        if self.exact_rerank:
            raise ValueError(
                "mutable shards already return exact metric scores; disable "
                "exact_rerank before enabling updates"
            )
        if points is None:
            points = self._rerank_points
        if points is None:
            raise ValueError("enable_updates needs the raw corpus (points=...)")
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] != self.num_points:
            raise ValueError(
                f"corpus has {points.shape[0]} points but the router was "
                f"trained on {self.num_points}"
            )
        if durability is None:
            durability = self._durability
        wrapped = []
        for shard_id, (shard, global_ids) in enumerate(zip(self.shards, self.shard_global_ids)):
            wal = (
                WriteAheadLog(Path(wal_dir) / f"shard_{shard_id:03d}.wal", durability=durability)
                if wal_dir is not None
                else None
            )
            wrapped.append(
                MutableJunoIndex(
                    shard,
                    vectors=points[global_ids],
                    global_ids=global_ids,
                    wal=wal,
                    policy=policy,
                    exact_scores=True,
                )
            )
        self.shards = wrapped
        self._mutable = True
        self._owner_map = None
        return self

    def _require_mutable(self) -> None:
        if not self._mutable:
            raise RuntimeError(
                "this router is immutable; call enable_updates() (or load a "
                "mutable bundle) before upsert/delete"
            )

    def _ensure_owner_map(self) -> dict[int, int]:
        if self._owner_map is None:
            self._owner_map = {
                int(gid): shard_id
                for shard_id, ids in enumerate(self.shard_global_ids)
                for gid in ids
            }
        return self._owner_map

    def _group_by_owner(self, ids: np.ndarray, assign_new: bool) -> dict[int, np.ndarray]:
        """Positions of ``ids`` grouped by owning shard.

        Known ids go to the shard that holds (or held) them; unknown ids
        are either homed by the router's ``new_id_assignment`` rule
        (``assign_new``, the upsert path) or rejected (the delete path).
        The default ``"contiguous"`` rule maps fixed-size id blocks to
        shards in rotation -- a burst of consecutive fresh ids lands on one
        shard, so the op fan-out of an upsert batch stays small; the legacy
        ``"modulo"`` rule deals every consecutive id to a different shard.
        """
        owners = self._ensure_owner_map()
        out: dict[int, list[int]] = {}
        unknown: list[int] = []
        for position, gid in enumerate(ids):
            gid = int(gid)
            owner = owners.get(gid)
            if owner is None:
                if not assign_new:
                    unknown.append(gid)
                    continue
                if self.new_id_assignment == "contiguous":
                    owner = (gid // _NEW_ID_BLOCK) % self.num_shards
                else:
                    owner = gid % self.num_shards
                owners[gid] = owner
            out.setdefault(owner, []).append(position)
        if unknown:
            raise KeyError(f"cannot delete ids that are not live: {unknown}")
        return {shard_id: np.asarray(rows, dtype=np.intp) for shard_id, rows in out.items()}

    def _apply_shard_op(self, shard_id: int, op: dict) -> None:
        """Apply one op to its owning shard (locally or via resident workers)."""
        executor = self._fanout_executor()
        if getattr(executor, "resident", False):
            self._record_resident_report(shard_id, executor.apply_ops(shard_id, [op]))
            return
        shard = self.shards[shard_id]
        if op["op"] == "upsert":
            shard.upsert(op["ids"], op["vectors"])
        else:
            shard.delete(op["ids"])

    def _record_resident_report(self, shard_id: int, report: dict) -> None:
        self._resident_live[shard_id] = int(report["live"])
        self._resident_maintenance[shard_id] = {
            "maintenance_due": report.get("maintenance_due", "none"),
            "auto_compact": bool(report.get("auto_compact", True)),
            # Delta/tombstone sizes feed shard_stats(); older workers that
            # do not report them leave the stats entry at None (unknown).
            "delta": report.get("delta"),
            "tombstones": report.get("tombstones"),
        }

    def _refresh_live_count(self) -> None:
        if self._resident_live:
            known = [
                self._resident_live.get(s, len(self.shard_global_ids[s]))
                for s in range(self.num_shards)
            ]
            self.num_points = int(sum(known))
        else:
            self.num_points = int(sum(shard.num_points for shard in self.shards))

    def upsert(self, ids: np.ndarray, vectors: np.ndarray) -> "ShardedJunoIndex":
        """Insert or replace vectors by global id, routed to the owning shard.

        New ids are homed by the router's ``new_id_assignment`` rule (by
        default, blocks of 1024 consecutive ids dealt to shards in
        rotation); existing ids go back to the shard that holds them.  With
        a resident executor the op payload is broadcast to every live
        replica of the owning shard (the replicated op log), with the same
        failover semantics as queries.
        """
        self._require_mutable()
        ids = np.asarray(ids, dtype=np.int64).ravel()
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[0] != ids.shape[0]:
            raise ValueError("need exactly one vector per id")
        for shard_id, rows in self._group_by_owner(ids, assign_new=True).items():
            self._apply_shard_op(
                shard_id, {"op": "upsert", "ids": ids[rows], "vectors": vectors[rows]}
            )
        self._refresh_live_count()
        return self

    def delete(self, ids: np.ndarray) -> "ShardedJunoIndex":
        """Delete live points by global id; tombstoned ids never surface."""
        self._require_mutable()
        ids = np.asarray(ids, dtype=np.int64).ravel()
        for shard_id, rows in self._group_by_owner(ids, assign_new=False).items():
            self._apply_shard_op(shard_id, {"op": "delete", "ids": ids[rows]})
        self._refresh_live_count()
        return self

    def compact(self) -> "ShardedJunoIndex":
        """Compact every shard's delta buffer into its trained index."""
        self._require_mutable()
        executor = self._fanout_executor()
        for shard_id in range(self.num_shards):
            if getattr(executor, "resident", False):
                self._record_resident_report(
                    shard_id, executor.apply_ops(shard_id, [{"op": "compact"}])
                )
            else:
                self.shards[shard_id].compact()
        self._refresh_live_count()
        return self

    def maybe_compact(self) -> list[int]:
        """Compact exactly the shards whose policy trigger has fired.

        The router-level half of the explicit maintenance step (see
        :meth:`~repro.updates.mutable.MutableJunoIndex.maybe_compact`):
        mutations only buffer, and this schedulable call -- typically driven
        by a :class:`~repro.serving.recovery.ReplicaSupervisor` between
        batches -- drains the shards that crossed their ``delta_capacity``.
        With a resident executor the decision uses the maintenance signal of
        the latest apply report and the compaction itself is broadcast as an
        explicit ``compact`` op (entering the replicated op log, so respawn
        replay reproduces it); both paths apply the same trigger rule, so a
        local deployment and a resident one compact in lockstep on the same
        op sequence.  Returns the shard ids that compacted.
        """
        self._require_mutable()
        executor = self._fanout_executor()
        compacted: list[int] = []
        for shard_id in range(self.num_shards):
            if getattr(executor, "resident", False):
                signal = self._resident_maintenance.get(shard_id)
                if (
                    signal is None
                    or not signal["auto_compact"]
                    or signal["maintenance_due"] != "compact"
                ):
                    continue
                self._record_resident_report(
                    shard_id, executor.apply_ops(shard_id, [{"op": "compact"}])
                )
                compacted.append(shard_id)
            elif self.shards[shard_id].maybe_compact():
                compacted.append(shard_id)
        if compacted:  # an untouched resident router has no live counts yet
            self._refresh_live_count()
        return compacted

    # ----------------------------------------------------------------- search
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobs: int = 8,
        quality_mode: QualityMode | str | None = None,
        threshold_scale: float | None = None,
        pipeline: "QueryPipeline | None" = None,
        trace=None,
    ) -> JunoSearchResult:
        """Fan the batch out to every shard and merge the per-shard top-k.

        Arguments match :meth:`JunoIndex.search`; ``nprobs`` is probed *per
        shard* and ``pipeline`` (when given) runs *inside every shard*, in
        the shard's **local** id space -- so do not append an
        :class:`ExactRerankStage` over the global corpus to a per-shard
        pipeline (its corpus rows would be indexed with shard-local ids);
        use :attr:`exact_rerank` / :meth:`enable_exact_rerank`, which rerank
        *after* the global-id merge, instead.  The returned ids are global
        corpus ids.  With :attr:`exact_rerank` enabled, the merged
        candidates are rescored against the raw corpus and the returned
        scores are exact squared L2 distances / inner products instead of
        the quality mode's native scores.

        Every call carries a trace: ``trace`` may be an existing
        :class:`~repro.obs.trace.Trace`, a propagated context dict, or
        ``None`` (a fresh root trace is opened).  The coordinator records
        ``sharded_search`` / ``fan_out`` / ``merge`` (and ``stage:
        exact_rerank``) spans, worker-side stage spans ride back with the
        shard results and are stitched under the fan-out span, and the
        finished trace is exported as ``extra["trace"]``.
        """
        if not self.is_trained:
            raise RuntimeError("ShardedJunoIndex must be trained before searching")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        executor = self._fanout_executor()
        trace = Trace.ensure(trace)
        params: dict = {
            "nprobs": nprobs,
            "quality_mode": quality_mode,
            "threshold_scale": threshold_scale,
        }
        if pipeline is not None:
            params["pipeline"] = pipeline
        with trace.span(
            "sharded_search",
            shards=self.num_shards,
            queries=int(queries.shape[0]),
            k=int(k),
        ):
            with trace.span("fan_out", shards=self.num_shards):
                # Workers (or in-process shard legs) rebuild a child trace
                # from this context, so their spans root under "fan_out".
                params["trace"] = trace.context()
                results = executor.search_shards(self.shards, queries, k, params)

            # Mutable shards return global ids natively (their
            # DeltaMergeStage already remapped); None tells the merge to
            # skip the id remap.
            mappings = [None] * self.num_shards if self._mutable else self.shard_global_ids
            rerank = self.exact_rerank and self._rerank_points is not None
            if rerank:
                depth = self.rerank_depth if self.rerank_depth is not None else self.num_shards * k
                merge_k = max(k, min(depth, self.num_shards * k))
            else:
                merge_k = k
            with trace.span("merge", shards=self.num_shards):
                merged = merge_shard_results(results, mappings, merge_k, self.metric)
                trace.adopt(merged.extra.pop("trace_spans", None))
            if rerank:
                merged = self._run_exact_rerank(queries, k, nprobs, merged, trace=trace)
        merged.extra["trace"] = trace.to_dict()
        return merged

    def _run_exact_rerank(
        self, queries: np.ndarray, k: int, nprobs: int, merged: JunoSearchResult, trace=None
    ) -> JunoSearchResult:
        """Rescore the merged candidates exactly and cut the list back to ``k``.

        The rerank runs as a one-stage :class:`QueryPipeline` over a context
        seeded with the merged result, so its wall-clock time and
        :class:`SearchWork` slice land in the same ``stage_seconds`` /
        ``stage_work`` breakdowns as the per-shard stages.
        """
        ctx = QueryContext(
            queries=queries,
            k=k,
            nprobs=nprobs,
            quality_mode=merged.quality_mode,
            threshold_scale=merged.threshold_scale,
            metric=self.metric,
            work=merged.work,
            ids=merged.ids,
            scores=merged.scores,
            selected_entry_fraction=merged.selected_entry_fraction,
            trace=trace,
        )
        ctx.extra = {
            key: value
            for key, value in merged.extra.items()
            if key not in ("stage_seconds", "stage_work")
        }
        ctx.stage_seconds = dict(merged.extra.get("stage_seconds", {}))
        ctx.stage_work = dict(merged.extra.get("stage_work", {}))
        rerank = ExactRerankStage(self._rerank_points, metric=self.metric)
        QueryPipeline((rerank,)).run(ctx)
        return ctx.to_result()

    def _fanout_executor(self) -> ShardExecutor:
        """Lazily created, reused fan-out executor.

        The serving hot path flushes a batch every few milliseconds; reusing
        one executor avoids per-batch pool creation and teardown.  The
        executor is rebuilt when ``num_workers`` or ``executor_spec``
        changes, which is not meant to race concurrent ``search`` calls.
        An executor *instance* passed at construction is used as-is.
        """
        if isinstance(self.executor_spec, ShardExecutor):
            return self.executor_spec
        workers = min(self.num_workers, self.num_shards)
        key = (self.executor_spec, workers)
        if self._executor is None or self._executor_key != key:
            if self._executor is not None:
                self._executor.close()
            self._executor = make_shard_executor(self.executor_spec, workers)
            self._executor_key = key
        return self._executor

    def resident_executor(self):
        """The deployment's :class:`ResidentProcessShardExecutor`.

        The handle the recovery layer supervises
        (:class:`~repro.serving.recovery.ReplicaSupervisor` accepts the
        router and calls this).  Raises :class:`TypeError` when the router
        is not backed by the worker-resident runtime.
        """
        executor = self._fanout_executor()
        if not getattr(executor, "resident", False):
            raise TypeError(
                "this router's fan-out is not worker-resident; load the "
                "bundle with ServingConfig(executor='resident') (or call "
                "make_resident()) to get a supervisable deployment"
            )
        return executor

    def close(self) -> None:
        """Shut the router-owned fan-out executor down (idempotent).

        Searches recreate the executor on demand, so retiring an index twice
        (or via both an explicit call and the context-manager exit) is safe.
        Call it when discarding an index so long sweeps over many sharded
        configurations don't accumulate idle workers for the life of the
        process.  A caller-supplied :class:`ShardExecutor` instance is *not*
        closed -- the caller created it (possibly sharing it across several
        routers) and keeps ownership of its lifecycle.  Resident executors
        the router built itself (``load(..., executor="resident")`` /
        :meth:`make_resident`) *are* router-owned and are shut down here.
        """
        if self._executor is not None:
            self._executor.close()
            self._executor = None
            self._executor_key = None
        if self._owns_spec_executor and isinstance(self.executor_spec, ShardExecutor):
            self.executor_spec.close()
        # Mutable shards may hold an open WAL append handle; close it (the
        # log itself stays on disk, and a later append re-opens lazily).
        if self._mutable:
            for shard in self.shards:
                wal = getattr(shard, "wal", None)
                if wal is not None:
                    wal.close()

    def __enter__(self) -> "ShardedJunoIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path, layout: str = "npz") -> Path:
        """Persist the router manifest plus one index bundle per shard.

        ``layout`` picks the per-shard array layout (immutable bundles
        only): ``"npz"`` is the compact default, ``"npy"`` writes raw
        uncompressed arrays so the resident runtime can memory-map them
        read-only (``ReplicaPolicy.residency="mmap"``).
        """
        if not self.is_trained:
            raise PersistenceError("cannot save an untrained ShardedJunoIndex")
        if any(isinstance(shard, ResidentShardHandle) for shard in self.shards):
            raise PersistenceError(
                "this router is bundle-backed (shards are resident in worker "
                "processes, not coordinator memory); its persistent form is the "
                "bundle directory it was loaded from -- copy that, or reload "
                "with load_shards=True to save a new bundle"
            )
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        manifest = router_manifest_dict(
            self.config,
            num_shards=self.num_shards,
            assignment=self.assignment,
            new_id_assignment=self.new_id_assignment,
            dim=self.dim,
            num_points=self.num_points,
            exact_rerank=bool(self.exact_rerank and self._rerank_points is not None),
            rerank_depth=self.rerank_depth,
            mutable=self._mutable,
        )
        # Payload files first, the router manifest last: every file is
        # staged and atomically published (repro.storage), and the per-shard
        # bundles each commit via their own manifest, so the router manifest
        # only becomes readable once everything it references is complete.
        if self._mutable:
            # Live (base + buffered) ids per shard; feeds the owner map and
            # the merge diagnostics of a reloaded mutable deployment.
            id_arrays = {f"shard_{s}": shard.live_ids() for s, shard in enumerate(self.shards)}
        else:
            id_arrays = {f"shard_{s}": ids for s, ids in enumerate(self.shard_global_ids)}
        with staged(path / _SHARD_IDS_NAME) as tmp:
            with tmp.open("wb") as handle:
                np.savez_compressed(handle, **id_arrays)
        if manifest["exact_rerank"]:
            with staged(path / _RERANK_CORPUS_NAME) as tmp:
                with tmp.open("wb") as handle:
                    np.savez_compressed(handle, points=self._rerank_points)
        for shard_id, shard in enumerate(self.shards):
            if self._mutable:
                save_mutable_index(shard, shard_bundle_path(path, shard_id))
            else:
                save_index(shard, shard_bundle_path(path, shard_id), layout=layout)
        atomic_write_text(path / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True))
        return path

    @classmethod
    def load(
        cls,
        path: str | Path,
        config: "ServingConfig | None" = None,
    ) -> "ShardedJunoIndex":
        """Restore a sharded index saved by :meth:`save` without retraining.

        ``config`` (a :class:`~repro.serving.config.ServingConfig`)
        describes the whole deployment: fan-out executor, worker count,
        whether the coordinator materialises shards locally, and -- for
        ``executor="resident"`` -- the
        :class:`~repro.serving.config.ReplicaPolicy` (replica count, warm
        boot, residency mode).

        ``ServingConfig(executor="resident")`` boots the worker-resident
        runtime from the same bundle: one
        :class:`~repro.serving.routing.ResidentProcessShardExecutor` whose
        worker processes load their shard(s) from the per-shard bundles at
        boot.  The router owns that executor and shuts it down on
        :meth:`close`.

        ``load_shards`` controls whether the coordinator also materialises
        the shard indexes locally.  It defaults to ``True`` for the local
        executors (they search coordinator memory) and ``False`` for the
        resident executor -- the shard state already lives in the workers,
        so the coordinator keeps only :class:`ResidentShardHandle` stubs,
        the shard-id mappings for the merge, and (if enabled) the rerank
        corpus; memory and boot time stop scaling with a second index copy.
        A bundle-backed router cannot be re-:meth:`save`\\ d (the bundle
        *is* its persistent form); use ``load_shards=True`` if a local
        copy is genuinely needed.
        """
        config = _checked_config(config)
        executor = config.executor
        num_workers = config.num_workers
        load_shards = config.load_shards
        replicas = config.replicas
        path = Path(path)
        manifest = read_manifest(path, SHARDED_KIND)
        num_shards = int(manifest["num_shards"])
        missing = [
            shard_id
            for shard_id in range(num_shards)
            if not (shard_bundle_path(path, shard_id) / MANIFEST_NAME).is_file()
        ]
        if missing:
            raise PersistenceError(
                f"sharded bundle at {path} declares {num_shards} shards but "
                f"is missing the per-shard bundle(s) {missing}"
            )
        mutable = bool(manifest.get("mutable"))
        owns_executor = False
        if executor == "resident":
            from repro.serving.routing import ResidentProcessShardExecutor

            executor = ResidentProcessShardExecutor(
                path,
                num_shards=num_shards,
                num_replicas=replicas.num_replicas,
                mutable=mutable,
                warm=replicas.warm,
                residency=replicas.residency,
            )
            owns_executor = True
        try:
            sharded = cls(
                config_from_manifest(manifest),
                num_shards=int(manifest["num_shards"]),
                assignment=manifest["assignment"],
                num_workers=num_workers,
                executor=executor,
                # Bundles written before the contiguous rule existed homed
                # new ids by modulo; keep doing so for them.
                new_id_assignment=manifest.get("new_id_assignment", "modulo"),
            )
        except BaseException:
            # e.g. a manifest config key this version does not understand:
            # the resident workers booted above must not outlive the failure.
            if owns_executor:
                executor.close()
            raise
        sharded._owns_spec_executor = owns_executor
        sharded._durability = config.durability
        sharded.dim = int(manifest["dim"])
        sharded.num_points = int(manifest["num_points"])
        try:
            ids_path = path / _SHARD_IDS_NAME
            if not ids_path.is_file():
                raise PersistenceError(
                    f"sharded bundle at {path} is missing {_SHARD_IDS_NAME}"
                )
            try:
                with np.load(ids_path) as id_arrays:
                    keys = [f"shard_{s}" for s in range(sharded.num_shards)]
                    sharded.shard_global_ids = [id_arrays[key] for key in keys]
            except KeyError as exc:
                raise PersistenceError(
                    f"sharded bundle at {path} has an incomplete {_SHARD_IDS_NAME}: {exc}"
                ) from exc
            except Exception as exc:
                if isinstance(exc, PersistenceError):
                    raise
                raise PersistenceError(
                    f"corrupt {_SHARD_IDS_NAME} in sharded bundle at {path}: {exc}"
                ) from exc
            if load_shards is None:
                # covers both the "resident" string (resolved above) and a
                # caller-supplied resident executor instance
                load_shards = not getattr(executor, "resident", False)
            if load_shards:
                loader = load_mutable_index if mutable else load_index
                sharded.shards = [
                    loader(shard_bundle_path(path, shard_id))
                    for shard_id in range(sharded.num_shards)
                ]
            else:
                sharded.shards = [
                    ResidentShardHandle(shard_id, path)
                    for shard_id in range(sharded.num_shards)
                ]
            sharded._mutable = mutable
            if manifest.get("exact_rerank"):
                corpus_path = path / _RERANK_CORPUS_NAME
                if not corpus_path.is_file():
                    raise PersistenceError(
                        f"bundle at {path} declares exact_rerank but has no "
                        f"{_RERANK_CORPUS_NAME}"
                    )
                with np.load(corpus_path) as corpus:
                    depth = manifest.get("rerank_depth")
                    sharded.enable_exact_rerank(corpus["points"], rerank_depth=depth)
        except BaseException:
            # Never leak the worker processes of a half-constructed router.
            sharded.close()
            raise
        return sharded

    def make_resident(
        self,
        path: str | Path,
        config: "ServingConfig | None" = None,
        *,
        persist: bool = True,
    ) -> "ShardedJunoIndex":
        """Switch this router's fan-out to the worker-resident runtime.

        Persists the deployment to ``path`` (unless ``persist=False`` because
        the bundle is already on disk) and replaces the fan-out executor with
        a router-owned
        :class:`~repro.serving.routing.ResidentProcessShardExecutor`: each
        shard gets ``config.replicas.num_replicas`` dedicated worker
        processes that load it from the bundle once and afterwards receive
        query-only payloads.

        Returns ``self`` (builder style).
        """
        from repro.serving.routing import ResidentProcessShardExecutor

        config = _checked_config(config)
        replicas = config.replicas
        if persist:
            # mmap residency maps raw arrays straight off disk, so the
            # bundle must be written in the uncompressed npy layout.
            self.save(path, layout="npy" if replicas.residency == "mmap" else "npz")
        resident = ResidentProcessShardExecutor(
            path,
            num_shards=self.num_shards,
            num_replicas=replicas.num_replicas,
            mutable=self._mutable,
            warm=replicas.warm,
            residency=replicas.residency,
        )
        if self._owns_spec_executor and isinstance(self.executor_spec, ShardExecutor):
            self.executor_spec.close()
        if self._executor is not None:
            self._executor.close()
            self._executor = None
            self._executor_key = None
        self.executor_spec = resident
        self._owns_spec_executor = True
        return self
