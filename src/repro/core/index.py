"""The end-to-end JUNO index (Sec. 5).

:class:`JunoIndex` ties the substrates together:

* offline (:meth:`JunoIndex.train`, Alg. 1): coarse IVF clustering, PQ
  codebook training and encoding, the subspace-level inverted indices, the
  density maps, the polynomial threshold regressor and the traversable RT
  scene (one sphere per codebook entry per subspace);
* online (:meth:`JunoIndex.search`, Alg. 2): coarse filtering, dynamic
  per-ray thresholds converted to ``t_max``, the selective L2-LUT
  construction on the ray-tracing engine, and the distance-calculation stage
  that only touches points whose entries were selected.  The online path is
  executed as a :class:`~repro.pipeline.pipeline.QueryPipeline` of explicit
  stages (see :mod:`repro.pipeline`); ``search`` accepts a custom pipeline
  and the default pipeline reproduces the historical monolithic
  implementation bit-identically.

The two quality modes map onto the scoring strategy used in the last
stage: JUNO-H sums the per-subspace values the sphere tests wrote (``d²``
for L2), JUNO-L counts the hits (Sec. 5.4 / 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import JunoConfig, QualityMode
from repro.core.density import DensityMap
from repro.core.inner_product import adjusted_radii_for_inner_product
from repro.core.subspace_index import SubspaceInvertedIndex
from repro.core.threshold import ThresholdModel, ThresholdTrainingSample
from repro.datasets.ground_truth import compute_ground_truth
from repro.gpu.work import SearchWork
from repro.ivf.inverted_file import InvertedFileIndex
from repro.metrics.distances import Metric
from repro.obs import clock
from repro.obs.metrics import get_registry
from repro.quantization.product_quantizer import ProductQuantizer
from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer

if TYPE_CHECKING:  # pragma: no cover - the pipeline package imports core leaves
    from repro.pipeline.pipeline import QueryPipeline

@dataclass
class JunoSearchResult:
    """Output of one batched JUNO search.

    Attributes:
        ids: ``(Q, k)`` neighbour ids, best-first, padded with ``-1``.
        scores: ``(Q, k)`` scores aligned with ``ids``.  JUNO-H reports
            approximate distances (L2) or similarities (inner product);
            JUNO-L reports hit-count scores (higher is better).
        work: operation counters for the whole batch (feeds the GPU cost
            model).
        quality_mode: the mode the search ran in.
        threshold_scale: the scaling factor that was applied.
        selected_entry_fraction: average fraction of codebook entries
            selected per (ray, subspace) -- the sparsity actually exploited.
        extra: additional diagnostics (candidate counts, hit counts, ...).
    """

    ids: np.ndarray
    scores: np.ndarray
    work: SearchWork
    quality_mode: QualityMode
    threshold_scale: float
    selected_entry_fraction: float
    extra: dict = field(default_factory=dict)


class JunoIndex:
    """Sparsity-aware ANN index with the RT-core mapping.

    Args:
        config: a :class:`repro.core.config.JunoConfig`; its
            ``num_subspaces`` must equal ``dim / 2`` of the corpus passed to
            :meth:`train` (the RT mapping requires 2-D subspaces).
    """

    def __init__(self, config: JunoConfig) -> None:
        self.config = config
        self.metric = config.metric
        self.dim: int | None = None
        self.num_points: int = 0
        self.ivf = InvertedFileIndex(
            config.num_clusters,
            metric=self.metric,
            seed=config.seed,
            kmeans_iters=config.kmeans_iters,
        )
        self.pq: ProductQuantizer | None = None
        self.codes: np.ndarray | None = None
        self.subspace_index: SubspaceInvertedIndex | None = None
        self.density_map: DensityMap | None = None
        self.threshold_model: ThresholdModel | None = None
        self.scene: TraversableScene | None = None
        self.tracer: RayTracer | None = None
        self.sphere_radius: float = 1.0
        self.origin_offsets: np.ndarray | None = None

    # ------------------------------------------------------------- factory
    @classmethod
    def from_dim(cls, dim: int, **config_overrides) -> "JunoIndex":
        """Build an index whose subspace count matches ``dim`` (``M = 2``)."""
        if dim % 2 != 0:
            raise ValueError("the RT-core mapping requires an even dimensionality")
        overrides = dict(config_overrides)
        overrides.setdefault("num_subspaces", dim // 2)
        return cls(JunoConfig(**overrides))

    @classmethod
    def for_dataset(cls, dataset, **config_overrides) -> "JunoIndex":
        """Build an index configured for a :class:`repro.datasets.Dataset`."""
        overrides = dict(config_overrides)
        overrides.setdefault("metric", dataset.metric)
        return cls.from_dim(dataset.dim, **overrides)

    # ----------------------------------------------------------------- train
    @property
    def is_trained(self) -> bool:
        """Whether the offline phase (Alg. 1) has completed."""
        return self.scene is not None

    def train(self, points: np.ndarray) -> "JunoIndex":
        """Offline preparation: clustering, codebooks, scene and regressor."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.dim = points.shape[1]
        self.num_points = points.shape[0]
        expected_dim = self.config.required_dim()
        if self.dim != expected_dim:
            raise ValueError(
                f"config expects dim {expected_dim} (num_subspaces * 2) but corpus has dim {self.dim}"
            )

        # 1. Coarse clustering and PQ codebooks over residuals (Alg. 1, 2-9).
        marks = [clock.now()]
        self.ivf.train(points)
        marks.append(clock.now())
        residuals = self.ivf.point_residuals(points)
        self.pq = ProductQuantizer(
            dim=self.dim,
            num_subspaces=self.config.num_subspaces,
            num_entries=self.config.num_entries,
            seed=self.config.seed,
            kmeans_iters=self.config.kmeans_iters,
        ).train(residuals)
        marks.append(clock.now())
        self.codes = self.pq.encode(residuals)
        marks.append(clock.now())

        self._finalize_training(points, residuals)
        marks.append(clock.now())
        # The four intervals tile the call, so the gauges sum to its wall time.
        for step, begin, end in zip(("ivf", "pq_train", "encode", "finalize"), marks, marks[1:]):
            get_registry().gauge("repro_train_step_seconds", step=step).set(end - begin)
        return self

    def assemble(
        self,
        points: np.ndarray,
        centroids: np.ndarray,
        labels: np.ndarray,
        codebooks,
        codes: np.ndarray,
    ) -> "JunoIndex":
        """Install precomputed clustering/codes and finish the offline phase.

        The distributed build pipeline (:mod:`repro.build`) computes the
        expensive k-means outputs out of process -- centroids and codebooks
        fitted on samples, labels and codes assigned chunk by chunk over a
        memory-mapped corpus.  This entry point installs those artifacts and
        then runs the remaining training stages (subspace inverted indices,
        density maps, threshold regressor, RT scene) through the very same
        code path :meth:`train` uses, so a pipeline-built index is
        bit-identical to an in-memory ``train()`` given identical inputs.

        Args:
            points: ``(N, D)`` corpus partition this index serves.
            centroids: ``(C, D)`` coarse IVF centroids.
            labels: ``(N,)`` nearest-centroid assignment of every point.
            codebooks: per-subspace codebooks -- ``(E, 2)`` entry arrays or
                ready :class:`~repro.quantization.codebook.SubspaceCodebook`
                instances, one per subspace.
            codes: ``(N, num_subspaces)`` PQ codes of the residuals.
        """
        from repro.quantization.codebook import SubspaceCodebook

        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.dim = points.shape[1]
        self.num_points = points.shape[0]
        expected_dim = self.config.required_dim()
        if self.dim != expected_dim:
            raise ValueError(
                f"config expects dim {expected_dim} (num_subspaces * 2) but corpus has dim {self.dim}"
            )
        centroids = np.asarray(centroids, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.int32)
        if centroids.ndim != 2 or centroids.shape[1] != self.dim:
            raise ValueError(f"centroids must have shape (C, {self.dim}), got {centroids.shape}")
        if labels.shape != (self.num_points,):
            raise ValueError(f"{labels.shape[0]} labels for {self.num_points} points")
        if codes.shape != (self.num_points, self.config.num_subspaces):
            expected_shape = (self.num_points, self.config.num_subspaces)
            raise ValueError(f"codes must have shape {expected_shape}, got {codes.shape}")
        if len(codebooks) != self.config.num_subspaces:
            raise ValueError(
                f"{len(codebooks)} codebooks for {self.config.num_subspaces} subspaces"
            )

        self.ivf.centroids = centroids
        self.ivf.labels = labels
        self.ivf.num_clusters = int(centroids.shape[0])
        self.ivf.posting_lists = [
            np.flatnonzero(labels == cluster_id).astype(np.int64)
            for cluster_id in range(self.ivf.num_clusters)
        ]
        pq = ProductQuantizer(
            dim=self.dim,
            num_subspaces=self.config.num_subspaces,
            num_entries=self.config.num_entries,
            seed=self.config.seed,
            kmeans_iters=self.config.kmeans_iters,
        )
        pq.codebooks = [
            codebook
            if isinstance(codebook, SubspaceCodebook)
            else SubspaceCodebook(np.asarray(codebook, dtype=np.float64), subspace_id=s)
            for s, codebook in enumerate(codebooks)
        ]
        self.pq = pq
        self.codes = codes

        residuals = self.ivf.point_residuals(points)
        return self._finalize_training(points, residuals)

    def _finalize_training(self, points: np.ndarray, residuals: np.ndarray) -> "JunoIndex":
        """Training stages 2-4: everything after clustering and encoding.

        Shared verbatim by :meth:`train` and :meth:`assemble` so the
        in-memory and pipeline-built paths can never drift: given identical
        ``points``/``residuals`` (and installed IVF/PQ state) the outputs
        are bit-identical.
        """
        # 2. Density maps over the projections rays will originate from:
        #    residual projections for L2, raw point projections for MIPS
        #    (the MIPS decomposition keeps the query whole and only adds the
        #    per-cluster constant IP(q, c)).
        num_subspaces = self.config.num_subspaces
        if self.metric is Metric.L2:
            projection_source = residuals.reshape(self.num_points, num_subspaces, 2)
        else:
            projection_source = points.reshape(self.num_points, num_subspaces, 2)
        self.density_map = DensityMap(grid=self.config.density_grid).fit(projection_source)

        # 3. Threshold regressor trained on sampled corpus points.
        samples = self._collect_threshold_samples(points, projection_source)
        self.threshold_model = ThresholdModel(
            self.density_map,
            degree=self.config.regression_degree,
            strategy=self.config.threshold_strategy,
        ).fit(samples)

        # 4. Traversable scene: one sphere per codebook entry per subspace --
        #    and, against it, the subspace-level inverted indices (Alg. 1,
        #    12-14), whose gather columns follow the scene's leaf order.
        self._build_scene(projection_source)
        return self

    def _collect_threshold_samples(
        self, points: np.ndarray, projection_source: np.ndarray
    ) -> list[ThresholdTrainingSample]:
        """Gather (density, threshold) pairs from sampled corpus points.

        For every sampled point we find its exact top-k neighbours, look at
        the codebook entries those neighbours are encoded with, and record --
        per subspace -- the smallest threshold that would have selected all of
        them (max distance for L2, min inner product for MIPS), together with
        the region density at the sample's projection.

        For L2, only neighbours sharing the sample's coarse cluster are used:
        entry coordinates live in the residual frame of their own cluster, so
        mixing frames would inflate the thresholds.  If no neighbour shares
        the cluster the full neighbour set is used as a fallback.
        """
        config = self.config
        rng = np.random.default_rng(config.seed + 97)
        sample_size = min(config.num_threshold_samples, self.num_points)
        sample_ids = rng.choice(self.num_points, size=sample_size, replace=False)
        top_k = min(config.threshold_top_k, self.num_points)
        neighbours = compute_ground_truth(
            points, points[sample_ids], k=top_k, metric=self.metric
        )
        densities = self.density_map.lookup_all(projection_source[sample_ids])
        samples: list[ThresholdTrainingSample] = []
        for row, sample_id in enumerate(sample_ids):
            neighbour_ids = neighbours[row]
            if self.metric is Metric.L2:
                same_cluster = self.ivf.labels[neighbour_ids] == self.ivf.labels[sample_id]
                if same_cluster.any():
                    neighbour_ids = neighbour_ids[same_cluster]
            neighbour_codes = self.codes[neighbour_ids]
            sample_proj = projection_source[sample_id]
            for s in range(config.num_subspaces):
                entries = self.pq.codebooks[s].entries[neighbour_codes[:, s]]
                if self.metric is Metric.L2:
                    distances = np.sqrt(np.sum((entries - sample_proj[s]) ** 2, axis=1))
                    threshold = float(distances.max())
                else:
                    threshold = float((entries @ sample_proj[s]).min())
                samples.append(
                    ThresholdTrainingSample(
                        subspace_id=s, density=float(densities[row, s]), threshold=threshold
                    )
                )
        return samples

    def _build_scene(self, projection_source: np.ndarray) -> None:
        """Place one sphere per codebook entry per subspace (Alg. 1, 10-11)."""
        config = self.config
        if self.metric is Metric.L2:
            self.sphere_radius = max(
                self.threshold_model.max_threshold_ * config.sphere_radius_margin, 1e-6
            )
        else:
            # For MIPS the base radius must be large enough that even the
            # lowest trained inner-product threshold is reachable for the
            # largest query-projection norm: R^2 >= |q|^2 - 2 * ip_min.
            max_norm_sq = float(np.max(np.sum(projection_source**2, axis=2)))
            needed = max_norm_sq - 2.0 * min(self.threshold_model.min_threshold_, 0.0)
            self.sphere_radius = float(
                np.sqrt(max(needed, 1.0)) * config.sphere_radius_margin
            )
        self.rebuild_scene()

    def rebuild_scene(self) -> None:
        """(Re)create the traversable scene and tracer from trained state.

        The scene is a pure function of the PQ codebooks and the constant
        sphere radius, so it is deterministic to rebuild; this is how
        :mod:`repro.serving.persistence` restores a reloaded index without
        re-running any training.  The subspace inverted index addresses the
        selective LUT in the scene's leaf-slot order, so it is rebuilt
        against the new scene (:meth:`rebuild_layout`).
        """
        config = self.config
        if self.pq is None or not self.pq.is_trained:
            raise RuntimeError("rebuild_scene requires trained PQ codebooks")
        entries = np.stack([codebook.entries for codebook in self.pq.codebooks])
        if self.metric is Metric.L2:
            radii = np.full(entries.shape[:2], self.sphere_radius)
        else:
            radii = adjusted_radii_for_inner_product(entries, self.sphere_radius)
        # the origin plane sits one largest radius below each layer
        self.origin_offsets = radii.max(axis=1)
        z = 2.0 * np.arange(config.num_subspaces) + 1.0
        self.scene = TraversableScene.build(entries, radii, z, config.leaf_size)
        self.tracer = RayTracer(self.scene)
        self.rebuild_layout()

    def rebuild_layout(self) -> None:
        """(Re)build the subspace inverted index from the posting lists, the
        PQ codes and the current scene.

        The one place the score kernel's gather cells are made: each PQ
        code is translated, here and never per query, to the cell its
        entry's sphere occupies in a ray's block of the tracer's hit grid.
        Reached through :meth:`rebuild_scene` by training and loading, and
        directly by compaction, which changes members and codes but not the
        scene.
        """
        self.subspace_index = SubspaceInvertedIndex(self.config.num_entries).build(
            self.ivf.posting_lists, self.codes, self.scene.entry_slots, self.scene.num_slots
        )

    # ----------------------------------------------------------------- search
    def default_pipeline(self) -> "QueryPipeline":
        """The staged online path: filter -> threshold -> RT -> score -> top-k.

        Equivalent (bit-identically) to the historical monolithic search;
        see :mod:`repro.pipeline` for the stage graph and how to build a
        customised pipeline.
        """
        from repro.pipeline.pipeline import default_search_pipeline

        return default_search_pipeline()

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
        """The online pipeline (Alg. 2 plus the distance-calculation stage).

        Args:
            queries: ``(Q, D)`` query batch.
            k: neighbours to return per query.
            nprobs: coarse clusters probed per query.
            quality_mode: override of the configured JUNO-L/H mode.
            threshold_scale: override of the configured threshold scaling
                factor (< 1 trades recall for throughput).
            pipeline: custom :class:`~repro.pipeline.pipeline.QueryPipeline`;
                defaults to :meth:`default_pipeline`.
            trace: optional :class:`~repro.obs.trace.Trace` or propagated
                context dict (``{"trace_id", "parent_span_id"}``, the shape
                that rides in resident-worker search params); when set, the
                pipeline records per-stage spans and the result carries the
                finished trace in ``extra["trace"]``.  ``None`` (the
                default) keeps the bare search span-free.

        Returns:
            A :class:`JunoSearchResult`.  ``extra["stage_seconds"]`` and
            ``extra["stage_work"]`` carry the per-stage breakdowns recorded
            by the pipeline.
        """
        from repro.obs.trace import Trace
        from repro.pipeline.context import QueryContext

        self._require_trained()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(f"queries must have dimension {self.dim}")
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite")
        if k <= 0:
            raise ValueError("k must be positive")
        mode = QualityMode(quality_mode) if quality_mode is not None else self.config.quality_mode
        scale = float(threshold_scale) if threshold_scale is not None else self.config.threshold_scale
        if not scale > 0:  # NaN too
            raise ValueError("threshold_scale must be positive")

        ctx = QueryContext(
            index=self,
            queries=queries,
            k=k,
            nprobs=nprobs,
            quality_mode=mode,
            threshold_scale=scale,
            metric=self.metric,
            work=SearchWork(num_queries=queries.shape[0], lut_pairwise_dims=2.0),
            trace=Trace.ensure(trace) if trace is not None else None,
        )
        active = pipeline if pipeline is not None else self.default_pipeline()
        active.run(ctx)
        return ctx.to_result()

    # ------------------------------------------------------------ internals
    def _ray_origins(
        self, queries: np.ndarray, selected: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-(query, cluster) ray origins and (for MIPS) the IP(q, c) constants."""
        num_queries, nprobs = selected.shape
        num_subspaces = self.config.num_subspaces
        if self.metric is Metric.L2:
            centroids = self.ivf.centroids[selected]  # (Q, nprobs, D)
            residual = queries[:, None, :] - centroids
            origins = residual.reshape(num_queries * nprobs, num_subspaces, 2)
            return origins, None
        # MIPS: rays originate at the raw query projections (identical for
        # every probed cluster); the per-cluster constant IP(q, c) is added to
        # the accumulated scores afterwards.
        origins = np.repeat(
            queries.reshape(num_queries, 1, num_subspaces, 2), nprobs, axis=1
        ).reshape(num_queries * nprobs, num_subspaces, 2)
        query_cluster_ip = np.einsum("qd,qpd->qp", queries, self.ivf.centroids[selected])
        return origins, query_cluster_ip

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise RuntimeError("JunoIndex must be trained before searching")
