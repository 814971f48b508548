"""Unit tests for the subspace inverted index, selective LUT and hit-count scoring."""

import warnings

import numpy as np
import pytest
from rt_reference import (
    assert_hits_are_accepted,
    assert_lut_matches_reference,
    assert_lut_within_precision,
    assert_miss_fill,
    dense_rows,
    hit_mask_rows,
    inner_mask_rows,
    inner_product_from_hit_time,
    l2_distance_from_hit_time,
    layer_spheres,
    make_scene,
    per_ray_hits,
    ray_slice,
    reference_construct,
    reference_trace_layer,
)
from score_reference import HitCountScorer

from repro.core import selective_lut
from repro.core.config import QualityMode
from repro.core.hit_count import hit_count_correlation
from repro.core.selective_lut import SelectiveLUTConstructor
from repro.core.subspace_index import SubspaceInvertedIndex
from repro.gpu.work import SearchWork
from repro.metrics.distances import Metric
from repro.pipeline import CoarseFilterStage, QueryPipeline, RTSelectStage, ThresholdStage
from repro.pipeline.context import QueryContext
from repro.rt.tracer import RayTracer, TraversalStats


class TestSubspaceInvertedIndex:
    @pytest.fixture()
    def built(self, rng):
        num_points, num_subspaces, num_entries = 200, 4, 8
        codes = rng.integers(0, num_entries, size=(num_points, num_subspaces))
        posting_lists = [
            np.arange(0, 100, dtype=np.int64),
            np.arange(100, 200, dtype=np.int64),
        ]
        index = SubspaceInvertedIndex(num_entries).build(posting_lists, codes)
        return index, codes, posting_lists

    def test_cluster_accessors(self, built):
        index, _, posting_lists = built
        np.testing.assert_array_equal(index.cluster_members(1), posting_lists[1])
        assert index.num_clusters == 2

    @staticmethod
    def _assert_cells(layout, want_columns, width):
        """Each cluster's cells are an ``(S, n_c)`` C-contiguous block of one
        ``intp`` buffer, cluster after cluster: ``s * width + column``."""
        buffer = layout.cells[0].base
        assert buffer.dtype == np.intp and buffer.size == want_columns.size
        num_subspaces = want_columns.shape[0]
        for cluster, cells in enumerate(layout.cells):
            start, stop = layout.member_base[cluster : cluster + 2]
            assert cells.base is buffer and cells.flags.c_contiguous
            assert cells.dtype == np.intp and cells.shape == (num_subspaces, stop - start)
            offset = cells.ctypes.data - buffer.ctypes.data
            assert offset == buffer.itemsize * num_subspaces * start or not cells.size
            want = want_columns[:, start:stop] + width * np.arange(num_subspaces)[:, None]
            np.testing.assert_array_equal(cells, want)

    def test_flat_layout_is_cluster_major(self, built):
        index, codes, posting_lists = built
        layout = index.flat_layout()
        members = np.concatenate(posting_lists)
        np.testing.assert_array_equal(layout.cluster_sizes, [100, 100])
        np.testing.assert_array_equal(layout.member_base, [0, 100, 200])
        np.testing.assert_array_equal(layout.members, members)
        # without a scene to follow, a code is its own column of an E-wide row
        self._assert_cells(layout, codes[members].T, 8)

    def test_cells_follow_entry_slots(self, built, rng):
        """With a slot map, every code is translated through its subspace's
        row into a row ``num_slots`` wide, which the slot map needs."""
        _, codes, posting_lists = built
        entry_slots = np.stack([rng.permutation(12)[:8] for _ in range(4)])
        index = SubspaceInvertedIndex(8).build(posting_lists, codes, entry_slots, 12)
        layout = index.flat_layout()
        want = entry_slots[np.arange(4)[:, None], codes[layout.members].T]
        self._assert_cells(layout, want, 12)
        with pytest.raises(ValueError, match="num_slots"):
            SubspaceInvertedIndex(8).build(posting_lists, codes, entry_slots)

    def test_empty_cluster_is_an_empty_block(self, rng):
        codes = rng.integers(0, 8, size=(10, 3))
        posting_lists = [np.arange(4), np.zeros(0, dtype=np.int64), np.arange(4, 10)]
        layout = SubspaceInvertedIndex(8).build(posting_lists, codes).flat_layout()
        assert [cells.shape for cells in layout.cells] == [(3, 4), (3, 0), (3, 6)]
        self._assert_cells(layout, codes[layout.members].T, 8)

    def test_flat_layout_needs_build(self):
        with pytest.raises(RuntimeError, match="build"):
            SubspaceInvertedIndex(8).flat_layout()

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            SubspaceInvertedIndex(0)


def _build_constructor(rng, num_subspaces=3, num_entries=20, radius=1.0):
    entry_sets = rng.uniform(-1, 1, size=(num_subspaces, num_entries, 2))
    tracer = RayTracer(make_scene(entry_sets, radius))
    constructor = SelectiveLUTConstructor(
        tracer=tracer,
        base_radius=radius,
        origin_offsets=np.full(num_subspaces, radius),
        metric=Metric.L2,
    )
    return constructor, entry_sets


class TestSelectiveLUT:
    def test_hits_match_threshold_selection(self, rng):
        constructor, entry_sets = _build_constructor(rng)
        num_rays, num_subspaces = 12, 3
        origins = rng.uniform(-1, 1, size=(num_rays, num_subspaces, 2))
        thresholds = rng.uniform(0.2, 0.8, size=(num_rays, num_subspaces))
        t_max = 1.0 - np.sqrt(1.0 - thresholds**2)
        lut = constructor.construct(origins, t_max)
        assert lut.num_rays == num_rays
        for ray in range(num_rays):
            for s in range(num_subspaces):
                entry_ids, values = ray_slice(lut, constructor.tracer.scene, s, ray)
                dist = np.sqrt(np.sum((entry_sets[s] - origins[ray, s]) ** 2, axis=1))
                expected = set(np.flatnonzero(dist <= thresholds[ray, s] + 1e-12).tolist())
                assert set(entry_ids.tolist()) == expected
                # float32 values: within 32 ulps of the operands' scale (1 here)
                slack = 32 * np.spacing(np.float32(1.0))
                np.testing.assert_allclose(values, dist[entry_ids] ** 2, rtol=0, atol=slack)

    def test_dense_rows_and_masks(self, rng):
        constructor, entry_sets = _build_constructor(rng)
        origins = rng.uniform(-1, 1, size=(4, 3, 2))
        t_max = np.full((4, 3), 1.0 - np.sqrt(1.0 - 0.5**2))
        lut = constructor.construct(origins, t_max)
        rows = dense_rows(lut, constructor.tracer.scene, 0)
        mask = hit_mask_rows(lut, constructor.tracer.scene, 0)
        assert rows.shape == (3, lut.num_entries)
        assert (np.isnan(rows) == ~mask).all()

    def test_selected_fraction_range(self, rng):
        constructor, _ = _build_constructor(rng)
        origins = rng.uniform(-1, 1, size=(6, 3, 2))
        t_max = np.full((6, 3), 1.0 - np.sqrt(1.0 - 0.3**2))
        lut = constructor.construct(origins, t_max)
        assert 0.0 <= lut.selected_fraction() <= 1.0

    def test_inner_sphere_flags(self, rng):
        entries = rng.uniform(-1, 1, size=(1, 30, 2))
        constructor = SelectiveLUTConstructor(
            tracer=RayTracer(make_scene(entries, 1.0)),
            base_radius=1.0,
            origin_offsets=np.array([1.0]),
            metric=Metric.L2,
            inner_sphere_ratio=0.5,
        )
        origins = rng.uniform(-1, 1, size=(5, 1, 2))
        thresholds = np.full((5, 1), 0.6)
        t_max = 1.0 - np.sqrt(1.0 - thresholds**2)
        lut = constructor.construct(origins, t_max, thresholds=thresholds)
        inner = inner_mask_rows(lut, constructor.tracer.scene, 0)
        entry_ids, values = ray_slice(lut, constructor.tracer.scene, 0, 0)
        for entry_id, value in zip(entry_ids, values):
            assert inner[0, entry_id] == (np.sqrt(value) <= 0.3 + 1e-12)

    def test_inner_sphere_requires_thresholds(self, rng):
        constructor, _ = _build_constructor(rng)
        constructor.inner_sphere_ratio = 0.5
        origins = rng.uniform(-1, 1, size=(2, 3, 2))
        with pytest.raises(ValueError):
            constructor.construct(origins, np.full((2, 3), 0.2))

    def test_shape_validation(self, rng):
        constructor, _ = _build_constructor(rng)
        with pytest.raises(ValueError):
            constructor.construct(rng.uniform(size=(2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            constructor.construct(rng.uniform(size=(2, 3, 2)), np.zeros((2, 2)))

    def test_inner_product_values(self, rng):
        """Values written from the sphere test's d^2 must equal true subspace
        inner products."""
        base_radius = 3.0
        entries = rng.standard_normal((25, 2))
        from repro.core.inner_product import adjusted_radii_for_inner_product

        radii = adjusted_radii_for_inner_product(entries, base_radius)
        offset = float(radii.max()) + 0.05
        constructor = SelectiveLUTConstructor(
            tracer=RayTracer(make_scene(entries[None], radii)),
            base_radius=base_radius,
            origin_offsets=np.array([offset]),
            metric=Metric.INNER_PRODUCT,
        )
        origins = rng.standard_normal((6, 1, 2))
        t_max = np.full((6, 1), offset)  # accept every reachable hit
        lut = constructor.construct(origins, t_max)
        for ray in range(6):
            entry_ids, values = ray_slice(lut, constructor.tracer.scene, 0, ray)
            expected = entries[entry_ids] @ origins[ray, 0]
            # float32 values: within 32 ulps of the operands' scale, offset^2 here
            slack = 32 * np.spacing(np.float32(offset**2))
            np.testing.assert_allclose(values, expected, rtol=0, atol=slack)


# rays -> (queries, nprobs) of the batch that casts them
RAY_SHAPES = {0: (0, 4), 1: (1, 1), 8: (2, 4), 256: (32, 8)}


def _rt_select_ctx(index, dataset, num_rays, mode):
    """A real batch of ``num_rays`` rays, run up to the threshold stage."""
    num_queries, nprobs = RAY_SHAPES[num_rays]
    rows = np.random.default_rng(99).integers(0, dataset.num_points, size=num_queries)
    ctx = QueryContext(
        index=index,
        queries=dataset.points[rows].astype(np.float64) + 0.1,
        k=5,
        nprobs=nprobs,
        quality_mode=QualityMode(mode),
        threshold_scale=1.0,
        metric=index.metric,
        work=SearchWork(num_queries=num_queries),
    )
    QueryPipeline((CoarseFilterStage(), ThresholdStage()), instrument=False).run(ctx)
    assert ctx.origins.shape[0] == num_rays
    return ctx


def _rt_select_constructor(ctx):
    """The constructor ``RTSelectStage`` builds for ``ctx``."""
    index = ctx.index
    return SelectiveLUTConstructor(
        tracer=index.tracer,
        base_radius=index.sphere_radius,
        origin_offsets=index.origin_offsets,
        metric=index.metric,
        inner_sphere_ratio=(
            index.config.inner_sphere_ratio if ctx.quality_mode.uses_inner_sphere else None
        ),
    )


def _rt_select_inputs(index, dataset, num_rays, mode):
    """Constructor and ``(origins, t_max, thresholds)`` of a real batch."""
    ctx = _rt_select_ctx(index, dataset, num_rays, mode)
    return _rt_select_constructor(ctx), ctx.origins, ctx.t_max, ctx.thresholds


def _reference_lut(constructor, origins, t_max, thresholds, dtype=np.float32):
    return reference_construct(
        constructor.tracer.scene,
        constructor.base_radius,
        constructor.origin_offsets,
        constructor.metric,
        constructor.inner_sphere_ratio,
        origins,
        t_max,
        thresholds,
        dtype,
    )


def _assert_lut_within_precision(lut, constructor, origins, t_max, thresholds):
    """``lut`` against the float64 reference, which it returns."""
    exact = _reference_lut(constructor, origins, t_max, thresholds, np.float64)
    scene, offsets = constructor.tracer.scene, constructor.origin_offsets
    assert_lut_within_precision(lut, exact, scene, origins, t_max, thresholds, offsets)
    return exact


class TestStackedConstruct:
    """The block-of-subspaces constructor against its two references."""

    @pytest.mark.parametrize("num_rays", sorted(RAY_SHAPES))
    @pytest.mark.parametrize("mode", ["juno-h", "juno-m", "juno-l"])
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_matches_references(self, request, metric, mode, num_rays):
        index = request.getfixturevalue(f"juno_{metric}")
        dataset = request.getfixturevalue(f"{metric}_dataset")
        constructor, origins, t_max, thresholds = _rt_select_inputs(
            index, dataset, num_rays, mode
        )
        lut = constructor.construct(origins, t_max, thresholds=thresholds)
        # the layer-at-a-time oracle at float32: every ray's hit set, the
        # values and inner flags byte for byte, all five counters; at
        # float64, the precision oracle
        expected = _reference_lut(constructor, origins, t_max, thresholds)
        assert_lut_matches_reference(lut, constructor.tracer.scene, expected)
        assert_hits_are_accepted(lut, constructor, origins, t_max)
        assert_miss_fill(lut)
        reference = _assert_lut_within_precision(lut, constructor, origins, t_max, thresholds)
        assert (lut.inner is not None) == (mode == "juno-m")
        # the dense grid: one column per leaf slot of the scene, every entry
        # in exactly one of them
        num_subspaces, num_entries = index.config.num_subspaces, index.config.num_entries
        assert lut.table.shape == (num_rays, num_subspaces, index.scene.num_slots)
        for s in range(num_subspaces):
            slots = index.scene.entry_slots[s]
            slot_entries = index.scene.leaf_primitives[s].reshape(-1)
            assert slot_entries[slots].tolist() == list(range(num_entries))

        # and the float64 reference against the exact per-ray traversal, its
        # hit times decoded as the paper's hit shader does: every ray of a
        # small batch, a few of a large one
        scene = constructor.tracer.scene
        rays = range(num_rays) if num_rays <= 8 else (0, 17, 101, 255)
        per_ray_stats = TraversalStats()
        for ray in rays:
            for s in range(lut.num_subspaces):
                offset = float(constructor.origin_offsets[s])
                exact, stats = per_ray_hits(
                    scene, s, origins[ray, s], scene.z[s] - offset, t_max[ray, s]
                )
                per_ray_stats.merge(stats)
                cut = slice(reference.offsets[s][ray], reference.offsets[s][ray + 1])
                entry_ids, values = reference.entries[s][cut], reference.values[s][cut]
                assert sorted(entry_ids.tolist()) == sorted(exact)
                t_hit = np.array([exact[e] for e in entry_ids])
                if index.metric is Metric.L2:
                    decoded = l2_distance_from_hit_time(t_hit, index.sphere_radius, offset) ** 2
                else:
                    decoded = inner_product_from_hit_time(
                        t_hit, np.sum(origins[ray, s] ** 2), index.sphere_radius, offset
                    )
                np.testing.assert_allclose(values, decoded, atol=1e-9)
        if num_rays <= 8:
            assert reference.stats == per_ray_stats

    @pytest.mark.parametrize("num_rays", [1, 8, 256])
    @pytest.mark.parametrize("mode", ["juno-h", "juno-m", "juno-l"])
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_stage_fills_misses_for_its_mode(self, request, metric, mode, num_rays):
        """``RTSelectStage``'s table: the oracle's values where a ray selected
        an entry, the float32 miss penalties where it did not (NaN for
        JUNO-M), beside the tracer's accepted grid as its hits."""
        index = request.getfixturevalue(f"juno_{metric}")
        ctx = _rt_select_ctx(index, request.getfixturevalue(f"{metric}_dataset"), num_rays, mode)
        RTSelectStage().run(ctx)
        factor = None if mode == "juno-m" else index.config.miss_penalty_factor
        assert_miss_fill(ctx.lut, ctx.thresholds, factor)
        constructor = _rt_select_constructor(ctx)
        assert_hits_are_accepted(ctx.lut, constructor, ctx.origins, ctx.t_max)
        reference = _reference_lut(constructor, ctx.origins, ctx.t_max, ctx.thresholds)
        assert_lut_matches_reference(ctx.lut, constructor.tracer.scene, reference)

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_block_size_never_changes_the_lut(self, request, monkeypatch, metric):
        index = request.getfixturevalue(f"juno_{metric}")
        dataset = request.getfixturevalue(f"{metric}_dataset")
        constructor, origins, t_max, thresholds = _rt_select_inputs(index, dataset, 8, "juno-m")
        expected = _reference_lut(constructor, origins, t_max, thresholds)
        num_rays, num_subspaces = origins.shape[:2]
        calls = []
        traced = constructor.tracer.trace_vertical_batch

        def counting(layers, origins_xy, *args, **kwargs):
            assert np.array_equal(layers, np.arange(num_subspaces))  # every layer, always
            calls.append(len(origins_xy))
            return traced(layers, origins_xy, *args, **kwargs)

        monkeypatch.setattr(constructor.tracer, "trace_vertical_batch", counting)
        ray_cells = num_subspaces * constructor.tracer.scene.num_slots
        for rays_per_block in (1, 3, num_rays):
            calls.clear()
            monkeypatch.setattr(selective_lut, "_TRACE_BLOCK_CELLS", ray_cells * rays_per_block)
            lut = constructor.construct(origins, t_max, thresholds=thresholds)
            assert max(calls) == rays_per_block and sum(calls) == num_rays
            assert_lut_matches_reference(lut, constructor.tracer.scene, expected)


# Scenes the trained fixtures never produce, as (entries per layer, spread of
# the centres, sphere radius, origin offset): a BVH that really prunes (radius
# << spread, so most leaves fail their slab test and the leaf mask and the
# derived counters run where a ray does not visit every node); spheres that
# contain their ray origin (offset < r: negative hit times); an entry count
# that is not a multiple of the leaf size (padding lanes in the leaf grid).
GENERIC_SCENES = {
    "pruning": (64, 10.0, 0.5, 1.0),
    "origin_inside": (20, 1.0, 1.2, 0.7),
    "ragged_leaves": (37, 1.0, 1.0, 1.0),
}


def _generic_case(rng, scene_name, metric, mode, num_rays):
    """Constructor and inputs on a hand-made 3-layer scene.

    The values are arithmetic on ``d²`` and the radii, pinned byte for byte
    against the same arithmetic in the oracle, so the radii need not be the
    MIPS ones for the inner-product cases to mean something.
    """
    num_entries, spread, radius, offset = GENERIC_SCENES[scene_name]
    centres = rng.uniform(-spread, spread, size=(3, num_entries, 2))
    radii = rng.uniform(0.8 * radius, 1.2 * radius, size=(3, num_entries))
    constructor = SelectiveLUTConstructor(
        tracer=RayTracer(make_scene(centres, radii)),
        base_radius=radius,
        origin_offsets=np.full(3, offset),
        metric=metric,
        inner_sphere_ratio=0.5 if QualityMode(mode).uses_inner_sphere else None,
    )
    origins = rng.uniform(-1.25 * spread, 1.25 * spread, size=(num_rays, 3, 2))
    t_max = rng.uniform(0.3 * offset, offset + 0.2, size=(num_rays, 3))
    thresholds = rng.uniform(0.2, 0.9, size=(num_rays, 3))
    return constructor, origins, t_max, thresholds


def _construct_strictly(constructor, origins, t_max, thresholds):
    """``construct`` with warnings as errors: the tracer's NaN-producing
    ``sqrt`` sits under an ``errstate`` and nothing else may warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return constructor.construct(origins, t_max, thresholds=thresholds)


class TestPassByPass:
    """The identities the in-place tracer and table write rest on, where the
    trained fixtures (every ray visits every node, offsets clear every
    sphere) cannot tell them from their absence."""

    @pytest.mark.parametrize("mode", ["juno-h", "juno-m", "juno-l"])
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    @pytest.mark.parametrize("scene_name", sorted(GENERIC_SCENES))
    def test_generic_scenes_match_the_reference(self, rng, scene_name, metric, mode):
        constructor, origins, t_max, thresholds = _generic_case(rng, scene_name, metric, mode, 24)
        lut = _construct_strictly(constructor, origins, t_max, thresholds)
        expected = _reference_lut(constructor, origins, t_max, thresholds)
        assert_lut_matches_reference(lut, constructor.tracer.scene, expected)
        _assert_lut_within_precision(lut, constructor, origins, t_max, thresholds)
        stack = constructor.tracer.scene
        num_entries, _, _, offset = GENERIC_SCENES[scene_name]
        if scene_name == "pruning":
            # reach != all: the slab mask did the traversal's work
            assert lut.stats.node_visits < 0.5 * lut.stats.rays * stack.parent.shape[0]
            assert 0 < lut.stats.hits < lut.stats.prim_tests < 0.5 * lut.stats.rays * num_entries
        elif scene_name == "origin_inside":
            # some sphere swallowed a ray origin, so ``t_hit >= 0`` had work
            centres = np.stack([stack.leaf_centres_x, stack.leaf_centres_y], axis=-1)
            gap_sq = ((origins.transpose(1, 0, 2)[:, :, None, None] - centres[:, None]) ** 2).sum(-1)
            assert (stack.leaf_radii_sq[:, None] - gap_sq > offset**2).any()
        else:
            # the padding lanes' columns exist and are never hit
            padding = stack.leaf_radii_sq.reshape(3, -1) < 0
            assert padding.any() and lut.table.shape[2] > num_entries
            assert not lut.hits.transpose(1, 2, 0)[padding].any()
        assert_hits_are_accepted(lut, constructor, origins, t_max)
        assert_miss_fill(lut)

    def test_float32_origin_plane_boundary(self):
        """JUNO puts the origin plane at ``offset = r_max``, and float32 decides
        which side of it a layer lands on.  Layer 0's offset is one float32 ulp
        below ``sqrt(fl32(r^2))``, layer 1's on it, layer 2's one ulp above.
        A ray through a sphere's centre then hits at ``t_hit`` = -1, 0 and +1
        ulp: only the ``t_hit >= 0`` compare rejects the first."""
        radius = 0.7
        rim = np.sqrt(np.float32(radius**2))
        below, above = np.nextafter(rim, np.float32(0)), np.nextafter(rim, np.float32(1))
        offsets = np.array([below, rim, above])
        assert offsets.dtype == np.float32 and offsets[0] < rim < offsets[2]
        centres = np.array([[0.25, -0.5], [1.0, 0.75], [-0.5, 0.125], [1.5, -1.0]])
        scene = make_scene(np.stack([centres] * 3), radius, leaf_size=2)
        origin_z = scene.z - offsets.astype(np.float64)
        origins = np.repeat(centres[:, None, :], 3, axis=1)  # ray i starts at centre i
        t_max = np.ones((4, 3))  # beyond every offset: t_max rejects nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits, _ = RayTracer(scene).trace_vertical_batch(np.arange(3), origins, t_max, origin_z)
        own = [hits.accepted[np.arange(4), s, scene.entry_slots[s]] for s in range(3)]
        assert np.array(own).tolist() == [[False] * 4, [True] * 4, [True] * 4]
        # each ray sits on its sphere's centre: d^2 = 0, so t_hit = offset - rim
        own_dist_sq = [hits.dist_sq[np.arange(4), s, scene.entry_slots[s]] for s in range(3)]
        assert (np.array(own_dist_sq) == 0).all()
        for s in range(3):
            rays, entries, dist_sq, _ = reference_trace_layer(
                scene, s, origins[:, s], t_max[:, s], origin_z[s], dtype=np.float32
            )
            assert sorted(zip(rays.tolist(), entries.tolist())) == [(i, i) for i in range(4) if s]
            got = hits.dist_sq[rays, s, scene.entry_slots[s][entries]]
            assert got.tobytes() == dist_sq.tobytes()

    @pytest.mark.parametrize("metric", [Metric.L2, Metric.INNER_PRODUCT])
    def test_slab_memory_order_never_changes_the_lut(self, rng, metric):
        """256 rays in one block lay the slab mask out node-major, the same
        rays in blocks of 8 ray-major: byte-equal tables, equal counters."""
        constructor, origins, t_max, thresholds = _generic_case(
            rng, "pruning", metric, "juno-m", 256
        )
        whole = _construct_strictly(constructor, origins, t_max, thresholds)
        expected = _reference_lut(constructor, origins, t_max, thresholds)
        assert_lut_matches_reference(whole, constructor.tracer.scene, expected)
        parts = [
            _construct_strictly(constructor, origins[r : r + 8], t_max[r : r + 8], thresholds[r : r + 8])
            for r in range(0, 256, 8)
        ]
        for name in ("table", "hits", "inner"):
            joined = np.concatenate([getattr(p, name) for p in parts])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name
        stats = TraversalStats()
        for part in parts:
            stats.merge(part.stats)
        assert stats == whole.stats


def _selected_values(index, points, nprobs, scale):
    """A 32-query JUNO-H batch's selected LUT values, with their float64 truth:
    ``|q - e|^2`` (L2) or ``q . e`` (inner product) of the ray's origin and
    the entry's centre."""
    rng = np.random.default_rng(2026)
    queries = points[rng.integers(0, points.shape[0], size=32)]
    ctx = QueryContext(
        index=index,
        queries=queries + 0.2 * rng.standard_normal(queries.shape),
        k=10,
        nprobs=nprobs,
        quality_mode=QualityMode.HIGH,
        threshold_scale=scale,
        metric=index.metric,
        work=SearchWork(num_queries=32),
    )
    stages = (CoarseFilterStage(), ThresholdStage(), RTSelectStage())
    QueryPipeline(stages, instrument=False).run(ctx)
    got, want = [], []
    for s in range(ctx.lut.num_subspaces):
        columns = index.scene.entry_slots[s]
        hit = ctx.lut.hits[:, s, columns]
        origins, centres = ctx.origins[:, s], layer_spheres(index.scene, s)[0]
        if index.metric is Metric.L2:
            truth = ((origins[:, None] - centres[None]) ** 2).sum(axis=2)
        else:
            truth = origins @ centres.T
        got.append(ctx.lut.table[:, s, columns][hit])
        want.append(truth[hit])
    return np.concatenate(got).astype(np.float64), np.concatenate(want)


class TestValuePrecision:
    """The LUT's values are the sphere test's float32 ``d²``, not a decode of
    the float32 hit time: on the ledger-shaped fixture the hit-time decode's
    p99.9 relative error was 4.4e-4 (scale 1.0) and 5.1e-3 (scale 0.25)."""

    @pytest.mark.parametrize("scale", [1.0, 0.25])
    def test_l2_values_are_within_float32_of_d2(self, wide_index, wide_corpus, scale):
        got, want = _selected_values(wide_index, wide_corpus, 8, scale)
        assert got.size > 10_000 and (want > 0).all()
        assert np.quantile(np.abs(got - want) / want, 0.999) <= 1e-5

    def test_inner_products_are_no_worse_than_the_decode(self, juno_ip, ip_dataset):
        """``(|q|² − R² + r² − d²) / 2``: the hit-time decode's largest absolute
        error on this batch was 9.22e-6."""
        got, want = _selected_values(juno_ip, ip_dataset.points, 4, 1.0)
        assert got.size > 1000
        assert np.abs(got - want).max() <= 9.22e-6


class TestHitCountScorer:
    def test_plain_hit_count(self):
        hit_mask = np.zeros((3, 4), dtype=bool)
        hit_mask[0, 1] = True
        hit_mask[1, 2] = True
        codes = np.array([[1, 2, 0], [0, 0, 0], [1, 2, 3]])
        scores, matched = HitCountScorer().score_members(hit_mask, None, codes)
        np.testing.assert_array_equal(scores, [2.0, 0.0, 2.0])
        np.testing.assert_array_equal(matched, [2, 0, 2])

    def test_reward_penalty(self):
        hit_mask = np.ones((2, 3), dtype=bool)
        inner_mask = np.zeros((2, 3), dtype=bool)
        inner_mask[0, 0] = True
        codes = np.array([[0, 0], [1, 1]])
        scorer = HitCountScorer(use_inner_sphere=True, miss_penalty=1.0)
        scores, matched = scorer.score_members(hit_mask, inner_mask, codes)
        # First member: one inner hit, no misses -> +1; second: no inner hits -> 0.
        np.testing.assert_array_equal(scores, [1.0, 0.0])
        np.testing.assert_array_equal(matched, [2, 2])

    def test_misses_penalised(self):
        hit_mask = np.zeros((2, 3), dtype=bool)
        codes = np.array([[0, 0]])
        scorer = HitCountScorer(use_inner_sphere=True, miss_penalty=2.0)
        scores, matched = scorer.score_members(hit_mask, np.zeros((2, 3), dtype=bool), codes)
        assert scores[0] == pytest.approx(-4.0)
        assert matched[0] == 0

    def test_inner_sphere_requires_mask(self):
        scorer = HitCountScorer(use_inner_sphere=True)
        with pytest.raises(ValueError):
            scorer.score_members(np.zeros((1, 2), dtype=bool), None, np.array([[0]]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            HitCountScorer().score_members(np.zeros((2, 3), dtype=bool), None, np.array([[0, 1, 2]]))

    def test_correlation_helper(self, rng):
        distances = rng.uniform(0, 1, size=100)
        good_scores = 10 - 10 * distances + 0.1 * rng.standard_normal(100)
        noise_scores = rng.standard_normal(100)
        assert hit_count_correlation(good_scores, distances) > 0.9
        assert abs(hit_count_correlation(noise_scores, distances)) < 0.5
        assert hit_count_correlation(np.ones(10), np.ones(10)) == 0.0
