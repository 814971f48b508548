"""Unit tests for the scene's array build, the reference BVH and the tracer.

The central invariants: the one-pass array build writes the recursive
reference build's arrays byte for byte, with every box nested in its
parent's; and the per-ray BVH traversal, the vectorised batch tracer and a
brute-force sphere test agree on the hit sets and the squared distances
``d²`` -- the float32 batch tracer byte for byte with the float32 reference,
and with the float64 paths within the precision oracle's slack
(``rt_reference.py``).
"""

import warnings
from dataclasses import dataclass, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rt_reference import (
    BVH,
    ULPS,
    Ray,
    Sphere,
    assert_layer_within_precision,
    bvh_traverse,
    layer_spheres,
    make_scene,
    per_ray_hits,
    reference_bvh,
    reference_scene,
    reference_trace_layer,
    sqrt_form_accepts,
    trace,
)
from repro.core import selective_lut
from repro.core.inner_product import adjusted_radii_for_inner_product
from repro.core.selective_lut import SelectiveLUTConstructor
from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats, _accept, _least_accepted


def _random_layer_scene(rng, num_entries=40, radius=1.0):
    centres = rng.uniform(-2, 2, size=(1, num_entries, 2))
    return make_scene(centres, radius), centres[0]


class TestBVH:
    """The reference tree the per-ray oracles walk."""

    def test_traverse_matches_bruteforce(self, rng):
        centres = rng.uniform(-1, 1, size=(50, 2))
        spheres = [Sphere(centre=[x, y, 1.0], radius=0.4) for x, y in centres]
        bvh = BVH(spheres, leaf_size=3)
        for _ in range(20):
            origin = np.array([*rng.uniform(-1, 1, size=2), 0.0])
            hits = {idx for idx, _ in bvh_traverse(bvh, origin, [0, 0, 1])}
            dist = np.sqrt(np.sum((centres - origin[:2]) ** 2, axis=1))
            expected = set(np.flatnonzero(dist <= 0.4).tolist())
            assert hits == expected

    def test_traverse_respects_t_max(self, rng):
        centres = rng.uniform(-1, 1, size=(30, 2))
        spheres = [Sphere(centre=[x, y, 1.0], radius=1.0) for x, y in centres]
        bvh = BVH(spheres, leaf_size=4)
        origin = np.array([0.0, 0.0, 0.0])
        threshold = 0.5
        t_max = 1.0 - np.sqrt(1.0 - threshold**2)
        hits = {idx for idx, _ in bvh_traverse(bvh, origin, [0, 0, 1], t_max=t_max)}
        dist = np.sqrt(np.sum(centres**2, axis=1))
        expected = set(np.flatnonzero(dist <= threshold + 1e-12).tolist())
        assert hits == expected

    def test_counters_populated(self, rng):
        spheres = [
            Sphere(centre=[x, y, 1.0], radius=0.2)
            for x, y in rng.uniform(-1, 1, size=(20, 2))
        ]
        bvh = BVH(spheres, leaf_size=2)
        stats = TraversalStats()
        bvh_traverse(bvh, [0, 0, 0], [0, 0, 1], stats=stats)
        assert stats.node_visits >= 1
        assert stats.aabb_tests >= 1


# Layers, spheres per layer, leaf size; radii constant or per entry; centres
# drawn from a coarse grid, so duplicated centres and tied extents are common.
@st.composite
def scene_inputs(draw):
    num_layers, num_entries = draw(st.integers(1, 6)), draw(st.integers(1, 70))
    leaf_size = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    step = draw(st.sampled_from([0.5, 0.01]))
    centres = step * rng.integers(-8, 9, size=(num_layers, num_entries, 2))
    if draw(st.booleans()):
        radii = np.full((num_layers, num_entries), draw(st.sampled_from([0.3, 1.0, 2.5])))
    else:
        radii = rng.uniform(0.05, 2.0, size=(num_layers, num_entries))
    return centres, radii, 2.0 * np.arange(num_layers) + 1.0, leaf_size


def _assert_is_reference_build(scene, centres, radii, z, leaf_size):
    """Byte for byte, dtype for dtype, every one of the thirteen arrays; every
    child box inside its parent's, which is what lets the tracer read the
    traversal off the slab mask; and the spheres read back exactly."""
    want = reference_scene(centres, radii, z, leaf_size)
    assert [f.name for f in fields(scene)] == [f.name for f in fields(want)]
    assert len(fields(scene)) == 13
    for f in fields(scene):
        got, expected = getattr(scene, f.name), getattr(want, f.name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, f.name
        assert got.tobytes() == expected.tobytes(), f.name
    up = scene.parent[1:]
    assert (scene.node_min[..., 1:] >= scene.node_min[..., up]).all()
    assert (scene.node_max[..., 1:] <= scene.node_max[..., up]).all()
    radii = np.broadcast_to(radii, centres.shape[:2])
    for layer in range(centres.shape[0]):
        got_centres, got_radii = layer_spheres(scene, layer)
        assert got_centres.tobytes() == np.asarray(centres[layer], dtype=np.float64).tobytes()
        assert got_radii.tobytes() == radii[layer].tobytes()
    # the leaf grid holds every sphere once
    assert scene.leaf_count.max() <= leaf_size and scene.leaf_count.sum() == centres.shape[1]


class TestArrayBuild:
    @given(inputs=scene_inputs())
    @settings(max_examples=60, deadline=None)
    def test_array_build_is_the_recursive_build(self, inputs):
        _assert_is_reference_build(TraversableScene.build(*inputs), *inputs)

    @pytest.mark.parametrize("radii", ["constant", "mips", "tied_centres"])
    @pytest.mark.parametrize(
        "num_entries, leaf_size", [(1, 4), (4, 4), (7, 4), (100, 3), (128, 4), (256, 8)]
    )
    def test_codebook_shapes_build_as_the_reference(self, rng, num_entries, leaf_size, radii):
        """Codebook-sized layers, past the property's 70 spheres: L2's one
        radius, the MIPS mapping's enlarged per-entry radii, and centres
        that tie on every axis."""
        centres = rng.standard_normal((3, num_entries, 2))
        if radii == "tied_centres":
            centres = np.round(2 * centres) / 2
            centres[:, : num_entries // 2] = centres[:, :1]
        layer_radii = np.full((3, num_entries), 0.7)
        if radii == "mips":
            layer_radii = adjusted_radii_for_inner_product(centres, 1.5)
        inputs = (centres, layer_radii, 2.0 * np.arange(3) + 1.0, leaf_size)
        _assert_is_reference_build(TraversableScene.build(*inputs), *inputs)

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_trained_scene_is_the_reference_build(self, request, metric):
        """``rebuild_scene`` places codebook entry ``e`` of subspace ``s`` at
        ``(x_e, y_e, 2s + 1)`` with radius ``R`` (L2) or ``sqrt(R² + |e|²)``."""
        index = request.getfixturevalue(f"juno_{metric}")
        centres = np.stack([codebook.entries for codebook in index.pq.codebooks])
        if metric == "l2":
            radii = np.full(centres.shape[:2], index.sphere_radius)
        else:
            radii = adjusted_radii_for_inner_product(centres, index.sphere_radius)
        z = 2.0 * np.arange(centres.shape[0]) + 1.0
        _assert_is_reference_build(index.scene, centres, radii, z, index.config.leaf_size)
        assert index.origin_offsets.tobytes() == radii.max(axis=1).tobytes()

    def test_one_shape_of_tree_per_scene(self, rng):
        """What stacking rests on: the median split looks only at counts."""
        scene = make_scene(rng.uniform(-2, 2, size=(3, 37, 2)), rng.uniform(0.8, 1.6, (3, 37)))
        flats = [reference_bvh(scene, layer).flatten() for layer in range(3)]
        for flat in flats[1:]:
            for name in ("left", "right", "leaf_start", "leaf_count"):
                assert (getattr(flat, name) == getattr(flats[0], name)).all()
        assert scene.node_min.shape == (3, 3, flats[0].num_nodes)

    def test_tree_size_and_depth(self, rng):
        scene = make_scene(rng.uniform(-1, 1, size=(1, 33, 2)), 0.3)
        assert scene.parent.size >= 2 * (33 // 4) - 1
        assert len(scene.level_offsets) - 1 <= 12
        filled = np.arange(scene.leaf_primitives.shape[2]) < scene.leaf_count[:, None]
        assert sorted(scene.leaf_primitives[0][filled].tolist()) == list(range(33))

    @pytest.mark.parametrize("corner, push", [("node_min", -0.25), ("node_max", 0.25)])
    def test_boxes_not_nested_in_their_parents_fail_the_build(self, rng, corner, push):
        """The tracer reads the traversal off the slab mask, which is only
        right for nested boxes: a padded or refitted child must not get as
        far as reporting wrong visit counts."""
        scene = make_scene(rng.uniform(-2, 2, size=(3, 9, 2)), 1.0)
        for axis in range(3):
            bounds = getattr(scene, corner).copy()
            bounds[1, axis, 2] = bounds[1, axis, 0] + push  # sticks out of the root
            with pytest.raises(ValueError, match=r"layer\(s\) \[1\]"):
                replace(scene, **{corner: bounds})
        replace(scene)

    def test_bad_inputs_raise(self, rng):
        centres = rng.uniform(size=(2, 3, 2))
        with pytest.raises(ValueError, match="positive"):
            make_scene(centres, 0.0)
        with pytest.raises(ValueError, match="leaf_size"):
            make_scene(centres, 1.0, leaf_size=0)
        for shape in ((2, 0, 2), (2, 3, 3), (3, 2)):
            with pytest.raises(ValueError, match="shape"):
                make_scene(np.zeros(shape), 1.0)


class TestScene:
    def test_layer_metadata(self, rng):
        centres = rng.uniform(-2, 2, size=(4, 10, 2))
        scene = make_scene(centres, 0.5)
        assert scene.z.tolist() == [1.0, 3.0, 5.0, 7.0]
        assert scene.layer_ids.tolist() == [0, 1, 2, 3]
        assert scene.entry_slots.shape == (4, 10)
        assert scene.num_slots >= 10

    def test_cast_only_hits_own_layer(self):
        scene = make_scene(np.zeros((2, 1, 2)), 0.5)
        ray = Ray(origin=[0, 0, 2.0], direction=[0, 0, 1], t_max=1.0)
        hits, _ = trace(scene, ray)
        assert [(hit.layer_id, hit.entry_id) for hit in hits] == [(1, 0)]


def _hits_of_ray(scene, batch, ray, layer=0):
    """``(entry_ids, dist_sq)`` of one ray in one layer of a batch, in slot order."""
    hit = batch.accepted[ray, layer]
    return scene.leaf_primitives[layer].reshape(-1)[hit], batch.dist_sq[ray, layer, hit]


class TestTracer:
    def test_batch_matches_per_ray(self, rng):
        scene, centres = _random_layer_scene(rng, num_entries=40, radius=1.5)
        tracer = RayTracer(scene)
        origins = rng.uniform(-2, 2, size=(15, 2))
        threshold = 0.8
        t_max = 1.5 - np.sqrt(1.5**2 - threshold**2)
        origin_z = scene.z[0] - 1.5
        batch, stats = tracer.trace_vertical_batch(0, origins, t_max, origin_z=origin_z)
        for ray_id, origin in enumerate(origins):
            exact, _ = per_ray_hits(scene, 0, origin, origin_z, t_max)
            batch_ids, batch_d2 = _hits_of_ray(scene, batch, ray_id)
            assert sorted(batch_ids.tolist()) == sorted(exact)
            # float32 d^2 against the float64 walk's t_hit decoded: within 32
            # ulps of the operands' scale (4 here)
            want = [1.5**2 - (1.5 - exact[e]) ** 2 for e in batch_ids.tolist()]
            slack = ULPS * np.spacing(np.float32(4.0))
            np.testing.assert_allclose(batch_d2, want, rtol=0, atol=slack)

    def test_batch_matches_bruteforce_thresholds(self, rng):
        scene, centres = _random_layer_scene(rng, num_entries=60, radius=1.0)
        tracer = RayTracer(scene)
        origins = rng.uniform(-1.5, 1.5, size=(25, 2))
        thresholds = rng.uniform(0.1, 0.9, size=25)
        t_max = 1.0 - np.sqrt(1.0 - thresholds**2)
        batch, _ = tracer.trace_vertical_batch(0, origins, t_max)
        for ray_id in range(25):
            dist = np.sqrt(np.sum((centres - origins[ray_id]) ** 2, axis=1))
            expected = set(np.flatnonzero(dist <= thresholds[ray_id] + 1e-12).tolist())
            got, _ = _hits_of_ray(scene, batch, ray_id)
            assert set(got.tolist()) == expected

    def test_dist_sq_is_the_squared_distance(self, rng):
        scene, centres = _random_layer_scene(rng, num_entries=30, radius=1.0)
        tracer = RayTracer(scene)
        origins = rng.uniform(-1, 1, size=(10, 2))
        batch, _ = tracer.trace_vertical_batch(0, origins, t_max=1.0)
        for ray_id in range(10):
            ids, dist_sq = _hits_of_ray(scene, batch, ray_id)
            # within 32 ulps of the operands' scale (4 here)
            true_sq = np.sum((centres[ids] - origins[ray_id]) ** 2, axis=1)
            slack = ULPS * np.spacing(np.float32(4.0))
            np.testing.assert_allclose(dist_sq, true_sq, rtol=0, atol=slack)

    def test_stats_accumulate(self, rng):
        scene, _ = _random_layer_scene(rng, num_entries=20)
        tracer = RayTracer(scene)
        tracer.trace_vertical_batch(0, rng.uniform(-1, 1, size=(5, 2)), t_max=0.5)
        first = tracer.stats.rays
        tracer.trace_vertical_batch(0, rng.uniform(-1, 1, size=(3, 2)), t_max=0.5)
        assert tracer.stats.rays == first + 3

    def test_invalid_origin_z_raises(self, rng):
        scene, _ = _random_layer_scene(rng)
        tracer = RayTracer(scene)
        with pytest.raises(ValueError):
            tracer.trace_vertical_batch(0, np.zeros((1, 2)), 0.5, origin_z=10.0)

    def test_zero_rays(self, rng):
        scene, _ = _random_layer_scene(rng)
        tracer = RayTracer(scene)
        batch, stats = tracer.trace_vertical_batch(0, np.zeros((0, 2)), 0.5)
        assert not batch.accepted.any()
        assert stats.rays == 0


@dataclass(frozen=True)
class SceneShape:
    """Layers, spheres per layer, where the spheres lie and where the rays start."""

    layers: int
    entries: int
    spread: float = 2.0
    radii: tuple = (0.8, 1.6)
    offset: float = 1.7  # origin plane to centre plane; the default clears every sphere


# JUNO's scene (20 spheres leave leaves of 2 and 3, so the leaf grid has
# padding lanes), one whose leaves are ragged at several depths (33 spheres),
# one sphere per layer (the root is the only node and the only leaf), a scene
# whose BVH really prunes (radius << spread: most rays fail most boxes, so
# counters and leaf mask are exercised where a ray does not visit every
# node), and one whose spheres contain their ray origins (offset < r:
# negative hit times, which only the vectorised tracers agree to reject --
# the per-ray traversal takes the far root instead).
SCENE_SHAPES = {
    "equal": SceneShape(4, 20),
    "ragged": SceneShape(3, 33),
    "single_sphere": SceneShape(3, 1),
    "pruning": SceneShape(3, 64, spread=10.0, radii=(0.3, 0.6), offset=1.0),
    "origin_inside": SceneShape(2, 20, offset=0.9),
}
PER_RAY_SHAPES = sorted(set(SCENE_SHAPES) - {"origin_inside"})


def _layered_scene(rng, shape):
    size = (shape.layers, shape.entries)
    centres = rng.uniform(-shape.spread, shape.spread, size=(*size, 2))
    return make_scene(centres, rng.uniform(*shape.radii, size=size))


def _block_inputs(rng, scene, num_rays, shape=SceneShape(0, 0)):
    num_layers = scene.z.shape[0]
    reach = 1.25 * shape.spread
    origins = rng.uniform(-reach, reach, size=(num_rays, num_layers, 2))
    t_max = rng.uniform(0.3, shape.offset + 0.2, size=(num_rays, num_layers))
    return origins, t_max, scene.z - shape.offset


def _entry_grid(scene, batch, layer):
    """One layer's ``(R, E)`` ``d²`` in entry order, NaN = miss."""
    columns = scene.entry_slots[layer]
    hit, dist_sq = batch.accepted[:, layer, columns], batch.dist_sq[:, layer, columns]
    return np.where(hit, dist_sq, np.nan)


def _trace_block(scene, origins, t_max, origin_z):
    """Trace the whole scene as one block; no ``RuntimeWarning`` may escape."""
    tracer = RayTracer(scene)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch, stats = tracer.trace_vertical_batch(
            np.arange(scene.z.shape[0]), origins, t_max, origin_z
        )
    return tracer, batch, stats


class TestStackedTracer:
    @pytest.mark.parametrize("num_rays", [0, 1, 8])
    @pytest.mark.parametrize("shape", PER_RAY_SHAPES)
    def test_block_matches_per_ray_trace(self, rng, shape, num_rays):
        scene = _layered_scene(rng, SCENE_SHAPES[shape])
        origins, t_max, origin_z = _block_inputs(rng, scene, num_rays, SCENE_SHAPES[shape])
        tracer, batch, stats = _trace_block(scene, origins, t_max, origin_z)
        expected = TraversalStats()
        flipped = 0
        for layer in range(scene.z.shape[0]):
            got = _entry_grid(scene, batch, layer)
            want = np.full(got.shape, np.nan)
            centres_xy, radii = layer_spheres(scene, layer)
            radii_sq, offset = radii**2, scene.z[layer] - origin_z[layer]
            for ray in range(num_rays):
                exact, ray_stats = per_ray_hits(
                    scene, layer, origins[ray, layer], origin_z[layer], t_max[ray, layer]
                )
                expected.merge(ray_stats)
                # the hit shader's decode of the walk's t_hit, in float64
                for entry, t_hit in exact.items():
                    want[ray, entry] = radii_sq[entry] - (offset - t_hit) ** 2
            # float32 sphere tests against the float64 walk: the precision oracle
            flipped += assert_layer_within_precision(
                got,
                want,
                origins[:, layer],
                centres_xy,
                radii_sq,
                offset,
                t_max[:, layer],
            ).sum()
        # the traversal is float64: node, box and sphere-test counts are exact
        for counts in (stats, tracer.stats):
            assert abs(counts.hits - expected.hits) <= flipped
            assert replace(counts, hits=0) == replace(expected, hits=0)

    @pytest.mark.parametrize("num_rays", [0, 1, 8, 256])
    @pytest.mark.parametrize("shape", sorted(SCENE_SHAPES))
    def test_block_matches_layer_at_a_time_reference(self, rng, shape, num_rays):
        """The dense grid holds, per (layer, ray), the hit set of one float32
        pass per layer with every ``d²`` byte for byte -- and nothing else;
        and the float64 pass within the precision oracle's slack."""
        scene = _layered_scene(rng, SCENE_SHAPES[shape])
        origins, t_max, origin_z = _block_inputs(rng, scene, num_rays, SCENE_SHAPES[shape])
        _, batch, stats = _trace_block(scene, origins, t_max, origin_z)
        num_layers, num_spheres = scene.entry_slots.shape
        width = scene.num_slots
        assert batch.accepted.shape == batch.dist_sq.shape == (num_rays, num_layers, width)
        assert batch.accepted.dtype == bool
        assert batch.dist_sq.dtype == np.float32
        expected = TraversalStats()
        for layer in range(num_layers):
            inputs = (scene, layer, origins[:, layer], t_max[:, layer], origin_z[layer])
            ray_index, entry_index, dist_sq, layer_stats = reference_trace_layer(
                *inputs, dtype=np.float32
            )
            expected.merge(layer_stats)
            want = np.full((num_rays, num_spheres), np.nan, dtype=np.float32)
            want[ray_index, entry_index] = dist_sq
            got = np.full((num_rays, num_spheres), np.nan, dtype=np.float32)
            rays, columns = np.nonzero(batch.accepted[:, layer])
            slot_entries = scene.leaf_primitives[layer].reshape(-1)
            got[rays, slot_entries[columns]] = batch.dist_sq[rays, layer, columns]
            assert got.tobytes() == want.tobytes()
            ray_index, entry_index, dist_sq, exact_stats = reference_trace_layer(*inputs)
            exact = np.full((num_rays, num_spheres), np.nan)
            exact[ray_index, entry_index] = dist_sq
            assert replace(exact_stats, hits=0) == replace(layer_stats, hits=0)
            centres_xy, radii = layer_spheres(scene, layer)
            assert_layer_within_precision(
                got,
                exact,
                origins[:, layer],
                centres_xy,
                radii**2,
                scene.z[layer] - origin_z[layer],
                t_max[:, layer],
            )
            # one hit per accepted cell: no sphere is accepted in two slots
            assert rays.size == ray_index.size
            # a padding lane's radius^2 of -1 makes its hit time NaN: a miss
            padding = np.flatnonzero(scene.leaf_radii_sq[layer].reshape(-1) < 0)
            assert not batch.accepted[:, layer, padding].any()
            # a sphere's slot holds that sphere
            slots = scene.entry_slots[layer]
            assert slot_entries[slots].tolist() == list(range(num_spheres))
        assert stats == expected
        assert np.count_nonzero(batch.accepted) == stats.hits
        if num_rays and shape == "equal":
            assert (scene.leaf_radii_sq < 0).any()  # the padding lanes exist
        if num_rays == 256 and shape == "pruning":
            # the counters were derived where reach != all: far fewer than the
            # 31 nodes and 64 spheres of a layer per ray, yet some hits
            assert stats.node_visits < 0.5 * stats.rays * scene.parent.shape[0]
            assert 0 < stats.hits < stats.prim_tests < 0.5 * stats.rays * 64
        if num_rays == 256 and shape == "origin_inside":
            # the ``t_hit >= 0`` branch had cells to reject: a half chord
            # longer than the offset puts the sphere's near side behind the ray
            half_chord_sq = scene.leaf_radii_sq.reshape(1, 2, -1) - batch.dist_sq
            behind = half_chord_sq > SCENE_SHAPES[shape].offset ** 2 + 1e-3
            assert behind.any() and not batch.accepted[behind].any()

    @pytest.mark.parametrize("copies", [1, 256])
    def test_sphere_a_failed_leaf_box_hides_is_not_hit(self, copies):
        """Where the leaf mask decides alone.  The ray starts half an ulp
        outside the leaf's box, so the traversal never tests the leaf's
        spheres; ``ox - cx`` rounds to exactly ``-r``, so the sphere test on
        the dense grid says "tangent hit".  Only the mask rejects it."""
        centres = np.array([[1.0, 0.0], [5.0, 0.0], [6.0, 1.0], [7.0, -1.0], [8.0, 0.5]])
        scene = make_scene(centres[None], 0.5, leaf_size=2)
        origin = np.array([0.5 - 2.0**-54, 0.0])
        assert origin[0] < 1.0 - 0.5 and (origin[0] - 1.0) ** 2 <= 0.5**2
        origins = np.tile(origin, (copies, 1, 1))
        t_max = np.full((copies, 1), 1.0)
        _, batch, stats = _trace_block(scene, origins, t_max, np.array([0.0]))
        *_, expected = reference_trace_layer(scene, 0, origins[:, 0], t_max[:, 0], 0.0)
        assert stats == expected == TraversalStats(rays=copies, node_visits=copies, aabb_tests=copies)
        assert not batch.accepted.any()
        assert per_ray_hits(scene, 0, origin, 0.0, 1.0) == ({}, TraversalStats(1, 1, 1, 0, 0))

    def test_layers_in_any_order_and_subset(self, rng):
        scene = _layered_scene(rng, SCENE_SHAPES["equal"])
        origins, t_max, origin_z = _block_inputs(rng, scene, 6)
        tracer = RayTracer(scene)
        picked = np.array([3, 0, 2])
        batch, _ = tracer.trace_vertical_batch(
            picked, origins[:, picked], t_max[:, picked], origin_z[picked]
        )
        for position, layer in enumerate(picked):
            alone, _ = tracer.trace_vertical_batch(
                layer, origins[:, layer], t_max[:, layer], origin_z[layer]
            )
            hit = alone.accepted[:, 0]
            assert batch.accepted[:, position].tobytes() == hit.tobytes()
            assert batch.dist_sq[:, position][hit].tobytes() == alone.dist_sq[:, 0][hit].tobytes()

    def test_unknown_layer_and_bad_shapes_raise(self, rng):
        scene = _layered_scene(rng, SceneShape(2, 9))
        tracer = RayTracer(scene)
        for layers in ([0, 5], [1, 2], [-1]):  # a run past the end must not be cut short
            with pytest.raises(KeyError):
                tracer.trace_vertical_batch(np.array(layers), np.zeros((1, len(layers), 2)), 1.0)
        with pytest.raises(ValueError):
            tracer.trace_vertical_batch(np.arange(2), np.zeros((1, 3, 2)), 1.0)


_F32 = np.float32


def _f32(low, high):
    low, high = float(_F32(low)), float(_F32(high))
    return st.floats(low, high, width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _accept_cases(draw):
    """``(y, offset, t_max, guard)`` for :func:`~repro.rt.tracer._accept`,
    the guard on in the layers whose largest sphere reaches the origin plane.

    Per-slot radii as MIPS enlarges them (``r²`` up to 16, past the int32
    midpoint overflow at 2) and ``-1`` padding lanes; offsets on, just above,
    well above, just below and well below ``r_max`` (below turns the guard
    on); ``d²`` of 0, exactly ``r²`` and anything between or outside; and
    ``t_max`` below 0, past the offset, NaN, equal to a hit time the grid
    achieves, a few ulps under the offset, or anywhere between.
    """
    layers, rays, slots = (draw(st.integers(1, n)) for n in (3, 4, 6))
    radii_sq = np.array(
        [draw(st.one_of(_f32(1e-3, 16.0), st.just(-1.0))) for _ in range(layers * slots)], _F32
    ).reshape(layers, 1, slots)
    radii_sq[:, 0, 0] = np.abs(radii_sq[:, 0, 0])  # one real sphere per layer
    r_max = np.sqrt(radii_sq.max(axis=(1, 2)))
    offset = np.empty(layers, _F32)
    for layer in range(layers):
        kind = draw(st.sampled_from(["on", "above", "far_above", "below", "far_below"]))
        on = r_max[layer]
        offset[layer] = {
            "on": on,
            "above": np.nextafter(on, _F32(np.inf)),
            "far_above": on * draw(_f32(1.05, 4.0)),
            "below": np.nextafter(on, _F32(0)),
            "far_below": on * draw(_f32(0.2, 0.95)),
        }[kind]
    fraction = [
        draw(st.one_of(st.just(0.0), st.just(1.0), _f32(0.0, 1.5)))
        for _ in range(layers * rays * slots)
    ]
    # d² = fraction * |r²|: a fraction of 1 gives d² = r² exactly, y = +0
    y = radii_sq - np.array(fraction, _F32).reshape(layers, rays, slots) * np.abs(radii_sq)
    with np.errstate(invalid="ignore"):
        achieved = offset[:, None, None] - np.sqrt(y)
    t_max = np.empty((layers, rays), _F32)
    for layer in range(layers):
        for ray in range(rays):
            kind = draw(st.sampled_from(["below_0", "past", "nan", "achieved", "ulps", "any"]))
            off = offset[layer]
            t_max[layer, ray] = {
                "below_0": -draw(_f32(1e-6, 5.0)),
                "past": off + draw(_f32(0.0, 3.0)),
                "nan": np.nan,
                "achieved": achieved[layer, ray, draw(st.integers(0, slots - 1))],
                "ulps": off - draw(st.integers(1, 64)) * np.spacing(off),
                "any": off * draw(_f32(0.0, 1.0)),
            }[kind]
    return y, offset, t_max, offset < r_max


class TestAcceptBound:
    """The tracer's accept test -- ``y >=`` a per-ray bound, ``y <`` a
    per-layer one under the guard -- is the ``sqrt`` form, cell for cell."""

    @staticmethod
    def _assert_matches_sqrt_form(y, offset, t_max, guard):
        guard = np.broadcast_to(guard, offset.shape)
        # the cases are drawn layer-major; the tracer's grid is ray-major
        got = np.empty(y.transpose(1, 0, 2).shape, dtype=bool)
        _accept(y.transpose(1, 0, 2), offset, t_max.T, guard, out=got)
        want = sqrt_form_accepts(y, offset[:, None, None], t_max[:, :, None], guard[:, None, None])
        assert got.transpose(1, 0, 2).tobytes() == want.tobytes()

    @given(case=_accept_cases())
    @settings(max_examples=200, deadline=None)
    def test_bound_equals_sqrt_form(self, case):
        self._assert_matches_sqrt_form(*case)

    def test_bisected_bound_past_two(self):
        """A ray whose bound lies two patterns under the guess, above 2.0:
        the window misses it, and the bisection's midpoint must not overflow."""
        offset, t_max = np.array([9.483387], _F32), np.array([[7.744867]], _F32)
        bound = _least_accepted(offset[:, None], t_max)[0, 0]
        guess = np.square(offset - t_max)[0, 0]
        assert bound > 2.0 and guess.view(np.int32) - bound.view(np.int32) == 2
        near = bound.view(np.int32) + np.arange(-3, 4, dtype=np.int32)
        y = near.view(_F32).reshape(1, 1, -1)
        self._assert_matches_sqrt_form(y, offset, t_max, guard=False)

    def test_guard_rejects_cells_behind_the_origin(self):
        """An origin plane inside the sphere: the centre ray's hit time is
        negative, which only the guard rejects."""
        radii_sq = np.array([[[4.0, 1.0]]], _F32)
        y = radii_sq - np.zeros((1, 1, 2), _F32)
        offset, t_max = np.array([1.5], _F32), np.array([[1.0]], _F32)
        self._assert_matches_sqrt_form(y, offset, t_max, guard=True)
        got = np.empty(y.shape, dtype=bool)
        _accept(y, offset, t_max, np.array([True]), out=got)
        assert got.tolist() == [[[False, True]]]


def _common_box(scene, layer):
    """``(low, high)``: the intersection of a layer's node boxes (empty if ``low > high``)."""
    return scene.node_min[layer].max(axis=1), scene.node_max[layer].min(axis=1)


def _walks_every_box(scene, layer, origin_xy, t_max, origin_z):
    """Whether one ray passes every box of the layer in the reference walk."""
    *_, stats = reference_trace_layer(scene, layer, origin_xy[None], t_max, origin_z)
    full = (scene.parent.shape[0], scene.leaf_count.sum())
    return (stats.node_visits, stats.prim_tests) == full


def _assert_block_is_reference(scene, batch, stats, origins, t_max, origin_z):
    """Every hit with its ``d²`` bytes (so no lane the leaf mask must clear)
    and all five counters are the float32 layer-at-a-time reference's."""
    expected = TraversalStats()
    for layer in range(scene.z.shape[0]):
        rays, entries, dist_sq, layer_stats = reference_trace_layer(
            scene, layer, origins[:, layer], t_max[:, layer], origin_z[layer], dtype=np.float32
        )
        expected.merge(layer_stats)
        got_rays, slots = np.nonzero(batch.accepted[:, layer])
        got = zip(
            got_rays.tolist(),
            scene.leaf_primitives[layer].reshape(-1)[slots].tolist(),
            batch.dist_sq[got_rays, layer, slots].tolist(),
        )
        assert sorted(got) == sorted(zip(rays.tolist(), entries.tolist(), dist_sq.tolist()))
    assert stats == expected


@st.composite
def _common_box_cases(draw):
    """A scene and a block of rays around its layers' common boxes.

    A layer's radii are small or large against its centres' spread: small
    ones leave leaf boxes that rarely share a point (most rays fail some
    box), large ones a common box.  An origin lies anywhere, inside the common
    box, or on one of its side faces or 1 ulp either side; a ``t_max``
    passes every box, falls short anywhere, lies on the common box's entry
    time or 1 ulp either side, or is NaN.
    """
    num_layers, num_rays = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    entries, leaf_size = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array([draw(st.sampled_from([0.15, 3.0, 3.0])) for _ in range(num_layers)])
    radii = scale[:, None] * rng.uniform(0.5, 1.0, size=(num_layers, entries))
    scene = make_scene(rng.uniform(-1, 1, size=(num_layers, entries, 2)), radii, leaf_size)
    offset = radii.max(axis=1) * np.array([draw(_f32(0.8, 1.5)) for _ in range(num_layers)])
    origin_z = scene.z - offset
    origins = rng.uniform(-4.0, 4.0, size=(num_rays, num_layers, 2))
    t_max = rng.uniform(0.0, offset + 0.5, size=(num_rays, num_layers))
    for ray, layer in np.ndindex(num_rays, num_layers):
        low, high = _common_box(scene, layer)
        axis, side = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        step = draw(st.integers(-1, 1))
        if (low[:2] <= high[:2]).all() and draw(st.integers(0, 3)):
            origins[ray, layer] = rng.uniform(low[:2], high[:2])
            if axis < 2:  # on a face, or 1 ulp either side of it
                face = (low, high)[side][axis]
                origins[ray, layer, axis] = np.nextafter(face, np.inf * step) if step else face
        entry = max(low[2] - origin_z[layer], 0.0)
        t_max[ray, layer] = draw(
            st.sampled_from(
                [
                    t_max[ray, layer],
                    offset[layer] + 1.0,
                    np.nextafter(entry, np.inf * step) if step else entry,
                    np.nan,
                ]
            )
        )
    return scene, origins, t_max, origin_z


class TestCommonBoxShortcut:
    """A ray skips the slab pass iff it lies in its layer's common box, which
    must be iff it passes every box of the layer in the reference walk --
    ``>=`` on the faces, with the entry time, and no ray where a box lies
    behind the origin plane.  Whichever way a ray goes, the block's hits,
    ``d²`` and counters are the reference's."""

    @staticmethod
    def _inside(tracer, origins, t_max, origin_z):
        """``(L, R)``: the tracer's ray-major answer, one row per layer."""
        grids = (origins[:, :, 0], origins[:, :, 1], t_max)
        return tracer._inside(np.arange(origins.shape[1]), *grids, origin_z).T

    @given(case=_common_box_cases())
    @settings(max_examples=150, deadline=None)
    def test_inside_iff_the_walk_passes_every_box(self, case):
        scene, origins, t_max, origin_z = case
        tracer, batch, stats = _trace_block(scene, origins, t_max, origin_z)
        _assert_block_is_reference(scene, batch, stats, origins, t_max, origin_z)
        # the first layer's boxes behind the origin plane (which the public
        # call rejects): no ray passes them all
        behind = origin_z.copy()
        behind[0] = scene.node_max[0, 2].max() + 0.5
        for planes in (origin_z, behind):
            got = self._inside(tracer, origins, t_max, planes)
            want = [
                [
                    _walks_every_box(scene, layer, origins[ray, layer], t_max[ray, layer], z)
                    for ray in range(origins.shape[0])
                ]
                for layer, z in enumerate(planes)
            ]
            assert got.tolist() == want
        assert not got[0].any()

    @pytest.mark.parametrize("radius", [3.0, 0.15])
    def test_all_inside_and_all_outside_blocks(self, rng, radius):
        """Radius 3 around centres in [-1, 1]: every ray near the axis is in
        every common box and the counters are arithmetic alone.  Radius 0.15:
        the leaf boxes share no point, so every ray takes the slab pass."""
        centres = rng.uniform(-1, 1, size=(3, 20, 2))
        scene = make_scene(centres, radius)
        origins = rng.uniform(-0.5, 0.5, size=(64, 3, 2))
        t_max, origin_z = np.full((64, 3), radius + 0.5), scene.z - radius - 0.2
        tracer, batch, stats = _trace_block(scene, origins, t_max, origin_z)
        _assert_block_is_reference(scene, batch, stats, origins, t_max, origin_z)
        inside = self._inside(tracer, origins, t_max, origin_z)
        if radius > 1:
            assert inside.all() and stats.hits > 0
            walks = 3 * 64
            assert replace(stats, hits=0) == TraversalStats(
                walks, walks * scene.parent.shape[0], walks * scene.parent.shape[0], walks * 20
            )
        else:
            assert not inside.any()

    def test_nan_t_max_walks_like_the_layer_reference(self, rng):
        """A NaN ``t_max`` passes no box: the per-ray walk rejects the root,
        as ``reference_trace_layer`` and the tracer do."""
        scene = make_scene(rng.uniform(-1, 1, size=(1, 20, 2)), 0.6)
        origins = rng.uniform(-0.5, 0.5, size=(4, 2))
        origin_z = scene.z[0] - 0.8
        for origin, t_max in zip(origins, (np.nan, 0.5, 1.1, np.inf)):
            hits, stats = per_ray_hits(scene, 0, origin, origin_z, t_max)
            _, entries, _, want = reference_trace_layer(scene, 0, origin[None], t_max, origin_z)
            assert (sorted(hits), stats) == (sorted(entries.tolist()), want)
        assert per_ray_hits(scene, 0, origins[0], origin_z, np.nan)[1] == TraversalStats(
            1, 1, 1, 0, 0
        )


class TestRayMajorBlocks:
    """``rt_select`` traces a batch in blocks of rays over every layer; the
    block size decides nothing.  Each ``(R, L, E')`` grid, read one layer at
    a time, is the per-layer reference's ``(R, E')`` one -- its hits and
    their ``d²`` bytes, ``NaN`` in every other cell -- and the counters are
    exact, for rays outside the common box in only some layers, guard layers
    (``offset < r_max``) and ``NaN`` ``t_max``."""

    @given(case=_common_box_cases(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_ray_blocking_is_the_layer_reference(self, case, data):
        scene, origins, t_max, origin_z = case
        (num_rays, num_layers), width = t_max.shape, scene.num_slots
        # from one ray per block to the whole batch and past it
        cells = data.draw(st.integers(1, 2 * num_rays * num_layers * width))
        constructor = SelectiveLUTConstructor(RayTracer(scene), 1.0, scene.z - origin_z)
        with mock.patch.object(selective_lut, "_TRACE_BLOCK_CELLS", cells):
            lut = constructor.construct(origins, t_max, miss=np.nan)
        assert lut.table.shape == lut.hits.shape == (num_rays, num_layers, width)
        expected = TraversalStats()
        for layer in range(num_layers):
            rays, entries, dist_sq, layer_stats = reference_trace_layer(
                scene, layer, origins[:, layer], t_max[:, layer], origin_z[layer], np.float32
            )
            expected.merge(layer_stats)
            slots = scene.entry_slots[layer][entries]
            hits = np.zeros((num_rays, width), dtype=bool)
            values = np.full((num_rays, width), np.nan, dtype=np.float32)
            hits[rays, slots], values[rays, slots] = True, dist_sq
            assert lut.hits[:, layer].tobytes() == hits.tobytes()
            assert lut.table[:, layer].tobytes() == values.tobytes()
        assert lut.stats == expected
