"""Unit tests for BVH construction/traversal, the scene and the tracer.

The central invariant: the per-ray BVH traversal, the vectorised batch
tracer and a brute-force sphere test must all agree on the hit sets and the
squared distances ``d²`` -- the float32 batch tracer byte for byte with the
float32 reference, and with the float64 paths within the precision oracle's
slack (``rt_reference.py``).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from rt_reference import (
    ULPS,
    Ray,
    assert_layer_within_precision,
    bvh_traverse,
    per_ray_hits,
    reference_trace_layer,
    trace,
)
from repro.rt.bvh import BVH
from repro.rt.primitives import Sphere
from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats


def _random_layer_scene(rng, num_entries=40, radius=1.0, layer_id=0):
    centres = rng.uniform(-2, 2, size=(num_entries, 2))
    scene = TraversableScene(leaf_size=4)
    scene.add_layer(layer_id, centres, radii=radius)
    return scene, centres


class TestBVH:
    def test_num_nodes_and_depth(self, rng):
        spheres = [
            Sphere(centre=[x, y, 1.0], radius=0.3)
            for x, y in rng.uniform(-1, 1, size=(33, 2))
        ]
        bvh = BVH(spheres, leaf_size=4)
        assert bvh.num_nodes() >= 2 * (33 // 4) - 1
        assert bvh.depth() <= 12

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

    def test_empty_bvh(self):
        bvh = BVH([])
        assert bvh_traverse(bvh, [0, 0, 0], [0, 0, 1]) == []
        assert bvh.num_nodes() == 0
        assert bvh.flatten().num_nodes == 0

    def test_flatten_structure_consistent(self, rng):
        spheres = [
            Sphere(centre=[x, y, 1.0], radius=0.3)
            for x, y in rng.uniform(-1, 1, size=(25, 2))
        ]
        bvh = BVH(spheres, leaf_size=4)
        flat = bvh.flatten()
        assert flat.num_nodes == bvh.num_nodes()
        # Every primitive appears exactly once across leaves.
        assert sorted(flat.leaf_primitives.tolist()) == list(range(25))
        # Children indices are valid and only set on interior nodes.
        interior = flat.left >= 0
        assert (flat.right[interior] >= 0).all()
        assert (flat.leaf_count[~interior] > 0).all()

    def test_invalid_leaf_size(self):
        with pytest.raises(ValueError):
            BVH([], leaf_size=0)


class TestScene:
    def test_layer_metadata(self, rng):
        scene, centres = _random_layer_scene(rng, num_entries=10)
        layer = scene.layer(0)
        assert layer.num_spheres == 10
        assert layer.z == pytest.approx(1.0)
        assert scene.num_layers == 1
        assert scene.num_spheres == 10

    def test_default_payloads(self, rng):
        scene, _ = _random_layer_scene(rng, num_entries=5, layer_id=3)
        layer = scene.layer(3)
        assert layer.spheres[2].payload == {"entry_id": 2, "subspace_id": 3}
        assert layer.z == pytest.approx(7.0)

    def test_unknown_layer_raises(self, rng):
        scene, _ = _random_layer_scene(rng)
        with pytest.raises(KeyError):
            scene.layer(9)

    def test_invalid_radius_raises(self, rng):
        scene = TraversableScene()
        with pytest.raises(ValueError):
            scene.add_layer(0, rng.uniform(size=(3, 2)), radii=0.0)

    def test_cast_only_hits_own_layer(self, rng):
        scene = TraversableScene()
        scene.add_layer(0, np.array([[0.0, 0.0]]), radii=0.5)
        scene.add_layer(1, np.array([[0.0, 0.0]]), radii=0.5)
        ray = Ray(origin=[0, 0, 2.0], direction=[0, 0, 1], t_max=1.0)
        hits, _ = trace(scene, ray)
        assert len(hits) == 1
        assert hits[0].sphere.payload["subspace_id"] == 1


def _hits_of_ray(batch, ray, layer=0):
    """``(entry_ids, dist_sq)`` of one ray in one layer of a batch, in slot order."""
    hit = batch.accepted[layer, ray]
    return batch.slot_entries[layer, hit], batch.dist_sq[layer, ray, hit]


class TestTracer:
    def test_batch_matches_per_ray(self, rng):
        scene, centres = _random_layer_scene(rng, num_entries=40, radius=1.5)
        tracer = RayTracer(scene)
        origins = rng.uniform(-2, 2, size=(15, 2))
        threshold = 0.8
        t_max = 1.5 - np.sqrt(1.5**2 - threshold**2)
        origin_z = scene.layer(0).z - 1.5
        batch, stats = tracer.trace_vertical_batch(0, origins, t_max, origin_z=origin_z)
        for ray_id, origin in enumerate(origins):
            exact, _ = per_ray_hits(scene, 0, origin, origin_z, t_max)
            batch_ids, batch_d2 = _hits_of_ray(batch, ray_id)
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
            got, _ = _hits_of_ray(batch, ray_id)
            assert set(got.tolist()) == expected

    def test_dist_sq_is_the_squared_distance(self, rng):
        scene, centres = _random_layer_scene(rng, num_entries=30, radius=1.0)
        tracer = RayTracer(scene)
        origins = rng.uniform(-1, 1, size=(10, 2))
        batch, _ = tracer.trace_vertical_batch(0, origins, t_max=1.0)
        for ray_id in range(10):
            ids, dist_sq = _hits_of_ray(batch, ray_id)
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
        assert batch.num_hits == 0
        assert stats.rays == 0


@dataclass(frozen=True)
class SceneShape:
    """Sphere counts per layer, where the spheres lie and where the rays start."""

    counts: tuple
    spread: float = 2.0
    radii: tuple = (0.8, 1.6)
    offset: float = 1.7  # origin plane to centre plane; the default clears every sphere


# JUNO's equal-E scene (one stack; 20 spheres leave leaves of 2 and 3, so the
# leaf grid has padding lanes), a generic scene whose equal-count layers are
# not adjacent (two stacks, three runs per full-scene block), a scene with an
# empty layer, a scene whose BVH really prunes (radius << spread: most rays
# fail most boxes, so counters and leaf mask are exercised where a ray does
# not visit every node), and one whose spheres contain their ray origins
# (offset < r: negative hit times, which only the vectorised tracers agree to
# reject -- the per-ray traversal takes the far root instead).
SCENE_SHAPES = {
    "equal": SceneShape((20, 20, 20, 20)),
    "unequal": SceneShape((20, 7, 20, 33)),
    "empty_layer": SceneShape((12, 0, 12)),
    "pruning": SceneShape((64, 64, 64), spread=10.0, radii=(0.3, 0.6), offset=1.0),
    "origin_inside": SceneShape((20, 20), offset=0.9),
}
PER_RAY_SHAPES = sorted(set(SCENE_SHAPES) - {"origin_inside"})


def _layered_scene(rng, shape):
    scene = TraversableScene(leaf_size=4)
    for layer_id, count in enumerate(shape.counts):
        scene.add_layer(
            layer_id,
            rng.uniform(-shape.spread, shape.spread, size=(count, 2)),
            radii=rng.uniform(*shape.radii, size=count),
        )
    return scene


def _block_inputs(rng, scene, num_rays, shape=SceneShape(())):
    num_layers = scene.num_layers
    reach = 1.25 * shape.spread
    origins = rng.uniform(-reach, reach, size=(num_rays, num_layers, 2))
    t_max = rng.uniform(0.3, shape.offset + 0.2, size=(num_rays, num_layers))
    origin_z = np.array([scene.layer(i).z for i in range(num_layers)]) - shape.offset
    return origins, t_max, origin_z


def _entry_grid(scene, batch, layer):
    """One layer's ``(R, E)`` ``d²`` in entry order, NaN = miss."""
    columns = scene.entry_slots(layer)
    return np.where(batch.accepted[layer][:, columns], batch.dist_sq[layer][:, columns], np.nan)


def _trace_block(scene, origins, t_max, origin_z):
    """Trace the whole scene as one block; no ``RuntimeWarning`` may escape."""
    tracer = RayTracer(scene)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch, stats = tracer.trace_vertical_batch(
            np.arange(scene.num_layers), origins, t_max, origin_z
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
        for layer in range(scene.num_layers):
            got = _entry_grid(scene, batch, layer)
            want = np.full(got.shape, np.nan)
            radii_sq, offset = scene.layer(layer).radii ** 2, scene.layer(layer).z - origin_z[layer]
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
                scene.layer(layer).centres_xy,
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
        stacks, slot = scene.stacked()
        width = scene.num_slots
        assert batch.accepted.shape == batch.dist_sq.shape == (scene.num_layers, num_rays, width)
        assert batch.accepted.dtype == bool and batch.slot_entries.shape == (scene.num_layers, width)
        assert batch.dist_sq.dtype == np.float32
        expected = TraversalStats()
        for layer in range(scene.num_layers):
            inputs = (scene, layer, origins[:, layer], t_max[:, layer], origin_z[layer])
            ray_index, entry_index, dist_sq, layer_stats = reference_trace_layer(
                *inputs, dtype=np.float32
            )
            expected.merge(layer_stats)
            num_spheres = scene.layer(layer).num_spheres
            want = np.full((num_rays, num_spheres), np.nan, dtype=np.float32)
            want[ray_index, entry_index] = dist_sq
            got = np.full((num_rays, num_spheres), np.nan, dtype=np.float32)
            rays, columns = np.nonzero(batch.accepted[layer])
            got[rays, batch.slot_entries[layer, columns]] = batch.dist_sq[layer, rays, columns]
            assert got.tobytes() == want.tobytes()
            ray_index, entry_index, dist_sq, exact_stats = reference_trace_layer(*inputs)
            exact = np.full((num_rays, num_spheres), np.nan)
            exact[ray_index, entry_index] = dist_sq
            assert replace(exact_stats, hits=0) == replace(layer_stats, hits=0)
            assert_layer_within_precision(
                got,
                exact,
                origins[:, layer],
                scene.layer(layer).centres_xy,
                scene.layer(layer).radii ** 2,
                scene.layer(layer).z - origin_z[layer],
                t_max[:, layer],
            )
            # one hit per accepted cell: no sphere is accepted in two slots,
            # and the tail a narrower stack leaves is never accepted
            assert rays.size == ray_index.size
            stack, position = stacks[slot[layer][0]], slot[layer][1]
            assert not batch.accepted[layer, :, stack.num_slots :].any()
            # a padding lane's radius^2 of -1 makes its hit time NaN: a miss
            padding = np.flatnonzero(stack.leaf_radii_sq[position].reshape(-1) < 0)
            assert not batch.accepted[layer][:, padding].any()
            # a sphere's slot holds that sphere
            slots = scene.entry_slots(layer)
            assert batch.slot_entries[layer, slots].tolist() == list(range(num_spheres))
        assert stats == expected
        assert batch.num_hits == stats.hits == int(batch.hits_per_ray.sum())
        if num_rays and shape == "equal":
            assert (stacks[0].leaf_radii_sq < 0).any()  # the padding lanes exist
        if num_rays == 256 and shape == "pruning":
            # the counters were derived where reach != all: far fewer than the
            # 31 nodes and 64 spheres of a layer per ray, yet some hits
            assert stats.node_visits < 0.5 * stats.rays * stacks[0].parent.shape[0]
            assert 0 < stats.hits < stats.prim_tests < 0.5 * stats.rays * 64
        if num_rays == 256 and shape == "origin_inside":
            # the ``t_hit >= 0`` branch had cells to reject: a half chord
            # longer than the offset puts the sphere's near side behind the ray
            (stack,), _ = scene.stacked()
            half_chord_sq = stack.leaf_radii_sq.reshape(2, 1, -1) - batch.dist_sq
            behind = half_chord_sq > SCENE_SHAPES[shape].offset ** 2 + 1e-3
            assert behind.any() and not batch.accepted[behind].any()

    @pytest.mark.parametrize("copies", [1, 256])
    def test_sphere_a_failed_leaf_box_hides_is_not_hit(self, copies):
        """Where the leaf mask decides alone.  The ray starts half an ulp
        outside the leaf's box, so the traversal never tests the leaf's
        spheres; ``ox - cx`` rounds to exactly ``-r``, so the sphere test on
        the dense grid says "tangent hit".  Only the mask rejects it."""
        centres = np.array([[1.0, 0.0], [5.0, 0.0], [6.0, 1.0], [7.0, -1.0], [8.0, 0.5]])
        scene = TraversableScene(leaf_size=2)
        scene.add_layer(0, centres, radii=0.5)
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
        scene = _layered_scene(rng, SCENE_SHAPES["unequal"])
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
            hit = alone.accepted[0]
            assert batch.accepted[position].tobytes() == hit.tobytes()
            assert batch.slot_entries[position].tobytes() == alone.slot_entries[0].tobytes()
            assert batch.dist_sq[position][hit].tobytes() == alone.dist_sq[0][hit].tobytes()

    def test_equal_sphere_counts_share_one_topology(self, rng):
        """What stacking rests on: the median split looks only at counts."""
        scene = _layered_scene(rng, SceneShape((37, 37, 37)))
        flats = [scene.layer(i).bvh.flatten() for i in range(3)]
        for flat in flats[1:]:
            for name in ("left", "right", "leaf_start", "leaf_count"):
                assert (getattr(flat, name) == getattr(flats[0], name)).all()
        stacks, slot = scene.stacked()
        assert len(stacks) == 1 and slot == {0: (0, 0), 1: (0, 1), 2: (0, 2)}
        assert stacks[0].node_min.shape == (3, 3, flats[0].num_nodes)

    @pytest.mark.parametrize("corner, push", [("node_min", -0.25), ("node_max", 0.25)])
    def test_boxes_not_nested_in_their_parents_fail_the_build(self, rng, corner, push):
        """The tracer reads the traversal off the slab mask, which is only
        right for nested boxes: a padded or refitted child must not get as
        far as reporting wrong visit counts."""
        scene = _layered_scene(rng, SceneShape((9, 9, 9)))
        bounds = getattr(scene.layer(1).bvh.flatten(), corner)  # (nodes, 3), cached
        for axis in range(3):
            kept = bounds[2, axis]
            bounds[2, axis] = bounds[0, axis] + push  # sticks out of the root
            with pytest.raises(ValueError, match=r"layer\(s\) \[1\]"):
                scene.stacked()
            bounds[2, axis] = kept
        scene.stacked()

    def test_adding_a_layer_rebuilds_the_stack(self, rng):
        scene = _layered_scene(rng, SceneShape((9, 9)))
        tracer = RayTracer(scene)
        tracer.trace_vertical_batch(np.arange(2), np.zeros((1, 2, 2)), 1.0)
        scene.add_layer(2, rng.uniform(-1, 1, size=(9, 2)), radii=1.0)
        batch, _ = tracer.trace_vertical_batch(2, scene.layer(2).centres_xy[:1], 1.0)
        assert 0 in _hits_of_ray(batch, 0)[0]

    def test_unknown_layer_and_bad_shapes_raise(self, rng):
        scene = _layered_scene(rng, SceneShape((9, 9)))
        tracer = RayTracer(scene)
        with pytest.raises(KeyError):
            tracer.trace_vertical_batch(np.array([0, 5]), np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(ValueError):
            tracer.trace_vertical_batch(np.arange(2), np.zeros((1, 3, 2)), 1.0)
