"""Unit tests for the per-ray reference tracer's geometry: boxes, spheres, rays.

The boxes and spheres are the reference BVH's, the slab and sphere tests of
one ray and the ray itself the per-ray tracer's (``rt_reference.py``).
"""

import numpy as np
import pytest
from rt_reference import AABB, Ray, Sphere, aabb_intersects_ray, sphere_intersect


class TestAABB:
    def test_longest_axis(self):
        box = AABB([0, 0, 0], [1, 5, 2])
        assert box.longest_axis() == 1

    def test_ray_hits_box(self):
        box = AABB([-1, -1, 1], [1, 1, 3])
        assert aabb_intersects_ray(box, [0, 0, 0], [0, 0, 1])
        assert not aabb_intersects_ray(box, [5, 5, 0], [0, 0, 1])

    def test_ray_respects_t_max(self):
        box = AABB([-1, -1, 10], [1, 1, 12])
        assert not aabb_intersects_ray(box, [0, 0, 0], [0, 0, 1], t_max=5.0)
        assert aabb_intersects_ray(box, [0, 0, 0], [0, 0, 1], t_max=11.0)

    def test_ray_parallel_to_slab(self):
        box = AABB([-1, -1, 1], [1, 1, 2])
        # Ray along z with x outside the box never hits it.
        assert not aabb_intersects_ray(box, [2, 0, 0], [0, 0, 1])
        # Ray along z starting inside the x/y slabs does.
        assert aabb_intersects_ray(box, [0.5, -0.5, 0], [0, 0, 1])

    def test_ray_behind_origin_not_hit(self):
        box = AABB([-1, -1, -3], [1, 1, -2])
        assert not aabb_intersects_ray(box, [0, 0, 0], [0, 0, 1])


class TestSphere:
    def test_intersect_head_on(self):
        sphere = Sphere(centre=[0, 0, 5], radius=1.0)
        t = sphere_intersect(sphere, [0, 0, 0], [0, 0, 1])
        assert t == pytest.approx(4.0)

    def test_intersect_offset_matches_formula(self):
        sphere = Sphere(centre=[0.6, 0, 5], radius=1.0)
        t = sphere_intersect(sphere, [0, 0, 4], [0, 0, 1])
        expected = 1.0 - np.sqrt(1.0 - 0.6**2)
        assert t == pytest.approx(expected)

    def test_miss_returns_none(self):
        sphere = Sphere(centre=[5, 5, 5], radius=0.5)
        assert sphere_intersect(sphere, [0, 0, 0], [0, 0, 1]) is None

    def test_t_max_clips_hit(self):
        sphere = Sphere(centre=[0, 0, 5], radius=1.0)
        assert sphere_intersect(sphere, [0, 0, 0], [0, 0, 1], t_max=3.0) is None
        assert sphere_intersect(sphere, [0, 0, 0], [0, 0, 1], t_max=4.5) is not None


class TestRay:
    def test_at(self):
        ray = Ray(origin=[1, 0, 0], direction=[0, 0, 1])
        np.testing.assert_allclose(ray.at(2.5), [1, 0, 2.5])

    def test_invalid_direction_raises(self):
        with pytest.raises(ValueError):
            Ray(origin=[0, 0, 0], direction=[0, 0, 0])

    def test_negative_t_max_raises(self):
        with pytest.raises(ValueError):
            Ray(origin=[0, 0, 0], direction=[0, 0, 1], t_max=-1.0)
