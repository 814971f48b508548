"""Software ray-tracing engine standing in for NVIDIA RT cores.

JUNO maps its selective L2-LUT construction onto the two hardware functions
RT cores provide (Sec. 2.2): axis-aligned bounding box (AABB) intersection
tests and bounding volume hierarchy (BVH) traversal.  This package implements
both in software, together with the OptiX-style concepts the algorithm relies
on: ray ``t_max`` clipping and the hit test against it.

The one execution path is a vectorised batch traversal for the axis-aligned
rays JUNO casts (:meth:`repro.rt.tracer.RayTracer.trace_vertical_batch`).
Like the RT core, which walks every layer of the scene in one launch, it
traverses a whole block of layers for a whole batch of rays in one pass of
slab tests: the scene keeps a stacked flat form
(:meth:`repro.rt.scene.TraversableScene.stacked`) in which layers with
equally many spheres share one BVH topology and only node bounds and sphere
data carry a layer axis.  Hits come back as the dense (layer, ray, leaf
slot) grid the sphere tests ran on -- an accepted mask and the squared
in-plane distance ``d²`` of every cell -- which the selective LUT is written
from cell by cell.  An exact per-ray traversal (the float64 ground truth for
hit sets and traversal counters) lives in ``tests/rt_reference.py``.
"""

from repro.rt.aabb import AABB
from repro.rt.primitives import Sphere
from repro.rt.bvh import BVH, BVHNode
from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats

__all__ = [
    "AABB",
    "Sphere",
    "BVH",
    "BVHNode",
    "TraversableScene",
    "RayTracer",
    "TraversalStats",
]
