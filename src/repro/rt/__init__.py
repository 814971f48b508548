"""Software ray-tracing engine standing in for NVIDIA RT cores.

JUNO maps its selective L2-LUT construction onto the two hardware functions
RT cores provide (Sec. 2.2): axis-aligned bounding box (AABB) intersection
tests and bounding volume hierarchy (BVH) traversal.  This package implements
both in software, together with the OptiX-style concepts the algorithm relies
on: ray ``t_max`` clipping and the hit test against it.

The scene (:class:`repro.rt.scene.TraversableScene`) is arrays: one
median-split BVH per subspace, all built in one vectorised pass and stored
as one stack in which the layers share the tree topology and only node
bounds and sphere data carry a layer axis.  The one execution path is a
vectorised batch traversal for the axis-aligned rays JUNO casts
(:meth:`repro.rt.tracer.RayTracer.trace_vertical_batch`): like the RT core,
which walks every layer of the scene in one launch, it traverses a whole
block of layers for a whole batch of rays in one pass of slab tests.  Hits
come back as the dense (layer, ray, leaf slot) grid the sphere tests ran on
-- an accepted mask and the squared in-plane distance ``d²`` of every cell
-- which the selective LUT is written from cell by cell.  The recursive
object BVH the array build is checked against, and an exact per-ray
traversal of it (the float64 ground truth for hit sets and traversal
counters), live in ``tests/rt_reference.py``.
"""

from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats

__all__ = [
    "TraversableScene",
    "RayTracer",
    "TraversalStats",
]
