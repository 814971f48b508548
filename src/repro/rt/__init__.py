"""Software ray-tracing engine standing in for NVIDIA RT cores.

JUNO maps its selective L2-LUT construction onto the two hardware functions
RT cores provide (Sec. 2.2): axis-aligned bounding box (AABB) intersection
tests and bounding volume hierarchy (BVH) traversal.  This package implements
both in software, together with the OptiX-style concepts the algorithm relies
on: ray ``t_max`` clipping and the hit test against it.

The scene (:class:`repro.rt.scene.TraversableScene`) is arrays: one
median-split BVH per subspace, all built in one vectorised pass and stored
as one stack in which the layers share the tree topology and only node
bounds and sphere data carry a layer axis.  The one execution path
(:meth:`repro.rt.tracer.RayTracer.trace_vertical_batch`) traverses a block
of JUNO's axis-aligned rays over a block of layers in one pass of slab
tests, as an RT core walks every layer in one launch, and writes the sphere
tests' accepted mask and ``d²`` of every (ray, layer, leaf slot) cell into
the caller's rows of the selective LUT.  The recursive object BVH the array
build is checked against, an exact per-ray traversal of it and the ``sqrt``
form of the accept test live in ``tests/rt_reference.py``.
"""

from repro.rt.scene import TraversableScene
from repro.rt.tracer import RayTracer, TraversalStats

__all__ = [
    "TraversableScene",
    "RayTracer",
    "TraversalStats",
]
