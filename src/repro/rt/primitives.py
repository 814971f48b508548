"""The sphere primitive of the RT scene.

In JUNO's mapping (Sec. 4.2) every codebook entry of subspace ``s`` becomes a
sphere centred at ``(x_e, y_e, 2s + 1)`` with a constant radius ``R``, and
every query projection becomes a ray cast from ``(x_q, y_q, 2s)`` towards
``+z`` with a per-query ``t_max`` that encodes the dynamic distance
threshold (:meth:`repro.rt.tracer.RayTracer.trace_vertical_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rt.aabb import AABB


@dataclass
class Sphere:
    """A sphere primitive carrying an application payload.

    Attributes:
        centre: ``(3,)`` sphere centre.
        radius: sphere radius (must be positive).
        payload: free-form application data; JUNO stores
            ``{"entry_id": e, "subspace_id": s}``.
    """

    centre: np.ndarray
    radius: float
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.centre = np.asarray(self.centre, dtype=np.float64).reshape(3)
        self.radius = float(self.radius)
        if self.radius <= 0.0:
            raise ValueError("sphere radius must be positive")

    def aabb(self) -> AABB:
        """Tight axis-aligned bounding box of the sphere."""
        return AABB(self.centre - self.radius, self.centre + self.radius)
