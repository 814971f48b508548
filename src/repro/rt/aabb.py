"""Axis-aligned bounding boxes, the node bounds of the BVH.

The AABB test is one of the two operations RT cores implement in hardware
(Sec. 2.2).  The batch tracer runs it as array-wide slab compares over the
scene's stacked node bounds (:mod:`repro.rt.tracer`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AABB:
    """Axis-aligned bounding box in 3-D.

    Attributes:
        minimum: ``(3,)`` lower corner.
        maximum: ``(3,)`` upper corner.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        self.minimum = np.asarray(self.minimum, dtype=np.float64).reshape(3)
        self.maximum = np.asarray(self.maximum, dtype=np.float64).reshape(3)
        if np.any(self.minimum > self.maximum):
            raise ValueError("AABB minimum must be <= maximum on every axis")

    @classmethod
    def empty(cls) -> "AABB":
        """A degenerate box that unions as the identity element."""
        box = cls.__new__(cls)
        box.minimum = np.full(3, np.inf)
        box.maximum = np.full(3, -np.inf)
        return box

    def union(self, other: "AABB") -> "AABB":
        """Smallest box containing both boxes."""
        box = AABB.__new__(AABB)
        box.minimum = np.minimum(self.minimum, other.minimum)
        box.maximum = np.maximum(self.maximum, other.maximum)
        return box

    @property
    def centre(self) -> np.ndarray:
        """Box centre."""
        return 0.5 * (self.minimum + self.maximum)

    @property
    def extent(self) -> np.ndarray:
        """Per-axis side lengths."""
        return self.maximum - self.minimum

    def longest_axis(self) -> int:
        """Index of the longest axis (the BVH's median-split axis)."""
        return int(np.argmax(self.extent))
