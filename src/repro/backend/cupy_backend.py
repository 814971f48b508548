"""Optional CuPy backend: NumPy-mirroring API on a CUDA device.

Import of this module is cheap and safe without CuPy installed; the
backend class raises :class:`BackendError` from its constructor when CuPy
(or a usable CUDA device) is absent.  The registry probes availability by
constructing it.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, BackendError


class CupyBackend(ArrayBackend):
    """Score-kernel primitives on CuPy arrays.

    CuPy mirrors the NumPy API, so every primitive is the same call
    against ``cupy``.  Results are *not* bit-identical to the reference:
    device reduction trees differ, hence the
    documented tolerance (see ``docs/performance.md``).
    """

    name = "cupy"
    device = "gpu"
    exact = False
    tolerance = 1e-10

    def __init__(self) -> None:
        try:
            import cupy
        except ImportError as exc:  # pragma: no cover - env without cupy
            raise BackendError(
                "array backend 'cupy' is not available: cupy is not installed"
            ) from exc
        try:  # a usable device, not just an importable package
            cupy.zeros(1)
        except Exception as exc:  # pragma: no cover - no CUDA device
            raise BackendError(f"array backend 'cupy' has no usable CUDA device: {exc}") from exc
        self.cupy = cupy

    def library_version(self) -> str:
        return self.cupy.__version__

    def asarray(self, array: np.ndarray):
        return self.cupy.asarray(array)

    def to_numpy(self, array) -> np.ndarray:
        return self.cupy.asnumpy(array)

    def take(self, array, flat_indices: np.ndarray):
        return array.reshape(-1)[self.cupy.asarray(flat_indices)]

    def astype(self, array, dtype):
        return array.astype(dtype)

    def sum(self, array, axis: int, dtype=None):
        return array.sum(axis=axis, dtype=dtype)
