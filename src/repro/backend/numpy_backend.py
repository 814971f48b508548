"""NumPy reference backend: the default, always available, bit-exact."""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend


class NumpyBackend(ArrayBackend):
    """Thin pass-through to NumPy.

    Every primitive delegates to the exact NumPy operation the historical
    kernels used, so routing a kernel through this backend changes nothing
    -- the parity suite pins that with ``array_equal``, not ``allclose``.
    """

    name = "numpy"
    device = "cpu"
    exact = True
    tolerance = 0.0

    def library_version(self) -> str:
        return np.__version__

    def asarray(self, array: np.ndarray) -> np.ndarray:
        return np.asarray(array)

    def to_numpy(self, array: np.ndarray) -> np.ndarray:
        return np.asarray(array)

    def take(self, array: np.ndarray, flat_indices: np.ndarray) -> np.ndarray:
        return np.take(array.reshape(-1), flat_indices)

    def astype(self, array: np.ndarray, dtype) -> np.ndarray:
        return array.astype(dtype)

    def sum(self, array: np.ndarray, axis: int, dtype=None) -> np.ndarray:
        return array.sum(axis=axis, dtype=dtype)
