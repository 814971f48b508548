"""Optional torch backend: score-kernel primitives on torch tensors.

Import of this module is safe without torch installed; the backend class
raises :class:`BackendError` from its constructor when torch is absent.
Runs on CUDA when available, otherwise on CPU tensors (still useful to
exercise the backend seam without a GPU).
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, BackendError


class TorchBackend(ArrayBackend):
    """Score-kernel primitives on torch tensors.

    torch reduction order differs from NumPy's pairwise summation (on CPU
    and GPU alike), so this backend is tolerance-compared to the
    reference, never bit-compared (see ``docs/performance.md``).
    """

    name = "torch"
    exact = False
    tolerance = 1e-10

    def __init__(self) -> None:
        try:
            import torch
        except ImportError as exc:  # pragma: no cover - env without torch
            raise BackendError(
                "array backend 'torch' is not available: torch is not installed"
            ) from exc
        self.torch = torch
        self._device = torch.device("cuda") if torch.cuda.is_available() else torch.device("cpu")
        self.device = "gpu" if self._device.type == "cuda" else "cpu"

    def library_version(self) -> str:
        return str(self.torch.__version__)

    def _dtype(self, dtype):
        return self.torch.from_numpy(np.empty(0, dtype=np.dtype(dtype))).dtype

    def asarray(self, array: np.ndarray):
        return self.torch.as_tensor(np.ascontiguousarray(array), device=self._device)

    def to_numpy(self, array) -> np.ndarray:
        return array.detach().cpu().numpy()

    def take(self, array, flat_indices: np.ndarray):
        return array.view(-1)[self.asarray(flat_indices)]

    def take_rows(self, array, row_indices: np.ndarray):
        return array[self.asarray(row_indices)]

    def astype(self, array, dtype):
        return array.to(self._dtype(dtype))

    def isnan(self, array):
        return self.torch.isnan(array)

    def logical_not(self, array):
        return ~array

    def where(self, condition, if_true, if_false):
        return self.torch.where(condition, if_true, if_false)

    def sum(self, array, axis: int):
        result = array.sum(dim=axis)
        # match NumPy's bool -> int64 promotion contract
        if array.dtype is self.torch.bool:
            return result.to(self.torch.int64)
        return result
