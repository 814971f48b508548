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
        array = np.ascontiguousarray(array)
        if not array.flags.writeable:  # a cached LUT; torch warns on read-only memory
            array = array.copy()
        return self.torch.as_tensor(array, device=self._device)

    def to_numpy(self, array) -> np.ndarray:
        return array.detach().cpu().numpy()

    def take(self, array, flat_indices: np.ndarray):
        return array.view(-1)[self.asarray(flat_indices)]

    def astype(self, array, dtype):
        return array.to(self._dtype(dtype))

    def sum(self, array, axis: int, dtype=None):
        if dtype is not None:
            return array.sum(dim=axis, dtype=self._dtype(dtype))
        result = array.sum(dim=axis)
        # match NumPy's bool -> int64 promotion contract
        if array.dtype is self.torch.bool:
            return result.to(self.torch.int64)
        return result
