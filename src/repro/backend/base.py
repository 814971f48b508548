"""Array-backend protocol for the batched score kernels.

The online score path (``ScoreStage``'s kernel,
:mod:`repro.pipeline.fused`) is a handful of bulk array primitives:
take over the selective LUT's tables, gather from them through member
columns, and reduce over the subspace axis.  :class:`ArrayBackend` names
exactly those primitives so the kernels can run unchanged on NumPy (the
default, bit-identical reference), CuPy or torch without sprinkling
``import cupy`` through the pipeline.

Index bookkeeping (gather indices, segment offsets) deliberately
stays in NumPy on the host: it is integer arithmetic over small arrays,
and shipping it to a device would cost more in transfers than it saves.
Only the value tables and their reductions go through the backend.

Equality contract: a backend with ``exact=True`` must reproduce the NumPy
reference bit-for-bit (same element order, same pairwise reductions).
GPU backends cannot promise that -- reduction trees are
nondeterministic on device -- so they carry a documented ``tolerance``
instead, and the parity suite compares them with ``np.allclose`` at that
tolerance rather than ``array_equal``.
"""

from __future__ import annotations

import numpy as np


class BackendError(RuntimeError):
    """Raised when a requested array backend is unknown or unavailable."""


class ArrayBackend:
    """Bulk-array primitives the batched score kernels are written against.

    Subclasses bind the primitives to one array library.  Index arguments
    (``flat_indices``) are host NumPy integer arrays; implementations
    convert them as needed.

    Attributes:
        name: registry name (``"numpy"``, ``"cupy"``, ``"torch"``).
        device: ``"cpu"`` or ``"gpu"``.
        exact: whether results are bit-identical to the NumPy reference.
        tolerance: absolute comparison tolerance versus the reference
            (``0.0`` when ``exact``); the parity harness uses it.
    """

    name: str = "abstract"
    device: str = "cpu"
    exact: bool = False
    tolerance: float = 0.0

    @property
    def fingerprint(self) -> str:
        """Stable identity string mixed into stage-cache keys.

        Cached artifacts must never alias across backends: a GPU backend's
        outputs are tolerance-equal, not bit-equal, so a cache entry
        produced under one backend must miss under another.
        """
        return f"{self.name}:{self.library_version()}:{self.device}"

    def library_version(self) -> str:
        """Version string of the underlying array library."""
        raise NotImplementedError

    # -- array movement ------------------------------------------------
    def asarray(self, array: np.ndarray):
        """Move a host array to the backend's native representation."""
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Move a backend array back to a host NumPy array."""
        raise NotImplementedError

    # -- gather ----------------------------------------------------------
    def take(self, array, flat_indices: np.ndarray):
        """``array.flat[flat_indices]`` (flat gather)."""
        raise NotImplementedError

    # -- cast / reduction -----------------------------------------------
    def astype(self, array, dtype):
        """Cast to ``dtype`` (NumPy ``astype`` semantics)."""
        raise NotImplementedError

    def sum(self, array, axis: int, dtype=None):
        """Reduce one axis in ``dtype`` (NumPy ``sum`` semantics, bools promote to int)."""
        raise NotImplementedError

    def __reduce__(self):
        """Pickle by registry name, not by state.

        Backends may hold module handles or device contexts that cannot
        cross a process boundary; the receiving process re-resolves the
        name against its own registry (raising :class:`BackendError` if
        the library is absent there -- a real configuration error worth
        surfacing, not papering over).
        """
        from repro.backend.registry import get_backend

        return (get_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.fingerprint}>"
