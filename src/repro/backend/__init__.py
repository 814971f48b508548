"""Pluggable array backends for the batched score kernels.

``repro.backend`` lets the score kernel (``ScoreStage``: gather from the
selective LUT by PQ code, reduction) run on NumPy (default), CuPy or torch
through one small primitive surface -- see :mod:`repro.backend.base` for
the protocol and the exactness/tolerance contract, and
``docs/performance.md`` for the backend matrix and selection rules.

Select a backend per deployment via ``ServingConfig.backend``, per
process via the ``REPRO_BACKEND`` environment variable, or per pipeline
via ``default_search_pipeline(backend=...)``.
"""

from repro.backend.base import ArrayBackend, BackendError
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    KNOWN_BACKENDS,
    REPRO_BACKEND_ENV,
    available_backends,
    backend_available,
    get_backend,
)

__all__ = [
    "ArrayBackend",
    "BackendError",
    "KNOWN_BACKENDS",
    "NumpyBackend",
    "REPRO_BACKEND_ENV",
    "available_backends",
    "backend_available",
    "get_backend",
]
