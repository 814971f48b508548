"""Inner-product (MIPS) support without extra dimensions (Sec. 4.2).

Earlier MIPS-to-L2 reductions append extra dimensions to queries and points.
JUNO instead enlarges each entry's sphere radius from ``R`` to
``r = sqrt(R^2 + |e|^2)`` *offline*.  With ``d^2 = |q - e|^2`` the squared
in-plane distance the sphere test computes, ``r^2 - d^2 = R^2 - |q|^2 +
2 IP(e, q)``, so

    IP(e, q) = (|q|^2 - R^2 + r^2 - d^2) / 2 = (|q|^2 - R^2 + (z_off - t_hit)^2) / 2

where ``z_off`` is the distance from the ray origin plane to the sphere
centre plane (the paper uses ``z_off = 1``; this reproduction generalises it
so that enlarged spheres never swallow the ray origin).  The paper's hit
shader reads the second form, because an RT core reports only ``t_hit``;
the selective LUT (:mod:`repro.core.selective_lut`) holds ``d^2`` and writes
the first.  The selection bound on ``IP`` becomes a ``t_max`` through
:func:`inner_product_threshold_to_tmax`.
"""

from __future__ import annotations

import numpy as np


def adjusted_radii_for_inner_product(
    entries_xy: np.ndarray, base_radius: float
) -> np.ndarray:
    """Per-entry sphere radii ``R' = sqrt(R^2 + |e|^2)`` for the MIPS mapping.

    Args:
        entries_xy: ``(..., E, 2)`` codebook entry coordinates in the subspace
            (a leading axis for the subspaces builds every layer's at once).
        base_radius: the constant base radius ``R``.

    Returns:
        ``(..., E)`` adjusted radii.
    """
    entries_xy = np.atleast_2d(np.asarray(entries_xy, dtype=np.float64))
    norms_sq = np.sum(entries_xy**2, axis=-1)
    return np.sqrt(base_radius**2 + norms_sq)


def inner_product_threshold_to_tmax(
    ip_threshold: np.ndarray,
    query_norm_sq: np.ndarray | float,
    base_radius: float,
    origin_offset: float,
) -> np.ndarray:
    """Convert a minimum-inner-product threshold into a ``t_max``.

    Selecting entries with ``IP >= ip_threshold`` is equivalent to accepting
    hits with ``t_hit <= t_max`` where::

        t_max = z_off - sqrt(max(R^2 - |q|^2 + 2 * ip_threshold, 0))

    When the argument of the square root would exceed ``z_off^2`` (a very low
    threshold), ``t_max`` is clamped to ``z_off`` so every enlarged sphere
    remains reachable.  ``origin_offset`` may be a scalar or an array
    broadcastable against the thresholds (one offset per subspace).
    """
    ip_threshold = np.asarray(ip_threshold, dtype=np.float64)
    inside = base_radius**2 - np.asarray(query_norm_sq, dtype=np.float64) + 2.0 * ip_threshold
    # Square each offset as a Python float (libm ``pow``): NumPy squares an
    # array with a multiply, which differs in the last bit for ~0.1 % of
    # values, and a per-subspace ``(S,)`` offset array must give every
    # subspace the bound its scalar offset gives.
    offset = np.asarray(origin_offset, dtype=np.float64)
    bound = np.array([o**2 for o in offset.ravel().tolist()]).reshape(offset.shape)
    inside = np.clip(inside, 0.0, bound)
    return origin_offset - np.sqrt(inside)
