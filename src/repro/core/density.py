"""Per-subspace density maps (Sec. 4.1).

The dynamic threshold mechanism observes that the distance threshold needed
to contain the top-100 neighbours is negatively correlated with the *density*
of the region a query projection falls into.  Density is measured offline on
a ``grid x grid`` partition of each 2-D subspace: the density of a cell is
the number of search-point residual projections falling into it divided by
the cell area.  At query time the map is looked up at the query's residual
projection.
"""

from __future__ import annotations

import numpy as np


class DensityMap:
    """Grid-based density estimate for every PQ subspace.

    Args:
        grid: number of cells per axis (the paper uses 100).
    """

    def __init__(self, grid: int = 100) -> None:
        if grid < 2:
            raise ValueError("grid must be at least 2")
        self.grid = int(grid)
        # Per-subspace state, filled by fit(): bounding boxes and densities.
        self.mins_: np.ndarray | None = None  # (S, 2)
        self.maxs_: np.ndarray | None = None  # (S, 2)
        self.densities_: np.ndarray | None = None  # (S, grid, grid)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.densities_ is not None

    @property
    def num_subspaces(self) -> int:
        """Number of subspaces the map was fitted on."""
        if not self.is_fitted:
            raise RuntimeError("DensityMap has not been fitted")
        return int(self.densities_.shape[0])

    def fit(self, projections: np.ndarray) -> "DensityMap":
        """Estimate densities from residual projections.

        Args:
            projections: ``(N, S, 2)`` residual projections of all search
                points in every subspace.

        Returns:
            ``self`` for chaining.
        """
        projections = np.asarray(projections, dtype=np.float64)
        if projections.ndim != 3 or projections.shape[2] != 2:
            raise ValueError("projections must have shape (N, S, 2)")
        num_points, num_subspaces, _ = projections.shape
        if num_points == 0:
            raise ValueError("cannot fit a density map on zero points")
        self.mins_ = projections.min(axis=0)  # (S, 2)
        self.maxs_ = projections.max(axis=0)
        span = self.maxs_ - self.mins_
        span[span <= 0] = 1.0
        self.maxs_ = self.mins_ + span
        self.densities_ = np.zeros((num_subspaces, self.grid, self.grid))
        cell_area = (span[:, 0] / self.grid) * (span[:, 1] / self.grid)
        for s in range(num_subspaces):
            ix = self._cell_index(projections[:, s, 0], self.mins_[s, 0], span[s, 0])
            iy = self._cell_index(projections[:, s, 1], self.mins_[s, 1], span[s, 1])
            counts = np.zeros((self.grid, self.grid))
            np.add.at(counts, (ix, iy), 1.0)
            self.densities_[s] = counts / max(cell_area[s], 1e-12)
        return self

    def _cell_index(self, coords: np.ndarray, low: float, span: float) -> np.ndarray:
        idx = np.floor((coords - low) / span * self.grid).astype(np.int64)
        return np.clip(idx, 0, self.grid - 1)

    def _densities_at(self, subspaces, xy: np.ndarray) -> np.ndarray:
        """Densities at ``xy[..., :]``, the subspace of each point given by
        ``subspaces`` (anything that indexes the first axis of the fitted
        arrays and broadcasts against ``xy.shape[:-1]``)."""
        if not self.is_fitted:
            raise RuntimeError("DensityMap has not been fitted")
        mins = self.mins_[subspaces]
        span = self.maxs_[subspaces] - mins
        ix = self._cell_index(xy[..., 0], mins[..., 0], span[..., 0])
        iy = self._cell_index(xy[..., 1], mins[..., 1], span[..., 1])
        return self.densities_[subspaces, ix, iy]

    def lookup(self, subspace_id: int, xy: np.ndarray) -> np.ndarray:
        """Density at one or more projection coordinates.

        Args:
            subspace_id: subspace index ``s``.
            xy: ``(2,)`` or ``(R, 2)`` coordinates; points outside the fitted
                bounding box are clamped to the nearest border cell.

        Returns:
            ``()`` or ``(R,)`` array of densities.
        """
        return self._densities_at(int(subspace_id), np.asarray(xy, dtype=np.float64))

    def lookup_all(self, xy: np.ndarray) -> np.ndarray:
        """Densities of ``(R, S, 2)`` coordinates, one point per ray and
        subspace: :meth:`lookup` for every subspace in one broadcast.

        Returns:
            ``(R, S)`` array of densities.
        """
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 3 or xy.shape[1:] != (self.num_subspaces, 2):
            raise ValueError("xy must have shape (R, S, 2)")
        return self._densities_at(np.arange(xy.shape[1]), xy)

    def mean_density(self, subspace_id: int) -> float:
        """Average density over the occupied cells of one subspace."""
        if not self.is_fitted:
            raise RuntimeError("DensityMap has not been fitted")
        cells = self.densities_[subspace_id]
        occupied = cells[cells > 0]
        return float(occupied.mean()) if occupied.size else 0.0
