"""JUNO: the paper's primary contribution.

The core package implements the sparsity- and locality-aware search algorithm
of Sec. 4 and the end-to-end system of Sec. 5:

* :mod:`repro.core.config` -- configuration and the JUNO-L/H quality modes.
* :mod:`repro.core.density` -- the per-subspace 100x100 density maps.
* :mod:`repro.core.threshold` -- the offline polynomial regressor that turns
  region density into a per-query distance threshold, plus the static
  threshold strategies used as ablations.
* :mod:`repro.core.selective_lut` -- threshold-based selective L2-LUT
  construction on the ray-tracing engine (the sphere test's distances).
* :mod:`repro.core.hit_count` -- how well the aggressive hit-count scores
  (Sec. 5.4) track the true distance.
* :mod:`repro.core.inner_product` -- the extra-dimension-free MIPS transform.
* :mod:`repro.core.subspace_index` -- the entry -> search-point inverted
  indices built per (cluster, subspace).
* :mod:`repro.core.index` -- :class:`JunoIndex`, the end-to-end search system.
"""

from repro.core.config import JunoConfig, QualityMode, ThresholdStrategy
from repro.core.density import DensityMap
from repro.core.threshold import ThresholdModel
from repro.core.inner_product import adjusted_radii_for_inner_product
from repro.core.selective_lut import SelectiveLUT, SelectiveLUTConstructor
from repro.core.subspace_index import SubspaceInvertedIndex
from repro.core.index import JunoIndex, JunoSearchResult

__all__ = [
    "JunoConfig",
    "QualityMode",
    "ThresholdStrategy",
    "DensityMap",
    "ThresholdModel",
    "SelectiveLUT",
    "SelectiveLUTConstructor",
    "SubspaceInvertedIndex",
    "JunoIndex",
    "JunoSearchResult",
    "adjusted_radii_for_inner_product",
]
