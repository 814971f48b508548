"""Vector quantization substrate.

Product quantization (PQ) is the encoding backbone of the IVFPQ pipeline the
paper studies (Sec. 2.1); k-means is the shared clustering primitive used by
both the coarse IVF stage and the per-subspace PQ codebooks.
"""

from repro.quantization.kmeans import KMeans, KMeansResult
from repro.quantization.product_quantizer import ProductQuantizer
from repro.quantization.codebook import SubspaceCodebook

__all__ = [
    "KMeans",
    "KMeansResult",
    "ProductQuantizer",
    "SubspaceCodebook",
]
