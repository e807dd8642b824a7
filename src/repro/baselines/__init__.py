"""Baseline clustering methods compared against GenClus in Section 5.

All baselines see the heterogeneous network through a *homogenized* lens
-- every link type flattened with strength 1 -- because "none of these
baselines is capable of leveraging different link types" (Section 5.2.1).

* :mod:`repro.baselines.netplsa` -- NetPLSA [18]: PLSA [11] with graph-
  Laplacian smoothing of topic proportions.
* :mod:`repro.baselines.itopicmodel` -- iTopicModel [22]: topic model
  with a neighbour-averaged prior on topic proportions.
* :mod:`repro.baselines.kmeans` -- k-means with k-means++ seeding, the
  attribute-only weather baseline.
* :mod:`repro.baselines.spectral` -- the spectral framework of [20] with
  modularity + attribute similarity at equal weights ([26] variant).
* :mod:`repro.baselines.interpolation` -- neighbour-mean imputation used
  to give the attribute-only baselines a complete attribute matrix.
"""

from repro.baselines.interpolation import interpolate_numeric_attributes
from repro.baselines.itopicmodel import ITopicModel
from repro.baselines.kmeans import KMeansResult, kmeans
from repro.baselines.netplsa import NetPLSA
from repro.baselines.spectral import SpectralCombine

__all__ = [
    "ITopicModel",
    "KMeansResult",
    "NetPLSA",
    "SpectralCombine",
    "interpolate_numeric_attributes",
    "kmeans",
]
