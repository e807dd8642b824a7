"""Evaluation measures used in Section 5 of the paper.

* :mod:`repro.eval.nmi` -- Normalized Mutual Information [21] (Figs.
  5-8 metric).
* :mod:`repro.eval.similarity` -- the three membership-similarity
  functions of Section 5.2.2: cosine, negative Euclidean distance, and
  negative cross entropy ``-H(theta_j, theta_i)``.
* :mod:`repro.eval.ranking` -- Mean Average Precision [27] (Tables 2-4
  metric).
* :mod:`repro.eval.linkpred` -- the link-prediction harness: rank
  candidate targets per query object by membership similarity and score
  against observed links.
* :mod:`repro.eval.alignment` -- greedy/Hungarian alignment of predicted
  clusters to ground-truth labels (Table 1 presentation).
"""

from repro.eval.alignment import align_clusters, confusion_matrix
from repro.eval.linkpred import (
    LinkPredictionResult,
    link_prediction_map,
    reference_ranking,
)
from repro.eval.nmi import nmi
from repro.eval.ranking import average_precision, mean_average_precision
from repro.eval.similarity import (
    SIMILARITY_FUNCTIONS,
    cosine_similarity,
    negative_cross_entropy,
    negative_euclidean,
)

__all__ = [
    "SIMILARITY_FUNCTIONS",
    "LinkPredictionResult",
    "align_clusters",
    "average_precision",
    "confusion_matrix",
    "cosine_similarity",
    "link_prediction_map",
    "mean_average_precision",
    "negative_cross_entropy",
    "negative_euclidean",
    "nmi",
    "reference_ranking",
]
