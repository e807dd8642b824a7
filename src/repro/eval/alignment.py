"""Cluster-to-class alignment for presentation.

Cluster indices are arbitrary; the paper's Table 1 presents memberships
under semantic column names (DB/DM/IR/ML) found by inspecting the
clusters.  :func:`align_clusters` automates that: it matches predicted
clusters to ground-truth classes by maximizing total overlap (Hungarian
assignment on the contingency table).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment


def confusion_matrix(
    labels_true: np.ndarray,
    labels_pred: np.ndarray,
    n_classes: int | None = None,
    n_clusters: int | None = None,
) -> np.ndarray:
    """Counts ``m[c, k]`` of true class ``c`` against predicted ``k``.

    Labels must already be integer-coded from 0.
    """
    labels_true = np.asarray(labels_true, dtype=np.int64)
    labels_pred = np.asarray(labels_pred, dtype=np.int64)
    if labels_true.shape != labels_pred.shape:
        raise ValueError(
            f"label arrays must have equal shape, got "
            f"{labels_true.shape} vs {labels_pred.shape}"
        )
    if labels_true.size and (labels_true.min() < 0 or labels_pred.min() < 0):
        raise ValueError("labels must be non-negative integers")
    n_classes = n_classes or int(labels_true.max()) + 1
    n_clusters = n_clusters or int(labels_pred.max()) + 1
    table = np.zeros((n_classes, n_clusters), dtype=np.int64)
    np.add.at(table, (labels_true, labels_pred), 1)
    return table


def align_clusters(
    labels_true: np.ndarray,
    labels_pred: np.ndarray,
    n_classes: int | None = None,
) -> dict[int, int]:
    """Best cluster -> class mapping by Hungarian assignment.

    Returns ``{cluster_index: class_index}``.  When there are more
    clusters than classes, unmatched clusters map to their majority
    class; with more classes than clusters, some classes go unused.
    """
    table = confusion_matrix(labels_true, labels_pred, n_classes)
    n_classes_eff, n_clusters_eff = table.shape
    # rows of table.T are clusters, columns are classes
    cluster_ids, class_ids = linear_sum_assignment(-table.T)
    mapping = {
        int(cluster): int(klass)
        for cluster, klass in zip(cluster_ids, class_ids)
    }
    for cluster in range(n_clusters_eff):
        if cluster not in mapping:
            mapping[cluster] = int(np.argmax(table[:, cluster]))
    return mapping
