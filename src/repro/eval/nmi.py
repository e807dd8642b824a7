"""Clustering-vs-ground-truth agreement measures.

The paper evaluates with Normalized Mutual Information [21] (Strehl &
Ghosh 2003): ``NMI(A, B) = I(A; B) / sqrt(H(A) H(B))``, computed over the
contingency table of two hard partitions.
"""

from __future__ import annotations

import numpy as np


def _contingency(
    labels_a: np.ndarray, labels_b: np.ndarray
) -> np.ndarray:
    """Contingency counts ``n_ij`` of two integer label arrays."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape or labels_a.ndim != 1:
        raise ValueError(
            f"label arrays must be equal-length 1-D, got "
            f"{labels_a.shape} and {labels_b.shape}"
        )
    if labels_a.size == 0:
        raise ValueError("label arrays must be non-empty")
    _, a_codes = np.unique(labels_a, return_inverse=True)
    _, b_codes = np.unique(labels_b, return_inverse=True)
    table = np.zeros((a_codes.max() + 1, b_codes.max() + 1))
    np.add.at(table, (a_codes, b_codes), 1.0)
    return table


def nmi(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Normalized Mutual Information with sqrt normalization [21].

    Returns a value in ``[0, 1]``; 1 for identical partitions (up to
    label permutation), 0 for independent ones.  Degenerate single-
    cluster partitions have zero entropy; NMI is defined as 1.0 when both
    sides are single-cluster and identical in size, else 0.0.
    """
    table = _contingency(labels_true, labels_pred)
    n = table.sum()
    joint = table / n
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    h_row = _entropy(row)
    h_col = _entropy(col)
    if h_row == 0.0 and h_col == 0.0:
        return 1.0
    if h_row == 0.0 or h_col == 0.0:
        return 0.0
    nonzero = joint > 0
    mutual = float(
        np.sum(
            joint[nonzero]
            * np.log(
                joint[nonzero]
                / np.outer(row, col)[nonzero]
            )
        )
    )
    value = mutual / np.sqrt(h_row * h_col)
    # numeric guard: clamp tiny excursions outside [0, 1]
    return float(min(max(value, 0.0), 1.0))


def _entropy(distribution: np.ndarray) -> float:
    nonzero = distribution[distribution > 0]
    return float(-np.sum(nonzero * np.log(nonzero)))
