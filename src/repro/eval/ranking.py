"""Ranking quality measures.

Mean Average Precision [27] scores the ranked candidate list of each
query against the set of truly linked candidates; Tables 2-4 of the
paper report MAP.
"""

from __future__ import annotations

import numpy as np


def average_precision(
    scores: np.ndarray, relevant: np.ndarray
) -> float:
    """AP of one ranked list.

    Parameters
    ----------
    scores:
        ``(C,)`` candidate scores; candidates are ranked by descending
        score (stable ties by candidate index).
    relevant:
        ``(C,)`` boolean mask of truly relevant candidates.

    Returns
    -------
    float
        Mean of precision-at-rank over relevant positions, or NaN when
        the query has no relevant candidates (the caller should skip
        such queries, as MAP conventionally does).
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevant = np.asarray(relevant, dtype=bool)
    if scores.shape != relevant.shape or scores.ndim != 1:
        raise ValueError(
            f"scores and relevant must be equal-length 1-D, got "
            f"{scores.shape} and {relevant.shape}"
        )
    total_relevant = int(relevant.sum())
    if total_relevant == 0:
        return float("nan")
    order = np.argsort(-scores, kind="stable")
    hits = relevant[order]
    ranks = np.nonzero(hits)[0] + 1  # 1-based positions of relevant items
    precisions = np.arange(1, total_relevant + 1) / ranks
    return float(precisions.mean())


def mean_average_precision(
    score_matrix: np.ndarray, relevance_matrix: np.ndarray
) -> float:
    """MAP over queries; queries with no relevant candidates are skipped.

    Parameters
    ----------
    score_matrix:
        ``(Q, C)`` similarity scores.
    relevance_matrix:
        ``(Q, C)`` boolean relevance.
    """
    score_matrix = np.asarray(score_matrix, dtype=np.float64)
    relevance_matrix = np.asarray(relevance_matrix, dtype=bool)
    if score_matrix.shape != relevance_matrix.shape:
        raise ValueError(
            f"shape mismatch: {score_matrix.shape} vs "
            f"{relevance_matrix.shape}"
        )
    values = [
        average_precision(scores, relevant)
        for scores, relevant in zip(score_matrix, relevance_matrix)
        if relevant.any()
    ]
    if not values:
        raise ValueError("no query has any relevant candidate")
    return float(np.mean(values))
