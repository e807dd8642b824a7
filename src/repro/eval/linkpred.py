"""Link-prediction harness (Section 5.2.2).

For a relation ``<A, B>`` the harness takes every A-typed object as a
query, ranks *all* B-typed objects by a similarity on membership vectors,
and scores the ranking against the observed links of that relation with
Mean Average Precision.  This is exactly the paper's protocol for Tables
2-4 ("we calculate the similarity scores between each v_A in A and all
the objects v_B in B, and compare the similarity-based ranked list with
the true ranked list determined by the link weights between them").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.topk import pairwise_scores, resolve_metric
from repro.eval.ranking import mean_average_precision
from repro.eval.similarity import SIMILARITY_FUNCTIONS
from repro.hin.network import HeterogeneousNetwork


@dataclass(frozen=True, slots=True)
class LinkPredictionResult:
    """MAP per similarity function for one relation."""

    relation: str
    map_by_similarity: dict[str, float]

    def best_similarity(self) -> str:
        """Name of the similarity with the highest MAP."""
        return max(
            self.map_by_similarity, key=self.map_by_similarity.get
        )

    def describe(self) -> str:
        lines = [f"link prediction for relation {self.relation!r}:"]
        for name, value in self.map_by_similarity.items():
            lines.append(f"  {name:<18} MAP = {value:.4f}")
        return "\n".join(lines)


def relevance_matrix(
    network: HeterogeneousNetwork,
    relation: str,
    query_indices: list[int],
    candidate_indices: list[int],
) -> np.ndarray:
    """Boolean ``(Q, C)`` matrix: query i truly links to candidate j."""
    row, col = np.full((2, network.num_nodes), -1)
    row[query_indices] = np.arange(len(query_indices))
    col[candidate_indices] = np.arange(len(candidate_indices))
    sources, targets, weights = network.edge_arrays(relation)
    sources, targets = row[sources], col[targets]
    keep = (sources >= 0) & (targets >= 0) & (weights > 0)
    relevance = np.zeros(
        (len(query_indices), len(candidate_indices)), dtype=bool
    )
    relevance[sources[keep], targets[keep]] = True
    return relevance


def reference_ranking(
    theta: np.ndarray,
    query_index: int,
    candidate_indices: list[int] | np.ndarray,
    metric: str = "cosine",
) -> list[int]:
    """The offline reference ranking of candidates for one query.

    Dense scores through the shared backend, then the protocol's
    stable full sort (``np.argsort(-scores, kind="stable")`` -- ties
    resolve by ascending candidate position, hence ascending node
    index when ``candidate_indices`` is ascending).  This is the
    ground truth the online blocked top-k accuracy gate pins against.
    """
    metric = resolve_metric(metric)
    theta = np.asarray(theta, dtype=np.float64)
    candidate_indices = np.asarray(candidate_indices, dtype=np.int64)
    scores = pairwise_scores(
        metric, theta[[query_index]], theta[candidate_indices]
    )[0]
    order = np.argsort(-scores, kind="stable")
    return [int(index) for index in candidate_indices[order]]


def link_prediction_map(
    network: HeterogeneousNetwork,
    theta: np.ndarray,
    relation: str,
    similarities: list[str] | tuple[str, ...] | None = None,
) -> LinkPredictionResult:
    """Score membership-based link prediction for one relation.

    Parameters
    ----------
    network:
        The network holding the ground-truth links.
    theta:
        ``(n, K)`` membership matrix in network index order (from any
        clustering method that outputs soft memberships).
    relation:
        The relation ``<A, B>`` to predict; queries are all A-typed
        nodes, candidates all B-typed nodes.
    similarities:
        Names from :data:`repro.eval.similarity.SIMILARITY_FUNCTIONS`
        (all three by default, in the paper's table order).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != network.num_nodes:
        raise ValueError(
            f"theta has {theta.shape[0]} rows for a network of "
            f"{network.num_nodes} nodes"
        )
    declaration = network.relation_declaration(relation)
    query_indices = network.indices_of_type(declaration.source)
    candidate_indices = network.indices_of_type(declaration.target)
    if not query_indices or not candidate_indices:
        raise ValueError(
            f"relation {relation!r} has no queries or candidates"
        )
    relevance = relevance_matrix(
        network, relation, query_indices, candidate_indices
    )
    if not relevance.any():
        raise ValueError(f"relation {relation!r} has no observed links")
    queries = theta[query_indices]
    candidates = theta[candidate_indices]
    names = tuple(similarities or SIMILARITY_FUNCTIONS)
    map_by_similarity: dict[str, float] = {}
    for name in names:
        try:
            function = SIMILARITY_FUNCTIONS[name]
        except KeyError:
            raise KeyError(
                f"unknown similarity {name!r}; available: "
                f"{sorted(SIMILARITY_FUNCTIONS)}"
            ) from None
        scores = function(queries, candidates)
        map_by_similarity[name] = mean_average_precision(
            scores, relevance
        )
    return LinkPredictionResult(
        relation=relation, map_by_similarity=map_by_similarity
    )
