"""Objective functions of Sections 3.4 and 4.

* :func:`g1` -- the cluster-optimization objective (Eq. 9): structural
  consistency at fixed gamma plus attribute log-likelihoods.
* :func:`g2_prime` -- the pseudo-log-likelihood strength objective
  (Eq. 14): per-object Dirichlet local partition functions plus the
  Gaussian prior regularizer.
* :func:`unified_objective` -- ``g`` of Eq. 8 with the same
  pseudo-likelihood approximation of ``log p(Theta | G, gamma)`` used for
  optimization (the exact partition function of Eq. 7 is intractable;
  Section 4.2).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from repro.core.attribute_models import AttributeModel
from repro.core.feature import (
    floor_distribution,
    relation_consistency_totals,
    structural_consistency,
)
from repro.core.kernels import PropagationOperator
from repro.hin.views import RelationMatrices


def attribute_log_likelihood(
    theta: np.ndarray,
    models: tuple[AttributeModel, ...] | list[AttributeModel],
) -> float:
    """``sum_X log p({v[X]} | Theta, beta_X)`` (Eq. 5, logged)."""
    return float(sum(model.log_likelihood(theta) for model in models))


def g1(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    models: tuple[AttributeModel, ...] | list[AttributeModel],
    floor: float = 1e-12,
) -> float:
    """Eq. (9): link consistency at fixed gamma + attribute likelihood."""
    return structural_consistency(
        theta, gamma, matrices, floor
    ) + attribute_log_likelihood(theta, models)


def dirichlet_alphas(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
) -> np.ndarray:
    """Eq. (15) parameters: ``alpha_ik = sum_e gamma w theta_jk + 1``.

    Returns the ``(n, K)`` array of Dirichlet parameters of each object's
    conditional distribution given its out-neighbours, evaluated as one
    fused combined-matrix product.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    operator = PropagationOperator.wrap(matrices)
    alphas = operator.propagate(theta, gamma)
    alphas += 1.0
    return alphas


def log_local_partition(alphas: np.ndarray) -> np.ndarray:
    """``log Z_i = log B(alpha_i)`` per object (multivariate Beta)."""
    return gammaln(alphas).sum(axis=1) - gammaln(alphas.sum(axis=1))


def g2_prime(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    sigma: float,
    floor: float = 1e-12,
) -> float:
    """Eq. (14): pseudo-log-likelihood of gamma at fixed Theta.

    ``sum_i ( sum_{e=<v_i,v_j>} f - log Z_i(gamma) ) - ||gamma||^2 / 2 sigma^2``
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    theta = floor_distribution(theta, floor)
    feature_total = float(
        np.dot(gamma, relation_consistency_totals(theta, matrices, floor))
    )
    alphas = dirichlet_alphas(theta, gamma, matrices)
    partition_total = float(log_local_partition(alphas).sum())
    prior = float(np.dot(gamma, gamma)) / (2.0 * sigma**2)
    return feature_total - partition_total - prior


def unified_objective(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    models: tuple[AttributeModel, ...] | list[AttributeModel],
    sigma: float,
    floor: float = 1e-12,
) -> float:
    """Eq. (8) with pseudo-likelihood structure term.

    ``log p(attrs | Theta, beta) + log~p(Theta | G, gamma) - ||gamma||^2/2sigma^2``
    where ``log~p`` is the pseudo-log-likelihood of Section 4.2.
    """
    return attribute_log_likelihood(theta, models) + g2_prime(
        theta, gamma, matrices, sigma, floor
    )
