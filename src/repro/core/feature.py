"""The cross-entropy feature function of Eq. (6) and its aggregates.

For a link ``e = <v_i, v_j>`` of relation ``r``,

    f(theta_i, theta_j, e, gamma) = -gamma(r) * w(e) * H(theta_j, theta_i)
                                  =  gamma(r) * w(e) * sum_k theta_jk * log theta_ik

where ``H(theta_j, theta_i)`` is the cross entropy *from the target's
membership to the source's*.  The function satisfies the paper's three
desiderata: it increases with membership similarity, decreases with link
weight/strength, and is asymmetric in its first two arguments (Section
3.3; the Fig. 4 worked example is unit-tested against these formulas).

:func:`structural_consistency` sums ``f`` over all links -- the exponent
of the log-linear model of Eq. (7) -- in ``O(K |E|)`` via per-relation
sparse products.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import PropagationOperator
from repro.hin.views import RelationMatrices


def floor_distribution(
    theta: np.ndarray, floor: float = 1e-12
) -> np.ndarray:
    """Clamp a membership vector/matrix away from zero and re-normalize.

    Eq. (6) takes ``log theta``; EM can drive entries to exactly zero, so
    every consumer of memberships flows through this helper first.  Works
    on a single ``(K,)`` vector or a ``(n, K)`` matrix.
    """
    theta = np.asarray(theta, dtype=np.float64)
    clipped = np.clip(theta, floor, None)
    if clipped.ndim == 1:
        return clipped / clipped.sum()
    return clipped / clipped.sum(axis=1, keepdims=True)


def cross_entropy(theta_j: np.ndarray, theta_i: np.ndarray) -> float:
    """``H(theta_j, theta_i) = -sum_k theta_jk log theta_ik``.

    The deviation of ``v_j`` from ``v_i`` in average coding bits (nats
    here) when coding ``theta_j`` with a scheme based on ``theta_i``.
    Asymmetric by design.
    """
    theta_j = np.asarray(theta_j, dtype=np.float64)
    theta_i = floor_distribution(theta_i)
    return float(-np.dot(theta_j, np.log(theta_i)))


def feature_function(
    theta_i: np.ndarray,
    theta_j: np.ndarray,
    gamma_r: float,
    weight: float = 1.0,
) -> float:
    """Eq. (6) for one link ``<v_i, v_j>`` with strength ``gamma_r``.

    Parameters
    ----------
    theta_i:
        Membership vector of the link *source*.
    theta_j:
        Membership vector of the link *target*.
    gamma_r:
        Learned strength of the link's relation type (must be >= 0).
    weight:
        The link's input weight ``w(e)``.

    Returns
    -------
    float
        A non-positive consistency value; larger (closer to zero) means
        the link is more consistent with the memberships.
    """
    if gamma_r < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma_r}")
    if weight < 0:
        raise ValueError(f"link weight must be non-negative, got {weight}")
    return -gamma_r * weight * cross_entropy(theta_j, theta_i)


def relation_consistency_totals(
    theta: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    floor: float = 1e-12,
) -> np.ndarray:
    """Per-relation sums ``sum_e w(e) sum_k theta_jk log theta_ik``.

    Entry ``r`` is the total feature value of relation ``r`` at unit
    strength; multiplying by ``gamma`` and summing gives the full
    structural-consistency exponent.  Uses the identity

        sum_{<i,j> in r} w_ij sum_k theta_jk log theta_ik
            = sum_{i,k} (W_r Theta)_{ik} * log theta_ik.
    """
    theta = floor_distribution(theta, floor)
    log_theta = np.log(theta)
    totals = np.empty(matrices.num_relations)
    for r, matrix in enumerate(matrices.matrices):
        propagated = matrix @ theta  # (n, K): sum_j w_ij theta_jk
        totals[r] = float(np.sum(propagated * log_theta))
    return totals


def structural_consistency(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    floor: float = 1e-12,
) -> float:
    """The exponent of Eq. (7): ``sum_e f(theta_i, theta_j, e, gamma)``.

    Evaluated through the fused propagation operator: with gamma fixed
    inside the sum, ``sum_r gamma_r sum((W_r Theta) * log Theta)``
    equals ``sum(((sum_r gamma_r W_r) Theta) * log Theta)`` -- one
    sparse matmul instead of one per relation.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (matrices.num_relations,):
        raise ValueError(
            f"gamma must have shape ({matrices.num_relations},), "
            f"got {gamma.shape}"
        )
    operator = PropagationOperator.wrap(matrices)
    theta = floor_distribution(theta, floor)
    propagated = operator.propagate(theta, gamma)
    return float(np.sum(propagated * np.log(theta)))
