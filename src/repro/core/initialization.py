"""Initialization strategies for Theta (Section 4.3).

The paper offers two options for initializing the inner EM loop:

1. a single random assignment, or
2. several random seeds, a few EM steps each, keeping the seed with the
   highest ``g1`` -- "the latter approach will produce more stable
   results".

:func:`select_initial_theta` implements option 2 (option 1 is the special
case ``n_init=1``).  Attribute model parameters are initialized per seed
and the winning seed's parameters are kept.
"""

from __future__ import annotations

import numpy as np

from repro.core.attribute_models import (
    AttributeModel,
    CategoricalModel,
    GaussianModel,
)
from repro.core.em import run_em
from repro.core.kernels import PropagationOperator
from repro.core.problem import ClusteringProblem
from repro.exceptions import ConvergenceError


def random_theta(
    rng: np.random.Generator, num_nodes: int, n_clusters: int
) -> np.ndarray:
    """Uniform-Dirichlet random membership rows."""
    return rng.dirichlet(np.ones(n_clusters), size=num_nodes)


def _snapshot_params(models: tuple[AttributeModel, ...]) -> list[tuple]:
    frozen: list[tuple] = []
    for model in models:
        if isinstance(model, CategoricalModel):
            frozen.append(("categorical", model.beta.copy()))
        elif isinstance(model, GaussianModel):
            frozen.append(
                ("gaussian", model.means.copy(), model.variances.copy())
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown model type {type(model).__name__}")
    return frozen


def _restore_params(
    models: tuple[AttributeModel, ...], frozen: list[tuple]
) -> None:
    for model, saved in zip(models, frozen):
        if saved[0] == "categorical":
            model.beta = saved[1].copy()
        else:
            model.means = saved[1].copy()
            model.variances = saved[2].copy()


def select_initial_theta(
    problem: ClusteringProblem,
    gamma: np.ndarray,
    rng: np.random.Generator,
    n_init: int = 5,
    init_steps: int = 5,
    floor: float = 1e-12,
) -> np.ndarray:
    """Multi-seed tentative-run initialization (Section 4.3, option 2).

    Runs ``init_steps`` EM iterations from ``n_init`` random starts at
    the given gamma and returns the Theta of the start with the highest
    ``g1``; the winning attribute parameters stay installed on the
    problem's models.
    """
    best_theta: np.ndarray | None = None
    best_objective = -np.inf
    best_params: list[tuple] | None = None
    # one fused operator serves every tentative run (gamma is fixed
    # across seeds, so its combined matrix is built exactly once)
    operator = PropagationOperator.wrap(problem.matrices)
    for variant in range(n_init):
        theta0 = random_theta(rng, problem.num_nodes, problem.n_clusters)
        for model in problem.attribute_models:
            model.init_params(rng, variant=variant)
        outcome = run_em(
            theta0,
            gamma,
            operator,
            problem.attribute_models,
            max_iterations=init_steps,
            tol=0.0,  # always run the full tentative budget
            floor=floor,
            track_objective=False,
        )
        if outcome.objective > best_objective:
            best_objective = outcome.objective
            best_theta = outcome.theta
            best_params = _snapshot_params(problem.attribute_models)
    if best_theta is None:
        raise ConvergenceError(
            f"none of the {n_init} initial starts had a finite "
            "objective; check the numeric observations for values so "
            "large (e.g. 1e308) that the Gaussian likelihood overflows"
        )
    _restore_params(problem.attribute_models, best_params)
    return best_theta
