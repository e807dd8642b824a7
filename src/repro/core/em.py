"""Cluster optimization: the EM step of Section 4.1.

Given fixed link-type strengths gamma, maximizes ``g1(Theta, beta)``
(Eq. 9) by the EM iteration of Eqs. 10-12, generalized to any set of
categorical/Gaussian attributes:

    theta_vk  propto  sum_{e=<v,u>} gamma(phi(e)) w(e) theta_uk
              + sum_X 1{v in V_X} sum_{x in v[X]} p(z_vx = k | ...)

The neighbour term is the gamma-weighted average of *out-neighbour*
memberships; the attribute terms are responsibility sums delegated to the
attribute models.  Updates are Jacobi-style: every quantity on the right
is evaluated at iteration ``t - 1``, matching the paper's update rules.

An object with no out-links and no observations has an all-zero update;
such rows keep their previous membership (they are reported by
``repro.hin.validation`` beforehand).

Hot-path layout: because gamma is fixed for the whole inner loop, the
neighbour term collapses into one combined sparse matmul through the
:class:`~repro.core.kernels.PropagationOperator`, and ``run_em``
double-buffers Theta through a single :class:`~repro.core.kernels.EMWorkspace`
so no per-iteration ``(n, K)`` arrays are allocated.  The per-relation
:func:`neighbor_term` is kept as the readable reference implementation
(equivalence is asserted in ``tests/test_kernels_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.attribute_models import AttributeModel
from repro.core.feature import floor_distribution
from repro.core.kernels import (
    BlockPlan,
    EMWorkspace,
    PropagationOperator,
    normalize_update_block,
    run_blocks,
)
from repro.core.objective import g1
from repro.hin.views import RelationMatrices


@dataclass(frozen=True, slots=True)
class EMOutcome:
    """Result of one cluster-optimization step.

    Attributes
    ----------
    theta:
        The optimized ``(n, K)`` membership matrix (rows on the simplex).
    iterations:
        Inner EM iterations actually run.
    objective:
        Final ``g1`` value.
    objective_trace:
        ``g1`` after every inner iteration (useful for monotonicity
        diagnostics; EM with Jacobi theta updates is not strictly
        monotone step-by-step but converges in practice).
    converged:
        True when the theta change dropped below the tolerance before the
        iteration cap.
    """

    theta: np.ndarray
    iterations: int
    objective: float
    objective_trace: tuple[float, ...]
    converged: bool


def neighbor_term(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
) -> np.ndarray:
    """``sum_r gamma_r (W_r @ Theta)``: the link part of the theta update.

    Reference per-relation accumulation; the solver's hot path runs the
    algebraically identical fused product via
    :meth:`PropagationOperator.propagate`.
    """
    n, k = theta.shape
    total = np.zeros((n, k))
    for g, matrix in zip(gamma, matrices.matrices):
        if g != 0.0:
            total += g * (matrix @ theta)
    return total


def em_update(
    theta: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    models: tuple[AttributeModel, ...] | list[AttributeModel],
    floor: float = 1e-12,
    out: np.ndarray | None = None,
    workspace: EMWorkspace | None = None,
    plan: BlockPlan | None = None,
    obs=None,
) -> np.ndarray:
    """One Jacobi EM update of Theta (Eqs. 10-12), returning the new Theta.

    Attribute model parameters (beta / mu, sigma^2) are refreshed in place
    by their ``accumulate_em_step``.

    Parameters
    ----------
    theta, gamma, matrices, models, floor:
        As in the paper's update rules; ``matrices`` may be the raw
        per-relation views or an already-wrapped operator.
    out:
        Optional ``(n, K)`` destination for the new Theta.  Must not
        alias ``theta`` (the update is Jacobi: the old Theta is read
        while the new one is written).
    workspace:
        Optional scratch reused across iterations; allocated on the fly
        when omitted (single-call convenience path).
    plan:
        The update always runs block-by-block, over
        ``BlockPlan.for_shape(n, K)`` unless ``plan`` overrides it.  Every
        per-row stage writes disjoint row slices and every cross-block
        reduction is block-ordered, so the result depends only on the
        plan.
    obs:
        Optional :class:`~repro.obs.Observability`.  When recording,
        the sweep's wall-clock lands in the
        ``repro_em_sweep_seconds`` histogram; the default ``None``
        path costs one predicate test (the <2% overhead gate in
        ``bench_core_kernels.py``).  Timing never feeds back into the
        update -- results are bit-identical either way.
    """
    recording = obs is not None and obs.recording
    if recording:
        tick = time.perf_counter()
    operator = PropagationOperator.wrap(matrices)
    n, k = theta.shape
    if workspace is None:
        workspace = EMWorkspace(n, k)
    if plan is None:
        plan = BlockPlan.for_shape(n, k)
    update = workspace.update
    operator.propagate(theta, gamma, out=update, plan=plan)
    for model in models:
        model.accumulate_em_step(theta, update)
    if out is None:
        out = np.empty_like(update)
    row_sums = workspace.row_sums

    def normalize_block(_index: int, start: int, stop: int) -> None:
        normalize_update_block(
            update, theta, out, row_sums, floor, start, stop
        )

    run_blocks(plan, normalize_block)
    if recording:
        obs.metrics.histogram(
            "repro_em_sweep_seconds",
            "Wall-clock seconds per Jacobi EM sweep",
        ).observe(time.perf_counter() - tick)
    return out


def run_em(
    theta0: np.ndarray,
    gamma: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    models: tuple[AttributeModel, ...] | list[AttributeModel],
    max_iterations: int = 50,
    tol: float = 1e-4,
    floor: float = 1e-12,
    track_objective: bool = True,
    plan: BlockPlan | None = None,
    obs=None,
) -> EMOutcome:
    """Run the inner EM loop to convergence (Algorithm 1, step 1).

    Parameters
    ----------
    theta0:
        Starting memberships (``(n, K)``, rows on the simplex).
    gamma:
        Fixed link-type strengths for this step.
    matrices, models:
        The compiled problem pieces (``matrices`` may be pre-wrapped).
    max_iterations, tol:
        Stop after ``max_iterations`` or when
        ``max |Theta_t - Theta_{t-1}| < tol``.
    track_objective:
        When false, ``g1`` is only computed once at the end (saves time
        in benchmarks).
    plan:
        The block plan threaded through every :func:`em_update`.
    obs:
        Optional :class:`~repro.obs.Observability` threaded into every
        sweep (per-sweep latency histogram) plus a
        ``repro_em_sweeps_total`` counter for the loop.
    """
    theta = floor_distribution(np.asarray(theta0, dtype=np.float64), floor)
    gamma = np.asarray(gamma, dtype=np.float64)
    operator = PropagationOperator.wrap(matrices)
    workspace = EMWorkspace(*theta.shape)
    if plan is None:
        plan = BlockPlan.for_shape(*theta.shape)
    # Jacobi double buffer: theta holds iteration t-1, spare receives t
    spare = np.empty_like(theta)
    trace: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        theta_next = em_update(
            theta, gamma, operator, models, floor,
            out=spare, workspace=workspace, plan=plan, obs=obs,
        )
        change = np.subtract(theta_next, theta, out=workspace.update)
        delta = float(np.max(np.abs(change, out=change)))
        theta, spare = theta_next, theta
        if track_objective:
            trace.append(g1(theta, gamma, operator, models, floor))
        if delta < tol:
            converged = True
            break
    objective = (
        trace[-1] if trace else g1(theta, gamma, operator, models, floor)
    )
    if obs is not None and obs.recording:
        obs.metrics.counter(
            "repro_em_sweeps_total", "Jacobi EM sweeps run"
        ).inc(iterations)
    return EMOutcome(
        theta=theta,
        iterations=iterations,
        objective=objective,
        objective_trace=tuple(trace),
        converged=converged,
    )
