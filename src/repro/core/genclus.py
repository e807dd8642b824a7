"""The GenClus algorithm: Algorithm 1 of Section 4.3.

Alternates two mutually-enhancing steps until the outer budget or gamma
convergence:

1. **Cluster optimization** (Section 4.1): EM on Theta and the attribute
   component parameters at fixed gamma.
2. **Strength learning** (Section 4.2): projected Newton-Raphson on gamma
   at fixed Theta.

gamma starts at the all-ones vector ("all the link types ... initially
considered equally important"); Theta starts from the multi-seed
tentative-run procedure.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.attribute_models import CategoricalModel, GaussianModel
from repro.core.config import GenClusConfig
from repro.core.diagnostics import IterationRecord, RunHistory
from repro.core.em import run_em
from repro.core.initialization import select_initial_theta
from repro.core.kernels import BlockPlan, PropagationOperator
from repro.core.objective import g1
from repro.core.problem import ClusteringProblem, compile_problem
from repro.core.result import GenClusResult
from repro.core.state import ModelState
from repro.core.strength import learn_strengths
from repro.exceptions import ConfigError, ConvergenceError, StateError
from repro.hin.network import HeterogeneousNetwork
from repro.obs.tracing import Tracer

IterationCallback = Callable[[int, np.ndarray, np.ndarray], None]
"""Called after each outer iteration with (iteration, theta, gamma)."""


class GenClus:
    """Relation strength-aware clustering of heterogeneous networks.

    Examples
    --------
    >>> from repro.core import GenClus, GenClusConfig
    >>> model = GenClus(GenClusConfig(n_clusters=4, seed=7))
    >>> result = model.fit(network, attributes=["title"])  # doctest: +SKIP
    >>> result.strengths()  # doctest: +SKIP
    {'publish_in': 14.2, 'published_by': 10.8, 'coauthor': 0.01}
    """

    def __init__(self, config: GenClusConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def fit(
        self,
        network: HeterogeneousNetwork,
        attributes: list[str] | tuple[str, ...],
        callback: IterationCallback | None = None,
        initial_theta: np.ndarray | None = None,
        warm_start: "ModelState | None" = None,
        obs=None,
    ) -> GenClusResult:
        """Run Algorithm 1 on a network.

        Parameters
        ----------
        network:
            The heterogeneous network to cluster.
        attributes:
            The user-specified attribute subset (Section 2.2).
        callback:
            Optional hook invoked after every outer iteration with
            ``(iteration, theta, gamma)`` -- used by the Fig. 10
            experiment to trace accuracy against strength evolution.
        initial_theta:
            Explicit starting memberships, overriding the multi-seed
            initialization (used by tests and ablations).
        warm_start:
            A :class:`~repro.core.state.ModelState` to resume from: the
            outer loop starts at its theta/gamma/attribute parameters
            instead of the all-ones gamma and the multi-seed tentative
            runs.  The state must cover this network's node set.
        obs:
            Optional :class:`~repro.obs.Observability`.  With tracing
            enabled the fit records a ``fit > outer_iter[i] >
            em_sweep / newton`` span tree; metrics-only handles get
            iteration counters and sweep histograms.  Results are
            bit-identical with or without it.

        Returns
        -------
        GenClusResult
        """
        problem = compile_problem(
            network,
            attributes,
            self.config.n_clusters,
            variance_floor=self.config.variance_floor,
        )
        return self.fit_problem(
            problem, callback, initial_theta, warm_start, obs=obs
        )

    def fit_state(
        self,
        state: "ModelState",
        callback: IterationCallback | None = None,
        obs=None,
    ) -> GenClusResult:
        """Refit a lifecycle state: materialize its base + extensions
        into a problem and run Algorithm 1 warm-started from it.

        This is the "refit from extended state" closing the lifecycle
        loop -- folded-in nodes and their accumulated links become
        first-class training data, and optimization resumes from the
        served theta/gamma instead of a cold initialization.
        """
        return self.fit_problem(
            state.to_problem(), callback, warm_start=state, obs=obs
        )

    def fit_problem(
        self,
        problem: ClusteringProblem,
        callback: IterationCallback | None = None,
        initial_theta: np.ndarray | None = None,
        warm_start: "ModelState | None" = None,
        obs=None,
    ) -> GenClusResult:
        """Run Algorithm 1 on an already-compiled problem.

        Phase timing always runs through tracing spans -- the
        :class:`~repro.core.diagnostics.RunHistory` ``em_seconds`` /
        ``newton_seconds`` fields are each span's measured duration.
        When the caller's ``obs`` handle is not tracing, a throwaway
        local :class:`~repro.obs.Tracer` provides the spans, so the
        history is populated either way.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        matrices = problem.matrices
        # one fused operator is shared by initialization, every inner-EM
        # sweep, the g1 evaluations, and strength statistics; only the
        # per-outer-iteration gamma change rewrites its combined data
        operator = PropagationOperator.wrap(matrices)
        num_relations = matrices.num_relations
        # blocked execution: one shape-derived node-space plan drives
        # inner EM and strength learning; the attribute models block
        # their own observation spaces
        plan = BlockPlan.for_shape(problem.num_nodes, config.n_clusters)

        # phase timing always runs through spans (a throwaway tracer
        # when the caller is not tracing); span durations feed the
        # RunHistory em_seconds / newton_seconds fields
        tracing = obs is not None and obs.tracing
        tracer = obs.tracer if tracing else Tracer(max_traces=1)
        metrics = (
            obs.metrics if obs is not None and obs.recording else None
        )
        last_outer = 0

        with tracer.span(
            "fit",
            n_clusters=config.n_clusters,
            num_nodes=problem.num_nodes,
            warm_start=warm_start is not None,
        ) as fit_span:
            with tracer.span("init"):
                gamma = np.ones(num_relations)
                if warm_start is not None:
                    if initial_theta is not None:
                        raise ConfigError(
                            "initial_theta and warm_start are "
                            "mutually exclusive"
                        )
                    theta = _install_warm_start(problem, warm_start)
                    gamma = warm_start.gamma.copy()
                elif initial_theta is not None:
                    theta = np.asarray(
                        initial_theta, dtype=np.float64
                    ).copy()
                    expected = (problem.num_nodes, problem.n_clusters)
                    if theta.shape != expected:
                        raise ValueError(
                            f"initial_theta must have shape "
                            f"{expected}, got {theta.shape}"
                        )
                    for model in problem.attribute_models:
                        model.init_params(rng)
                else:
                    theta = select_initial_theta(
                        problem,
                        gamma,
                        rng,
                        n_init=config.n_init,
                        init_steps=config.init_steps,
                        floor=config.theta_floor,
                    )

                history = RunHistory(
                    relation_names=matrices.relation_names
                )
                history.append(
                    IterationRecord(
                        outer_iteration=0,
                        gamma=gamma.copy(),
                        g1_value=g1(
                            theta,
                            gamma,
                            operator,
                            problem.attribute_models,
                            config.theta_floor,
                        ),
                        g2_value=float("nan"),
                    )
                )
            if callback is not None:
                callback(0, theta, gamma)

            for outer in range(1, config.outer_iterations + 1):
                with tracer.span(f"outer_iter[{outer}]"):
                    with tracer.span("em_sweep") as em_span:
                        em_outcome = run_em(
                            theta,
                            gamma,
                            operator,
                            problem.attribute_models,
                            max_iterations=config.em_iterations,
                            tol=config.em_tol,
                            floor=config.theta_floor,
                            track_objective=config.track_em_objective,
                            plan=plan,
                            obs=obs,
                        )
                        em_span.annotate(
                            iterations=em_outcome.iterations,
                            converged=em_outcome.converged,
                        )
                    em_seconds = em_span.duration
                    theta = em_outcome.theta
                    if not np.all(np.isfinite(theta)):
                        raise ConvergenceError(
                            f"EM produced non-finite memberships at "
                            f"outer iteration {outer}"
                        )

                    with tracer.span("newton") as newton_span:
                        if num_relations > 0 and config.newton_iterations > 0:
                            strength_outcome = learn_strengths(
                                theta,
                                operator,
                                gamma,
                                sigma=config.sigma,
                                max_iterations=config.newton_iterations,
                                tol=config.newton_tol,
                                floor=config.theta_floor,
                                plan=plan,
                                obs=obs,
                            )
                            gamma_next = strength_outcome.gamma
                            newton_iterations = strength_outcome.iterations
                            g2_value = strength_outcome.objective
                            newton_span.annotate(
                                evaluations=strength_outcome.evaluations,
                                stalled=strength_outcome.stalled,
                            )
                        else:
                            gamma_next = gamma.copy()
                            newton_iterations = 0
                            g2_value = float("nan")
                        newton_span.annotate(
                            iterations=newton_iterations
                        )
                    newton_seconds = newton_span.duration

                gamma_change = (
                    float(np.max(np.abs(gamma_next - gamma)))
                    if num_relations
                    else 0.0
                )
                gamma = gamma_next
                history.append(
                    IterationRecord(
                        outer_iteration=outer,
                        gamma=gamma.copy(),
                        g1_value=em_outcome.objective,
                        g2_value=g2_value,
                        em_iterations=em_outcome.iterations,
                        newton_iterations=newton_iterations,
                        em_seconds=em_seconds,
                        newton_seconds=newton_seconds,
                        em_objective_trace=em_outcome.objective_trace,
                    )
                )
                last_outer = outer
                if callback is not None:
                    callback(outer, theta, gamma)
                if config.gamma_tol > 0 and gamma_change < config.gamma_tol:
                    break
            fit_span.annotate(
                outer_iterations=last_outer,
                g1=float(history.records[-1].g1_value),
            )

        if metrics is not None:
            metrics.counter("repro_fits_total", "GenClus fits run").inc()
            metrics.counter(
                "repro_fit_outer_iterations_total",
                "Outer iterations across all fits",
            ).inc(last_outer)

        return GenClusResult(
            theta=theta,
            gamma=gamma,
            relation_names=matrices.relation_names,
            attribute_params=_collect_params(problem),
            history=history,
            network=problem.network,
        )


def _install_warm_start(
    problem: ClusteringProblem, state: "ModelState"
) -> np.ndarray:
    """Validate a warm start against a problem and install its
    attribute parameters on the problem's models; returns the starting
    theta (a copy)."""
    expected = (problem.num_nodes, problem.n_clusters)
    theta = np.asarray(state.theta, dtype=np.float64)
    if theta.shape != expected:
        raise StateError(
            f"warm start covers {theta.shape}, but the problem needs "
            f"theta of shape {expected}"
        )
    if state.relation_names != problem.matrices.relation_names:
        raise StateError(
            f"warm-start relations {state.relation_names} do not match "
            f"the problem's {problem.matrices.relation_names}"
        )
    if state.attribute_names != problem.attribute_names:
        raise StateError(
            f"warm-start attributes {state.attribute_names} do not "
            f"match the problem's {problem.attribute_names}"
        )
    for name, model in zip(
        problem.attribute_names, problem.attribute_models
    ):
        params = state.attribute_params[name]
        if isinstance(model, CategoricalModel):
            model.set_params(params["beta"])
        else:
            model.set_params(params["means"], params["variances"])
    return theta.copy()


def _collect_params(problem: ClusteringProblem) -> dict[str, dict]:
    """Snapshot the learned component parameters per attribute."""
    params: dict[str, dict] = {}
    for name, model in zip(
        problem.attribute_names, problem.attribute_models
    ):
        if isinstance(model, CategoricalModel):
            params[name] = {
                "kind": "categorical",
                "beta": model.beta.copy(),
                "vocabulary": model.compiled.vocabulary,
            }
        elif isinstance(model, GaussianModel):
            params[name] = {
                "kind": "gaussian",
                "means": model.means.copy(),
                "variances": model.variances.copy(),
            }
    return params
