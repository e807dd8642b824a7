"""GenClus: the paper's primary contribution.

This package implements the probabilistic clustering model of Section 3
and the iterative algorithm of Section 4:

* :mod:`repro.core.feature` -- the cross-entropy feature function (Eq. 6)
  and the structural-consistency score (the exponent of Eq. 7).
* :mod:`repro.core.attribute_models` -- per-attribute mixture components:
  categorical/PLSA for text (Eq. 3) and Gaussian for numeric (Eq. 4),
  each exposing its EM E/M pieces (Eqs. 10-12).
* :mod:`repro.core.em` -- the cluster-optimization step (Section 4.1).
* :mod:`repro.core.strength` -- the link-type strength-learning step
  (Section 4.2): pseudo-log-likelihood value, gradient (Eq. 16), Hessian
  (Eq. 17) and the projected Newton-Raphson solver.
* :mod:`repro.core.genclus` -- Algorithm 1, alternating the two steps.
* :mod:`repro.core.kernels` -- the fused/allocation-free numeric core
  shared by training and serving (propagation operator, workspaces,
  and the :class:`~repro.core.kernels.BlockPlan` blocked execution
  layer).
* :mod:`repro.core.state` -- :class:`~repro.core.state.ModelState`, the
  mutable, versioned model container shared by training, serving, and
  refit (warm starts, extension space, materialized refit problems).

The user-facing entry point is :class:`~repro.core.genclus.GenClus`.
"""

from repro._lazy import lazy_exports

# name -> defining module, imported on first access: importing
# ``repro.core`` (as every ``repro.core.*`` import does) loads nothing
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "GenClusConfig": "repro.core.config",
        "IterationRecord": "repro.core.diagnostics",
        "RunHistory": "repro.core.diagnostics",
        "cross_entropy": "repro.core.feature",
        "feature_function": "repro.core.feature",
        "structural_consistency": "repro.core.feature",
        "GenClus": "repro.core.genclus",
        "BlockPlan": "repro.core.kernels",
        "EMWorkspace": "repro.core.kernels",
        "PropagationOperator": "repro.core.kernels",
        "ClusteringProblem": "repro.core.problem",
        "compile_problem": "repro.core.problem",
        "GenClusResult": "repro.core.result",
        "ModelState": "repro.core.state",
    },
)

__all__ = [
    "BlockPlan",
    "ClusteringProblem",
    "EMWorkspace",
    "GenClus",
    "GenClusConfig",
    "GenClusResult",
    "IterationRecord",
    "ModelState",
    "PropagationOperator",
    "RunHistory",
    "compile_problem",
    "cross_entropy",
    "feature_function",
    "structural_consistency",
]
