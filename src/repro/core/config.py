"""Configuration for the GenClus algorithm.

Defaults follow the paper's experimental section: 10 outer iterations
(Section 5.2.1, DBLP networks), gamma prior scale ``sigma = 0.1``
(Section 3.4), gamma initialized to all ones (Section 4.3), and the
multi-seed tentative-run initialization for Theta (Section 4.3, option 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigError


@dataclass(frozen=True, slots=True)
class GenClusConfig:
    """All knobs of Algorithm 1.

    Parameters
    ----------
    n_clusters:
        ``K``, the number of clusters.  Model selection for ``K`` is out
        of the paper's scope (Section 2.2) and out of ours.
    outer_iterations:
        Number of alternations between cluster optimization and strength
        learning (the paper uses 10 for DBLP, 5 for the weather networks).
    em_iterations:
        Cap on inner EM iterations per cluster-optimization step.
    em_tol:
        EM stops early when ``max |Theta_t - Theta_{t-1}|`` drops below
        this.
    newton_iterations:
        Cap on Newton-Raphson iterations per strength-learning step.
    newton_tol:
        Newton stops early when ``max |gamma_t - gamma_{t-1}|`` drops
        below this.
    sigma:
        Standard deviation of the zero-mean Gaussian prior on gamma
        (Eq. 8); the paper sets 0.1.
    n_init:
        Number of tentative random seeds for Theta initialization; the
        seed whose short EM run reaches the highest ``g1`` wins.
    init_steps:
        EM steps run for each tentative seed.
    theta_floor:
        Lower clamp applied to Theta rows before logarithms (Eq. 6 takes
        ``log theta``); rows are re-normalized after clamping.
    variance_floor:
        Lower clamp for Gaussian component variances, preventing collapse
        onto a single observation.
    seed:
        Seed for all randomness in one fit; ``None`` draws fresh entropy.
    gamma_tol:
        Outer loop stops early when ``max |gamma_t - gamma_{t-1}|`` drops
        below this (set to 0 to always run ``outer_iterations``).
    track_em_objective:
        When true, ``g1`` is evaluated after every *inner* EM iteration
        and the per-outer-iteration traces land in the run history
        (:attr:`~repro.core.diagnostics.IterationRecord.em_objective_trace`)
        -- monotonicity diagnostics without editing source.  Off by
        default: each evaluation costs an extra pass over links and
        observations.
    """

    n_clusters: int
    outer_iterations: int = 10
    em_iterations: int = 50
    em_tol: float = 1e-4
    newton_iterations: int = 50
    newton_tol: float = 1e-6
    sigma: float = 0.1
    n_init: int = 5
    init_steps: int = 5
    theta_floor: float = 1e-12
    variance_floor: float = 1e-8
    seed: int | None = None
    gamma_tol: float = 1e-5
    track_em_objective: bool = False

    def __post_init__(self) -> None:
        # NaN passes every ordered check below (nan < 0 is false)
        for name in ("em_tol", "newton_tol", "sigma", "theta_floor",
                     "variance_floor", "gamma_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.n_clusters < 1:
            raise ConfigError(
                f"n_clusters must be >= 1, got {self.n_clusters}"
            )
        if self.outer_iterations < 1:
            raise ConfigError(
                f"outer_iterations must be >= 1, got {self.outer_iterations}"
            )
        if self.em_iterations < 1:
            raise ConfigError(
                f"em_iterations must be >= 1, got {self.em_iterations}"
            )
        if self.newton_iterations < 0:
            raise ConfigError(
                f"newton_iterations must be >= 0, "
                f"got {self.newton_iterations}"
            )
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.n_init < 1:
            raise ConfigError(f"n_init must be >= 1, got {self.n_init}")
        if self.init_steps < 1:
            raise ConfigError(
                f"init_steps must be >= 1, got {self.init_steps}"
            )
        if not 0 < self.theta_floor < 1e-2:
            raise ConfigError(
                f"theta_floor must be a small positive number, "
                f"got {self.theta_floor}"
            )
        if self.variance_floor <= 0:
            raise ConfigError(
                f"variance_floor must be positive, got {self.variance_floor}"
            )
        if self.em_tol < 0 or self.newton_tol < 0 or self.gamma_tol < 0:
            raise ConfigError("tolerances must be non-negative")
