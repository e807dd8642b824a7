"""Per-iteration diagnostics of a GenClus run.

The paper's Fig. 10 plots clustering accuracy and the gamma trajectory
over outer iterations; :class:`RunHistory` records exactly the data needed
to regenerate that figure from any fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State after one outer iteration of Algorithm 1.

    Attributes
    ----------
    outer_iteration:
        1-based outer iteration number (0 records the initial state).
    gamma:
        Strength vector after the iteration (copy).
    g1_value:
        Cluster-optimization objective after the EM step.
    g2_value:
        Pseudo-log-likelihood after the strength step (NaN for the
        initial record).
    em_iterations:
        Inner EM iterations used.
    newton_iterations:
        Inner Newton iterations used.
    em_seconds:
        Wall-clock seconds in the EM step.  Since the ``repro.obs``
        layer landed, this is the measured duration of the fit's
        ``em_sweep`` tracing span (identical data, one clock source);
        with tracing enabled the same interval also appears in the
        retained trace tree.
    newton_seconds:
        Wall-clock seconds in the Newton step -- the duration of the
        fit's ``newton`` span, like ``em_seconds``.
    em_objective_trace:
        ``g1`` after every inner EM iteration of this outer step; empty
        unless the fit ran with
        :attr:`~repro.core.config.GenClusConfig.track_em_objective`.
    """

    outer_iteration: int
    gamma: np.ndarray
    g1_value: float
    g2_value: float
    em_iterations: int = 0
    newton_iterations: int = 0
    em_seconds: float = 0.0
    newton_seconds: float = 0.0
    em_objective_trace: tuple[float, ...] = ()


@dataclass
class RunHistory:
    """Ordered iteration records plus convenience accessors."""

    relation_names: tuple[str, ...]
    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def gamma_trajectory(self) -> np.ndarray:
        """``(n_records, R)`` array of gamma over iterations (Fig. 10b)."""
        return np.stack([record.gamma for record in self.records])

    def g1_series(self) -> np.ndarray:
        return np.asarray([record.g1_value for record in self.records])

    def em_objective_traces(self) -> tuple[tuple[float, ...], ...]:
        """Inner ``g1`` traces per outer iteration (empty when the fit
        ran without ``track_em_objective``)."""
        return tuple(record.em_objective_trace for record in self.records)
