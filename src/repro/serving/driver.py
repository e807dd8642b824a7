"""The autonomic retrain driver: a policy loop around ``promote()``.

The mechanism for closing the model lifecycle has existed since PR 3
(``engine.promote()`` refits base + extensions warm-started from the
served optimum); what was missing is the *scheduler*: something that
watches serving telemetry and decides **when** refitting is worth it.
:class:`RetrainDriver` is that loop, and it is deliberately dumb about
models and smart about signals:

* **Extension pressure** -- folded-in nodes are second-class (scored
  against a frozen base, never re-learned).  When any engine's owned
  extension space exceeds ``max_extension_nodes``, the served model
  has drifted far enough from its training set to re-learn.  On a
  :class:`~repro.serving.router.ShardedEngine` the watermark is
  **per shard** (one hot shard saturates long before the cluster
  average does).
* **Query staleness** -- a model can also age without growing: after
  ``max_staleness_queries`` transient queries since the last promote,
  the driver refits on suspicion alone.
* **Adaptive cooldown** -- each refit's realized ``g1`` gain (final
  minus first outer iteration of the warm-started history) is checked
  against ``min_g1_gain``; a promote that stopped paying raises the
  trigger thresholds by ``backoff_factor`` until one pays again, so a
  stationary workload stops burning refits (the "autonomic" half:
  the driver tunes its own sensitivity from observed outcomes).

The driver talks to any engine exposing ``obs``, ``info()`` and
``promote()`` -- a singleton
:class:`~repro.serving.engine.InferenceEngine` or a
:class:`~repro.serving.router.ShardedEngine` (whose promote refits the
whole cluster and rebalances the shard plan).  ``tick()`` runs the
check-and-maybe-retrain step inline, on the caller's thread: engines
are not internally locked, so a refit never overlaps the caller's
writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.config import GenClusConfig
from repro.exceptions import ServingError
from repro.serving.telemetry import ServingMetrics


@dataclass(frozen=True)
class RetrainPolicy:
    """When to trade serving throughput for a warm-started refit.

    Parameters
    ----------
    max_extension_nodes:
        Retrain when any engine (any *shard*, under a router) owns at
        least this many folded-in extension nodes.  ``None`` disables
        the pressure trigger.
    max_staleness_queries:
        Retrain after this many transient queries served since the
        last promote.  ``None`` disables the staleness trigger.
    min_g1_gain:
        The ``g1`` improvement a refit must realize to count as
        "paying"; a refit below this raises both thresholds by
        ``backoff_factor`` (and a paying refit resets them).
    backoff_factor:
        Multiplier applied to the effective thresholds after an
        unprofitable refit (>= 1; 1 disables the cooldown).
    """

    max_extension_nodes: int | None = None
    max_staleness_queries: int | None = None
    min_g1_gain: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if (
            self.max_extension_nodes is None
            and self.max_staleness_queries is None
        ):
            raise ServingError(
                "a retrain policy needs at least one trigger: set "
                "max_extension_nodes and/or max_staleness_queries"
            )
        if (
            self.max_extension_nodes is not None
            and self.max_extension_nodes < 1
        ):
            raise ServingError(
                f"max_extension_nodes must be >= 1, got "
                f"{self.max_extension_nodes}"
            )
        if (
            self.max_staleness_queries is not None
            and self.max_staleness_queries < 1
        ):
            raise ServingError(
                f"max_staleness_queries must be >= 1, got "
                f"{self.max_staleness_queries}"
            )
        if self.min_g1_gain < 0:
            raise ServingError(
                f"min_g1_gain must be >= 0, got {self.min_g1_gain}"
            )
        if self.backoff_factor < 1:
            raise ServingError(
                f"backoff_factor must be >= 1, got "
                f"{self.backoff_factor}"
            )


@dataclass(frozen=True)
class RetrainRound:
    """Telemetry for one driver-triggered refit.

    A failed refit is recorded too (``error`` set, the ``g1`` fields
    NaN), so the history shows every attempt; the exception itself
    still propagates from :meth:`~RetrainDriver.tick`.
    """

    trigger: str  # "extension_pressure" | "staleness"
    shard_id: int | None  # the shard that tripped (pressure only)
    extension_nodes: int  # promoted into the new base
    g1_first: float
    g1_final: float
    g1_gain: float
    outer_iterations: int
    rebalanced: bool  # did the shard plan change (router only)
    backed_off: bool  # did this round raise the thresholds
    error: str | None = None  # the refit's exception, when it failed


class RetrainDriver:
    """Watches an engine's telemetry and promotes when policy trips.

    Parameters
    ----------
    engine:
        A singleton :class:`~repro.serving.engine.InferenceEngine` or
        a :class:`~repro.serving.router.ShardedEngine`.
    policy:
        The :class:`RetrainPolicy` thresholds.
    config:
        Optional refit :class:`~repro.core.config.GenClusConfig`
        passed through to ``promote()``.
    """

    def __init__(
        self,
        engine,
        policy: RetrainPolicy,
        config: GenClusConfig | None = None,
    ) -> None:
        self._engine = engine
        self._policy = policy
        self._config = config
        self._scale = 1.0  # cooldown multiplier on both thresholds
        # record into the engine's registry so retrain telemetry rides
        # the same export (cluster-scope on a router: the retrain
        # families are ROUTER_AUTHORITATIVE)
        self._metrics = ServingMetrics(engine.obs.metrics)
        self._queries_at_promote = self._queries_served(engine.info())
        self.rounds: list[RetrainRound] = []

    # ------------------------------------------------------------------
    @property
    def pressure_scale(self) -> float:
        """The live cooldown multiplier (1.0 = thresholds as set)."""
        return self._scale

    @staticmethod
    def _queries_served(info: dict[str, Any]) -> int:
        return int(info["queries"]["served"])

    @staticmethod
    def _shard_pressures(info: dict[str, Any]) -> list[int]:
        """Owned extension nodes per engine: per shard under a router,
        the single extension space otherwise."""
        cluster = info.get("cluster")
        if cluster is not None:
            return [int(n) for n in cluster["shard_extension_nodes"]]
        return [int(info["extension"]["nodes"])]

    def check(self) -> tuple[str, int | None] | None:
        """Evaluate the policy against live telemetry.

        Returns ``(trigger, shard_id)`` when a refit is due (shard_id
        is ``None`` for staleness), else ``None``.  Pure read -- no
        retrain side effects.
        """
        info = self._engine.info()
        policy = self._policy
        if policy.max_extension_nodes is not None:
            limit = policy.max_extension_nodes * self._scale
            pressures = self._shard_pressures(info)
            hottest = max(range(len(pressures)), key=pressures.__getitem__)
            if pressures[hottest] >= limit:
                shard = hottest if "cluster" in info else None
                return ("extension_pressure", shard)
        if policy.max_staleness_queries is not None:
            staleness = (
                self._queries_served(info) - self._queries_at_promote
            )
            if staleness >= policy.max_staleness_queries * self._scale:
                return ("staleness", None)
        return None

    def tick(self) -> RetrainRound | None:
        """Check, and retrain when the policy trips.

        Returns the finished :class:`RetrainRound`, or ``None`` when
        nothing tripped.  A failed refit is recorded and counted, then
        its exception propagates.
        """
        trigger = self.check()
        if trigger is None:
            return None
        return self._retrain(trigger)

    # ------------------------------------------------------------------
    def _retrain(self, trigger: tuple[str, int | None]) -> RetrainRound:
        reason, shard_id = trigger
        engine = self._engine
        plan_before = getattr(engine, "plan", None)
        promoted_nodes = int(engine.num_extension_nodes)
        try:
            result = engine.promote(self._config)
        except Exception as exc:
            # the round must not vanish: record the failed attempt and
            # count it before the exception surfaces (the engine rolled
            # back, so the trigger stays tripped and the next tick()
            # retries)
            self._metrics.retrain_failures.inc()
            self.rounds.append(
                RetrainRound(
                    trigger=reason,
                    shard_id=shard_id,
                    extension_nodes=promoted_nodes,
                    g1_first=float("nan"),
                    g1_final=float("nan"),
                    g1_gain=float("nan"),
                    outer_iterations=0,
                    rebalanced=False,
                    backed_off=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            raise
        plan_after = getattr(engine, "plan", None)
        g1 = result.history.g1_series()
        g1_first = float(g1[0])
        g1_final = float(g1[-1])
        gain = g1_final - g1_first
        backed_off = gain < self._policy.min_g1_gain
        if backed_off:
            self._scale *= self._policy.backoff_factor
        else:
            self._scale = 1.0
        self._queries_at_promote = self._queries_served(engine.info())
        round_ = RetrainRound(
            trigger=reason,
            shard_id=shard_id,
            extension_nodes=promoted_nodes,
            g1_first=g1_first,
            g1_final=g1_final,
            g1_gain=gain,
            outer_iterations=int(
                result.history.records[-1].outer_iteration
            ),
            rebalanced=(
                plan_after is not None and plan_after != plan_before
            ),
            backed_off=backed_off,
        )
        self.rounds.append(round_)
        self._metrics.retrain_rounds.inc()
        if backed_off:
            self._metrics.retrain_backoffs.inc()
        self._metrics.retrain_scale.set(self._scale)
        self._metrics.retrain_last_gain.set(gain)
        return round_
