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

The driver talks to any engine exposing ``info()`` and ``promote()``
-- a singleton :class:`~repro.serving.engine.InferenceEngine` or a
:class:`~repro.serving.router.ShardedEngine` (whose promote refits the
whole cluster and rebalances the shard plan).  ``tick()`` runs the
check-and-maybe-retrain step; with ``background=True`` the refit runs
on a driver-owned thread (refits serialize) and ``join()`` collects
it and stops the thread.  Background mode assumes the caller pauses
writes while a refit is in flight -- engines are not internally
locked; the driver refuses to start a second refit before the first
is joined.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core.config import GenClusConfig
from repro.exceptions import ServingError
from repro.obs.observability import Observability
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
    max_consecutive_failures:
        How many refits may fail back-to-back before the exception
        surfaces to the caller.  The default (1) keeps the historical
        contract: the first failure both records its round and
        raises.  A larger bound turns failures into deterministic,
        jitter-free retries: each failed promote is recorded
        (``RetrainRound.error`` set, ``repro_retrain_failures_total``
        incremented) and swallowed, the trigger stays tripped, and the
        next :meth:`~RetrainDriver.tick` simply tries again -- until
        the bound is hit, which re-raises (and resets the streak so a
        later tick gets a fresh budget).  A successful refit also
        resets the streak.
    """

    max_extension_nodes: int | None = None
    max_staleness_queries: int | None = None
    min_g1_gain: float = 0.0
    backoff_factor: float = 2.0
    max_consecutive_failures: int = 1

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
        if self.max_consecutive_failures < 1:
            raise ServingError(
                f"max_consecutive_failures must be >= 1, got "
                f"{self.max_consecutive_failures}"
            )


@dataclass(frozen=True)
class RetrainRound:
    """Telemetry for one driver-triggered refit.

    A failed refit is recorded too (``error`` set, the ``g1`` fields
    NaN): background promotes used to vanish from ``rounds`` when they
    raised, leaving the history claiming nothing was ever attempted.
    The exception itself still propagates (from :meth:`~RetrainDriver.tick`
    inline, from :meth:`~RetrainDriver.join` in background mode).
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
    background:
        Run refits on a driver-owned thread instead of inline;
        ``tick()`` then returns a future and :meth:`join` collects the
        finished :class:`RetrainRound`.
    """

    def __init__(
        self,
        engine,
        policy: RetrainPolicy,
        config: GenClusConfig | None = None,
        background: bool = False,
    ) -> None:
        self._engine = engine
        self._policy = policy
        self._config = config
        self._background = bool(background)
        self._scale = 1.0  # cooldown multiplier on both thresholds
        # record into the engine's registry so retrain telemetry rides
        # the same export (cluster-scope on a router: the retrain
        # families are ROUTER_AUTHORITATIVE); a duck-typed engine
        # without .obs gets a private registry nobody exports
        obs = getattr(engine, "obs", None)
        if obs is None:
            obs = Observability()
        self._metrics = ServingMetrics(obs.metrics)
        self._queries_at_promote = self._queries_served(engine.info())
        self._pending = None
        self._executor: ThreadPoolExecutor | None = None
        self._consecutive_failures = 0
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

    def tick(self):
        """Check, and retrain when the policy trips.

        Inline mode returns the finished :class:`RetrainRound` (or
        ``None`` when nothing tripped).  Background mode submits the
        refit to the driver's own thread and returns its future;
        further ticks are no-ops until :meth:`join`.
        """
        if self._pending is not None:
            return None  # a refit is already in flight
        trigger = self.check()
        if trigger is None:
            return None
        if self._background:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-retrain"
            )
            self._pending = self._executor.submit(self._retrain, trigger)
            return self._pending
        return self._retrain(trigger)

    def join(self) -> RetrainRound | None:
        """Wait for a background refit, stop its thread, and return
        its round."""
        if self._pending is None:
            return None
        try:
            return self._pending.result()
        finally:
            self._pending = None
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    def _retrain(self, trigger: tuple[str, int | None]) -> RetrainRound:
        reason, shard_id = trigger
        engine = self._engine
        plan_before = getattr(engine, "plan", None)
        promoted_nodes = int(engine.num_extension_nodes)
        try:
            result = engine.promote(self._config)
        except Exception as exc:
            # the round must not vanish: record the failed attempt
            # (background futures used to swallow it until join, and
            # the rounds history never learned a refit was tried) and
            # count it.  Within the policy's consecutive-failure
            # budget the exception is absorbed -- the trigger stays
            # tripped, so the next tick() retries deterministically
            # (no jitter: the engine rolled back, the telemetry that
            # tripped the trigger is unchanged).  At the bound, the
            # exception surfaces and the streak resets.
            self._metrics.retrain_failures.inc()
            failed = RetrainRound(
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
            self.rounds.append(failed)
            self._consecutive_failures += 1
            if (
                self._consecutive_failures
                >= self._policy.max_consecutive_failures
            ):
                self._consecutive_failures = 0
                raise
            return failed
        self._consecutive_failures = 0
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
