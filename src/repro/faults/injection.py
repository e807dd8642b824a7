"""Deterministic fault injection for serving-layer chaos testing.

The module is intentionally zero-dependency (stdlib only, no numpy import)
so it can be threaded through any layer without widening that layer's
dependency surface.  A :class:`FaultPlan` scripts *which* named site fails,
*how* (exception, latency, NaN corruption), and *when* (the Nth matching
traversal); a :class:`FaultInjector` executes the plan with thread-safe
per-spec counters so concurrent shard calls observe a deterministic
schedule.

Call sites follow the ``Observability`` pattern: they hold one optional
injector handle and pay a single ``is None`` check on the null path.

Canonical site names (free-form strings; these are the ones wired into
the serving layer):

``shard.foldin``
    A scatter sub-batch scored by one shard during ``score_many``.
``promote.refit``
    The warm-started refit inside ``promote_state``.
``artifact.load``
    Reading a model bundle from disk in ``load_artifact``.
``worker.call``
    One RPC to a shard worker process over the multiprocess
    transport (labels: ``shard``, ``op``) -- an injected exception
    here models a dead worker or a broken socket, exercising the
    respawn + durable-delta-replay recovery path.

Specs carry optional labels (e.g. ``shard="1"``); a spec fires only at
traversals whose labels are a superset of the spec's.  All label values
are compared as strings so callers may pass ints.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "NULL_INJECTOR",
    "resolve_faults",
]

FAULT_KINDS = ("error", "latency", "nan")


class InjectedFault(RuntimeError):
    """Raised by the injector at a scripted ``error`` fault."""

    def __init__(self, site: str, traversal: int, message: str = "") -> None:
        self.site = site
        self.traversal = traversal
        detail = message or "injected fault"
        super().__init__(f"{detail} [site={site} traversal={traversal}]")


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: what fires, where, and on which traversals.

    ``at`` is the 1-based matching-traversal index the spec first fires
    on; ``times`` bounds how many consecutive firings follow (``None``
    means every traversal from ``at`` onward).
    """

    site: str
    kind: str = "error"
    at: int = 1
    times: int | None = 1
    delay: float = 0.0
    message: str = ""
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("FaultSpec.site must be a non-empty string")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"FaultSpec.kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at < 1:
            raise ValueError(f"FaultSpec.at must be >= 1, got {self.at}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"FaultSpec.times must be >= 1 or None, got {self.times}")
        if self.delay < 0.0:
            raise ValueError(f"FaultSpec.delay must be >= 0, got {self.delay}")
        if self.kind == "latency" and self.delay == 0.0:
            raise ValueError("latency faults need delay > 0")

    def fires_at(self, traversal: int) -> bool:
        """True when the spec is active on the given matching traversal."""
        if traversal < self.at:
            return False
        if self.times is None:
            return True
        return traversal < self.at + self.times

    def matches_labels(self, labels: dict[str, str]) -> bool:
        """Subset match: every spec label must appear verbatim in ``labels``."""
        return all(labels.get(key) == value for key, value in self.labels)


def _normalise_labels(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


@dataclass
class FaultPlan:
    """A seeded, ordered script of faults.

    The ``seed`` only steers *which element* a ``nan`` fault corrupts; the
    firing schedule itself is fully determined by each spec's ``at`` /
    ``times`` window, so two runs of the same plan against the same call
    sequence inject byte-identical failures.
    """

    seed: int = 0
    specs: list[FaultSpec] = field(default_factory=list)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def fail(
        self,
        site: str,
        *,
        at: int = 1,
        times: int | None = 1,
        message: str = "",
        **labels: object,
    ) -> "FaultPlan":
        """Script an exception at ``site`` (the Nth matching traversal)."""
        return self.add(
            FaultSpec(
                site=site,
                kind="error",
                at=at,
                times=times,
                message=message,
                labels=_normalise_labels(labels),
            )
        )

    def delay(
        self,
        site: str,
        *,
        seconds: float,
        at: int = 1,
        times: int | None = 1,
        **labels: object,
    ) -> "FaultPlan":
        """Script added latency at ``site``."""
        return self.add(
            FaultSpec(
                site=site,
                kind="latency",
                at=at,
                times=times,
                delay=seconds,
                labels=_normalise_labels(labels),
            )
        )

    def corrupt(
        self,
        site: str,
        *,
        at: int = 1,
        times: int | None = 1,
        **labels: object,
    ) -> "FaultPlan":
        """Script NaN corruption of the site's payload."""
        return self.add(
            FaultSpec(
                site=site,
                kind="nan",
                at=at,
                times=times,
                labels=_normalise_labels(labels),
            )
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` with deterministic per-spec counters.

    ``traverse(site, payload=..., **labels)`` is the single entry point a
    call site threads through: it returns the payload (possibly a
    NaN-corrupted copy), sleeps, or raises :class:`InjectedFault`
    according to the plan.  Counters are per spec, so two specs on the
    same site tick independently; matching is thread-safe.
    """

    def __init__(self, plan: FaultPlan | None = None, *, sleep=time.sleep) -> None:
        self._plan = plan if plan is not None else FaultPlan()
        self._specs = tuple(self._plan.specs)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._counts = [0] * len(self._specs)
        self._site_counts: dict[str, int] = {}
        self._events: list[dict[str, object]] = []

    @property
    def seed(self) -> int:
        return self._plan.seed

    def traversals(self, site: str) -> int:
        """Total traversals observed for ``site`` (across all labels)."""
        with self._lock:
            return self._site_counts.get(site, 0)

    def events(self) -> list[dict[str, object]]:
        """Fired-fault event log (append-only, in firing order)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def traverse(self, site: str, payload=None, **labels: object):
        """Pass ``payload`` through the plan's matching specs for ``site``."""
        if not self._specs:
            with self._lock:
                self._site_counts[site] = self._site_counts.get(site, 0) + 1
            return payload
        str_labels = {str(key): str(value) for key, value in labels.items()}
        fired: list[tuple[FaultSpec, int]] = []
        with self._lock:
            self._site_counts[site] = self._site_counts.get(site, 0) + 1
            for index, spec in enumerate(self._specs):
                if spec.site != site or not spec.matches_labels(str_labels):
                    continue
                self._counts[index] += 1
                traversal = self._counts[index]
                if spec.fires_at(traversal):
                    fired.append((spec, traversal))
                    self._events.append(
                        {
                            "site": site,
                            "kind": spec.kind,
                            "traversal": traversal,
                            "labels": str_labels,
                        }
                    )
        # Apply outside the lock: latency first, then corruption, then the
        # error (an exception must not mask a scripted delay before it).
        for spec, _ in fired:
            if spec.kind == "latency":
                self._sleep(spec.delay)
        for spec, traversal in fired:
            if spec.kind == "nan":
                payload = self._corrupt(payload, site, traversal)
        for spec, traversal in fired:
            if spec.kind == "error":
                raise InjectedFault(site, traversal, spec.message)
        return payload

    def _index(self, site: str, traversal: int, size: int) -> int:
        digest = zlib.crc32(f"{self._plan.seed}:{site}:{traversal}".encode())
        return digest % size

    def _corrupt(self, payload, site: str, traversal: int):
        """Return a NaN-corrupted copy of an array-like payload.

        Duck-typed on ``copy``/``reshape`` so this module stays free of a
        numpy import; lists/tuples of arrays corrupt one element.
        """
        if payload is None:
            return None
        if isinstance(payload, (list, tuple)):
            if not payload:
                return payload
            index = self._index(site, traversal, len(payload))
            items = list(payload)
            items[index] = self._corrupt(items[index], site, traversal)
            return tuple(items) if isinstance(payload, tuple) else items
        fresh = payload.copy()
        flat = fresh.reshape(-1)
        if flat.size == 0:
            return fresh
        flat[self._index(site, traversal, int(flat.size))] = float("nan")
        return fresh


NULL_INJECTOR = FaultInjector(FaultPlan())


def resolve_faults(faults: "FaultInjector | FaultPlan | None") -> "FaultInjector | None":
    """Accept an injector, a bare plan, or None (the common null path)."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    return faults
