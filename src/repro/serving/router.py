"""Scatter-gather routing across a cluster of shard engines.

:class:`ShardedEngine` turns one :class:`~repro.serving.engine.InferenceEngine`
into many without changing a single answer.  A
:class:`~repro.serving.cluster.ShardPlan` pins balanced contiguous row
ranges of the served index space onto shards;
:meth:`~repro.core.state.ModelState.partition` materializes one serving
state per shard (frozen base shared read-only, extension space owned
per shard); and the router fans the engine API out:

* ``query`` / ``assign`` route to one shard -- the owner of any
  extension node the query links to, else a deterministic
  cache-affinity shard -- and ``score_many`` / ``assign_many``
  scatter-gather: the batch is deduplicated cluster-wide, split into
  per-shard blocked fold-in sub-batches (run concurrently on the
  router's scatter pool when more than one shard is active), and
  gathered back in input order.
* ``extend`` routes a whole batch to one owning shard (linked
  extensions must colocate -- a shard re-folds its own component
  without reading its peers); ``add_links`` splits a delta by each
  source's owning shard and re-folds only each shard's touched
  component; ``evict`` runs the cluster-wide LRU policy (ages tracked
  by the router across all shards) and applies per-shard verdicts.
* ``promote`` closes the loop at cluster scope: all shards'
  extensions are reassembled in global arrival order onto a clone of
  the base, refit warm-started exactly as a single engine would, and
  the promoted model is re-partitioned under a **rebalanced** plan.

**The determinism contract**: because fold-in converges per row (rows
freeze with their component; see :func:`~repro.serving.foldin.fold_in`),
every shard shares the frozen base bit-for-bit, and a cluster promote
replays the exact single-engine state, sharded memberships, hard
labels, and post-promote ``g1`` are **bit-identical to the
single-engine reference at every shard count** (pinned at {1, 2, 3} in
``tests/test_serving_cluster.py``).  Every kernel derives its block
plan from the problem shape alone, so both sides run the same blocks.

Scope: the router is transport-agnostic.  It never reaches into a
shard's state -- every router -> shard interaction goes through the
**shard-handle surface** (see
:mod:`repro.serving.transport`), so shards can be in-process engines
over shared buffers (:class:`~repro.serving.transport.InprocessTransport`,
the default: the scatter runs threads) or worker *processes* fed by
mmap'd artifact bundles
(:class:`~repro.serving.transport.ProcessTransport`; see
:meth:`ShardedEngine.load` with ``transport="process"``).  Routing,
ownership, rebalance, supervision, and the durable-delta replay logs
live here either way, and answers are bit-identical across backends.

Known limits, enforced loudly rather than silently mis-served: an
extension link whose target lives on a *different* shard is rejected
(colocate linked extensions by extending them through one call or one
anchor), and with several invalid queries in one batch the reported
position may differ from the single-engine order (each is still a
real, correctly-numbered error).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import GenClusConfig
from repro.core.state import ModelState
from repro.exceptions import ServingError
from repro.faults import resolve_faults
from repro.obs.observability import Observability
from repro.serving.artifact import ModelArtifact
from repro.serving.cluster import ShardPlan
from repro.serving.engine import (
    QueryAges,
    ServingFrontEnd,
    parse_link,
    resolve_shortlists,
)
from repro.serving.foldin import (
    FoldInOutcome,
    NewNode,
    QueryBatch,
    check_observations,
    check_type,
    compile_queries,
    compile_query,
    link_error,
    model_type_codes,
    resolve_links,
)
from repro.serving.supervision import (
    BREAKER_CLOSED,
    ShardFailure,
    ShardSupervisor,
    SupervisionPolicy,
)
from repro.serving.telemetry import (
    RouterMetrics,
    cluster_aggregate,
    info_document,
)
from repro.serving.transport import resolve_transport


class _ExtensionRecord:
    """Cluster-wide bookkeeping for one folded-in node."""

    __slots__ = ("shard", "arrival")

    def __init__(self, shard: int, arrival: int) -> None:
        self.shard = shard
        self.arrival = arrival


class ShardedEngine(ServingFrontEnd):
    """Serves one fitted model from a cluster of shard engines.

    Parameters
    ----------
    state:
        The base lifecycle state to shard
        (:meth:`~repro.core.state.ModelState.from_result` or an
        artifact's ``to_state()``; the :meth:`load` / :meth:`from_result`
        classmethods wrap this).  Must carry no extensions yet.
    n_shards:
        Cluster width: shard ``i`` owns the balanced row range
        :meth:`ShardPlan.rows_of` gives it (``shard-plan`` prints the
        split).
    cache_size, max_iterations, tol:
        Per-shard engine controls, as on :class:`InferenceEngine`.
    obs:
        Optional :class:`~repro.obs.Observability` for the **router's**
        registry and tracer (cluster-scope counters, scatter-gather
        latency, ``score_many > shard[i].foldin`` span trees).  Each
        shard engine keeps its own registry;
        :meth:`metrics_snapshot` aggregates them all.  Scores are
        bit-identical with or without it.
    supervision:
        Optional :class:`~repro.serving.supervision.SupervisionPolicy`.
        When set, every router -> shard call runs under a
        :class:`~repro.serving.supervision.ShardSupervisor`: bounded
        retries with deterministic backoff, optional per-call
        timeouts, result-finiteness validation, and a per-shard
        circuit breaker that on open rebuilds the shard engine from
        the shared frozen base plus its replayed durable deltas.
        With no faults injected, supervised answers are bit-identical
        to unsupervised ones (the determinism contract's robustness
        clause).  ``None`` (the default) keeps today's unsupervised
        path verbatim.
    faults:
        Optional :class:`~repro.faults.FaultInjector` (or bare
        :class:`~repro.faults.FaultPlan`) traversed at the router's
        named sites (``shard.score``, ``shard.foldin``,
        ``promote.refit``, and -- under the process transport --
        ``worker.call``) -- the deterministic chaos hook.  ``None``
        is the null path.
    transport:
        Where shards run: ``None`` / ``"inproc"`` (the default --
        engines in this process, PR 5's cluster verbatim) or a
        :class:`~repro.serving.transport.ProcessTransport` instance
        (one worker process per shard; :meth:`load` builds one from
        ``transport="process"``).  Answers are bit-identical across
        backends.

    Scatter calls (``score_many``, the similarity scans) reach their
    shards concurrently on one router-owned thread pool sized to the
    shard count, so process shards overlap their RPCs; each shard runs
    its own blocked kernels inline.  Results are gathered in shard
    order, so routing and answers do not depend on completion order.
    """

    def __init__(
        self,
        state: ModelState,
        n_shards: int,
        cache_size: int = 1024,
        max_iterations: int = 100,
        tol: float = 1e-6,
        obs: Observability | None = None,
        supervision: SupervisionPolicy | None = None,
        faults=None,
        transport=None,
    ) -> None:
        self._plan = ShardPlan.from_state(state, n_shards)
        self._state = state
        self._frozen_view = None  # lazy; invalidated on promote
        # the per-shard engine knobs every transport backend applies
        # identically (what makes backends bit-identical by
        # construction)
        self._engine_kwargs = {
            "cache_size": cache_size,
            "max_iterations": max_iterations,
            "tol": tol,
        }
        # faults and the transport must exist before the first shards
        # start: process-backed handles traverse the injector's
        # worker.call site on every RPC
        self._faults = resolve_faults(faults)
        self._transport = resolve_transport(transport)
        self._shards = tuple(
            self._transport.start(
                state, self._plan, self._engine_kwargs, faults=self._faults
            )
        )
        self._reset_shard_books()
        # cluster-wide extension registry + the one age book over
        # every shard's extensions (arrival order stands in for the
        # served row: both are monotone in fold-in order and survive
        # compactions)
        self._registry: dict[object, _ExtensionRecord] = {}
        self._arrivals = 0
        self._ages = QueryAges(lambda node: node in self._registry)
        # cluster-scope counters live in the router's registry (the
        # ROUTER_AUTHORITATIVE families); per-shard counters live in
        # each shard engine's own registry and are merged on export
        self.obs = obs if obs is not None else Observability()
        self._metrics = RouterMetrics(self.obs.metrics)
        self._pool: ThreadPoolExecutor | None = None
        self._supervisor: ShardSupervisor | None = None
        if supervision is not None:
            self._supervisor = ShardSupervisor(
                self._plan.n_shards,
                supervision,
                self._metrics,
                on_open=self._rebuild_shard,
            )

    def _scatter_pool(self) -> ThreadPoolExecutor:
        """The router's scatter pool, one thread per shard."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards,
                thread_name_prefix="repro-router-scatter",
            )
        return self._pool

    def _reset_shard_books(self) -> None:
        self._owned_counts = [0] * self._plan.n_shards
        # per-shard durable-delta replay log: every committed extend /
        # add_links / evict is appended so a broken shard can be
        # rebuilt from the shared frozen base and replayed to a
        # bit-identical state; a promote clears the logs (the deltas
        # are absorbed into the new base)
        self._shard_log: list[list[tuple[str, tuple]]] = [
            [] for _ in range(self._plan.n_shards)
        ]

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        path: str | Path,
        n_shards: int,
        mmap: bool = False,
        transport=None,
        **kwargs: Any,
    ) -> "ShardedEngine":
        """Shard a saved artifact bundle straight from disk.

        ``mmap=True`` maps the frozen base once and shares the
        read-only pages across every shard: per-shard cold start and
        ``heal()`` rebuilds touch only the pages their queries read
        instead of copying the model.

        ``transport="process"`` builds a
        :class:`~repro.serving.transport.ProcessTransport` over the
        same bundle: one worker process per shard, each cold-starting
        from the bundle directly (with ``mmap=True`` the frozen base
        is shared read-only across the worker fleet through the OS
        page cache).  A constructed transport instance also works.
        """
        if transport == "process":
            from repro.serving.transport import ProcessTransport

            transport = ProcessTransport(path, mmap=mmap)
        return cls.from_artifact(
            ModelArtifact.load(path, mmap=mmap),
            n_shards,
            transport=transport,
            **kwargs,
        )

    @classmethod
    def from_artifact(
        cls, artifact: ModelArtifact, n_shards: int, **kwargs: Any
    ) -> "ShardedEngine":
        return cls(artifact.to_state(), n_shards=n_shards, **kwargs)

    @classmethod
    def from_result(
        cls, result, n_shards: int, **kwargs: Any
    ) -> "ShardedEngine":
        """Shard an in-memory fit (no disk roundtrip)."""
        return cls(
            ModelState.from_result(result), n_shards=n_shards, **kwargs
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ShardPlan:
        """The live shard plan (rebalanced by :meth:`promote`)."""
        return self._plan

    @property
    def shards(self) -> tuple:
        """The per-shard handles, in shard order (read-only peek --
        mutate through the router, which owns the cluster registry).
        In-process these are the :class:`InferenceEngine` objects
        themselves; under a process transport they are
        :class:`~repro.serving.transport.ProcessShardHandle` clients."""
        return self._shards

    @property
    def transport(self):
        """The live transport backend (``describe()`` for details)."""
        return self._transport

    @property
    def n_shards(self) -> int:
        return self._plan.n_shards

    @property
    def supervisor(self) -> ShardSupervisor | None:
        """The live :class:`ShardSupervisor`, or ``None`` when the
        router runs unsupervised."""
        return self._supervisor

    @property
    def num_extension_nodes(self) -> int:
        return len(self._registry)

    def has_node(self, node: object) -> bool:
        return (
            node in self._registry
            or self._state.network.has_node(node)
        )

    def owner_of(self, node: object) -> int:
        """The shard owning a served node (base row or extension)."""
        record = self._registry.get(node)
        if record is not None:
            return record.shard
        row = self._state.network.node_index_view.get(node)
        if row is None:
            raise ServingError(
                f"node {node!r} is not served by this engine"
            )
        return self._plan.shard_of_row(row)

    def membership_of(self, node: object) -> np.ndarray:
        """Membership row of any served node, from its owner shard."""
        shard = self.owner_of(node)
        self._ages.touch(node)
        return self._shards[shard].membership_of(node)

    # ------------------------------------------------------------------
    # transient queries
    # ------------------------------------------------------------------
    def query(
        self,
        object_type: str,
        links: Sequence[tuple] = (),
        text: Mapping[str, Any] | None = None,
        numeric: Mapping[str, Sequence[float]] | None = None,
    ) -> np.ndarray:
        """Score a hypothetical node on its owning shard.

        A query linking to folded-in nodes goes to their owner (it
        needs their membership rows); any other query goes to a
        deterministic cache-affinity shard.  Every shard shares the
        frozen base bit-for-bit, so the answer is identical no matter
        where it runs.
        """
        batch = compile_query(object_type, links, text, numeric)
        shard = int(self._route(batch)[0])
        self._metrics.queries.inc()
        self._ages.touch_queries(batch)
        return self._call_shard(
            shard, "shard.score", lambda handle: handle.query_batch(batch)
        )

    def validate_queries(
        self, queries: Sequence[Mapping[str, Any]] | QueryBatch
    ) -> int:
        """Model-aware validation of a ``score_many`` batch -- folding
        nothing in and touching no shard.

        Beyond the shape checks of
        :func:`~repro.serving.foldin.compile_queries` this verifies
        each query against the fitted schema, row by row: declared
        object type, declared relation with a learned strength,
        matching source type, and a link target that is either a
        fitted node or a registered extension node (fitted targets are
        also type-checked; an extension target's type was validated
        when it was extended), then every text and numeric observation
        (a fitted attribute of the right kind, and a value some fitted
        component gives nonzero density).  Raises
        :class:`ServingError` naming the first offending query's
        position; returns the batch size.

        The HTTP gateway runs this per request *before* admission, so
        one caller's malformed query is rejected alone (400) instead
        of poisoning the micro-batch -- a validation error inside a
        merged ``score_many`` sub-batch would degrade every co-batched
        query routed to the same shard.
        """
        batch = compile_queries(queries)
        model = self._frozen_base()
        registry = self._registry
        type_codes = model_type_codes(model, batch)

        def extension(target):
            # an extension target's type was checked when it was extended
            try:
                return (-2, -2) if target in registry else None
            except TypeError:  # unhashable: never a node id
                return None

        _, columns, valid = resolve_links(
            model, batch, type_codes, extension
        )
        # row by row: a row's object type, then its links in order
        bad_types = np.flatnonzero(type_codes < 0)
        bad_links = np.flatnonzero(~valid)
        if bad_types.size and (
            not bad_links.size
            or bad_types[0] <= batch.links.owners()[bad_links[0]]
        ):
            check_type(model, batch, type_codes, int(bad_types[0]))
        if bad_links.size:
            raise link_error(
                model,
                batch,
                int(bad_links[0]),
                columns,
                "query",
                "a served extension node",
            )
        check_observations(model, batch)
        return len(batch)

    def _frozen_base(self):
        """The base state's frozen view, built once per promotion."""
        if self._frozen_view is None:
            self._frozen_view = self._state.frozen_view()
        return self._frozen_view

    def score_many(
        self,
        queries: Sequence[Mapping[str, Any]],
        partial: bool = False,
    ) -> "list[np.ndarray | ShardFailure]":
        """Scatter-gather a batch of transient queries.

        The batch is validated in global order (error positions match
        the single engine's numbering), deduplicated cluster-wide
        (duplicates fold once, on one shard), routed -- owner shard
        for extension-linked queries, cache-affinity shard otherwise
        -- and the per-shard sub-batches run as blocked fold-in
        batches, concurrently when several shards are active.  Per-row
        convergence makes the gathered scores bit-identical to the
        single-engine batch (and to one-at-a-time queries).

        **Strict mode** (the default) keeps today's semantics: any
        shard failure fails the whole batch -- the remaining in-flight
        sibling sub-batches are cancelled or drained first (never
        abandoned on the scatter pool), and their errors ride the
        raised exception as context.  **Partial mode**
        (``partial=True``) degrades instead of failing: queries owned
        by a broken shard come back as typed
        :class:`~repro.serving.supervision.ShardFailure` markers
        (counted in ``repro_degraded_queries_total``) while every
        healthy shard's rows are returned bit-identical -- a degraded
        batch can be incomplete, but it can never carry wrong numbers.
        """
        batch = compile_queries(queries)
        self._ages.touch_queries(batch)
        self._metrics.queries.inc(len(batch))
        if not len(batch):
            return []
        # shards receive compiled sub-batches whose positions are the
        # caller's, so shard-side errors name the global numbering;
        # duplicates route alike and each shard folds them once
        owners = self._route(batch)
        rows = {
            shard: np.flatnonzero(owners == shard)
            for shard in range(self.n_shards)
        }
        active = [shard for shard in rows if rows[shard].size]
        parts = {
            shard: (
                batch
                if rows[shard].size == len(batch)
                else batch.take(rows[shard])
            )
            for shard in active
        }
        gathered: dict[int, list[np.ndarray]] = {}
        failures: dict[int, ShardFailure] = {}
        batch_start = time.perf_counter()
        with self.obs.span(
            "score_many",
            queries=len(batch),
            active_shards=len(active),
        ) as batch_span:
            futures = {}
            if len(active) > 1:
                pool = self._scatter_pool()
                futures = {
                    shard: pool.submit(
                        self._score_shard, shard, parts[shard], batch_span
                    )
                    for shard in active
                }
            # gather (and surface errors) in shard order: determinism
            # over completion order, like every blocked reduction
            for position, shard in enumerate(active):
                try:
                    gathered[shard] = (
                        futures[shard].result()
                        if futures
                        else self._score_shard(
                            shard, parts[shard], batch_span
                        )
                    )
                except BaseException as exc:
                    if partial and isinstance(exc, Exception):
                        failures[shard] = ShardFailure(
                            shard=shard, error=str(exc)
                        )
                        continue
                    _settle_siblings(
                        exc, futures, active[position + 1 :]
                    )
                    raise
        self._metrics.batches.inc()
        self._metrics.batch_size.observe(len(batch))
        self._metrics.batch_seconds.observe(
            time.perf_counter() - batch_start
        )
        results: list[np.ndarray | ShardFailure] = [None] * len(batch)
        for shard in active:
            if shard in failures:
                for row in rows[shard].tolist():
                    results[row] = failures[shard]
                continue
            for row, membership in zip(
                rows[shard].tolist(), gathered[shard]
            ):
                results[row] = membership.copy()
        if failures:
            self._metrics.degraded_queries.inc(
                sum(rows[shard].size for shard in failures)
            )
        return results

    # ------------------------------------------------------------------
    # top-k similarity serving
    # ------------------------------------------------------------------
    def _shard_of(self, node: object) -> int:
        """The owner shard: it holds the node's row."""
        return self.owner_of(node)

    def _shard_handle(self, shard: int):
        return self._shards[shard]

    def _rank(
        self, matrix, k, metric, candidate_types, exclude_nodes
    ) -> list[list[tuple[object, float]]]:
        """Scatter a similarity batch, gather, and k-way merge.

        Shards run on the router's scatter pool and are gathered in
        shard order (determinism over completion order, like every
        blocked reduction); the rank of an extension node is
        ``num_base + arrival``, which reproduces the singleton
        engine's served-row order exactly (fold-in append order, with
        relative order preserved across evictions).
        """

        def scan(shard: int):
            return self._shards[shard].similar_rows_partial(
                matrix,
                k,
                metric,
                candidate_types=candidate_types,
                exclude_nodes=exclude_nodes,
                base_range=self._plan.rows_of(shard),
            )

        shards = range(self.n_shards)
        gathered = list(
            self._scatter_pool().map(scan, shards)
            if self.n_shards > 1
            else map(scan, shards)
        )
        num_base = self.num_base_nodes
        return resolve_shortlists(
            gathered,
            k,
            self._state.network,
            lambda shard: self._shards[shard].extension_nodes(),
            lambda node, row: num_base + self._registry[node].arrival,
        )

    def _score_shard(
        self,
        shard: int,
        batch: QueryBatch,
        parent,
    ) -> list[np.ndarray]:
        """One shard's sub-batch, timed and traced.

        Runs on a scatter-pool thread when several shards are active, so
        the ``shard[i].foldin`` span must name its ``parent``
        explicitly -- the batch span lives on the caller's thread-local
        stack, not this one's.

        Under supervision each attempt (including its ``shard.foldin``
        fault traverse) runs through
        :meth:`~repro.serving.supervision.ShardSupervisor.call`, which
        retries, validates finiteness, and trips the shard's breaker;
        the fault-free supervised path executes the identical scoring
        code inline.
        """
        inflight = self._metrics.inflight
        hist = self._metrics.shard_batch_seconds(shard)
        inflight.inc()
        tick = time.perf_counter()
        try:
            with self.obs.span(
                f"shard[{shard}].foldin",
                parent=parent,
                queries=len(batch),
            ):
                return self._call_shard(
                    shard,
                    "shard.foldin",
                    lambda handle: handle.score_batch(batch),
                )
        finally:
            hist.observe(time.perf_counter() - tick)
            inflight.dec()

    def _call_shard(self, shard: int, site: str, call):
        """``call(handle)`` on one shard, then the ``site`` fault
        traverse; under supervision each such attempt runs through
        :meth:`~repro.serving.supervision.ShardSupervisor.call`."""

        def attempt():
            result = call(self._shards[shard])
            if self._faults is not None:
                result = self._faults.traverse(
                    site, payload=result, shard=shard
                )
            return result

        if self._supervisor is None:
            return attempt()
        return self._supervisor.call(
            shard, site, attempt, validate=_require_finite
        )

    def _route(self, batch: QueryBatch) -> np.ndarray:
        """The shard of each row: the owner of the extension nodes it
        links to, else a deterministic cache-affinity shard (a digest
        of the row's content, so a repeated query lands on the shard
        already holding its memoized answer -- any shard would return
        the identical score)."""
        owners = np.full(len(batch), -1, dtype=np.int64)
        registry = self._registry
        for row, targets in batch.targets_by_row(registry.__contains__):
            found = {registry[target].shard for target in targets}
            if len(found) > 1:
                raise ServingError(
                    f"query links to extension nodes owned by shards "
                    f"{sorted(found)}; linked extensions must be "
                    f"colocated on one shard (extend them through one "
                    f"batch or one anchor)"
                )
            owners[row] = found.pop()
        free = owners < 0
        if free.any():
            if self.n_shards == 1:
                owners[free] = 0
            else:
                digests = np.asarray(batch.affinity(), dtype=np.int64)
                owners[free] = digests[free] % self.n_shards
        return owners

    # ------------------------------------------------------------------
    # durable deltas
    # ------------------------------------------------------------------
    def extend(self, nodes: Sequence[NewNode]) -> FoldInOutcome:
        """Fold a batch in on its owning shard.

        The whole batch lands on **one** shard -- in-batch links read
        each other's rows during the fixed point, so splitting a batch
        would change its trajectories.  The owner is the shard holding
        any already-served extension the batch links to (linking to
        extensions on different shards is rejected); an unanchored
        batch goes to the least-loaded shard, which keeps the cluster
        balanced without ever affecting scores (every shard shares the
        same frozen base).
        """
        specs = list(nodes)
        for spec in specs:
            if not isinstance(spec, NewNode):
                raise ServingError(
                    f"fold-in expects NewNode specs, got "
                    f"{type(spec).__name__}"
                )
            if spec.node in self._registry:
                raise ServingError(
                    f"node {spec.node!r} is already part of the fitted "
                    f"model; fold-in only accepts unseen nodes"
                )
        owners = {
            self._registry[target].shard
            for spec in specs
            for _, target, _ in spec.links
            if target in self._registry
        }
        if len(owners) > 1:
            raise ServingError(
                f"extend batch links to extension nodes owned by "
                f"shards {sorted(owners)}; linked extensions must be "
                f"colocated on one shard"
            )
        if owners:
            shard = owners.pop()
        else:
            shard = min(
                range(self.n_shards),
                key=lambda s: (self._owned_counts[s], s),
            )
        outcome = self._shards[shard].extend(specs)
        if specs:
            for spec in specs:
                self._registry[spec.node] = _ExtensionRecord(
                    shard, self._arrivals
                )
                self._arrivals += 1
            self._ages.stamp(spec.node for spec in specs)
            self._owned_counts[shard] += len(specs)
            self._shard_log[shard].append(("extend", tuple(specs)))
        return outcome

    def add_links(
        self,
        links: Iterable[
            tuple[object, str, object]
            | tuple[object, str, object, float]
        ],
    ) -> FoldInOutcome:
        """Append out-links, split by each source's owning shard.

        A delta may carry sources on several shards (a *cross-shard
        delta*): each shard re-folds only its own touched component,
        in shard order, and the per-shard outcomes are merged.  A link
        whose *target* is an extension on a different shard than its
        source is rejected -- the source's re-folds would need a
        membership row its shard does not hold.
        """
        per_shard: dict[int, list[tuple]] = {}
        sources: list[object] = []
        for link in links:
            source, _, target, _ = parse_link(
                link, self._registry.__contains__, self._state.network
            )
            record = self._registry[source]
            target_record = self._registry.get(target)
            if (
                target_record is not None
                and target_record.shard != record.shard
            ):
                raise ServingError(
                    f"link {source!r} -> {target!r} crosses shards "
                    f"{record.shard} -> {target_record.shard}; "
                    f"extension link targets must live on the "
                    f"source's shard"
                )
            per_shard.setdefault(record.shard, []).append(link)
            sources.append(source)
        outcomes = []
        for shard in sorted(per_shard):
            outcomes.append(
                self._shards[shard].add_links(per_shard[shard])
            )
            self._shard_log[shard].append(
                ("add_links", tuple(per_shard[shard]))
            )
        if per_shard:
            self._ages.stamp(sources)
        return _merge_outcomes(outcomes, self.n_clusters)

    # ------------------------------------------------------------------
    # extension-space management
    # ------------------------------------------------------------------
    def evict(self, max_nodes: int) -> tuple[object, ...]:
        """Shrink the cluster-wide extension space to ``max_nodes``.

        One LRU policy over all shards: the router keeps one
        :class:`~repro.serving.engine.QueryAges` book over every
        shard's extensions (arrival order breaks ties where a single
        engine uses the served row), its victim selection honours
        per-shard link-dependency pinning, and the verdicts are
        applied on each owner shard.  Returns the evicted node ids,
        oldest first.
        """
        registry = self._registry
        chosen = self._ages.victims(
            max_nodes,
            registry,
            lambda node: self._shards[
                registry[node].shard
            ].extension_dependants(node),
            lambda node: registry[node].arrival,
        )
        if not chosen:
            return ()
        by_shard: dict[int, list[object]] = {}
        for node in chosen:
            by_shard.setdefault(registry[node].shard, []).append(node)
        for shard in sorted(by_shard):
            self._shards[shard].evict_nodes(by_shard[shard])
            self._owned_counts[shard] -= len(by_shard[shard])
            self._shard_log[shard].append(
                ("evict", tuple(by_shard[shard]))
            )
        for node in chosen:
            del self._registry[node]
        self._ages.forget(chosen)
        self._metrics.evictions.inc(len(chosen))
        return chosen

    # ------------------------------------------------------------------
    # promotion: the cluster-scope refit
    # ------------------------------------------------------------------
    def promote(
        self, config: GenClusConfig | None = None
    ) -> "object":
        """Refit base + *all* shards' extensions and re-partition.

        Promotion is deliberately cluster-scoped: a single shard
        refitting alone would fork the frozen base out from under its
        peers.  The router reassembles the exact single-engine state
        -- every extension spec and its current membership row, in
        global arrival order, onto a clone of the base -- and runs the
        same warm-started refit an
        :meth:`InferenceEngine.promote <repro.serving.engine.InferenceEngine.promote>`
        would, so the promoted memberships, gamma, and ``g1`` are
        bit-identical to the single-engine reference.  The grown base
        is then split under a **rebalanced** :class:`ShardPlan` and
        fresh shard engines serve it with empty extension spaces.

        Promotion is **transactional** at cluster scope: the candidate
        is reassembled, refit, and validated entirely off to the side
        (:func:`~repro.serving.engine.promote_state`), and the cluster
        swaps atomically -- on a failed or divergent refit the old
        shards keep serving verbatim and
        ``repro_promote_rollbacks_total`` is incremented.

        Returns the refit :class:`~repro.core.result.GenClusResult`.
        """
        reference = self._state.clone_base()
        ordered = sorted(
            self._registry.items(), key=lambda item: item[1].arrival
        )
        if ordered:
            # one extension_export per involved shard (one RPC each
            # over a process transport), reassembled here in global
            # arrival order -- exactly the single-engine state
            exports: dict[int, dict[object, tuple]] = {}
            specs = []
            rows = np.empty((len(ordered), self.n_clusters))
            for position, (node, record) in enumerate(ordered):
                export = exports.get(record.shard)
                if export is None:
                    nodes, shard_specs, shard_rows = self._shards[
                        record.shard
                    ].extension_export()
                    export = {
                        name: (spec, shard_rows[index])
                        for index, (name, spec) in enumerate(
                            zip(nodes, shard_specs)
                        )
                    }
                    exports[record.shard] = export
                spec, row = export[node]
                specs.append(spec)
                rows[position] = row
            reference.append_extensions(tuple(specs), rows)

        def commit(result, promoted):
            self._state = promoted
            self._frozen_view = None
            self._plan = ShardPlan.from_state(promoted, self.n_shards)
            # hot replacement is the transport's job: in-process it is
            # a plain re-partition; the process transport freezes the
            # refit into a fresh bundle and two-phase swaps it under
            # the live workers (old engines keep answering until
            # commit)
            self._shards = tuple(
                self._transport.replace(
                    promoted,
                    result,
                    self._plan,
                    self._engine_kwargs,
                    faults=self._faults,
                )
            )
            self._reset_shard_books()
            self._registry = {}
            self._arrivals = 0
            self._ages.reset()
            if self._supervisor is not None:
                for shard in range(self.n_shards):
                    self._supervisor.reset(shard)

        return self._promote(reference, config, commit)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def heal(self, shard: int | None = None) -> tuple[int, ...]:
        """Rebuild broken shards and close their breakers.

        With ``shard`` given, force-rebuilds that one shard (frozen
        base + replayed durable deltas) regardless of breaker state;
        with no argument, rebuilds every shard whose breaker is not
        closed (a no-op on a healthy unsupervised cluster).  Returns
        the healed shard ids.  Because the replay log is deterministic
        and the frozen base is shared, a healed shard serves
        bit-identical answers to one that never failed.
        """
        if shard is not None:
            if not 0 <= shard < self.n_shards:
                raise ServingError(
                    f"shard must lie in 0..{self.n_shards - 1}, "
                    f"got {shard}"
                )
            targets = [shard]
        elif self._supervisor is not None:
            targets = [
                s
                for s in range(self.n_shards)
                if self._supervisor.breaker(s).state != BREAKER_CLOSED
            ]
        else:
            targets = []
        for target in targets:
            self._rebuild_shard(target)
            if self._supervisor is not None:
                self._supervisor.reset(target)
        return tuple(targets)

    def _rebuild_shard(self, shard: int) -> None:
        """Rebuild one shard engine from the shared frozen base plus
        its replayed durable-delta log.

        This is the supervisor's ``on_open`` hook (and :meth:`heal`'s
        mechanism): the broken shard is discarded and the transport
        provides a fresh handle -- in-process, a serving state
        partitioned off the pristine base
        (:meth:`~repro.core.state.ModelState.partition_shard`, sharing
        the same frozen theta buffer as its healthy peers); under the
        process transport, a **respawned worker** cold-started from
        the current bundle -- then the shard's committed extends /
        link deltas / evictions replay in commit order.  Every
        replayed operation is deterministic, so the recovered
        extension rows are bit-identical to the lost ones.
        """
        engine = self._transport.rebuild(
            shard,
            self._state,
            self._plan,
            self._engine_kwargs,
            faults=self._faults,
        )
        for op, payload in self._shard_log[shard]:
            if op == "extend":
                engine.extend(list(payload))
            elif op == "add_links":
                engine.add_links(list(payload))
            elif op == "evict":
                engine.evict_nodes(payload)
            else:  # pragma: no cover - defensive
                raise ServingError(
                    f"unknown replay-log operation {op!r}"
                )
        shards = list(self._shards)
        shards[shard] = engine
        self._shards = tuple(shards)
        self._metrics.shard_rebuilds.inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release cluster resources: the scatter pool, the
        supervisor's ``call_timeout`` pool and the transport (which
        shuts worker processes down cleanly).  A closed in-process
        cluster keeps answering -- its shards are plain objects -- but
        a closed process-backed cluster does not.  Idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._supervisor is not None:
            self._supervisor.shutdown()
        self._transport.shutdown()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """The cluster-wide metrics snapshot.

        Every shard registry is snapshotted (gauges refreshed) and
        summed with the router's own -- fixed bucket bounds make the
        histograms sum per-bucket -- then the
        :data:`~repro.serving.telemetry.ROUTER_AUTHORITATIVE` families
        are overwritten with the router's series, since those are
        tracked at cluster scope and would double-count if summed with
        the shards' local copies.
        """
        return cluster_aggregate(
            [shard.metrics_snapshot() for shard in self._shards],
            self.obs.metrics.snapshot(),
        )

    def info(self) -> dict[str, Any]:
        """Cluster telemetry: the singleton :meth:`InferenceEngine.info`
        document (:func:`~repro.serving.telemetry.info_document`, its
        counter-backed sections from the :meth:`metrics_snapshot`
        cluster aggregate), plus ``cluster`` (the live plan and
        per-shard snapshots) and ``supervision`` sections."""
        shard_infos = [engine.info() for engine in self._shards]
        # cluster-scope memory: the shared frozen base buffer (the
        # router never sees the artifact object, so "mapped" here
        # means the base the shards share is still a read-only map)
        info = info_document(
            self,
            self._state,
            self.metrics_snapshot(),
            artifact_mapped=self._state.theta_mapped,
            integrity=shard_infos[0]["memory"],
            shard_id=None,  # the router is the whole cluster
            shard_count=self.n_shards,
        )
        info["cluster"] = {
            "n_shards": self.n_shards,
            "plan": self._plan.describe(self._state),
            "shard_extension_nodes": list(self._owned_counts),
            "transport": self._transport.describe(),
            "shards": shard_infos,
        }
        supervisor = self._supervisor
        info["supervision"] = {"enabled": supervisor is not None}
        if supervisor is not None:
            policy = supervisor.policy
            info["supervision"].update(
                breakers=supervisor.states(),
                policy={
                    "max_retries": policy.max_retries,
                    "backoff_schedule": list(policy.backoff_schedule()),
                    "call_timeout": policy.call_timeout,
                    "breaker_threshold": policy.breaker_threshold,
                    "breaker_reset_after": policy.breaker_reset_after,
                },
            )
        return info


# ----------------------------------------------------------------------
def _require_finite(result) -> None:
    """Supervised-call validator: reject non-finite membership rows.

    Runs inside each supervised attempt, so a corrupted shard result
    (an injected NaN, a torn buffer) counts as a retryable failure --
    a degraded batch may be incomplete, never numerically wrong.
    """
    rows = result if isinstance(result, (list, tuple)) else [result]
    for row in rows:
        if not np.isfinite(row).all():
            raise ServingError(
                "shard returned non-finite membership scores"
            )


def _settle_siblings(exc: BaseException, futures, remaining) -> None:
    """Cancel-or-drain the sibling futures of a failed gather.

    A strict-mode gather that raises must not abandon the other
    shards' in-flight sub-batches on the scatter pool: each remaining
    future is cancelled if still queued, else drained -- so its
    exception (if any) is observed, not orphaned -- and the sibling
    errors are attached to the raised exception as context
    (``exc.sibling_failures``; also ``add_note`` on Python >= 3.11).
    """
    notes = []
    for shard in remaining:
        future = futures[shard]
        if future.cancel():
            continue
        try:
            future.result()
        except Exception as sibling:
            notes.append(
                f"shard {shard} also failed: "
                f"{type(sibling).__name__}: {sibling}"
            )
    if notes:
        exc.sibling_failures = tuple(notes)
        if hasattr(exc, "add_note"):
            for note in notes:
                exc.add_note(note)


def _merge_outcomes(
    outcomes: list[FoldInOutcome], n_clusters: int
) -> FoldInOutcome:
    """Concatenate per-shard re-fold outcomes (shard order)."""
    if not outcomes:
        return FoldInOutcome(
            nodes=(),
            theta=np.zeros((0, n_clusters)),
            iterations=0,
            converged=True,
            oov_terms=0,
        )
    if len(outcomes) == 1:
        return outcomes[0]
    return FoldInOutcome(
        nodes=tuple(
            node for outcome in outcomes for node in outcome.nodes
        ),
        theta=np.concatenate([o.theta for o in outcomes], axis=0),
        iterations=sum(o.iterations for o in outcomes),
        converged=all(o.converged for o in outcomes),
        oov_terms=sum(o.oov_terms for o in outcomes),
    )
