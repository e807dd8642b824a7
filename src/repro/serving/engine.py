"""The online inference engine: a loaded model that answers queries.

:class:`InferenceEngine` wraps a :class:`~repro.core.state.ModelState`
-- the same mutable, versioned container the trainer reads and writes
-- and drives it through the serving stages of the model lifecycle:

* **Durable deltas** -- :meth:`InferenceEngine.extend` folds a batch of
  new nodes in and *appends* them to the shared state's index space, so
  later queries and deltas can link to them;
  :meth:`InferenceEngine.add_links` accumulates new out-links onto
  already-folded nodes and re-folds **only the touched component**: the
  extension nodes reverse-reachable from the delta's sources through
  extension-to-extension links (every other row is provably at its
  fixed point already), so a delta costs ``O(component)`` rather than
  ``O(total extension)``.
* **Transient queries** -- :meth:`InferenceEngine.score_many` scores
  hypothetical nodes (links + observations) without mutating any state,
  and :meth:`ServingFrontEnd.query` is its one-row form.  Results are
  memoized in an LRU cache keyed on the canonicalized query; any delta
  invalidates the cache.
* **Promotion** -- :meth:`InferenceEngine.promote` closes the loop:
  folded-in nodes and their accumulated links become first-class
  training data in a full ``GenClus`` fit *warm-started* from the
  served theta/gamma over the materialized base + extension network.
  The engine then serves the promoted model with an empty extension
  space.
* **Bounded extension space** -- :meth:`InferenceEngine.evict` drops
  the least-recently-used extension nodes beyond a budget, and
  :meth:`InferenceEngine.info` reports extension-space telemetry (node
  count, buffer bytes, fold-in sweep counters).

Base memberships, gamma, and attribute component parameters stay
frozen under serving; only :meth:`promote` re-learns them.

This module is also the one home of every serving rule the single
engine and the cluster router (:mod:`repro.serving.router`) share: the
LRU age book and eviction policy (:class:`QueryAges`), the
link-delta entry check (:func:`parse_link`), shortlist resolution
(:func:`resolve_shortlists`), and -- on :class:`ServingFrontEnd`, the
base class of both -- promote accounting, the similarity frame, and
the front-end methods derived from ``score_many`` /
``membership_of`` / ``similar_many``.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import topk
from repro.core.config import GenClusConfig
from repro.core.result import GenClusResult
from repro.core.state import ModelState
from repro.exceptions import ServingError
from repro.faults import resolve_faults
from repro.obs.observability import Observability
from repro.serving.artifact import ModelArtifact
from repro.serving.foldin import (
    FoldInOutcome,
    NewNode,
    QueryBatch,
    bind_batch,
    compile_queries,
    compile_query,
    fold_bound,
    fold_in,
)
from repro.serving.telemetry import ServingMetrics, info_document


class QueryAges:
    """The LRU age book of one extension space.

    One operation clock ("query age") ticks once per durable delta,
    per membership read of an extension node, and per transient query
    that links to any; each extension node remembers the tick that
    last touched it.  :class:`InferenceEngine` keeps a book over its
    own extensions and the cluster router one over every shard's, so
    both evict the same victims for the same traffic: their tie-breaks
    (served row, arrival) are both monotone in fold-in order.
    :meth:`victims` is the one eviction policy both run.
    ``is_extension`` is asked at call time, so it may read state that
    a promote swaps out.
    """

    def __init__(self, is_extension) -> None:
        self._is_extension = is_extension
        self._clock = 0
        self._last_used: dict[object, int] = {}

    def stamp(self, nodes: Iterable[object]) -> None:
        """One tick, shared by every node of ``nodes`` (a delta)."""
        self._clock += 1
        for node in nodes:
            self._last_used[node] = self._clock

    def touch(self, node: object) -> None:
        """A membership read: one tick if ``node`` is an extension."""
        if self._is_extension(node):
            self.stamp((node,))

    def touch_queries(self, batch: QueryBatch) -> None:
        """One tick per query row that links to any extension node."""
        for _, touched in batch.targets_by_row(self._is_extension):
            self.stamp(touched)

    def forget(self, nodes: Iterable[object]) -> None:
        for node in nodes:
            self._last_used.pop(node, None)

    def reset(self) -> None:
        """A promote: every extension node became base."""
        self._last_used.clear()

    def victims(
        self, max_nodes: int, candidates, dependants_of, row_of
    ) -> tuple[object, ...]:
        """The nodes to evict so at most ``max_nodes`` of
        ``candidates`` survive, oldest first, honouring link-dependency
        pinning.

        The scan order is fully deterministic -- query age, then
        ``row_of`` (never set iteration order: nodes extended in one
        batch share an age).  ``dependants_of`` yields the extension
        nodes holding an out-link to a candidate; a candidate pinned
        by one waits on its lowest-``row_of`` blocker, so each node is
        examined once per resolved blocker -- ``O(nodes + dependency
        links)`` total, no quadratic multi-pass -- and nodes pinned by
        a never-chosen survivor stay parked and survive.
        """
        if max_nodes < 0:
            raise ServingError(
                f"max_nodes must be >= 0, got {max_nodes}"
            )
        candidates = tuple(candidates)
        excess = len(candidates) - max_nodes
        if excess <= 0:
            return ()

        def order_key(node):
            return (self._last_used.get(node, 0), row_of(node))

        queue = deque(sorted(candidates, key=order_key))
        blocked_on: dict[object, list[object]] = {}
        chosen: set[object] = set()
        while queue and len(chosen) < excess:
            node = queue.popleft()
            # a node pins itself only through *other* survivors: a
            # self-link dies with the node, so it never blocks
            pins = dependants_of(node) - chosen - {node}
            if pins:
                blocker = min(pins, key=row_of)
                blocked_on.setdefault(blocker, []).append(node)
                continue
            chosen.add(node)
            queue.extend(blocked_on.pop(node, ()))
        return tuple(sorted(chosen, key=order_key))


def parse_link(
    link, is_extension, network
) -> tuple[object, str, object, Any]:
    """``(source, relation, target, weight)`` of one link-delta entry
    ``(source, relation, target[, weight])`` (weight defaults to 1).

    Sources must be extension nodes (``is_extension``): a base node's
    membership is frozen, so a new out-link on it could never change
    a score -- rejecting it loudly beats silently ignoring it.
    """
    if len(link) not in (3, 4):
        raise ServingError(
            f"link {link!r} must be (source, relation, target[, weight])"
        )
    source, relation, target, *weight = link
    if not is_extension(source):
        if network.has_node(source):
            raise ServingError(
                f"node {source!r} belongs to the frozen base model; "
                f"its membership cannot change, so the engine rejects "
                f"new out-links on it"
            )
        raise ServingError(
            f"link source {source!r} is not served by this engine"
        )
    return source, relation, target, weight[0] if weight else 1.0


def resolve_shortlists(
    gathered, k: int, network, extensions_of, extension_rank
) -> list[list[tuple[object, float]]]:
    """Ranked ``(node, score)`` lists from per-source shortlists.

    ``gathered[source][query]`` is one source's ``(scores, rows)``
    shortlist for one query (a single engine is one source, a cluster
    one per shard).  A row below the base size names
    ``network.node_at(row)``; an extension row names
    ``extensions_of(source)[row - num_base]`` (fetched at most once
    per source -- one RPC per shard over a process transport) and
    ranks by ``extension_rank(node, row)``, which must reproduce the
    singleton engine's served row.  Several sources merge under the
    global total order (score desc, then rank asc); one source's
    shortlist is already in it.
    """
    num_base = network.num_nodes
    fetched: dict[int, tuple[object, ...]] = {}

    def entry(source: int, score, row) -> tuple[float, int, object]:
        row = int(row)
        if row < num_base:
            return float(score), row, network.node_at(row)
        if source not in fetched:
            fetched[source] = extensions_of(source)
        node = fetched[source][row - num_base]
        return float(score), extension_rank(node, row), node

    results = []
    for position in range(len(gathered[0])):
        entries = [
            entry(source, score, row)
            for source, partials in enumerate(gathered)
            for score, row in zip(*partials[position])
        ]
        if len(gathered) > 1:
            entries.sort(key=lambda item: (-item[0], item[1]))
        results.append([(node, score) for score, _, node in entries[:k]])
    return results


def promote_state(
    state: ModelState,
    config: GenClusConfig | None = None,
    obs=None,
    faults=None,
):
    """Warm-started refit of a lifecycle state's base + extensions.

    The promotion core shared by :meth:`InferenceEngine.promote` and
    the cluster-wide promote of
    :class:`~repro.serving.router.ShardedEngine`: materialize the
    state into a solver-ready problem (compiled from the base +
    extension network, like a fresh fit's) and run Algorithm 1
    warm-started from the served theta/gamma/attribute parameters.
    Returns ``(result, promoted_state)`` where the promoted state is a fresh
    refit-capable base with an empty extension space, reusing the
    materialized problem's network.

    Promotion is **transactional**: the candidate is built entirely off
    to the side and validated -- every learned parameter finite, the
    warm-started ``g1`` no worse than its floor (the paper's Newton
    step on Eq. 15 can walk gamma non-finite on pathological inputs)
    -- before anything is returned.  A failed or divergent refit
    raises and leaves ``state`` untouched, so the caller's old model
    keeps serving verbatim.  ``faults`` is an optional
    :class:`~repro.faults.FaultInjector` traversing the
    ``promote.refit`` site (payload: the candidate theta).

    Raises :class:`~repro.exceptions.ServingError` when the state is
    serve-only, the config disagrees on ``K``, or the candidate fails
    validation.
    """
    if not state.refit_capable:
        raise ServingError(
            "cannot promote: the served model is serve-only (no "
            "embedded training data; re-export it from the original "
            "fit with include_training_data=True)"
        )
    if config is None:
        config = GenClusConfig(n_clusters=state.n_clusters)
    elif config.n_clusters != state.n_clusters:
        raise ServingError(
            f"promote config has n_clusters={config.n_clusters}, "
            f"but the served model has K={state.n_clusters}"
        )
    # the training stack (and scipy with it) loads only when a promote
    # refits: a serving process that never promotes never imports it
    from repro.core.genclus import GenClus

    problem = state.to_problem()
    result = GenClus(config).fit_problem(
        problem, warm_start=state, obs=obs
    )
    theta = result.theta
    if faults is not None:
        theta = faults.traverse("promote.refit", payload=theta)
    _validate_candidate(theta, result)
    promoted = ModelState(
        network=problem.network,
        theta=theta,
        gamma=result.gamma,
        relation_names=problem.matrices.relation_names,
        attribute_names=problem.attribute_names,
        attribute_params=result.attribute_params,
        refit_capable=True,
    )
    return result, promoted


def _validate_candidate(theta: np.ndarray, result) -> None:
    """Reject a divergent promote candidate before it can serve.

    Checks every learned parameter for finiteness and the warm-started
    ``g1`` trajectory against its floor (the first outer iteration's
    value, i.e. where the served model already stood).  Raising here is
    what makes promotion transactional: the caller never swaps in a
    candidate that failed validation.
    """
    if not np.isfinite(theta).all():
        raise ServingError(
            "promote candidate rejected: non-finite theta (divergent "
            "refit); the previous state keeps serving"
        )
    if not np.isfinite(result.gamma).all():
        raise ServingError(
            "promote candidate rejected: non-finite gamma (the Newton "
            "strength step diverged); the previous state keeps serving"
        )
    for name, params in result.attribute_params.items():
        for key in ("beta", "means", "variances"):
            values = params.get(key)
            if values is not None and not np.isfinite(values).all():
                raise ServingError(
                    f"promote candidate rejected: non-finite "
                    f"{key!r} for attribute {name!r}; the previous "
                    f"state keeps serving"
                )
    g1 = result.history.g1_series()
    if len(g1):
        g1_first, g1_final = float(g1[0]), float(g1[-1])
        floor = g1_first - 1e-9 * max(1.0, abs(g1_first))
        if not np.isfinite(g1_final) or g1_final < floor:
            raise ServingError(
                f"promote candidate rejected: g1 regressed from "
                f"{g1_first!r} to {g1_final!r} (below the warm-start "
                f"floor); the previous state keeps serving"
            )


class ServingFrontEnd:
    """What :class:`InferenceEngine` and the cluster router
    (:class:`~repro.serving.router.ShardedEngine`) share.

    A subclass serves the base model of ``self._state`` and provides
    ``obs``, ``_metrics``, ``_faults``, ``num_extension_nodes``,
    ``score_many``, ``membership_of``, ``_shard_of`` (the
    shard holding a node's row), ``_shard_handle`` (that shard's
    engine or handle) and ``_rank`` (scan and merge one
    similarity batch); the shape properties, the derived front-end
    methods, the similarity frame and promote accounting are defined
    here once.
    """

    @property
    def n_clusters(self) -> int:
        return self._state.n_clusters

    @property
    def num_base_nodes(self) -> int:
        return self._state.num_base_nodes

    @property
    def num_nodes(self) -> int:
        """Base plus folded-in extension nodes."""
        return self.num_base_nodes + self.num_extension_nodes

    @property
    def refit_capable(self) -> bool:
        """Whether :meth:`promote` can run (training data available)."""
        return self._state.refit_capable

    def strengths(self) -> dict[str, float]:
        """Learned per-relation strengths (gamma)."""
        return {
            name: float(g)
            for name, g in zip(self._state.relation_names, self._state.gamma)
        }

    def hard_label_of(self, node: object) -> int:
        """Arg-max cluster of any served node."""
        return int(np.argmax(self.membership_of(node)))

    def query(
        self,
        object_type: str,
        links: Sequence[tuple] = (),
        text: Mapping[str, Any] | None = None,
        numeric: Mapping[str, Sequence[float]] | None = None,
    ) -> np.ndarray:
        """Score a hypothetical node without mutating the engine: a
        one-row :meth:`score_many`.

        Returns the ``(K,)`` posterior membership.  Identical queries
        are answered from the LRU cache until the next delta.
        """
        return self.score_many(
            compile_query(object_type, links, text, numeric)
        )[0]

    def assign(
        self,
        object_type: str,
        links: Sequence[tuple] = (),
        text: Mapping[str, Any] | None = None,
        numeric: Mapping[str, Sequence[float]] | None = None,
    ) -> int:
        """Hard cluster label for a hypothetical node."""
        return int(
            np.argmax(self.query(object_type, links, text, numeric))
        )

    def assign_many(
        self, queries: Sequence[Mapping[str, Any]]
    ) -> list[int]:
        """Hard cluster labels for a batch of transient queries."""
        return [
            int(np.argmax(membership))
            for membership in self.score_many(queries)
        ]

    def similar(
        self,
        node: object,
        k: int = 10,
        metric: str = "cosine",
        object_type: str | None = None,
    ) -> list[tuple[object, float]]:
        """The ``k`` served nodes most similar to ``node``.

        Candidates are the nodes of ``node``'s own object type (or
        ``object_type`` when given), excluding the query itself.
        Returns ``[(node_id, score), ...]`` in ranking order under the
        deterministic total order (score desc, then global node index
        asc) -- bit-identical at every shard count, and equal to the
        offline :func:`repro.eval.linkpred.reference_ranking`.
        """
        return self.similar_many(
            [node], k=k, metric=metric, object_type=object_type
        )[0]

    def similar_many(
        self,
        nodes: Sequence[object],
        k: int = 10,
        metric: str = "cosine",
        object_type: str | None = None,
    ) -> list[list[tuple[object, float]]]:
        """Answer a batch of :meth:`similar` queries as one blocked scan.

        Every served row is scanned exactly once (a cluster's shards
        each scan their **owned** base rows plus their own extensions):
        the whole batch is scored against each theta block as a single
        matmul and each block keeps only its ``k`` best rows
        (``np.argpartition``, no full sort), so a batch costs one pass
        over theta regardless of its size -- ``O(n*K + n)`` per batch,
        never materializing an ``(m, n)`` score matrix.  The
        shortlists merge under the global total order
        (:func:`resolve_shortlists`).  The query vectors come from one
        :meth:`~InferenceEngine.served_vectors` call per owner shard,
        in shard order.
        """
        metric = _resolve_metric(metric)
        nodes = list(nodes)
        positions: dict[int, list[int]] = {}
        for position, node in enumerate(nodes):
            positions.setdefault(self._shard_of(node), []).append(position)
        vectors = np.empty((len(nodes), self.n_clusters))
        node_types: list[str] = [""] * len(nodes)
        for shard in sorted(positions):
            owned = positions[shard]
            rows, names = self._shard_handle(shard).served_vectors(
                [nodes[position] for position in owned]
            )
            vectors[owned] = rows
            for position, name in zip(owned, names):
                node_types[position] = name
        queries = [
            (vector, object_type if object_type is not None else name, {node})
            for vector, name, node in zip(vectors, node_types, nodes)
        ]
        return self._similarity("similar_many", queries, k, metric)

    def suggest_links(
        self,
        node: object,
        relation: str,
        k: int = 10,
        metric: str = "cosine",
    ) -> list[tuple[object, float]]:
        """Suggest ``k`` link targets for ``node`` under ``relation``.

        The link-prediction protocol of Section 5.2.2, served online:
        candidates are the relation's target-typed nodes, minus the
        query itself and every target it already links to through the
        relation.  ``node`` must have the relation's source type.  The
        relation check runs where the node is served, which also holds
        an extension node's accumulated links; a base node's links
        come from the training payload of the served base state (a
        cluster's shard states are serve-only slices).
        """
        metric = _resolve_metric(metric)
        vector, target_type, linked = self._shard_handle(
            self._shard_of(node)
        ).suggest_context(node, relation)
        if linked is None:
            linked = self._linked_targets(node, relation)
        return self._similarity(
            "suggest_links",
            [(vector, target_type, {node} | set(linked))],
            k,
            metric,
            relation=relation,
        )[0]

    def _similarity(
        self,
        span_name: str,
        queries: list[tuple[np.ndarray, str, set]],
        k: int,
        metric: str,
        **span_attributes: Any,
    ) -> list[list[tuple[object, float]]]:
        """One traced, timed similarity batch, ranked by ``_rank``.

        Each query travels as ``(theta_vector, candidate_type,
        excluded_node_ids)`` -- vectors rather than rows because an
        extension query's row exists only on the shard serving it.
        """
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")
        if not queries:
            return []
        matrix = np.array(
            [vector for vector, _, _ in queries], dtype=np.float64
        )
        tick = time.perf_counter()
        with self.obs.span(
            span_name,
            queries=len(queries),
            **span_attributes,
            k=int(k),
            metric=metric,
        ):
            ranked = self._rank(
                matrix,
                k,
                metric,
                [name for _, name, _ in queries],
                [excluded for _, _, excluded in queries],
            )
        self._metrics.similarity_queries.inc(len(queries))
        self._metrics.similarity_seconds.observe(
            time.perf_counter() - tick
        )
        return ranked

    def _linked_targets(
        self, node: object, relation: str
    ) -> set[object]:
        """Targets ``node`` already links to through ``relation``.

        Extension links live on the node's spec; base links are the
        node's row of the network's summed link columns (found by
        binary search, ``O(log E + degree)``), which artifact-backed
        states decode lazily (:meth:`~repro.core.state.ModelState.hydrate`,
        a no-op once decoded).  A serve-only artifact carries no link
        data at all, so its base nodes have nothing to exclude.
        """
        state = self._state
        if state.is_extension(node):
            spec = state.extension_spec(node)
            return {
                target
                for rel, target, _ in spec.links
                if rel == relation
            }
        state.hydrate()
        return {
            target
            for target, _, _ in state.network.out_neighbors(
                node, relation
            )
        }

    def _promote(self, state: ModelState, config, commit):
        """:func:`promote_state` of ``state`` under the promote
        accounting: one ``promote`` span, the ``promote_seconds``
        histogram, and a rollback count when the candidate fails (the
        old model keeps serving).  ``commit(result, promoted)`` swaps a
        validated candidate in; ``promotions`` then counts it."""
        with self.obs.span(
            "promote", extension_nodes=state.num_extension_nodes
        ):
            tick = time.perf_counter()
            try:
                result, promoted = promote_state(
                    state, config, obs=self.obs, faults=self._faults
                )
            except Exception:
                self._metrics.promote_rollbacks.inc()
                raise
            self._metrics.promote_seconds.observe(
                time.perf_counter() - tick
            )
        commit(result, promoted)
        self._metrics.promotions.inc()
        return result


class InferenceEngine(ServingFrontEnd):
    """Serves cluster-membership queries from a fitted model.

    Parameters
    ----------
    artifact:
        The fitted model to serve.  Artifacts that embed their
        training data (and any in-memory fit) are refit-capable:
        :meth:`promote` works.  Serve-only artifacts serve and absorb
        deltas but cannot refit.
    cache_size:
        Maximum memoized transient queries (0 disables the cache).
    shard_id, shard_count:
        The engine's position in a serving cluster (reported through
        :meth:`info`; a standalone engine is shard ``0`` of ``1``).
        Set by :class:`~repro.serving.router.ShardedEngine` when it
        builds its per-shard engines.
    obs:
        Optional :class:`~repro.obs.Observability` handle.  The engine
        always keeps a live metrics registry (a fresh one when this is
        ``None``); pass ``Observability(trace=True)`` to also record
        span trees for queries and promotes.  Scores are bit-identical
        either way.
    faults:
        Optional :class:`~repro.faults.FaultInjector` (or a bare
        :class:`~repro.faults.FaultPlan`) traversed at the engine's
        named fault sites (``promote.refit``).  ``None`` (the default)
        is the null path: one pointer check, no behavior change.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        cache_size: int = 1024,
        shard_id: int = 0,
        shard_count: int = 1,
        obs: Observability | None = None,
        faults=None,
    ) -> None:
        self._setup(
            state=artifact.to_state(),
            artifact=artifact,
            cache_size=cache_size,
            shard_id=shard_id,
            shard_count=shard_count,
            obs=obs,
            faults=faults,
        )

    def _setup(
        self,
        state: ModelState,
        artifact: ModelArtifact | None,
        cache_size: int,
        shard_id: int,
        shard_count: int,
        obs: Observability | None = None,
        faults=None,
    ) -> None:
        if cache_size < 0:
            raise ServingError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if shard_count < 1:
            raise ServingError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        if not 0 <= shard_id < shard_count:
            raise ServingError(
                f"shard_id must lie in 0..{shard_count - 1}, "
                f"got {shard_id}"
            )
        self._shard_id = shard_id
        self._shard_count = shard_count
        self._artifact: ModelArtifact | None = artifact
        self._promoted_result = None
        self._state = state
        self._model = self._state.frozen_view()
        self._cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._cache_size = cache_size
        # lifecycle telemetry lives in the obs registry; only the LRU
        # age book stays engine-local (it orders evictions -- policy
        # state, not telemetry)
        self.obs = obs if obs is not None else Observability()
        self._faults = resolve_faults(faults)
        self._metrics = ServingMetrics(self.obs.metrics)
        self._metrics.cache_capacity.set(cache_size)
        self._ages = QueryAges(
            lambda node: self._state.is_extension(node)
        )
        # version-stamped similarity caches: per-metric candidate
        # precomputes and per-type candidate masks, both invalidated
        # with the query cache on every delta (and promote, which may
        # reset the version counter)
        self._simcache: dict[str, tuple[int, dict]] = {}
        self._simtypes: dict[str, tuple[int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls, path: str | Path, mmap: bool = False, **kwargs: Any
    ) -> InferenceEngine:
        """Build an engine straight from an artifact bundle on disk.

        ``mmap=True`` serves straight off lazily-paged read-only maps:
        cold start touches only the pages the first queries read
        instead of copying the whole model up front.  See
        :func:`repro.serving.artifact.load_artifact`.
        """
        return cls(ModelArtifact.load(path, mmap=mmap), **kwargs)

    @classmethod
    def from_result(cls, result, **kwargs: Any) -> InferenceEngine:
        """Build an engine from an in-memory fit (no disk roundtrip)."""
        return cls(ModelArtifact.from_result(result), **kwargs)

    @classmethod
    def from_state(
        cls,
        state: ModelState,
        cache_size: int = 1024,
        shard_id: int = 0,
        shard_count: int = 1,
        obs: Observability | None = None,
        faults=None,
    ) -> InferenceEngine:
        """Build an engine serving an existing lifecycle state directly.

        No artifact round trip: the engine reads and mutates ``state``
        in place.  This is how the cluster router wraps the per-shard
        states of :meth:`~repro.core.state.ModelState.partition` (each
        shard engine shares the frozen base and owns its extension
        space).  :attr:`artifact` is unavailable until a promote
        produces an in-memory result to freeze.
        """
        engine = cls.__new__(cls)
        engine._setup(
            state=state,
            artifact=None,
            cache_size=cache_size,
            shard_id=shard_id,
            shard_count=shard_count,
            obs=obs,
            faults=faults,
        )
        return engine

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def artifact(self) -> ModelArtifact:
        """The artifact of the currently served base model (refreshed
        by :meth:`promote`, frozen lazily on first access)."""
        if self._artifact is None:
            if self._promoted_result is None:
                raise ServingError(
                    "this engine serves a shared in-memory state "
                    "(built with from_state) and has no artifact "
                    "bundle; save the original fit, or promote() to "
                    "produce a freezable result"
                )
            self._artifact = ModelArtifact.from_result(
                self._promoted_result
            )
        return self._artifact

    @property
    def state(self) -> ModelState:
        """The shared lifecycle state the engine reads and mutates."""
        return self._state

    @property
    def num_extension_nodes(self) -> int:
        return self._state.num_extension_nodes

    def has_node(self, node: object) -> bool:
        return node in self._model.node_index

    def membership_of(self, node: object) -> np.ndarray:
        """Membership row of any served node, base or folded (a copy)."""
        row = self._served_row(node)
        self._ages.touch(node)
        return self._model.theta[row].copy()

    def metrics_snapshot(self) -> dict[str, Any]:
        """Plain-data snapshot of the engine's metrics registry, with
        the size/occupancy gauges refreshed first.

        This is the export surface: feed it to
        :func:`~repro.obs.render_prometheus` /
        :func:`~repro.obs.render_json`, or let a cluster router
        aggregate it with its peers'.
        """
        state = self._state
        metrics = self._metrics
        metrics.cache_entries.set(len(self._cache))
        metrics.cache_capacity.set(self._cache_size)
        metrics.extension_nodes.set(state.num_extension_nodes)
        metrics.extension_links.set(state.extension_link_count())
        metrics.extension_capacity.set(state.theta_capacity)
        metrics.extension_bytes.set(state.theta_bytes)
        metrics.simcache_entries.set(len(self._simcache))
        metrics.simcache_bytes.set(
            sum(
                topk.precompute_nbytes(pre)
                for _, pre in self._simcache.values()
            )
        )
        return self.obs.metrics.snapshot()

    def info(self) -> dict[str, Any]:
        """Operational snapshot: model shape, strengths, cache stats,
        extension-space telemetry, and fold-in counters.

        The whole document comes from
        :func:`~repro.serving.telemetry.info_document`, the one schema
        :class:`~repro.serving.router.ShardedEngine` also fills (from
        its aggregated cluster snapshot).
        """
        artifact = self._artifact
        return info_document(
            self,
            self._state,
            self.metrics_snapshot(),
            artifact_mapped=bool(artifact is not None and artifact.mapped),
            integrity=(
                artifact.integrity.stats()
                if artifact is not None and artifact.integrity is not None
                else None
            ),
            shard_id=self._shard_id,
            shard_count=self._shard_count,
        )

    # ------------------------------------------------------------------
    # durable deltas
    # ------------------------------------------------------------------
    def extend(self, nodes: Sequence[NewNode]) -> FoldInOutcome:
        """Fold a batch in and append it to the served index space.

        Later queries, extensions, and link deltas may reference the
        appended nodes, and :meth:`promote` will materialize them (and
        their observations) into training data.  The transient-query
        cache is invalidated.
        """
        outcome = fold_in(
            self._model,
            nodes,
            obs=self.obs,
        )
        self._metrics.foldin_sweeps.inc(outcome.iterations)
        if nodes:
            self._state.append_extensions(tuple(nodes), outcome.theta)
            self._metrics.extends.inc()
            self._ages.stamp(spec.node for spec in nodes)
            self._model = self._state.frozen_view()
            self._invalidate_cache()
        return outcome

    def add_links(
        self,
        links: Iterable[tuple[object, str, object] | tuple[object, str, object, float]],
    ) -> FoldInOutcome:
        """Append out-links ``(source, relation, target[, weight])``
        on *extension* sources (checked by :func:`parse_link`).

        Only the **touched component** is re-folded: the delta's
        sources plus every extension node that reaches one of them via
        out-links (a node's fixed point depends solely on its
        observations and its out-neighbours' memberships, so everything
        outside that reverse-reachable set keeps its row verbatim).
        The re-fold runs against base + untouched extensions, and the
        shared state is only mutated after the whole delta validates.
        """
        state = self._state
        merged: dict[object, list[tuple[str, object, float]]] = {}
        for link in links:
            source, relation, target, weight = parse_link(
                link, state.is_extension, state.network
            )
            merged.setdefault(source, []).append(
                (relation, target, float(weight))
            )
        updated: dict[object, NewNode] = {}
        for source, new_links in merged.items():
            spec = state.extension_spec(source)
            updated[source] = replace(
                spec, links=spec.links + tuple(new_links)
            )
        touched = state.touched_component(merged)
        specs = [
            updated.get(node, state.extension_spec(node))
            for node in touched
        ]
        # validate + score first; commit only on success so a bad delta
        # cannot leave the engine half-updated
        outcome = fold_in(
            self._model.without(touched),
            specs,
            obs=self.obs,
        )
        self._metrics.foldin_sweeps.inc(outcome.iterations)
        if merged:
            state.commit_link_delta(updated)
            state.replace_extension_rows(touched, outcome.theta)
            self._metrics.link_deltas.inc()
            self._metrics.refolded_rows.inc(len(touched))
            self._ages.stamp(merged)
            self._model = self._state.frozen_view()
        self._invalidate_cache()
        return outcome

    # ------------------------------------------------------------------
    # extension-space management
    # ------------------------------------------------------------------
    def evict(self, max_nodes: int) -> tuple[object, ...]:
        """Shrink the extension space to at most ``max_nodes`` nodes.

        Eviction order is least-recently-used by *query age*: the
        operation clock advances on every delta, and a node's age
        refreshes when it is created, read (:meth:`membership_of`),
        re-linked, or referenced by a transient query.  A node that a
        surviving extension node links to is **pinned** (its membership
        row backs the survivor's future re-folds); pinned nodes are
        skipped and survive even beyond the budget.

        Returns the evicted node ids (oldest first).  Evicted nodes
        leave the served index space entirely -- and will not be part
        of a later :meth:`promote`.
        """
        state = self._state
        # ties break by served row; the report order is captured
        # before eviction renumbers the rows
        chosen = self._ages.victims(
            max_nodes,
            state.extension_nodes(),
            state.extension_dependants,
            state.node_index.__getitem__,
        )
        if chosen:
            self.evict_nodes(chosen)
        return chosen

    def evict_nodes(
        self, nodes: Iterable[object]
    ) -> tuple[object, ...]:
        """Evict exactly these extension nodes (in served-row order).

        The mechanism under :meth:`evict`'s LRU policy, exposed so a
        cluster router can run *its* policy globally (ages tracked
        across all shards) and then apply the per-shard verdicts here.
        The state still enforces the safety invariants: only extension
        nodes can go, and a node that a surviving extension node links
        to is refused (its membership row backs the survivor's future
        re-folds).
        """
        chosen_set = set(nodes)
        if not chosen_set:
            return ()
        state = self._state
        row = state.node_index
        chosen = tuple(sorted(chosen_set, key=row.__getitem__))
        state.evict_extensions(chosen_set)
        self._ages.forget(chosen)
        self._metrics.evictions.inc(len(chosen))
        self._model = state.frozen_view()
        self._invalidate_cache()
        return chosen

    # ------------------------------------------------------------------
    # promotion: refit from extended state
    # ------------------------------------------------------------------
    def promote(
        self, config: GenClusConfig | None = None
    ) -> GenClusResult:
        """Refit from the extended state and serve the promoted model.

        Folded-in nodes, their accumulated links, and their
        observations are materialized into a full clustering problem
        (compiled from the base + extension network, like a fresh fit)
        and Algorithm 1 runs **warm-started** from the served
        theta/gamma/attribute parameters.  Starting at an
        already-converged interior point, the refit typically needs far
        fewer outer iterations than a cold fit of the same extended
        network -- and its final ``g1`` is verifiable against the cold
        fit's through both results' histories.

        Afterwards the engine serves the promoted model: the returned
        result becomes the new frozen base, the extension space is
        empty, and the query cache is cold.

        Parameters
        ----------
        config:
            Controls for the refit.  Defaults to
            ``GenClusConfig(n_clusters=K)`` with the library's standard
            budgets; ``n_clusters`` must match the served model.

        Raises
        ------
        ServingError
            If the served model is not refit-capable (a serve-only
            artifact: no training links/observations), the config
            disagrees on ``K``, or the refit candidate fails
            validation (non-finite parameters, regressed ``g1``).  On
            any failure the promote **rolls back**: the engine keeps
            serving its current state verbatim and
            ``repro_promote_rollbacks_total`` is incremented.
        """
        # rebase: the promoted fit is the new frozen base, over the
        # materialized network.
        # The candidate is built and validated entirely off to the
        # side (promote_state); engine fields mutate only in commit,
        # so a failed refit cannot disturb serving.
        def commit(result, promoted):
            self._state = promoted
            # the served artifact is stale now; refreeze lazily on the
            # next `.artifact` access instead of paying the copies
            # every cycle
            self._artifact = None
            self._promoted_result = result
            self._model = promoted.frozen_view()
            self._ages.reset()
            self._invalidate_cache()

        return self._promote(self._state, config, commit)

    # ------------------------------------------------------------------
    # transient queries
    # ------------------------------------------------------------------
    def score_many(
        self, queries: Sequence[Mapping[str, Any]]
    ) -> list[np.ndarray]:
        """Score many transient queries as **one** fold-in batch.

        Each query is a mapping carrying
        :meth:`~ServingFrontEnd.query`'s keyword arguments
        (``object_type`` required; ``links`` / ``text`` / ``numeric``
        optional).  Transient queries are independent --
        they cannot link to each other -- so coalescing them into a
        single batch converges to the same per-query fixed points
        while paying one blocked sweep per iteration instead of one
        sweep per query: the batch request path of the serving
        roadmap at its smallest useful size.

        Queries already memoized are answered from the LRU cache and
        duplicate queries within the call are folded once; every fresh
        result is cached for later single or batched queries.
        Transient rows converge **per row** (each freezes the sweep its
        own change drops below ``tol``), so a batched score is
        bit-identical to the single-query path -- and to any other
        batching of the same queries, including the per-shard
        scatter-gather of a serving cluster.

        ``queries`` may also be a compiled
        :class:`~repro.serving.foldin.QueryBatch`.  Returns one ``(K,)``
        posterior membership per query, in input order.
        """
        batch = compile_queries(queries)
        self._ages.touch_queries(batch)
        self._metrics.queries.inc(len(batch))
        with self.obs.span("score_many", queries=len(batch)):
            return self.score_batch(batch)

    def score_batch(self, batch: QueryBatch) -> list[np.ndarray]:
        """Score a compiled batch (the cache + batched fold-in half of
        :meth:`score_many`; the shard call of the cluster router).

        The batch is resolved against the model once
        (:func:`~repro.serving.foldin.bind_batch`: every check, errors
        naming the batch's query positions); each row's cache key is
        the bytes of its sorted bound records; cached rows are answered
        from the cache and the remaining distinct rows fold in as one
        batch.
        """
        if not len(batch):
            return []
        bound = bind_batch(self._model, batch)
        keys = bound.row_keys()
        results: dict[int, np.ndarray] = {}
        pending: dict[bytes, list[int]] = {}
        for position, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is not None:
                self._metrics.cache_hits.inc()
                self._cache.move_to_end(key)
                results[position] = cached.copy()
            else:
                pending.setdefault(key, []).append(position)
        if pending:
            self._metrics.cache_misses.inc(len(pending))
            rows = [positions[0] for positions in pending.values()]
            outcome = fold_bound(
                self._model,
                bound if len(rows) == len(keys) else bound.take(rows),
                tuple(rows),
                obs=self.obs,
            )
            self._metrics.foldin_sweeps.inc(outcome.iterations)
            for row, (key, positions) in enumerate(pending.items()):
                membership = outcome.theta[row]
                if self._cache_size > 0:
                    self._cache[key] = membership.copy()
                for position in positions:
                    results[position] = membership.copy()
            if self._cache_size > 0:
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return [results[position] for position in range(len(keys))]

    # ------------------------------------------------------------------
    # top-k similarity serving
    # ------------------------------------------------------------------
    def _shard_of(self, node: object) -> int:
        """The engine serves every row itself: one shard, 0."""
        return 0

    def _shard_handle(self, shard: int) -> InferenceEngine:
        return self

    def _rank(
        self, matrix, k, metric, candidate_types, exclude_nodes
    ) -> list[list[tuple[object, float]]]:
        state = self._state
        partials = self.similar_rows_partial(
            matrix,
            k,
            metric,
            candidate_types=candidate_types,
            exclude_nodes=exclude_nodes,
        )
        return resolve_shortlists(
            [partials],
            k,
            state.network,
            lambda _: state.extension_nodes(),
            lambda node, row: row,
        )

    def similar_rows_partial(
        self,
        queries: np.ndarray,
        k: int,
        metric: str,
        candidate_types: Sequence[str | None] | None = None,
        exclude_nodes: Sequence[Iterable[object] | None] | None = None,
        base_range: tuple[int, int] | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Blocked top-k over the rows this engine is responsible for.

        The mechanism under :meth:`similar_many` / :meth:`suggest_links`,
        exposed raw (no telemetry, local row indices instead of node
        ids) so a cluster router can scatter one similarity query
        across shards: each shard scans its **owned** base rows
        (``base_range``, a half-open row range; the full base by
        default) plus its own extensions, and the router merges the
        per-shard shortlists.  ``queries`` is a ``(m, K)`` matrix of
        raw membership vectors (an extension query's row exists only
        on its owner shard, so peers receive the vector).  Scan blocks come
        from the state's canonical
        :meth:`~repro.core.state.ModelState.block_plan` clipped to the
        owned ranges and run in block order.
        """
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")
        state = self._state
        theta = self._model.theta
        num_base = state.num_base_nodes
        num_nodes = state.num_nodes
        masks = None
        if candidate_types is not None:
            masks = [
                None if name is None else self._type_mask(name)
                for name in candidate_types
            ]
        exclude = None
        if exclude_nodes is not None:
            node_index = self._model.node_index
            exclude = []
            for excluded in exclude_nodes:
                if not excluded:
                    exclude.append(None)
                    continue
                local = sorted(
                    index
                    for index in (
                        node_index.get(node) for node in excluded
                    )
                    if index is not None
                )
                exclude.append(np.asarray(local, dtype=np.int64))
        start, stop = (
            base_range if base_range is not None else (0, num_base)
        )
        ranges = [(max(start, 0), min(stop, num_base))]
        if num_nodes > num_base:
            ranges.append((num_base, num_nodes))
        plan = state.block_plan()
        bounds = []
        for range_start, range_stop in ranges:
            for block_start, block_stop in plan.bounds:
                lo = max(block_start, range_start)
                hi = min(block_stop, range_stop)
                if hi > lo:
                    bounds.append((lo, hi))
        pre = self._similarity_precompute(metric)
        num_queries = len(queries)
        prepared = topk.prepare_queries(metric, queries)
        if not bounds or not num_queries:
            empty = (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
            return [empty] * num_queries
        return topk.topk_bounds(
            metric,
            prepared,
            theta,
            k,
            bounds,
            pre,
            masks=masks,
            exclude=exclude,
        )

    def _served_row(self, node: object) -> int:
        index = self._model.node_index.get(node)
        if index is None:
            raise ServingError(
                f"node {node!r} is not served by this engine"
            )
        return int(index)

    # ------------------------------------------------------------------
    # shard-handle surface (the transport seam)
    #
    # A cluster router never reaches into a shard's state directly --
    # it speaks the methods below (plus score_batch / extend /
    # add_links / evict_nodes / membership_of / similar_rows_partial /
    # info / metrics_snapshot), which is exactly the surface
    # :mod:`repro.serving.transport` carries over a process boundary.
    # An in-process shard handle *is* this engine; a
    # :class:`~repro.serving.transport.ProcessShardHandle` answers the
    # same calls over the wire, bit-identically.
    # ------------------------------------------------------------------
    def served_vectors(
        self, nodes: Sequence[object]
    ) -> tuple[np.ndarray, list[str]]:
        """``(theta_rows_copy, node_types)`` of served nodes, in
        ``nodes`` order -- the payload a router needs to scatter
        similarity queries whose rows exist only on this shard.  The
        first node not served here raises."""
        rows = [self._served_row(node) for node in nodes]
        types = self._model.node_types
        return (
            np.array(self._model.theta[rows], dtype=np.float64),
            [types[row] for row in rows],
        )

    def suggest_context(
        self, node: object, relation: str
    ) -> tuple[np.ndarray, str, frozenset | None]:
        """Everything a router needs to fan a ``suggest_links`` query
        out: the query vector, the relation's validated target type,
        and -- for an *extension* node, whose accumulated links live on
        this shard -- the already-linked targets to exclude.  For a
        base node the third element is ``None`` (base out-links live in
        the router's training payload, not in serve-only shard
        states)."""
        row = self._served_row(node)
        target_type = self._suggest_target_type(node, relation)
        linked: frozenset | None = None
        if self._state.is_extension(node):
            linked = frozenset(self._linked_targets(node, relation))
        return (
            np.array(self._model.theta[row], dtype=np.float64),
            target_type,
            linked,
        )

    def extension_nodes(self) -> tuple[object, ...]:
        """This shard's extension node ids, in served-row order."""
        return self._state.extension_nodes()

    def extension_export(
        self,
    ) -> tuple[tuple[object, ...], tuple[NewNode, ...], np.ndarray]:
        """``(nodes, specs, theta_rows)`` of every extension this
        shard owns, in served-row order -- the payload a cluster
        promote reassembles in global arrival order."""
        state = self._state
        nodes = state.extension_nodes()
        specs = tuple(state.extension_spec(node) for node in nodes)
        rows = np.empty(
            (len(nodes), state.n_clusters), dtype=np.float64
        )
        for position, node in enumerate(nodes):
            rows[position] = state.theta[state.node_index[node]]
        return nodes, specs, rows

    def extension_dependants(self, node: object) -> frozenset:
        """Extension nodes whose out-links target ``node`` (the
        pinning set a cluster-wide LRU eviction must honour)."""
        return frozenset(self._state.extension_dependants(node))

    def _suggest_target_type(self, node: object, relation: str) -> str:
        declaration = self._model.relation_types.get(relation)
        if declaration is None:
            raise ServingError(
                f"unknown relation {relation!r}; available: "
                f"{sorted(self._model.relation_types)}"
            )
        source_type, target_type = declaration
        node_type = self._model.node_types[self._served_row(node)]
        if node_type != source_type:
            raise ServingError(
                f"relation {relation!r} links {source_type!r} -> "
                f"{target_type!r}, but node {node!r} has type "
                f"{node_type!r}"
            )
        return target_type

    def _type_mask(self, object_type: str) -> np.ndarray:
        """Version-stamped boolean candidate mask for one object type.

        Queries of the same candidate type share the cached array
        *object*, which is what lets the blocked scan apply each
        distinct mask to a score panel once per block.
        """
        if object_type not in self._model.object_types:
            raise ServingError(
                f"unknown object type {object_type!r}; available: "
                f"{sorted(self._model.object_types)}"
            )
        version = self._state.version
        entry = self._simtypes.get(object_type)
        if entry is not None and entry[0] == version:
            return entry[1]
        types = self._model.node_types
        mask = np.fromiter(
            (name == object_type for name in types),
            dtype=bool,
            count=len(types),
        )
        self._simtypes[object_type] = (version, mask)
        return mask

    def _similarity_precompute(self, metric: str) -> dict:
        """The metric's candidate precompute, cached per model version."""
        version = self._state.version
        entry = self._simcache.get(metric)
        if entry is not None and entry[0] == version:
            self._metrics.simcache_hits.inc()
            return entry[1]
        self._metrics.simcache_misses.inc()
        pre = topk.precompute(metric, self._model.theta)
        self._simcache[metric] = (version, pre)
        return pre

    # ------------------------------------------------------------------
    def _invalidate_cache(self) -> None:
        self._cache.clear()
        # similarity precomputes are stamped with the state version,
        # but a promote swaps the state object itself (fresh version
        # counter), so the caches are dropped explicitly alongside the
        # query cache rather than trusting the stamp alone
        dropped = len(self._simcache) + len(self._simtypes)
        if dropped:
            self._metrics.simcache_invalidations.inc(dropped)
        self._simcache.clear()
        self._simtypes.clear()


# the batch compiler under its historical name (benchmark probes time it)
compile_transient_queries = compile_queries


def _resolve_metric(metric: str) -> str:
    """Canonical metric name, with alias errors as serving errors."""
    try:
        return topk.resolve_metric(metric)
    except ValueError as exc:
        raise ServingError(str(exc)) from None
