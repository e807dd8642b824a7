"""Serving metric families and the unified ``info()`` schema.

One place declares every serving-layer metric family -- the engine,
the cluster router, and the retrain driver all call
:class:`ServingMetrics` against their registry, so family names, help
text, and bucket bounds cannot drift between layers (and a cluster
aggregation of shard registries always finds matching shapes).

:func:`info_document` is the other half of the unification: both
:meth:`InferenceEngine.info <repro.serving.engine.InferenceEngine.info>`
and :meth:`ShardedEngine.info <repro.serving.router.ShardedEngine.info>`
are built by this one function -- its counter-backed sections
(:func:`info_sections`) from a registry snapshot, the router's from the
*aggregated* cluster snapshot -- so the two schemas are the same
schema, stamped with the same ``telemetry_version``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    series_value,
)
from repro.serving.artifact import SCHEMA_VERSION

# the deferred-array integrity counters of the ``memory`` section (all
# zero for an engine that serves no mapped artifact of its own)
_INTEGRITY_KEYS = ("arrays_deferred", "arrays_verified", "arrays_pending")

# Families the cluster router is the source of truth for: shard
# registries also track some of these locally (a shard counts the
# evictions applied to it; a routed single query is counted by the
# shard that served it), so a plain sum over shard snapshots would
# double-count them.  Cluster aggregation therefore overwrites these
# families with the router's own series after summing the rest.
ROUTER_AUTHORITATIVE = frozenset(
    {
        "repro_queries_total",
        "repro_evicted_nodes_total",
        "repro_promotions_total",
        "repro_promote_rollbacks_total",
        "repro_promote_seconds",
        "repro_retrain_rounds_total",
        "repro_retrain_failures_total",
        "repro_retrain_backoffs_total",
        "repro_retrain_pressure_scale",
        "repro_retrain_last_g1_gain",
        # similarity queries are counted where they are answered: the
        # router owns the cluster-scope count and latency, shards only
        # see scatter fragments of each query
        "repro_similarity_queries_total",
        "repro_similarity_seconds",
    }
)


class ServingMetrics:
    """Live handles to the serving metric families of one registry.

    Declaring every family up front (at engine construction) means an
    export always covers the full schema -- a scrape taken before the
    first query still shows ``repro_cache_hits_total 0`` rather than a
    missing family.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.queries = registry.counter(
            "repro_queries_total", "Transient queries answered"
        )
        self.cache_hits = registry.counter(
            "repro_cache_hits_total", "Query-cache hits"
        )
        self.cache_misses = registry.counter(
            "repro_cache_misses_total", "Query-cache misses"
        )
        self.cache_entries = registry.gauge(
            "repro_cache_entries", "Memoized transient queries"
        )
        self.cache_capacity = registry.gauge(
            "repro_cache_capacity", "Query-cache capacity"
        )
        self.foldin_sweeps = registry.counter(
            "repro_foldin_sweeps_total", "Fold-in fixed-point sweeps"
        )
        self.foldin_seconds = registry.histogram(
            "repro_foldin_seconds",
            "Wall-clock seconds per fold-in call (all sweeps)",
            buckets=LATENCY_BUCKETS,
        )
        self.extends = registry.counter(
            "repro_extends_total", "Durable extend batches absorbed"
        )
        self.link_deltas = registry.counter(
            "repro_link_deltas_total", "Link deltas absorbed"
        )
        self.refolded_rows = registry.counter(
            "repro_refolded_rows_total",
            "Extension rows re-folded by link deltas",
        )
        self.extension_nodes = registry.gauge(
            "repro_extension_nodes", "Folded-in extension nodes"
        )
        self.extension_links = registry.gauge(
            "repro_extension_links", "Accumulated extension out-links"
        )
        self.extension_capacity = registry.gauge(
            "repro_extension_capacity_rows",
            "Allocated extension theta rows",
        )
        self.extension_bytes = registry.gauge(
            "repro_extension_theta_bytes",
            "Bytes held by the extension theta buffer",
        )
        self.evictions = registry.counter(
            "repro_evicted_nodes_total", "Extension nodes evicted"
        )
        self.promotions = registry.counter(
            "repro_promotions_total", "Promote refits served"
        )
        self.promote_seconds = registry.histogram(
            "repro_promote_seconds",
            "Wall-clock seconds per promote refit",
            buckets=LATENCY_BUCKETS,
        )
        self.promote_rollbacks = registry.counter(
            "repro_promote_rollbacks_total",
            "Promote refits rolled back (failed or divergent "
            "candidates; the old state kept serving)",
        )
        # the retrain driver records into its engine's registry; the
        # families are declared here so every export carries them
        self.retrain_rounds = registry.counter(
            "repro_retrain_rounds_total",
            "Driver-triggered retrain rounds completed",
        )
        self.retrain_failures = registry.counter(
            "repro_retrain_failures_total",
            "Driver-triggered retrains that raised",
        )
        self.retrain_backoffs = registry.counter(
            "repro_retrain_backoffs_total",
            "Retrain rounds that raised the trigger thresholds",
        )
        self.retrain_scale = registry.gauge(
            "repro_retrain_pressure_scale",
            "Live retrain cooldown multiplier (1 = thresholds as set)",
        )
        self.retrain_scale.set(1.0)
        self.retrain_last_gain = registry.gauge(
            "repro_retrain_last_g1_gain",
            "g1 gain realized by the last retrain round",
        )
        # blocked top-k similarity serving (PR 9)
        self.similarity_queries = registry.counter(
            "repro_similarity_queries_total",
            "Top-k similarity queries answered",
        )
        self.similarity_seconds = registry.histogram(
            "repro_similarity_seconds",
            "Wall-clock seconds per similarity batch",
            buckets=LATENCY_BUCKETS,
        )
        self.simcache_entries = registry.gauge(
            "repro_similarity_precompute_entries",
            "Cached per-metric similarity precomputes",
        )
        self.simcache_bytes = registry.gauge(
            "repro_similarity_precompute_bytes",
            "Bytes held by cached similarity precomputes",
        )
        self.simcache_hits = registry.counter(
            "repro_similarity_precompute_hits_total",
            "Similarity precompute-cache hits",
        )
        self.simcache_misses = registry.counter(
            "repro_similarity_precompute_misses_total",
            "Similarity precompute-cache misses (rebuilds)",
        )
        self.simcache_invalidations = registry.counter(
            "repro_similarity_precompute_invalidations_total",
            "Similarity precomputes dropped by state mutations",
        )


class RouterMetrics(ServingMetrics):
    """The router's families: everything a shard has, plus the
    scatter-gather instrumentation."""

    def __init__(self, registry: MetricsRegistry) -> None:
        super().__init__(registry)
        self.batches = registry.counter(
            "repro_router_batches_total",
            "score_many batches scattered",
        )
        self.batch_size = registry.histogram(
            "repro_router_batch_size",
            "Queries per score_many batch",
            buckets=SIZE_BUCKETS,
        )
        self.batch_seconds = registry.histogram(
            "repro_router_batch_seconds",
            "Wall-clock seconds per score_many batch (scatter to "
            "gather)",
            buckets=LATENCY_BUCKETS,
        )
        self.inflight = registry.gauge(
            "repro_router_inflight_subbatches",
            "Per-shard sub-batches currently in flight",
        )
        # supervision families (cluster-scope: the supervisor records
        # into the router's registry only)
        self.shard_retries = registry.counter(
            "repro_shard_retries_total",
            "Supervised shard-call retry attempts",
        )
        self.breaker_opens = registry.counter(
            "repro_breaker_opens_total",
            "Circuit-breaker trips to open",
        )
        self.shard_rebuilds = registry.counter(
            "repro_shard_rebuilds_total",
            "Shard engines rebuilt from the frozen base + replayed "
            "deltas",
        )
        self.degraded_queries = registry.counter(
            "repro_degraded_queries_total",
            "Queries answered with a ShardFailure marker in "
            "partial-mode batches",
        )

    def breaker_state(self, shard: int):
        """The per-shard breaker state gauge (labelled; 0=closed,
        1=half-open, 2=open)."""
        return self.registry.gauge(
            "repro_breaker_state",
            "Circuit-breaker state per shard (0=closed, 1=half-open, "
            "2=open)",
            shard=str(shard),
        )

    def shard_batch_seconds(self, shard: int):
        """The per-shard sub-batch latency histogram (labelled)."""
        return self.registry.histogram(
            "repro_router_shard_batch_seconds",
            "Wall-clock seconds per shard's score_many sub-batch",
            buckets=LATENCY_BUCKETS,
            shard=str(shard),
        )


class GatewayMetrics:
    """The HTTP gateway's families (its own registry, merged with the
    cluster aggregate on ``/metrics`` export).

    Distinct ``repro_gateway_*`` names keep the merge a plain
    :func:`~repro.obs.metrics.aggregate_snapshots` -- nothing here
    collides with an engine or router family.  Flushes carry no
    trigger label: every flush follows the one rule (flush at once
    when idle, else send what accumulated when the flush in flight
    finishes), so ``batch_size`` and ``batch_wait_seconds`` say how
    much load queued behind the engine."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter(
            "repro_gateway_requests_total", "HTTP requests accepted"
        )
        self.rejected = registry.counter(
            "repro_gateway_rejected_total",
            "Requests rejected by admission control (429: queue "
            "full; 503: draining)",
        )
        self.request_seconds = registry.histogram(
            "repro_gateway_request_seconds",
            "Wall-clock seconds per HTTP request (admission to "
            "response)",
            buckets=LATENCY_BUCKETS,
        )
        self.batch_flushes = registry.counter(
            "repro_gateway_batch_flushes_total",
            "Micro-batch flushes (one in flight at a time)",
        )
        self.batch_size = registry.histogram(
            "repro_gateway_batch_size",
            "Items per flushed micro-batch",
            buckets=SIZE_BUCKETS,
        )
        self.batch_wait_seconds = registry.histogram(
            "repro_gateway_batch_wait_seconds",
            "Seconds the oldest item of a batch waited before its "
            "flush (behind the flush in flight; ~0 when idle)",
            buckets=LATENCY_BUCKETS,
        )
        self.queue_depth = registry.gauge(
            "repro_gateway_queue_depth",
            "Items pending or in flight behind admission control",
        )
        self.draining = registry.gauge(
            "repro_gateway_draining",
            "1 while the gateway drains (new work refused)",
        )


def info_sections(snapshot: dict) -> dict[str, Any]:
    """The snapshot-derived sections of the unified ``info()`` schema.

    Works on a single engine's snapshot and on the router's aggregated
    cluster snapshot alike -- that symmetry *is* the unification.
    """

    def count(name: str) -> int:
        return int(series_value(snapshot, name))

    return {
        "telemetry_version": snapshot["telemetry_version"],
        "cache": {
            "size": count("repro_cache_entries"),
            "max_size": count("repro_cache_capacity"),
            "hits": count("repro_cache_hits_total"),
            "misses": count("repro_cache_misses_total"),
        },
        "queries": {
            # transient queries answered (cached or folded); the
            # staleness signal retrain policies watch
            "served": count("repro_queries_total"),
        },
        "extension": {
            "nodes": count("repro_extension_nodes"),
            "links": count("repro_extension_links"),
            "capacity_rows": count("repro_extension_capacity_rows"),
            "theta_bytes": count("repro_extension_theta_bytes"),
            "evicted_total": count("repro_evicted_nodes_total"),
        },
        "foldin": {
            "sweeps": count("repro_foldin_sweeps_total"),
            "extends": count("repro_extends_total"),
            "link_deltas": count("repro_link_deltas_total"),
            "refolded_rows": count("repro_refolded_rows_total"),
            "promotions": count("repro_promotions_total"),
        },
        "similarity": {
            "queries": count("repro_similarity_queries_total"),
            "precompute_entries": count(
                "repro_similarity_precompute_entries"
            ),
            "precompute_bytes": count(
                "repro_similarity_precompute_bytes"
            ),
            "hits": count("repro_similarity_precompute_hits_total"),
            "misses": count(
                "repro_similarity_precompute_misses_total"
            ),
            "invalidations": count(
                "repro_similarity_precompute_invalidations_total"
            ),
        },
    }


def info_document(
    engine,
    state,
    snapshot: dict,
    artifact_mapped: bool,
    integrity: dict | None,
    shard_id: int | None,
    shard_count: int,
) -> dict[str, Any]:
    """The unified ``info()`` document of a serving front end.

    ``engine`` is an :class:`~repro.serving.engine.InferenceEngine` or
    a :class:`~repro.serving.router.ShardedEngine` and ``state`` the
    lifecycle state whose base it serves; ``snapshot`` is its (cluster)
    metrics snapshot.  ``integrity`` carries the deferred-array
    counters (``None`` for none); ``shard_id`` / ``shard_count`` place
    the engine in a serving cluster (a standalone engine is shard 0
    of 1, the router the whole cluster, shard ``None``).
    """
    sections = info_sections(snapshot)
    sections["similarity"]["version"] = state.version
    return {
        "schema_version": SCHEMA_VERSION,
        "memory": {
            "schema_version": SCHEMA_VERSION,
            "artifact_mapped": artifact_mapped,
            **state.memory_info(),
            **{key: (integrity or {}).get(key, 0) for key in _INTEGRITY_KEYS},
        },
        "refit_capable": engine.refit_capable,
        "n_clusters": engine.n_clusters,
        "num_base_nodes": engine.num_base_nodes,
        "num_extension_nodes": engine.num_extension_nodes,
        "object_types": [
            object_type.name
            for object_type in state.network.schema.object_types
        ],
        "relations": engine.strengths(),
        "attributes": {
            name: params["kind"]
            for name, params in state.attribute_params.items()
        },
        # the served index space's shape-derived block decomposition
        "execution": {
            "shard_id": shard_id,
            "shard_count": shard_count,
            **state.execution_shape(),
        },
        **sections,
    }


def cluster_aggregate(
    shard_snapshots: list[dict], router_snapshot: dict
) -> dict:
    """Merge shard registries into the cluster view.

    Sums every family across shards (fixed-bucket histograms sum
    per-bucket), then overwrites the :data:`ROUTER_AUTHORITATIVE`
    families with the router's own series -- those are tracked at
    cluster scope and would double-count if summed with the shards'
    local copies.
    """
    from repro.obs.metrics import aggregate_snapshots

    merged = aggregate_snapshots(
        list(shard_snapshots) + [router_snapshot]
    )
    router_families = router_snapshot.get("metrics", {})
    for name in ROUTER_AUTHORITATIVE:
        family = router_families.get(name)
        if family is not None:
            merged["metrics"][name] = family
    return merged
