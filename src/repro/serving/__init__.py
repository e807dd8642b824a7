"""Model serving: persisted artifacts plus online fold-in inference.

The batch reproduction fits a model and exits; this package turns a fit
into something that lives through the whole model lifecycle:

* :mod:`repro.serving.artifact` -- versioned persistence of a fitted
  model, with a ``GenClusResult.save()/load()`` façade on the result
  object itself.  ``save()`` writes a schema-v3 **bundle directory**:
  a JSON manifest (with per-array CRC32 checksums) plus one raw
  ``.npy`` file per array, so ``load(..., mmap=True)`` serves straight
  off read-only memory maps and cold start pays only for the pages it
  touches.  The bundle embeds the training edges and attribute
  observations, so a reloaded model is **refit-capable**.  ``load()``
  reads only such bundle directories and rejects any other path with a
  ``SerializationError`` naming it.
* :mod:`repro.serving.foldin` -- batch posterior assignment for unseen
  nodes: the paper's EM theta update (Eqs. 10-12) iterated to a fixed
  point with every fitted parameter frozen, vectorized over the batch.
  Queries travel as a columnar :class:`QueryBatch` (type codes plus
  link, numeric and text CSRs), compiled once at the edge and folded
  in through one fused link operator per call.
* :mod:`repro.serving.engine` -- :class:`InferenceEngine`: drives a
  shared :class:`~repro.core.state.ModelState` through serving --
  incremental deltas (``extend`` / ``add_links``, re-folding only the
  touched component), LRU-memoized transient queries, extension-space
  telemetry and eviction (``evict``), and ``promote()``: a warm-started
  full refit that turns folded-in nodes into first-class training data
  and rebases the engine onto the result.
* :mod:`repro.serving.cluster` / :mod:`repro.serving.router` /
  :mod:`repro.serving.driver` -- the sharded serving cluster:
  :class:`ShardPlan` pins contiguous row blocks onto shards,
  :class:`ShardedEngine` scatter-gathers the engine API across
  per-shard engines (bit-identical to a single engine at every shard
  count), and :class:`RetrainDriver` runs the autonomic policy loop
  (:class:`RetrainPolicy`) that promotes on extension pressure or
  query staleness and rebalances the plan afterwards.
* :mod:`repro.serving.supervision` -- fault tolerance for the cluster:
  :class:`SupervisionPolicy` / :class:`ShardSupervisor` wrap every
  router -> shard call with bounded deterministic retries, per-call
  timeouts, and per-shard circuit breakers that rebuild a broken
  shard from the shared frozen base plus its replayed durable deltas;
  partial-mode ``score_many`` degrades with typed
  :class:`ShardFailure` markers instead of failing the batch.
  Failures are scripted deterministically with :mod:`repro.faults`.
* :mod:`repro.serving.transport` / :mod:`repro.serving.worker` -- the
  out-of-process backend: shard engines run in separate worker
  processes (:class:`ProcessTransport`) -- forked from the serving
  process when it is single-threaded, exec'd otherwise -- each
  cold-starting from the schema-v3 mmap bundle (the frozen base
  shared read-only through the OS page cache) and answering the
  shard surface over a length-prefixed, pickle-free socket
  protocol.  The in-process
  :class:`InprocessTransport` stays the default; both backends are
  bit-identical behind the same router.  A worker that dies is
  respawned and its durable deltas replayed (the supervision layer's
  breaker/rebuild path, extended to process death).
* :mod:`repro.serving.gateway` -- the HTTP front end:
  :class:`Gateway` is an asyncio server (stdlib-only) whose
  :class:`MicroBatcher` coalesces concurrent requests into blocked
  ``score_many`` / ``similar_many`` calls (an idle engine flushes at
  once; requests arriving during a flush leave as the next batch),
  with admission control (bounded queue, 429 on overflow) and
  graceful drain; :class:`GatewayServer` runs it on a background
  thread for synchronous callers.

The fitted membership matrix is also a similarity surface:
``engine.similar(node, k)`` / ``similar_many`` /
``suggest_links(node, relation, k)`` answer online top-k queries
through the blocked partial-selection kernels of
:mod:`repro.core.topk` -- no full sort, per-metric precomputes cached
against the state version, bit-identical at every worker and shard
count and equal to the offline :func:`repro.eval.reference_ranking`.

A small CLI ships as ``python -m repro.serving``
(``info`` / ``score`` / ``score --batch`` / ``similar`` /
``suggest-links`` / ``shard-plan`` / ``chaos`` / ``serve``).

Typical lifecycle::

    result = GenClus(config).fit(network, attributes=["title"])
    result.save("model")                      # schema-v3 bundle directory

    engine = InferenceEngine.load("model", mmap=True)
    membership = engine.query(
        "paper",
        links=[("written_by", "author-4", 1.0)],
        text={"title": ["database", "query"]},
    )
    engine.extend([NewNode("paper-8", "paper",
                           links=[("written_by", "author-4", 1.0)])])
    promoted = engine.promote()               # warm-started refit
"""

from repro.serving.artifact import (
    FORMAT,
    SCHEMA_VERSION,
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from repro.serving.cluster import ShardPlan
from repro.serving.driver import (
    RetrainDriver,
    RetrainPolicy,
    RetrainRound,
)
from repro.serving.engine import InferenceEngine
from repro.serving.foldin import (
    FoldInOutcome,
    FrozenModel,
    NewNode,
    QueryBatch,
    compile_queries,
    fold_in,
)
from repro.serving.gateway import Gateway, GatewayBusy, GatewayServer, MicroBatcher
from repro.serving.router import ShardedEngine
from repro.serving.supervision import (
    CircuitBreaker,
    ShardFailedError,
    ShardFailure,
    ShardSupervisor,
    SupervisionPolicy,
)
from repro.serving.transport import (
    InprocessTransport,
    ProcessTransport,
    RemoteShardError,
    TransportError,
)

__all__ = [
    "CircuitBreaker",
    "FORMAT",
    "FoldInOutcome",
    "FrozenModel",
    "Gateway",
    "GatewayBusy",
    "GatewayServer",
    "InferenceEngine",
    "InprocessTransport",
    "MicroBatcher",
    "ModelArtifact",
    "NewNode",
    "ProcessTransport",
    "QueryBatch",
    "RemoteShardError",
    "RetrainDriver",
    "RetrainPolicy",
    "RetrainRound",
    "SCHEMA_VERSION",
    "ShardFailedError",
    "ShardFailure",
    "ShardPlan",
    "ShardSupervisor",
    "ShardedEngine",
    "SupervisionPolicy",
    "TransportError",
    "compile_queries",
    "fold_in",
    "load_artifact",
    "save_artifact",
]
