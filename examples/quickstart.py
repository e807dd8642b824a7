"""Quickstart: cluster the paper's Fig. 4 micro-network.

Builds the 7-object bibliographic network from Figure 4 of the paper,
evaluates the cross-entropy feature function at the exact membership
vectors the figure prints (reproducing the published values), runs a
real GenClus fit on a slightly enriched copy of the network, persists
the fit and serves fold-in queries from the saved artifact, and then
walks the full **model lifecycle**: extend the served model with new
nodes and promote them into a warm-started refit.

Run with::

    python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import (
    GenClus,
    GenClusConfig,
    GenClusResult,
    InferenceEngine,
    NewNode,
    TextAttribute,
)
from repro.core.feature import feature_function
from repro.datagen.toy import FIG4_MEMBERSHIPS, fig4_network, fig4_theta
from repro.serving import RetrainDriver, RetrainPolicy, ShardedEngine


def show_feature_values() -> None:
    """Recompute the feature-function values printed in the paper."""
    network = fig4_network()
    theta = fig4_theta(network)

    def f(source: str, target: str) -> float:
        return feature_function(
            theta[network.index_of(source)],
            theta[network.index_of(target)],
            gamma_r=1.0,
        )

    print("Feature function on the Fig. 4 links (gamma = 1):")
    for source, target, expected in [
        ("paper-1", "author-3", -0.4701),
        ("paper-1", "author-4", -1.7174),
        ("paper-1", "author-5", -2.3410),
        ("author-4", "paper-1", -1.0986),
    ]:
        value = f(source, target)
        print(
            f"  f(<{source}, {target}>) = {value:8.4f}"
            f"   (paper: {expected:8.4f})"
        )
    print()


def run_genclus_on_toy() -> GenClusResult:
    """Fit GenClus on the Fig. 4 network enriched with title text.

    The bare Fig. 4 network has no attributes (the figure fixes Theta by
    hand); to *fit* it we attach three-cluster title text to the papers,
    exactly the Example 1 scenario: papers carry text, authors and the
    venue carry none.
    """
    network = fig4_network()
    titles = TextAttribute("title")
    titles.add_tokens("paper-1", ["database", "query", "index"] * 3)
    titles.add_tokens("paper-6", ["mining", "pattern", "cluster"] * 3)
    titles.add_tokens("paper-7", ["learning", "kernel", "neural"] * 3)
    network.add_attribute(titles)

    config = GenClusConfig(
        n_clusters=3, outer_iterations=5, seed=0, n_init=3
    )
    result = GenClus(config).fit(network, attributes=["title"])

    print("GenClus fit on the enriched Fig. 4 network:")
    print(result.summary())
    print()
    print(
        "Memberships (cluster indices are arbitrary -- compare rows up "
        "to a permutation of columns):"
    )
    for node in network.node_ids:
        learned = result.membership_of(node)
        fixed = FIG4_MEMBERSHIPS[node]
        rounded = ", ".join(f"{p:.2f}" for p in learned)
        figure = ", ".join(f"{p:.2f}" for p in fixed)
        print(f"  {node:<10} learned=({rounded})   figure=({figure})")
    return result


def persist_and_serve(result: GenClusResult) -> None:
    """Persist & serve: save the fit, reload it, answer fold-in queries.

    A fitted model no longer dies with the process: ``result.save()``
    writes a versioned **schema-v3 bundle directory** -- one raw
    ``.npy`` per array plus a JSON manifest -- and
    :class:`~repro.serving.engine.InferenceEngine` answers membership
    queries for *unseen* nodes -- with or without attribute text, the
    paper's incomplete-attribute setting -- by iterating the frozen-
    parameter EM update (``python -m repro.serving`` is the CLI twin).
    Load with ``mmap=True`` to serve straight off read-only memory
    maps: cold start touches only the pages the first queries read
    (checksums of the mapped arrays verify on first materialization),
    which is how the sharded cluster keeps per-shard hydration
    zero-copy.
    """
    print()
    print("Persist & serve:")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig4_model"
        result.save(path)
        nbytes = sum(
            f.stat().st_size for f in path.rglob("*") if f.is_file()
        )
        print(f"  saved artifact: {path.name}/ ({nbytes} bytes)")

        reloaded = GenClusResult.load(path, mmap=True)
        print(
            "  reloaded memberships match: "
            f"{bool((reloaded.theta == result.theta).all())}"
        )

        engine = InferenceEngine.load(path)
        # a transient query: an unseen paper with text but no links
        membership = engine.query(
            "paper", text={"title": ["mining", "cluster", "pattern"]}
        )
        print(
            "  query (text-only paper) -> cluster "
            f"{int(membership.argmax())}, "
            f"memberships ({', '.join(f'{p:.2f}' for p in membership)})"
        )
        # many transient queries coalesce into ONE fold-in batch
        # (engine.score_many): one blocked sweep instead of N fixed
        # points -- the bulk-scoring path for request bursts
        batch = engine.score_many(
            [
                {"object_type": "paper",
                 "text": {"title": ["mining", "graph"]}},
                {"object_type": "paper",
                 "links": [("written_by", "author-4", 1.0)]},
            ]
        )
        print(
            "  score_many (2 queries, one batch) -> clusters "
            f"{[int(m.argmax()) for m in batch]}"
        )
        # a durable delta: a linked paper with NO attributes at all --
        # fold-in still assigns it through its out-links
        engine.extend(
            [
                NewNode(
                    "paper-8",
                    "paper",
                    links=[("written_by", "author-4", 1.0)],
                )
            ]
        )
        print(
            "  extended with link-only 'paper-8' -> cluster "
            f"{engine.hard_label_of('paper-8')}"
        )
        print(f"  engine now serves {engine.num_nodes} nodes")


def model_lifecycle(result: GenClusResult) -> None:
    """Model lifecycle: fit -> serve -> extend -> promote.

    Models live longer than one batch fit.  The stages share one
    :class:`~repro.core.state.ModelState` -- theta, gamma, attribute
    parameters, node maps, and the cached link views travel through the
    whole loop:

    1. **fit** -- ``GenClus.fit`` produces a result; ``result.save()``
       writes a schema-v3 bundle that embeds the training links and
       observations, so a reloaded model is *refit-capable* (and
       memory-mappable: ``InferenceEngine.load(path, mmap=True)``).
    2. **serve** -- ``InferenceEngine`` answers transient queries and
       absorbs durable deltas (``extend`` / ``add_links``); link deltas
       re-fold only the touched component, and ``evict`` bounds the
       extension space with an LRU policy (see ``engine.info()`` for
       telemetry).
    3. **promote** -- folded-in nodes become first-class training data:
       ``engine.promote()`` materializes base + extensions into one
       network and re-runs Algorithm 1 *warm-started*
       from the served state -- typically converging in a fraction of a
       cold fit's outer iterations.  The engine then serves the
       promoted model, and the loop repeats.
    """
    print()
    print("Model lifecycle (fit -> serve -> extend -> promote):")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig4_model"
        result.save(path)  # schema v3: refit-capable bundle directory

        engine = InferenceEngine.load(path)
        engine.extend(
            [
                NewNode(
                    "paper-8",
                    "paper",
                    links=[("written_by", "author-4", 1.0)],
                    text={"title": ["mining", "cluster"]},
                ),
                NewNode(
                    "paper-9",
                    "paper",
                    links=[("written_by", "author-5", 1.0)],
                ),
            ]
        )
        engine.add_links([("paper-9", "published_by", "venue-2", 1.0)])
        stats = engine.info()
        print(
            f"  served: {stats['num_base_nodes']} base + "
            f"{stats['num_extension_nodes']} extension nodes, "
            f"{stats['foldin']['sweeps']} fold-in sweeps so far"
        )

        promoted = engine.promote()
        refit_iters = promoted.history.records[-1].outer_iteration
        print(
            f"  promote(): warm-started refit converged in "
            f"{refit_iters} outer iteration(s); engine now serves "
            f"{engine.num_base_nodes} base nodes, 0 extensions"
        )
        print(
            "  promoted membership of 'paper-8': "
            + ", ".join(
                f"{p:.2f}"
                for p in promoted.membership_of("paper-8")
            )
        )


def sharded_serving(result: GenClusResult) -> None:
    """Sharded serving & retrain policy: one model, many engines.

    When one engine saturates, :class:`ShardedEngine` splits the served
    index space across a cluster of shard engines under a
    :class:`~repro.serving.cluster.ShardPlan` (a shard owns a balanced
    contiguous range of rows; print the split with
    ``python -m repro.serving shard-plan MODEL --shards N``).
    Queries route to owning shards, ``score_many`` scatter-gathers
    per-shard fold-in batches, and every answer is **bit-identical** to
    a single engine serving the same traffic -- sharding is a
    throughput decision, never an accuracy one.

    The :class:`RetrainDriver` closes the lifecycle autonomically: it
    watches per-shard extension pressure and query staleness, triggers
    a cluster-wide warm-started ``promote()`` when policy trips, backs
    its thresholds off when a refit stops paying (``min_g1_gain``),
    and rebalances the shard plan after the base grows.
    """
    print()
    print("Sharded serving & retrain policy:")
    engine = ShardedEngine.from_result(result, n_shards=2)
    print(
        "  plan:",
        ", ".join(
            f"shard {entry['shard']} rows {entry['rows']}"
            for entry in engine.plan.describe()["shards"]
        ),
    )
    batch = engine.score_many(
        [
            {"object_type": "paper",
             "text": {"title": ["mining", "cluster"]}},
            {"object_type": "paper",
             "links": [("written_by", "author-4", 1.0)]},
        ]
    )
    print(
        "  scatter-gathered 2 queries -> clusters "
        f"{[int(m.argmax()) for m in batch]}"
    )

    driver = RetrainDriver(
        engine,
        RetrainPolicy(max_extension_nodes=2),
        config=GenClusConfig(n_clusters=3, outer_iterations=3, seed=0),
    )
    engine.extend(
        [NewNode("paper-8", "paper",
                 links=[("written_by", "author-4", 1.0)])]
    )
    assert driver.tick() is None  # one extension: below the watermark
    # one extend call is one batch and lands on one shard, so this
    # pushes that shard's owned extensions to the policy watermark
    engine.extend(
        [
            NewNode("paper-9", "paper",
                    links=[("written_by", "author-5", 1.0)]),
            NewNode("paper-10", "paper",
                    links=[("written_by", "author-3", 1.0)]),
        ]
    )
    round_ = driver.tick()
    print(
        f"  driver: trigger={round_.trigger} shard={round_.shard_id} "
        f"g1 {round_.g1_first:.2f} -> {round_.g1_final:.2f} "
        f"(rebalanced={round_.rebalanced})"
    )
    print(
        f"  cluster now serves {engine.num_base_nodes} base nodes on "
        f"{engine.n_shards} shards, 0 extensions"
    )


def similarity_and_suggestions(result: GenClusResult) -> None:
    """Similarity & link suggestion: theta as a product surface.

    The fitted membership matrix answers more than "which cluster":
    ``engine.similar(node, k)`` ranks the served nodes closest to one
    node by membership similarity (``cosine``, ``euclidean``, or
    ``cross_entropy`` -- the Section 5.2.2 functions), and
    ``engine.suggest_links(node, relation, k)`` turns that into link
    prediction: top-k candidates of the relation's target type with
    the node itself and its already-linked targets excluded.

    Under the hood this is **blocked partial selection** over the
    kernel row blocks (one matmul per block, ``argpartition`` top-k,
    ordered cross-block merge -- never a full sort, never a dense
    query-by-corpus matrix), with per-metric precomputes cached
    against the state version.  Ties break by (score desc, node index
    asc), so a ranking is bit-identical at every shard count, and
    equals the offline
    :func:`repro.eval.reference_ranking` protocol.  The CLI twins are
    ``python -m repro.serving similar MODEL --node ID -k 10`` and
    ``... suggest-links MODEL --node ID --relation REL``.
    """
    print()
    print("Similarity & link suggestion:")
    engine = InferenceEngine.from_result(result)
    for node, score in engine.similar("paper-1", k=3):
        print(f"  similar to paper-1: {node}  ({score:.4f})")
    for node, score in engine.suggest_links("author-3", "write", k=3):
        print(f"  suggested paper for author-3: {node}  ({score:.4f})")
    # a node already linked to every candidate has nothing left to be
    # suggested -- exclusion is the point
    assert engine.suggest_links("paper-1", "written_by", k=3) == []
    cluster = ShardedEngine.from_result(result, n_shards=2)
    identical = cluster.similar("paper-1", k=3) == engine.similar(
        "paper-1", k=3
    )
    print(f"  sharded ranking bit-identical: {identical}")
    stats = engine.info()["similarity"]
    print(
        f"  served {stats['queries']} similarity queries off "
        f"{stats['precompute_entries']} cached precompute(s) "
        f"({stats['precompute_bytes']} bytes)"
    )


def observability(result: GenClusResult) -> None:
    """Observability: one registry and one span tree across the stack.

    Every layer -- training (``GenClus.fit``), serving
    (``InferenceEngine``), the sharded cluster, and the retrain driver
    -- records into ``repro.obs``: a zero-dependency metrics registry
    (counters, gauges, fixed-bucket histograms) plus a wall-clock span
    tracer.  Telemetry is **observational only**: results are
    bit-identical with tracing on or off, and with ``obs`` left unset
    the kernels run a near-free null path (<2% on ``em_update``).

    Pass one :class:`~repro.obs.Observability` handle around to
    correlate everything; export with
    :func:`~repro.obs.render_prometheus` / :func:`~repro.obs.render_json`
    or from the CLI::

        python -m repro.serving metrics MODEL --shards 3 --batch q.json
        python -m repro.serving trace MODEL --batch q.json --jsonl t.jsonl
    """
    from repro.obs import Observability, render_prometheus, series_value

    print()
    print("Observability (spans + metrics + Prometheus export):")
    obs = Observability(trace=True)
    engine = ShardedEngine.from_result(result, n_shards=2, obs=obs)
    engine.score_many(
        [
            {"object_type": "paper",
             "text": {"title": ["mining", "cluster"]}},
            {"object_type": "paper",
             "links": [("written_by", "author-4", 1.0)]},
        ]
    )
    # the batch's span tree: score_many > shard[i].foldin children
    root = obs.tracer.traces()[-1]
    for line in root.describe().splitlines():
        print(f"    {line}")
    # the cluster-wide registry: shard registries + router aggregated
    snapshot = engine.metrics_snapshot()
    print(
        "  queries served:",
        int(series_value(snapshot, "repro_queries_total")),
    )
    prom = render_prometheus(snapshot)
    shown = [
        line for line in prom.splitlines()
        if line.startswith("repro_foldin_seconds_")
    ][-2:]
    print("  Prometheus export (2 of %d lines):" % len(prom.splitlines()))
    for line in shown:
        print(f"    {line}")


def fault_tolerance(result: GenClusResult) -> None:
    """Fault tolerance & degraded mode: serving that survives a shard.

    A :class:`~repro.serving.supervision.SupervisionPolicy` wraps every
    router -> shard call with bounded deterministic retries (jitter-free
    exponential backoff), optional per-call timeouts, and a per-shard
    circuit breaker; when a breaker opens, the router rebuilds the dead
    shard from the shared frozen base plus its replayed durable deltas.
    ``score_many(..., partial=True)`` degrades instead of failing: rows
    for healthy shards stay **bit-identical** to a singleton engine and
    the broken shard's queries come back as typed
    :class:`~repro.serving.supervision.ShardFailure` markers -- degraded
    mode returns fewer answers, never wrong ones.  ``promote()`` is
    transactional on every engine: the refit candidate is validated off
    to the side and a failure rolls back to the served model
    bit-identically.

    Failures here are scripted with :mod:`repro.faults` -- a seeded,
    zero-dependency fault plan that kills named sites on exact
    traversals, so every "outage" below replays byte-identically
    (``python -m repro.serving chaos MODEL --batch q.json`` runs the
    same drill from the CLI).
    """
    import numpy as np

    from repro.faults import FaultPlan
    from repro.serving import ShardFailure, SupervisionPolicy

    print()
    print("Fault tolerance & degraded mode:")
    queries = [
        {"object_type": "paper",
         "text": {"title": ["mining", "cluster"]}},
        {"object_type": "paper",
         "links": [("written_by", "author-4", 1.0)]},
        {"object_type": "paper",
         "links": [("written_by", "author-5", 1.0)]},
    ]
    reference = ShardedEngine.from_result(
        result, n_shards=2
    ).score_many([dict(q) for q in queries])

    # kill shard 0 (the one owning the routed rows here) at the fold-in
    # site: two firings soak the first attempt and its retry, which
    # trips the breaker (threshold 2)
    plan = FaultPlan(seed=0).fail("shard.foldin", times=2, shard=0)
    engine = ShardedEngine.from_result(
        result,
        n_shards=2,
        supervision=SupervisionPolicy(
            max_retries=1, backoff_base=0.0, breaker_threshold=2
        ),
        faults=plan,
    )
    rows = engine.score_many([dict(q) for q in queries], partial=True)
    for position, row in enumerate(rows):
        if isinstance(row, ShardFailure):
            print(
                f"  query #{position}: DEGRADED "
                f"(shard {row.shard} down: {row.error.splitlines()[0]})"
            )
        else:
            identical = bool(
                np.array_equal(row, reference[position])
            )
            print(
                f"  query #{position}: cluster {int(row.argmax())} "
                f"(bit-identical to singleton: {identical})"
            )
    print(f"  breakers: {engine.supervisor.states()}")

    healed = engine.heal()  # rebuild from base + replayed deltas
    recovered = engine.score_many([dict(q) for q in queries])
    restored = all(
        np.array_equal(row, want)
        for row, want in zip(recovered, reference)
    )
    print(
        f"  healed shard(s) {list(healed)} -> breakers "
        f"{engine.supervisor.states()}, bit-identity restored: "
        f"{restored}"
    )


def http_serving(result: GenClusResult) -> None:
    """Serving over HTTP: process workers behind a micro-batching gateway.

    The cluster leaves the Python process: ``ShardedEngine.load(path,
    transport="process")`` spawns one **worker process per shard**
    (each hydrates its slice of the schema-v3 bundle over read-only
    memory maps and speaks a length-prefixed, pickle-free socket
    protocol), and :class:`~repro.serving.gateway.GatewayServer` puts
    an asyncio HTTP front end on top.  Concurrent ``POST /score`` and
    ``POST /similar`` requests are **micro-batched** — a request that
    finds the engine idle runs at once, and the requests that arrive
    while a batch runs are fed together, as the next batch, to the
    cluster's blocked ``score_many``/``similar_many`` paths — so under
    load, concurrency becomes a batching problem, not
    a locking problem.  Admission control bounds the queue (HTTP 429
    over capacity), ``/healthz`` / ``/readyz`` / ``/metrics`` serve
    probes and the aggregated cross-process Prometheus page, drain is
    graceful (in-flight work finishes; the listener closes first), and
    the bit-identity contract survives the wire: JSON floats
    round-trip at full precision, so gateway answers equal the
    in-process router's, which equal the singleton's.  The CLI twin::

        python -m repro.serving serve MODEL --shards 2 --port 8080
    """
    import json
    import urllib.request

    import numpy as np

    from repro.serving.gateway import GatewayServer

    print()
    print("Serving over HTTP (process workers + micro-batching):")
    queries = [
        {"object_type": "paper",
         "text": {"title": ["mining", "cluster"]}},
        {"object_type": "paper",
         "links": [["written_by", "author-4", 1.0]]},
    ]
    reference = ShardedEngine.from_result(
        result, n_shards=2
    ).score_many(
        [
            {**q, "links": [tuple(l) for l in q.get("links", [])]}
            for q in queries
        ]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig4_model"
        result.save(path)
        engine = ShardedEngine.load(path, n_shards=2, transport="process")
        try:
            with GatewayServer.launch(engine) as server:
                workers = engine.transport.describe()["workers"]
                print(
                    f"  gateway up at {server.url} -> "
                    f"{len(workers)} shard worker processes "
                    f"(pids {[w['pid'] for w in workers.values()]})"
                )
                request = urllib.request.Request(
                    server.url + "/score",
                    data=json.dumps({"queries": queries}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    body = json.loads(response.read())
                identical = all(
                    np.array_equal(np.asarray(row), want)
                    for row, want in zip(body["results"], reference)
                )
                print(
                    f"  POST /score -> clusters "
                    f"{[int(np.argmax(r)) for r in body['results']]} "
                    f"(bit-identical over the wire: {identical})"
                )
                request = urllib.request.Request(
                    server.url + "/similar",
                    data=json.dumps(
                        {"nodes": ["paper-1"], "k": 3}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    ranking = json.loads(response.read())["results"][0]
                print(
                    "  POST /similar paper-1 -> "
                    + ", ".join(f"{n} ({s:.4f})" for n, s in ranking)
                )
                with urllib.request.urlopen(
                    server.url + "/metrics"
                ) as response:
                    families = {
                        line.split("{")[0].split(" ")[0]
                        for line in response.read().decode().splitlines()
                        if line and not line.startswith("#")
                    }
                print(
                    f"  GET /metrics -> {len(families)} series "
                    "(engine + gateway registries aggregated "
                    "across processes)"
                )
            print("  drained: in-flight batches flushed, workers reaped")
        finally:
            engine.close()


# Performance note -------------------------------------------------------
# Everything above runs through the fused numeric core of
# ``repro.core.kernels``: while gamma is fixed (all of inner EM, every
# serving fold-in sweep) the per-relation link matrices collapse into
# one cached combined CSR (``PropagationOperator``), and the EM /
# Newton loops write into preallocated workspaces instead of allocating
# per iteration.  The kernels execute in contiguous, cache-sized row
# **blocks** (``BlockPlan``), inline and in block order; the block
# decomposition depends only on the problem shape and reductions
# accumulate in block order, so a fit or a score is a pure function of
# its inputs.  Nothing configures the execution shape: there is no
# block-size or thread knob.  Blocking keeps each block's working set
# in cache, which pays at scale (``learn_strengths`` on a 98k-node
# weather network: 376 ms blocked vs 497 ms as one block, 2-CPU host),
# and a thread fan-out of the blocks measured slower than the inline
# sweep on the same host for fits, kernels and serving alike.  To use more
# cores for serving, shard the model across worker processes
# (``ShardedEngine.load(path, n_shards=2, transport="process")`` or
# ``python -m repro.serving serve --shards 2``).
# The kernel wall-times are tracked in ``BENCH_core.json`` at the repo
# root; refresh or compare them with
#
#     PYTHONPATH=src python benchmarks/bench_core_kernels.py \
#         --json /tmp/now.json --baseline BENCH_core.json
#
# (see the ROADMAP "Performance" section for how to read the report).

if __name__ == "__main__":
    show_feature_values()
    fitted = run_genclus_on_toy()
    persist_and_serve(fitted)
    model_lifecycle(fitted)
    sharded_serving(fitted)
    similarity_and_suggestions(fitted)
    observability(fitted)
    fault_tolerance(fitted)
    http_serving(fitted)
