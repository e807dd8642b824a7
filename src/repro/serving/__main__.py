"""Command-line serving front end: ``python -m repro.serving``.

Subcommands against a saved model artifact:

* ``info ARTIFACT`` -- print the persisted model's summary (or the full
  engine snapshot with ``--json``; ``--mmap`` serves a schema-v3
  bundle directory off lazily-paged memory maps and the snapshot's
  ``memory`` section reports mapped vs resident bytes).
* ``score ARTIFACT --type TYPE [--link REL=TARGET[:WEIGHT]] ...``
  -- fold one hypothetical node in and print its posterior membership
  and hard cluster label.  ``score ARTIFACT --batch FILE`` scores many
  queries through the coalesced ``score_many`` batch path instead:
  ``FILE`` holds a JSON array (or JSON-lines stream) of query objects
  ``{"object_type": ..., "links": [[REL, TARGET, WEIGHT?], ...],
  "text": {...}, "numeric": {...}}``.
* ``similar ARTIFACT --node ID [-k N] [--metric M] [--type TYPE]
  [--shards N]`` -- the top-k most similar served nodes by fitted
  membership (blocked partial selection; ``--metric`` is ``cosine``,
  ``euclidean``, or ``cross_entropy``).  ``--shards N > 1`` serves
  the query through a scatter-gather cluster -- the ranking is
  bit-identical to the singleton's.
* ``suggest-links ARTIFACT --node ID --relation REL [-k N]
  [--metric M] [--shards N]`` -- rank link candidates for one node:
  top-k nodes of the relation's target type, with the node itself and
  its already-linked targets excluded.
* ``shard-plan ARTIFACT --shards N`` -- print the
  :class:`~repro.serving.cluster.ShardPlan` a cluster of ``N`` engines
  would pin this artifact's index space with (the balanced row range
  per shard, plus per-shard link load when the artifact embeds
  training edges) -- the split
  :class:`~repro.serving.router.ShardedEngine` uses at that width.
* ``metrics ARTIFACT [--shards N] [--batch FILE]`` -- export the
  engine's metrics registry in Prometheus text format (``--json`` for
  the stable JSON snapshot).  With ``--batch`` the queries are scored
  first, so latency histograms and cache counters carry real traffic;
  with ``--shards N > 1`` the model is served by a cluster and the
  export is the aggregated cluster snapshot.
* ``trace ARTIFACT --batch FILE [--shards N] [--jsonl PATH]`` -- score
  a batch with tracing enabled and print the recorded span trees
  (``score_many > shard[i].foldin`` under a cluster); ``--jsonl``
  additionally exports the traces as JSON lines.
* ``serve ARTIFACT --shards N --port P [--mmap] [--batch-window MS]
  [--max-batch Q] [--max-queue Q]`` -- serve the model over HTTP: a
  sharded cluster (one shard worker process per shard) behind the
  micro-batching asyncio gateway.  The workers are forked from
  ``serve`` before any gateway thread starts, so they skip a second
  interpreter start and import; being forks, they show ``serve``'s
  own command line in ``ps`` (find them as ``serve``'s children, not
  by ``repro.serving.worker``).  Prints
  ``READY http://HOST:PORT`` once the listener is bound; SIGTERM or
  SIGINT triggers a graceful drain (in-flight batches complete, new
  work gets 503) before exit.  Endpoints: ``POST /score``,
  ``POST /similar``, ``GET /healthz``, ``GET /readyz``,
  ``GET /metrics``.
* ``chaos ARTIFACT --batch FILE [--shards N] [--fail-shard K]
  [--jsonl PATH]`` -- a scripted kill-and-recover drill: serve the
  batch through a supervised cluster while a deterministic
  :mod:`repro.faults` plan kills shard ``K``, assert the degraded
  partial results mark exactly that shard's queries (healthy rows
  bit-identical to a singleton engine), ``heal()``, and assert strict
  scoring is bit-identical again.  ``--jsonl`` writes the drill's
  event trail (phases, injected faults, supervision metrics) as JSON
  lines; a violated invariant exits nonzero.

Node ids on the command line are always strings; models whose ids are
other scalar types need the Python API.  Link weights ride after a
trailing ``:`` (``REL=TARGET:2.0``); a target id whose own suffix after
a ``:`` parses as a number is ambiguous here -- score such models
through the Python API instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import ReproError, ServingError
from repro.obs.export import render_json, render_prometheus
from repro.obs.observability import Observability
from repro.serving.artifact import ModelArtifact
from repro.serving.cluster import ShardPlan
from repro.serving.engine import InferenceEngine
from repro.serving.router import ShardedEngine


def _parse_link(raw: str) -> tuple[str, str, float]:
    """``REL=TARGET[:WEIGHT]`` -> (relation, target, weight)."""
    relation, separator, rest = raw.partition("=")
    if not separator or not relation or not rest:
        raise argparse.ArgumentTypeError(
            f"link {raw!r} must look like REL=TARGET[:WEIGHT]"
        )
    target, separator, weight = rest.rpartition(":")
    if not separator:
        return relation, rest, 1.0
    try:
        return relation, target, float(weight)
    except ValueError:
        # the ':' belonged to the target id itself
        return relation, rest, 1.0


def _parse_text(raw: str) -> tuple[str, list[str]]:
    """``ATTR=tok1,tok2,...`` -> (attribute, tokens)."""
    attribute, separator, rest = raw.partition("=")
    if not separator or not attribute or not rest:
        raise argparse.ArgumentTypeError(
            f"text {raw!r} must look like ATTR=tok1,tok2,..."
        )
    return attribute, [token for token in rest.split(",") if token]


def _parse_numeric(raw: str) -> tuple[str, list[float]]:
    """``ATTR=v1,v2,...`` -> (attribute, values)."""
    attribute, separator, rest = raw.partition("=")
    if not separator or not attribute or not rest:
        raise argparse.ArgumentTypeError(
            f"numeric {raw!r} must look like ATTR=v1,v2,..."
        )
    try:
        values = [float(piece) for piece in rest.split(",") if piece]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"numeric {raw!r}: {exc}"
        ) from exc
    return attribute, values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve cluster-membership queries from a saved "
        "GenClus model artifact.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser(
        "info", help="describe a saved model artifact"
    )
    info.add_argument("artifact", help="path to the artifact bundle")
    info.add_argument(
        "--json",
        action="store_true",
        help="emit the engine info() snapshot as JSON",
    )
    info.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map a schema-v3 bundle directory instead of "
        "loading it eagerly",
    )

    score = commands.add_parser(
        "score", help="fold a hypothetical node in and print its scores"
    )
    score.add_argument("artifact", help="path to the artifact bundle")
    score.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map a schema-v3 bundle directory (cold start "
        "touches only the pages the queries read)",
    )
    score.add_argument(
        "--type",
        dest="object_type",
        help="object type of the scored node (single-query mode)",
    )
    score.add_argument(
        "--batch",
        metavar="FILE",
        help="score a file of query objects (JSON array or JSON "
        "lines) through the coalesced score_many batch path",
    )
    score.add_argument(
        "--link",
        action="append",
        default=[],
        type=_parse_link,
        metavar="REL=TARGET[:WEIGHT]",
        help="out-link into the fitted network (repeatable)",
    )
    score.add_argument(
        "--text",
        action="append",
        default=[],
        type=_parse_text,
        metavar="ATTR=tok1,tok2",
        help="text observations for one attribute (repeatable)",
    )
    score.add_argument(
        "--numeric",
        action="append",
        default=[],
        type=_parse_numeric,
        metavar="ATTR=v1,v2",
        help="numeric observations for one attribute (repeatable)",
    )
    score.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )

    def add_similarity_arguments(command, with_relation: bool) -> None:
        command.add_argument(
            "artifact", help="path to the artifact bundle"
        )
        command.add_argument(
            "--node",
            required=True,
            help="id of the served query node",
        )
        if with_relation:
            command.add_argument(
                "--relation",
                required=True,
                help="the declared relation to suggest targets for",
            )
        command.add_argument(
            "-k",
            type=int,
            default=10,
            help="results to return (default: 10)",
        )
        command.add_argument(
            "--metric",
            default="cosine",
            choices=["cosine", "euclidean", "cross_entropy"],
            help="membership similarity (default: cosine)",
        )
        if not with_relation:
            command.add_argument(
                "--type",
                dest="object_type",
                default=None,
                help="restrict candidates to this object type "
                "(default: the query node's own type)",
            )
        command.add_argument(
            "--shards",
            type=int,
            default=1,
            help="serve through a cluster of N shard engines "
            "(default: 1, a singleton)",
        )
        command.add_argument(
            "--mmap",
            action="store_true",
            help="memory-map a schema-v3 bundle directory",
        )
        command.add_argument(
            "--json",
            action="store_true",
            help="emit JSON instead of text",
        )

    similar = commands.add_parser(
        "similar",
        help="rank the served nodes most similar to one node",
    )
    add_similarity_arguments(similar, with_relation=False)

    suggest = commands.add_parser(
        "suggest-links",
        help="rank link candidates for one node under a relation",
    )
    add_similarity_arguments(suggest, with_relation=True)

    shard_plan = commands.add_parser(
        "shard-plan",
        help="propose a balanced shard plan for a serving cluster",
    )
    shard_plan.add_argument("artifact", help="path to the bundle directory")
    shard_plan.add_argument(
        "--shards",
        type=int,
        required=True,
        help="number of shard engines in the cluster",
    )
    shard_plan.add_argument(
        "--json",
        action="store_true",
        help="emit the plan as JSON",
    )

    metrics = commands.add_parser(
        "metrics",
        help="export the serving metrics registry "
        "(Prometheus text format by default)",
    )
    metrics.add_argument("artifact", help="path to the artifact bundle")
    metrics.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map a schema-v3 bundle directory",
    )
    metrics.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a cluster of N shard engines and export "
        "the aggregated cluster snapshot (default: 1, a singleton)",
    )
    metrics.add_argument(
        "--batch",
        metavar="FILE",
        help="score this query file first, so counters and latency "
        "histograms carry real traffic",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="emit the stable JSON snapshot instead of Prometheus "
        "text",
    )

    trace = commands.add_parser(
        "trace",
        help="score a batch with tracing on and print the span trees",
    )
    trace.add_argument("artifact", help="path to the bundle directory")
    trace.add_argument(
        "--batch",
        metavar="FILE",
        required=True,
        help="query file to score under tracing (JSON array or JSON "
        "lines)",
    )
    trace.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a cluster of N shard engines (default: "
        "1, a singleton)",
    )
    trace.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also export the recorded traces as JSON lines",
    )

    serve = commands.add_parser(
        "serve",
        help="serve the model over HTTP through the micro-batching "
        "gateway",
    )
    serve.add_argument("artifact", help="path to the artifact bundle")
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard worker processes behind the gateway (default: 1; "
        "more shards pay only when fold-in outweighs the scatter: on a "
        "2-CPU host 200 queries took 4.11 ms at 1 shard, 5.71 ms at 2)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks a free one (default: 8080)",
    )
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the schema-v3 bundle in every worker "
        "(the frozen base is shared through the OS page cache)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=5.0,
        metavar="MS",
        help="micro-batch window in milliseconds (default: 5)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="size trigger: flush a batch at this many items "
        "(default: 64)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="admission bound on items pending + in flight; overflow "
        "is rejected with 429 (default: 1024)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run a scripted kill-and-recover drill against a "
        "supervised cluster",
    )
    chaos.add_argument("artifact", help="path to the bundle directory")
    chaos.add_argument(
        "--batch",
        metavar="FILE",
        required=True,
        help="query file served through the drill (JSON array or "
        "JSON lines)",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=3,
        help="cluster width for the drill (default: 3)",
    )
    chaos.add_argument(
        "--fail-shard",
        type=int,
        default=1,
        help="the shard the fault plan kills (default: 1)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault plan seed (default: 0)",
    )
    chaos.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the drill's event trail as JSON lines",
    )
    return parser


def _build_engine(
    artifact: str,
    shards: int,
    obs: Observability,
    mmap: bool = False,
):
    """A singleton engine, or a sharded cluster when ``shards > 1``."""
    if shards < 1:
        raise ServingError(f"--shards must be >= 1, got {shards}")
    if shards == 1:
        return InferenceEngine.load(artifact, mmap=mmap, obs=obs)
    return ShardedEngine.load(
        artifact, n_shards=shards, mmap=mmap, obs=obs
    )


def _run_metrics(args: argparse.Namespace) -> int:
    engine = _build_engine(
        args.artifact, args.shards, Observability(), mmap=args.mmap
    )
    if args.batch is not None:
        engine.score_many(_load_batch(args.batch))
    snapshot = engine.metrics_snapshot()
    if args.json:
        print(render_json(snapshot))
    else:
        sys.stdout.write(render_prometheus(snapshot))
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    obs = Observability(trace=True)
    engine = _build_engine(args.artifact, args.shards, obs)
    engine.score_many(_load_batch(args.batch))
    traces = obs.tracer.traces()
    for root in traces:
        print(root.describe())
    if args.jsonl is not None:
        count = obs.tracer.export_jsonl(args.jsonl)
        print(
            f"wrote {count} trace(s) to {args.jsonl}",
            file=sys.stderr,
        )
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """Scripted kill-and-recover drill; nonzero exit on any violation."""
    import numpy as np

    from repro.faults import FaultPlan, resolve_faults
    from repro.obs.metrics import series_value
    from repro.serving.supervision import ShardFailure, SupervisionPolicy

    if args.shards < 2:
        raise ServingError(
            f"the chaos drill needs a cluster: --shards must be >= 2, "
            f"got {args.shards}"
        )
    if not 0 <= args.fail_shard < args.shards:
        raise ServingError(
            f"--fail-shard must be in [0, {args.shards}), got "
            f"{args.fail_shard}"
        )
    queries = _load_batch(args.batch)
    if not queries:
        raise ServingError(f"batch file {args.batch!r} holds no queries")

    trail: list[dict] = []

    def record(phase: str, **detail) -> None:
        trail.append({"phase": phase, **detail})

    violations: list[str] = []

    # the ground truth: the same batch through a singleton engine
    reference = InferenceEngine.load(args.artifact).score_many(queries)

    # threshold=2 with one retry: the first scatter burns both fault
    # firings, trips the breaker, and leaves the plan exhausted so the
    # post-heal strict pass runs clean
    policy = SupervisionPolicy(
        max_retries=1, backoff_base=0.0, breaker_threshold=2
    )
    plan = FaultPlan(seed=args.seed).fail(
        "shard.foldin", times=2, shard=args.fail_shard,
        message="chaos drill",
    )
    injector = resolve_faults(plan)
    cluster = ShardedEngine.load(
        args.artifact,
        n_shards=args.shards,
        supervision=policy,
        faults=injector,
    )
    record(
        "inject",
        site="shard.foldin",
        shard=args.fail_shard,
        seed=args.seed,
        policy={
            "max_retries": policy.max_retries,
            "breaker_threshold": policy.breaker_threshold,
        },
    )

    # phase 1: degraded partial scoring while the shard is down
    degraded = cluster.score_many(queries, partial=True)
    markers = [
        row for row in degraded if isinstance(row, ShardFailure)
    ]
    if not markers:
        violations.append(
            f"no query routed to shard {args.fail_shard}: the drill "
            f"killed a shard nobody asked for (try another "
            f"--fail-shard)"
        )
    for marker in markers:
        if marker.shard != args.fail_shard:
            violations.append(
                f"healthy shard {marker.shard} degraded: {marker.error}"
            )
    for position, (row, want) in enumerate(zip(degraded, reference)):
        if isinstance(row, ShardFailure):
            continue
        if not np.array_equal(row, want):
            violations.append(
                f"degraded query #{position} diverged from the "
                f"singleton reference"
            )
    record(
        "degrade",
        queries=len(queries),
        degraded=len(markers),
        breakers=cluster.supervisor.states(),
        injected=injector.events(),
    )

    # phase 2: heal the broken shard (rebuild + breaker reset)
    healed = cluster.heal()
    states = cluster.supervisor.states()
    if any(state != "closed" for state in states):
        violations.append(f"breakers not closed after heal: {states}")
    record("heal", shards=list(healed), breakers=states)

    # phase 3: strict scoring must be bit-identical again
    recovered = cluster.score_many(queries)
    restored = all(
        np.array_equal(row, want)
        for row, want in zip(recovered, reference)
    )
    if not restored:
        violations.append(
            "post-heal strict scoring is not bit-identical to the "
            "singleton reference"
        )
    snapshot = cluster.metrics_snapshot()
    record(
        "verify",
        bit_identical=restored,
        retries=series_value(snapshot, "repro_shard_retries_total"),
        breaker_opens=series_value(
            snapshot, "repro_breaker_opens_total"
        ),
        rebuilds=series_value(snapshot, "repro_shard_rebuilds_total"),
        degraded_queries=series_value(
            snapshot, "repro_degraded_queries_total"
        ),
    )
    record("result", ok=not violations, violations=violations)

    if args.jsonl is not None:
        with open(args.jsonl, "w", encoding="utf-8") as sink:
            for event in trail:
                sink.write(json.dumps(event, sort_keys=True) + "\n")
        print(
            f"wrote {len(trail)} drill event(s) to {args.jsonl}",
            file=sys.stderr,
        )
    for event in trail:
        print(json.dumps(event, sort_keys=True))
    if violations:
        for violation in violations:
            print(f"drill violation: {violation}", file=sys.stderr)
        return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve over HTTP until SIGTERM/SIGINT, then drain gracefully.

    The cluster is built before the gateway, while this process is
    single-threaded, so its workers are forks of this process (and
    carry its command line in ``ps``).
    """
    import signal
    import threading

    from repro.serving.gateway import GatewayServer

    if args.shards < 1:
        raise ServingError(f"--shards must be >= 1, got {args.shards}")
    engine = ShardedEngine.load(
        args.artifact,
        n_shards=args.shards,
        mmap=args.mmap,
        transport="process",
    )
    stop = threading.Event()
    try:
        server = GatewayServer.launch(
            engine,
            host=args.host,
            port=args.port,
            batch_window=args.batch_window / 1000.0,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
        )
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    signum, lambda *_: (stop.set(), server.request_stop())
                )
            print(f"READY {server.url}", flush=True)
            print(
                f"serving {args.artifact} with {args.shards} "
                "shard worker process(es); SIGTERM drains",
                file=sys.stderr,
            )
            stop.wait()
            print("draining...", file=sys.stderr)
        finally:
            server.drain()
    finally:
        engine.close()
    print("drained; bye", file=sys.stderr)
    return 0


def _print_ranking(
    ranking: list[tuple[object, float]], as_json: bool
) -> None:
    if as_json:
        print(
            json.dumps(
                [
                    {"node": str(node), "score": float(score)}
                    for node, score in ranking
                ]
            )
        )
        return
    if not ranking:
        print("no candidates")
        return
    for rank, (node, score) in enumerate(ranking, start=1):
        print(f"{rank:>3}. {node}  {score:.6f}")


def _run_similar(args: argparse.Namespace) -> int:
    engine = _build_engine(
        args.artifact, args.shards, Observability(), mmap=args.mmap
    )
    ranking = engine.similar(
        args.node,
        k=args.k,
        metric=args.metric,
        object_type=args.object_type,
    )
    _print_ranking(ranking, args.json)
    return 0


def _run_suggest_links(args: argparse.Namespace) -> int:
    engine = _build_engine(
        args.artifact, args.shards, Observability(), mmap=args.mmap
    )
    ranking = engine.suggest_links(
        args.node, args.relation, k=args.k, metric=args.metric
    )
    _print_ranking(ranking, args.json)
    return 0


def _run_info(args: argparse.Namespace) -> int:
    engine = InferenceEngine.load(args.artifact, mmap=args.mmap)
    if args.json:
        print(json.dumps(engine.info(), indent=2, sort_keys=True))
    else:
        print(engine.artifact.summary())
    return 0


def _load_batch(path: str) -> list[dict]:
    """Parse a batch file: a JSON array, or one JSON object per line."""
    try:
        raw = Path(path).read_text(encoding="utf-8").strip()
        if raw.startswith("["):
            queries = json.loads(raw)
        else:
            queries = [
                json.loads(line)
                for line in raw.splitlines()
                if line.strip()
            ]
    except (OSError, ValueError) as exc:  # JSON and UTF-8 errors too
        raise ServingError(
            f"cannot read batch file {path!r}: {exc}"
        ) from None
    # JSON has no tuples: re-shape link entries for the query API
    for position, query in enumerate(queries):
        if not isinstance(query, dict):
            raise ServingError(
                f"query #{position}: expected a JSON object, got "
                f"{type(query).__name__}"
            )
        links = query.get("links")
        if links is not None:
            if not isinstance(links, list):
                raise ServingError(
                    f"query #{position}: links must be an array of "
                    f"[relation, target(, weight)] entries"
                )
            query["links"] = [tuple(link) for link in links]
    return queries


def _run_score_batch(args: argparse.Namespace) -> int:
    engine = InferenceEngine.load(args.artifact, mmap=args.mmap)
    queries = _load_batch(args.batch)
    memberships = engine.score_many(queries)
    rows = [
        {
            "cluster": int(membership.argmax()),
            "membership": [float(p) for p in membership],
        }
        for membership in memberships
    ]
    if args.json:
        print(json.dumps(rows))
    else:
        for position, row in enumerate(rows):
            rendered = ", ".join(
                f"{p:.4f}" for p in row["membership"]
            )
            print(
                f"query #{position}: cluster {row['cluster']}  "
                f"membership [{rendered}]"
            )
    return 0


def _run_score(args: argparse.Namespace) -> int:
    if args.batch is not None:
        if args.object_type or args.link or args.text or args.numeric:
            raise ServingError(
                "--batch scores a query file; it cannot be combined "
                "with --type/--link/--text/--numeric"
            )
        return _run_score_batch(args)
    if not args.object_type:
        raise ServingError(
            "score needs either --type (single query) or --batch FILE"
        )
    engine = InferenceEngine.load(args.artifact, mmap=args.mmap)
    text: dict[str, list[str]] = {}
    for attribute, tokens in args.text:
        text.setdefault(attribute, []).extend(tokens)
    numeric: dict[str, list[float]] = {}
    for attribute, values in args.numeric:
        numeric.setdefault(attribute, []).extend(values)
    membership = engine.query(
        args.object_type,
        links=args.link,
        text=text,
        numeric=numeric,
    )
    cluster = int(membership.argmax())
    if args.json:
        print(
            json.dumps(
                {
                    "cluster": cluster,
                    "membership": [float(p) for p in membership],
                }
            )
        )
    else:
        rendered = ", ".join(f"{p:.4f}" for p in membership)
        print(f"cluster: {cluster}")
        print(f"membership: [{rendered}]")
    return 0


def _run_shard_plan(args: argparse.Namespace) -> int:
    state = ModelArtifact.load(args.artifact).to_state()
    # the training links make the per-shard load column possible;
    # serve-only bundles still get the row split
    state.hydrate()
    plan = ShardPlan.from_state(state, args.shards)
    summary = plan.describe(state)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"shard plan: {summary['n_shards']} shard(s) over "
        f"{summary['num_rows']} rows"
    )
    for entry in summary["shards"]:
        start, stop = entry["rows"]
        line = (
            f"  shard {entry['shard']}: rows [{start}, {stop})  "
            f"{entry['num_rows']} rows"
        )
        if "total_links" in entry:
            line += f"  {entry['total_links']} out-links"
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _run_info(args)
        if args.command == "shard-plan":
            return _run_shard_plan(args)
        if args.command == "metrics":
            return _run_metrics(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "chaos":
            return _run_chaos(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "similar":
            return _run_similar(args)
        if args.command == "suggest-links":
            return _run_suggest_links(args)
        return _run_score(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # output piped into a closed reader (e.g. `info ... | head`)
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
