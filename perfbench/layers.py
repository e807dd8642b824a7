"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions from outside,
or reads numbers the program already keeps: ``metrics_snapshot()``,
``/metrics`` and the ``Observability`` span trees.  Nothing here adds
instrumentation to the program.

The layer ladder sends the same 200-query batch through successively
more of the serving stack -- single engine, in-process 1-shard router,
one worker process over the process transport, one HTTP request, and
20 sequential 10-query HTTP requests -- and reads each layer's overhead
as the difference between neighbouring rungs.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np

from harness import (
    delta,
    flatten_snapshot,
    gate,
    median,
    parse_prometheus,
    ratio,
    serve,
    stop,
    timed,
)
from repro.exceptions import ServingError
from repro.obs import Observability
from repro.serving import InferenceEngine, ShardedEngine
from repro.serving.artifact import ModelArtifact
from repro.serving.engine import compile_transient_queries
from repro.serving.transport import (
    decode_payload,
    decode_spec,
    encode_frame,
    encode_spec,
)


def same_rows(got, want) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(np.asarray(a, dtype=np.float64), b)
        for a, b in zip(got, want)
    )


# ----------------------------------------------------------------------
# fit span trees
# ----------------------------------------------------------------------
def find_span(span, name: str):
    if span.name == name:
        return span
    for child in span.children:
        found = find_span(child, name)
        if found is not None:
            return found
    return None


def fit_breakdown(span) -> dict[str, float]:
    """Init / EM / Newton / other seconds and iteration counts of one
    ``fit > init | outer_iter[i] > em_sweep | newton`` tree."""
    parts = dict(init=0.0, em=0.0, newton=0.0, outer=0, sweeps=0, newton_it=0)
    for child in span.children:
        if child.name == "init":
            parts["init"] += child.duration
        elif child.name.startswith("outer_iter"):
            parts["outer"] += 1
            for step in child.children:
                if step.name == "em_sweep":
                    parts["em"] += step.duration
                    parts["sweeps"] += int(step.attributes.get("iterations", 0))
                elif step.name == "newton":
                    parts["newton"] += step.duration
                    parts["newton_it"] += int(step.attributes.get("iterations", 0))
    parts["other"] = span.duration - parts["init"] - parts["em"] - parts["newton"]
    return parts


def report_fit(report, prefix: str, trees: list) -> None:
    """Median of each component over the traced fits."""
    parts = [fit_breakdown(tree) for tree in trees]
    n = len(parts)
    if prefix == "fit":
        for key, name in (("init", "init_s"), ("em", "em_s"),
                          ("newton", "newton_s"), ("other", "other_s")):
            report.layer(f"fit.{name}", median([p[key] for p in parts]), n)
        report.layer("fit.outer_iterations", median([p["outer"] for p in parts]), n)
        report.layer("fit.em_sweeps", median([p["sweeps"] for p in parts]), n)
        report.layer("fit.newton_iterations", median([p["newton_it"] for p in parts]), n)
    else:
        report.layer("refit.em_s", median([p["em"] for p in parts]), n)
        report.layer("refit.newton_s", median([p["newton"] for p in parts]), n)
        report.layer("refit.outer_iterations", median([p["outer"] for p in parts]), n)


# ----------------------------------------------------------------------
# numbers the program keeps
# ----------------------------------------------------------------------
def counter_layers(report, before: dict, after: dict) -> None:
    """Per-layer ratios over a timed phase from two flat metric scrapes
    (``/metrics`` or ``metrics_snapshot()``).  A layer whose denominator
    did not move did no work in the phase and is left out."""

    def per(name, numerator, denominator, scale=1.0):
        count = delta(after, before, denominator)
        if count:
            report.layer(name, delta(after, before, numerator) * scale / count, int(count))

    per("router.batch_ms", "repro_router_batch_seconds_sum",
        "repro_router_batch_seconds_count", 1e3)
    per("topk.ms_per_node", "repro_similarity_seconds_sum",
        "repro_similarity_queries_total", 1e3)
    per("foldin.refolded_rows_per_delta", "repro_refolded_rows_total",
        "repro_link_deltas_total")
    per("gateway.queue_wait_ms", "repro_gateway_batch_wait_seconds_sum",
        "repro_gateway_batch_wait_seconds_count", 1e3)
    per("gateway.batch_items", "repro_gateway_batch_size_sum",
        "repro_gateway_batch_size_count")
    per("gateway.time_flush_share", 'repro_gateway_flush_triggers_total{trigger="time"}',
        "repro_gateway_batch_flushes_total")
    if delta(after, before, "repro_gateway_requests_total"):
        report.layer("gateway.rejected", delta(after, before, "repro_gateway_rejected_total"),
                     int(delta(after, before, "repro_gateway_requests_total")))
    hits = delta(after, before, "repro_similarity_precompute_hits_total")
    misses = delta(after, before, "repro_similarity_precompute_misses_total")
    if hits + misses:
        report.layer("topk.precompute_hit_ratio", hits / (hits + misses), int(hits + misses))
    hits = delta(after, before, "repro_cache_hits_total")
    misses = delta(after, before, "repro_cache_misses_total")
    if hits + misses:
        report.detail("query_cache_hit_ratio", hits / (hits + misses), "ratio",
                      int(hits + misses))


def artifact_layers(report, bundle, save_seconds: list[float]) -> None:
    """Bundle save (timed by the caller), five loads, bundle size."""
    report.layer("artifact.save_s", median(save_seconds), len(save_seconds))
    loads = [timed(ModelArtifact.load, bundle, mmap=True)[0] for _ in range(5)]
    report.layer("artifact.load_s", median(loads), len(loads))
    report.layer("artifact.bundle_mb",
                 sum(p.stat().st_size for p in bundle.rglob("*") if p.is_file()) / 2**20)


def engine_trace_overhead(report, result, batches, to_engine) -> None:
    """``score_many`` on the single engine with tracing on against off,
    alternating on the same batches (no query cache): the median ratio
    minus one is ``trace.overhead_share``."""
    plain = InferenceEngine.from_result(result, cache_size=0)
    traced = InferenceEngine.from_result(
        result, cache_size=0, obs=Observability(trace=True, max_traces=len(batches)))
    off, on = [], []
    for wire in batches:
        queries = [to_engine(query) for query in wire]
        off.append(timed(plain.score_many, queries)[0])
        on.append(timed(traced.score_many, queries)[0])
    report.layer("trace.overhead_share", median(on) / median(off) - 1.0, len(batches))


def traced_fit_layers(report, fit) -> None:
    """One cold fit with tracing on; its span tree gives fit.*."""
    obs = Observability(trace=True)
    fit(obs)
    report_fit(report, "fit", [t for t in obs.tracer.traces() if t.name == "fit"])


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self.conn.request(
            "POST", path, body, {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> bytes:
        self.conn.request("GET", path)
        return self.conn.getresponse().read()

    def close(self) -> None:
        self.conn.close()


def http_rows(client: Client, queries: list) -> list:
    status, body = client.post("/score", json.dumps({"queries": queries}).encode())
    gate(status == 200, f"/score answered HTTP {status}: {body[:200]!r}")
    payload = json.loads(body)
    gate(payload["degraded"] == 0, "/score returned degraded rows")
    return payload["results"]


# ----------------------------------------------------------------------
# the ladder and the codecs
# ----------------------------------------------------------------------
def score_ladder(report, result, bundle, batches, to_engine, client,
                 split_batches) -> None:
    """Rungs, compile/validate times, codec sizes and times, fold-in
    counts -- all on ``batches`` (distinct 200-query batches); the 20 x
    10-query HTTP rung on ``split_batches``."""
    single = InferenceEngine.from_result(result, cache_size=0)
    inproc = ShardedEngine.from_result(result, n_shards=1, cache_size=0)
    process = ShardedEngine.load(
        bundle, n_shards=1, transport="process", mmap=True, cache_size=0
    )
    try:
        rungs = {"single": [], "inproc": [], "process": [], "http": []}
        compile_s, validate_s, encode_s, decode_s = [], [], [], []
        request_bytes = reply_bytes = 0
        before = flatten_snapshot(single.metrics_snapshot())
        router_before = flatten_snapshot(inproc.metrics_snapshot())
        for wire in batches:
            queries = [to_engine(query) for query in wire]
            seconds, want = timed(single.score_many, queries)
            rungs["single"].append(seconds)
            seconds, got = timed(inproc.score_many, queries)
            rungs["inproc"].append(seconds)
            gate(same_rows(got, want), "in-process router rows differ from the single engine")
            seconds, got = timed(process.score_many, queries)
            rungs["process"].append(seconds)
            gate(same_rows(got, want), "process-transport rows differ from the single engine")
            seconds, got = timed(http_rows, client, wire)
            rungs["http"].append(seconds)
            gate(same_rows(got, want), "HTTP rows differ from the single engine")
            compile_s.append(timed(compile_transient_queries, queries)[0])
            validate_s.append(timed(inproc.validate_queries, queries)[0])
            specs = compile_transient_queries(queries)
            start = time.perf_counter()
            request = encode_frame(
                {"op": "score_specs", "specs": [encode_spec(s) for s in specs]}
            )
            reply = encode_frame({}, [np.stack(want)])
            encode_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            header, _ = decode_payload(request[8:])
            decoded = [decode_spec(wire_spec) for wire_spec in header["specs"]]
            _, (rows,) = decode_payload(reply[8:])
            decode_s.append(time.perf_counter() - start)
            gate(len(decoded) == len(specs) and np.array_equal(rows, np.stack(want)),
                 "codec round trip changed the batch")
            request_bytes, reply_bytes = len(request), len(reply)
        after = flatten_snapshot(single.metrics_snapshot())
        counter_layers(report, router_before, flatten_snapshot(inproc.metrics_snapshot()))
    finally:
        process.close()
        inproc.close()
    n = len(batches)
    ms = {name: median(values) * 1e3 for name, values in rungs.items()}
    report.layer("ladder.single_engine_ms", ms["single"], n)
    report.layer("ladder.router_inproc_ms", ms["inproc"], n)
    report.layer("ladder.process_direct_ms", ms["process"], n)
    report.layer("engine.score_many_ms", ms["single"], n)
    report.layer("router.overhead_ms", ms["inproc"] - ms["single"], n)
    report.layer("transport.rpc_overhead_ms", ms["process"] - ms["inproc"], n)
    report.layer("ladder.http_one_request_ms", ms["http"], n)
    report.layer("gateway.http_overhead_ms", ms["http"] - ms["process"], n)
    sequential = []
    for wire in split_batches:
        start = time.perf_counter()
        for first in range(0, len(wire), 10):
            http_rows(client, wire[first:first + 10])
        sequential.append(time.perf_counter() - start)
    report.layer("ladder.http_20x10_ms", median(sequential) * 1e3, len(sequential))
    report.layer("engine.compile_ms", median(compile_s) * 1e3, n)
    report.layer("router.validate_ms", median(validate_s) * 1e3, n)
    report.layer("transport.encode_ms", median(encode_s) * 1e3, n)
    report.layer("transport.decode_ms", median(decode_s) * 1e3, n)
    report.layer("transport.request_bytes", request_bytes, n)
    report.layer("transport.reply_bytes", reply_bytes, n)
    folded = delta(after, before, "repro_cache_misses_total")
    report.layer(
        "foldin.ms_per_query",
        ratio(delta(after, before, "repro_foldin_seconds_sum") * 1e3, folded),
        int(folded),
    )
    report.layer(
        "foldin.sweeps_per_batch",
        ratio(delta(after, before, "repro_foldin_sweeps_total"),
              delta(after, before, "repro_foldin_seconds_count")),
        n,
    )


PROBE_ROUNDS = 10  # write rounds of 10 new nodes each
PROBE_EVICT_BOUND = 20  # below the probes' 100 new nodes, so most probes evict


def write_probes(report, result, bundle, rounds) -> None:
    """Writes on the single engine (engine.*) and the same writes through
    the in-process and the process-transport 1-shard routers; their
    difference is transport.write_rpc_ms."""
    single = InferenceEngine.from_result(result)
    inproc = ShardedEngine.from_result(result, n_shards=1)
    process = ShardedEngine.load(bundle, n_shards=1, transport="process", mmap=True)
    times = {key: [] for key in ("extend", "add_links", "evict", "inproc", "process")}
    try:
        before = flatten_snapshot(single.metrics_snapshot())
        for spec_round in rounds:
            seconds, want = timed(single.extend, spec_round.extend)
            times["extend"].append(seconds)
            link_s, want_links = timed(single.add_links, spec_round.links)
            times["add_links"].append(link_s)
            times["evict"].append(timed(single.evict, PROBE_EVICT_BOUND)[0])
            for name, engine in (("inproc", inproc), ("process", process)):
                ext_s, got = timed(engine.extend, spec_round.extend)
                add_s, got_links = timed(engine.add_links, spec_round.links)
                engine.evict(PROBE_EVICT_BOUND)
                times[name].append(ext_s + add_s)
                gate(np.array_equal(got.theta, want.theta)
                     and np.array_equal(got_links.theta, want_links.theta),
                     f"{name} router writes differ from the single engine")
        counter_layers(report, before, flatten_snapshot(single.metrics_snapshot()))
    finally:
        process.close()
        inproc.close()
    n = len(rounds)
    report.layer("engine.extend_ms", median(times["extend"]) * 1e3, n)
    report.layer("engine.add_links_ms", median(times["add_links"]) * 1e3, n)
    report.layer("engine.evict_ms", median(times["evict"]) * 1e3, n)
    report.layer(
        "transport.write_rpc_ms",
        (median(times["process"]) - median(times["inproc"])) * 1e3,
        n,
    )


def similar_probe(report, result, node_batches) -> None:
    """``similar_many`` at k=10 on the single engine (topk.*)."""
    single = InferenceEngine.from_result(result)
    before = flatten_snapshot(single.metrics_snapshot())
    for nodes in node_batches:
        single.similar_many(nodes, k=10)
    counter_layers(report, before, flatten_snapshot(single.metrics_snapshot()))


def promote_probe(report, result, nodes, config) -> None:
    """Extend, then promote with tracing on (refit.*, commit ratio), and
    the materialization a promote starts from (state.to_problem_ms)."""
    obs = Observability(trace=True)
    engine = InferenceEngine.from_result(result, obs=obs)
    engine.extend(nodes)
    try:
        engine.promote(config)
        committed = 1.0
    except ServingError:
        committed = 0.0
    trees = [find_span(t, "fit") for t in obs.tracer.traces() if t.name == "promote"]
    report_fit(report, "refit", [tree for tree in trees if tree is not None])
    report.layer("promote.commit_ratio", committed, 1)
    materialize = []
    for _ in range(3):
        engine = InferenceEngine.from_result(result)
        engine.extend(nodes)
        materialize.append(timed(engine.state.to_problem)[0])
    report.layer("state.to_problem_ms", median(materialize) * 1e3, len(materialize))


def stack_probes(report, *, result, bundle, work, batches, split_batches, to_engine,
                 write_rounds, similar_nodes, config, server=None) -> None:
    """Every serving-layer probe on one fitted model.

    The traced run of each workload calls this first and then reports
    the layers its own traffic exercised, which replace these figures.
    A layer the workload's traffic does not reach keeps the probe's
    figure, measured on the workload's own model.  ``server`` is a live
    ``(host, port)``; without one a ``serve`` process is started on
    ``bundle`` for the HTTP rungs and the gateway counters.
    """
    process = None
    if server is None:
        start = time.perf_counter()
        process, host, port = serve(bundle, work)
        report.layer("serve.ready_s", time.perf_counter() - start, 1)
    else:
        host, port = server
    client = Client(host, port)
    try:
        before = parse_prometheus(client.get("/metrics").decode())
        score_ladder(report, result, bundle, batches, to_engine, client, split_batches)
        if process is not None:
            counter_layers(report, before, parse_prometheus(client.get("/metrics").decode()))
    finally:
        client.close()
        if process is not None:
            stop(process)
    write_probes(report, result, bundle, write_rounds)
    similar_probe(report, result, similar_nodes)
    promote_probe(report, result, write_rounds[0].extend, config)
