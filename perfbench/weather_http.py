"""weather_http: read-only HTTP traffic over the full serving stack.

The model is the ROADMAP's baseline weather fit, saved as a schema-v3
bundle and served by ``python -m repro.serving serve --shards 1 --mmap``
in its own process (one gateway plus one shard worker process).  This
process drives a closed loop over two keep-alive connections: three in
four requests are ``/score`` with 10 distinct sensor queries, one in
four is ``/similar`` with 5 sensors at k=10.  Every answer is checked
bit for bit against the in-process single engine.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

import inputs
from harness import (
    children_of,
    cpu_seconds,
    gate,
    median,
    parse_prometheus,
    peak_rss_mb,
    percentile,
    serve,
    sliced_rate,
    stop,
    thread_count,
    timed,
)
from layers import (
    PROBE_ROUNDS,
    Client,
    artifact_layers,
    counter_layers,
    engine_trace_overhead,
    http_rows,
    same_rows,
    stack_probes,
    traced_fit_layers,
)
from repro import GenClus, GenClusConfig
from repro.eval.nmi import nmi
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.hin.io import network_from_dict
from repro.serving import InferenceEngine
from repro.serving.transport import encode_node

# the ROADMAP baseline fit (benchmarks/bench_serving_cluster.py)
FIT_CONFIG = GenClusConfig(n_clusters=4, outer_iterations=2, seed=0, n_init=2)
EXPECTED_NMI = 0.6983998601535178
CONNECTIONS = 2
SETUPS = 5
# requests per second of --seconds: sized so the timed phase lasts about
# --seconds on a 2-CPU host.  The count is fixed; there is no deadline.
REQUESTS_PER_SECOND = 80
LADDER_BATCHES = 15
SPLIT_BATCHES = 5


def _setup(data, work, rep):
    """Network build -> fit -> bundle save -> server READY, timed on the
    wall clock and as CPU time summed over this process and the server's
    processes."""
    start, cpu_start = time.perf_counter(), time.process_time()
    build_s, network = timed(network_from_dict, data.network)
    fit_s, result = timed(GenClus(FIT_CONFIG).fit, network, attributes=WEATHER_ATTRIBUTES)
    bundle = work / f"weather-{rep}"
    save_s, _ = timed(result.save, bundle)
    ready_start = time.perf_counter()
    server = serve(bundle, work)
    now = time.perf_counter()
    pid = server[0].pid
    cpu = time.process_time() - cpu_start + cpu_seconds([pid] + children_of(pid))
    times = dict(setup=now - start, cpu=cpu, build=build_s, fit=fit_s, save=save_s,
                 ready=now - ready_start)
    return server, result, bundle, times


def _expected(single, per_connection):
    """The single engine's answer to every request, before any timing."""
    flat = [query for requests in per_connection
            for kind, payload, _ in requests if kind == "score" for query in payload]
    rows = iter(single.score_many([inputs.as_engine_query(q) for q in flat]))
    out = []
    for requests in per_connection:
        answers = []
        for kind, payload, _ in requests:
            if kind == "score":
                answers.append([next(rows) for _ in payload])
            else:
                answers.append([
                    [[encode_node(found), float(score)] for found, score in entry]
                    for entry in single.similar_many(payload, k=10)
                ])
        out.append(answers)
    return out


def _drive(host, port, per_connection):
    """The closed loop: one thread per connection, each sending its next
    request a think time after the previous answer has arrived.  Returns
    the phase's start and stop times and, per connection,
    ``(status, seconds, body, end)`` per request."""
    bodies = [
        [("/score", json.dumps({"queries": payload}).encode(), think) if kind == "score"
         else ("/similar", json.dumps({"nodes": payload, "k": 10}).encode(), think)
         for kind, payload, think in requests]
        for requests in per_connection
    ]
    answers = [[] for _ in bodies]

    def loop(index):
        client = Client(host, port)
        try:
            for path, body, think in bodies[index]:
                time.sleep(think)
                start = time.perf_counter()
                status, data = client.post(path, body)
                now = time.perf_counter()
                answers[index].append((status, now - start, data, now))
        finally:
            client.close()

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(bodies))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, time.perf_counter(), answers


def _check(report, per_connection, answers, expected):
    """Every answer against the single engine.  Returns per-kind
    latencies and, per request, ``(end, seconds, items answered)``."""
    latency = {"score": [], "similar": []}
    done = []
    for requests, replies, wants in zip(per_connection, answers, expected):
        gate(len(replies) == len(requests), "a connection lost requests")
        for (kind, _, _), (status, seconds, body, end), want in zip(requests, replies, wants):
            latency[kind].append(seconds)
            if status != 200:
                report.ops.record(kind, ok=False, error=True)
                done.append((end, seconds, 0))
                continue
            results = json.loads(body)["results"]
            good = len(results)
            if kind == "score":
                for got, row in zip(results, want):
                    if isinstance(got, dict):  # a degraded marker
                        good -= 1
                    else:
                        gate(np.array_equal(np.asarray(got, dtype=np.float64), row),
                             "an HTTP /score row differs from the single engine")
            else:
                gate(results == want,
                     "an HTTP /similar ranking differs from the single engine")
            done.append((end, seconds, good))
            ok = good == len(results)
            report.ops.record(kind, ok=ok, error=not ok)
    return latency, done


def _phase(report, single, host, port, per_connection, pids):
    """The timed traffic; ``pids`` are the server's processes, whose CPU
    time over the phase is the program's cost of serving it."""
    expected = _expected(single, per_connection)
    client = Client(host, port)
    before = parse_prometheus(client.get("/metrics").decode())
    cpu_start = cpu_seconds(pids)
    start, stop, answers = _drive(host, port, per_connection)
    cpu = cpu_seconds(pids) - cpu_start
    after = parse_prometheus(client.get("/metrics").decode())
    client.close()
    latency, done = _check(report, per_connection, answers, expected)
    ends, _, items = zip(*done)
    phase = dict(wall=stop - start, cpu=cpu, rate=sliced_rate(ends, items, start, stop),
                 items=sum(good for _, _, good in done),
                 every=latency["score"] + latency["similar"])
    return phase, latency, before, after


def run(report, seed: int, seconds: float, work) -> None:
    data = inputs.weather_dataset()
    servers = []
    try:
        setups = []
        for rep in range(SETUPS):
            if servers:
                stop(servers[-1][0])
            server, result, bundle, times = _setup(data, work, rep)
            servers.append(server)
            setups.append(times)
            if rep == 0:
                first = result
            gate(np.array_equal(result.theta, first.theta),
                 "repeated fits of the same network differ")
        process, host, port = servers[-1]
        score = nmi(data.truth, result.hard_labels())
        gate(abs(score - EXPECTED_NMI) <= 1e-9,
             f"weather fit NMI {score!r} != recorded {EXPECTED_NMI!r}")

        # correctness gate before any timing
        single = InferenceEngine.from_result(result, cache_size=0)
        gate_batch = inputs.weather_batches(seed, 1)[0]
        client = Client(host, port)
        want = single.score_many([inputs.as_engine_query(q) for q in gate_batch])
        gate(same_rows(http_rows(client, gate_batch), want),
             "HTTP rows differ from the single engine")
        client.close()

        n_requests = max(4 * CONNECTIONS, int(round(REQUESTS_PER_SECOND * seconds)))
        traffic = inputs.weather_traffic(seed, n_requests, CONNECTIONS, data.sensors)
        workers = children_of(process.pid)
        phase, latency, before, after = _phase(
            report, single, host, port, traffic, [process.pid] + workers)
        every = phase["every"]

        report.metric("setup_s", median([s["cpu"] for s in setups]), SETUPS)
        report.metric("cpu_ms_per_op", phase["cpu"] / len(every) * 1e3, len(every))
        report.metric("fit_nmi", score)
        report.metric("ok_ratio", report.ops.ok_ratio(), report.ops.attempted)
        report.latencies("score", latency["score"])
        report.latencies("similar", latency["similar"])
        report.detail("setup_wall_s", median([s["setup"] for s in setups]), "s", SETUPS)
        report.detail("fit_s", median([s["fit"] for s in setups]), "s", SETUPS)
        report.detail("serve_ready_s", median([s["ready"] for s in setups]), "s", SETUPS)
        report.detail("timed_phase_s", phase["wall"], "s", 1)
        report.detail("items_per_s", phase["rate"], "items/s", len(every))
        report.detail("op_p50_ms", percentile(every, 50) * 1e3, "ms", len(every))
        report.detail("op_p90_ms", percentile(every, 90) * 1e3, "ms", len(every))

        report.layout = {
            "processes": 2 + len(workers),
            "roles": "benchmark client; gateway (serve); shard worker",
            "client_threads": CONNECTIONS,
            "connections": CONNECTIONS,
            "gateway_threads": thread_count(process.pid),
            "worker_threads": [thread_count(pid) for pid in workers],
            "loop": "closed",
            "requests": n_requests,
        }
        if report.trace:
            _traced(report, seed, data, result, bundle, host, port, setups, work)
            # the traffic's own counters replace the probes' figures
            counter_layers(report, before, after)
            report.layer("tail.op_p90_ms", percentile(every, 90) * 1e3, len(every))
            report.layer("tail.op_p99_ms", percentile(every, 99) * 1e3, len(every))
            report.layer("tail.samples", len(every), len(every))
        report.metric("peak_rss_mb", peak_rss_mb([process.pid] + workers))
    finally:
        for server in servers:
            stop(server[0])


def _traced(report, seed, data, result, bundle, host, port, setups, work):
    """The layer probes on the served model.  The serve command has no
    tracing switch, so the tracing overhead is the single engine's, on
    the ladder batches."""
    # batch 0 was the gate batch; the server has it cached
    batches = inputs.weather_batches(seed, 1 + LADDER_BATCHES + SPLIT_BATCHES)[1:]
    stack_probes(
        report, result=result, bundle=bundle, work=work,
        batches=batches[:LADDER_BATCHES], split_batches=batches[LADDER_BATCHES:],
        to_engine=inputs.as_engine_query,
        write_rounds=inputs.weather_rounds(seed, PROBE_ROUNDS, "w"),
        similar_nodes=[data.sensors[i:i + 5] for i in range(0, 100, 5)],
        config=FIT_CONFIG, server=(host, port),
    )
    engine_trace_overhead(report, result, batches[:LADDER_BATCHES], inputs.as_engine_query)
    network = network_from_dict(data.network)
    traced_fit_layers(report, lambda obs: GenClus(FIT_CONFIG).fit(
        network, attributes=WEATHER_ATTRIBUTES, obs=obs))
    report.layer("hin.build_s", median([s["build"] for s in setups]), len(setups))
    report.layer("serve.ready_s", median([s["ready"] for s in setups]), len(setups))
    artifact_layers(report, bundle, [s["save"] for s in setups])
