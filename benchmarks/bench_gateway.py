"""Benchmarks of the HTTP gateway: micro-batched serving vs the router.

Drives concurrent HTTP clients against :class:`GatewayServer` --
mixed-size ``/score`` requests that the :class:`MicroBatcher` merges
into blocked ``score_many`` batches -- over the multiprocess transport
at 1, 2, and 4 shard worker processes, and compares against the
in-process router called directly (no HTTP, no batcher).  Reported per
configuration: sustained QPS across the client burst and the p50 / p99
of per-request wall latency.  Correctness is asserted before timing:
the gateway's JSON rows are bit-identical to the singleton reference
(JSON floats round-trip exactly), so a configuration that is fast but
wrong does not get a number.

The gap between the in-process row and the gateway rows prices the
HTTP + batching + RPC stack; the 1-vs-4-worker trend prices the
scatter across processes (on a single-core host it measures transport
overhead only -- the recorded report carries ``cpus``).

Standalone harness (the numbers recorded in ``BENCH_serving.json``)::

    PYTHONPATH=src python benchmarks/bench_gateway.py \
        --json /tmp/gateway.json --workers 1,2,4
"""

import argparse
import json
import os
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_serving_cluster import fit_weather_model, sensor_queries

from repro.serving import InferenceEngine, ShardedEngine
from repro.serving.gateway import GatewayServer

BATCH_SIZE = 200
REQUEST_SIZE = 10
CLIENTS = 4
WORKER_COUNTS = (1, 2, 4)


def _post_score(url, queries):
    request = urllib.request.Request(
        url + "/score",
        data=json.dumps({"queries": queries}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _drive_clients(url, chunks, clients):
    """Each client sends every chunk; per-request latencies, pooled."""
    latencies = []

    def client_run(_):
        mine = []
        for chunk in chunks:
            start = time.perf_counter()
            body = _post_score(url, chunk)
            mine.append(time.perf_counter() - start)
            assert body["degraded"] == 0
        return mine

    with ThreadPoolExecutor(max_workers=clients) as pool:
        started = time.perf_counter()
        for result in pool.map(client_run, range(clients)):
            latencies.extend(result)
        elapsed = time.perf_counter() - started
    return latencies, elapsed


def run_harness(worker_counts, batch_size, clients, repeats):
    result = fit_weather_model()
    queries = [
        {**query, "links": [list(link) for link in query["links"]]}
        for query in sensor_queries(batch_size)
    ]
    chunks = [
        queries[start : start + REQUEST_SIZE]
        for start in range(0, len(queries), REQUEST_SIZE)
    ]
    reference = InferenceEngine.from_result(
        result, cache_size=0
    ).score_many(sensor_queries(batch_size))

    report = {
        "bench": "gateway_microbatch_score",
        "cpus": os.cpu_count(),
        "batch_size": batch_size,
        "request_size": REQUEST_SIZE,
        "clients": clients,
        "repeats": repeats,
        "inprocess_router": {},
        "gateway": {},
    }

    # the no-HTTP baseline: the same traffic, straight into the router
    router = ShardedEngine.from_result(
        result, n_shards=2, cache_size=0
    )
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        rows = router.score_many(sensor_queries(batch_size))
        best = min(best, time.perf_counter() - start)
    for a, b in zip(rows, reference):
        np.testing.assert_array_equal(a, b)
    report["inprocess_router"] = {
        "seconds": round(best, 6),
        "queries_per_sec": round(batch_size / best, 1),
    }
    router.close()

    with tempfile.TemporaryDirectory() as scratch:
        bundle = Path(scratch) / "weather.npz"
        result.save(bundle)
        for n_workers in worker_counts:
            engine = ShardedEngine.load(
                bundle,
                n_shards=n_workers,
                transport="process",
                cache_size=0,
            )
            try:
                with GatewayServer.launch(engine) as server:
                    # correctness gate before any timing
                    body = _post_score(server.url, chunks[0])
                    for got, want in zip(body["results"], reference):
                        np.testing.assert_array_equal(
                            np.asarray(got), want
                        )
                    best_lat, best_elapsed = None, float("inf")
                    for _ in range(repeats):
                        latencies, elapsed = _drive_clients(
                            server.url, chunks, clients
                        )
                        if elapsed < best_elapsed:
                            best_lat, best_elapsed = (
                                latencies,
                                elapsed,
                            )
                    total = batch_size * clients
                    report["gateway"][str(n_workers)] = {
                        "requests": len(best_lat),
                        "seconds": round(best_elapsed, 6),
                        "queries_per_sec": round(
                            total / best_elapsed, 1
                        ),
                        "p50_ms": round(
                            float(np.percentile(best_lat, 50)) * 1e3,
                            3,
                        ),
                        "p99_ms": round(
                            float(np.percentile(best_lat, 99)) * 1e3,
                            3,
                        ),
                    }
            finally:
                engine.close()
    return report


def main():
    parser = argparse.ArgumentParser(
        description="Gateway micro-batched HTTP throughput vs the "
        "in-process router"
    )
    parser.add_argument(
        "--json", default=None, help="write the report here"
    )
    parser.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker-process counts (default 1,2,4)",
    )
    parser.add_argument("--batch", type=int, default=BATCH_SIZE)
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    workers = [
        int(piece) for piece in args.workers.split(",") if piece
    ]
    report = run_harness(
        workers, args.batch, args.clients, args.repeats
    )
    print(json.dumps(report, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
