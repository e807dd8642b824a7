"""Benchmarks of the sharded serving cluster: scatter-gather vs one engine.

Times the batch request path end to end -- ``score_many`` over a burst
of distinct transient queries against a fitted weather model -- first
on a singleton :class:`~repro.serving.engine.InferenceEngine` (the
PR-4 coalesced batch path), then through the
:class:`~repro.serving.router.ShardedEngine` at 1, 2, and 4 shards.
The router splits the burst into per-shard blocked fold-in sub-batches
and runs them concurrently on the shared kernel pool, so on a
multi-core host the 4-shard row should approach the core count
(acceptance bar: >= 1.5x at 4 shards); on a single-core host it
measures pure routing overhead instead -- the recorded report carries
``cpus`` so the trajectory stays honest.  Every configuration asserts
its results bit-identical to the singleton reference before timing
counts: a cluster that is fast but wrong does not get a number.

Also benched: the cluster promote round trip (reassemble all shards'
extensions, warm-started refit, re-partition under a rebalanced plan).

Standalone harness (the numbers recorded in ``BENCH_serving.json``)::

    PYTHONPATH=src python benchmarks/bench_serving_cluster.py \
        --json /tmp/cluster.json --shards 1,2,4 --repeats 5
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.core.config import GenClusConfig
from repro.core.genclus import GenClus
from repro.datagen.weather import (
    RELATION_TT,
    TEMPERATURE_ATTR,
    TEMPERATURE_TYPE,
    WeatherConfig,
    generate_weather_network,
)
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.serving import InferenceEngine, NewNode, ShardedEngine

BATCH_SIZE = 200
ROUTER_SHARDS = (1, 2, 4)


def fit_weather_model():
    generated = generate_weather_network(
        WeatherConfig(
            n_temperature=400,
            n_precipitation=200,
            k_neighbors=5,
            n_observations=5,
            seed=0,
        )
    )
    config = GenClusConfig(
        n_clusters=4, outer_iterations=2, seed=0, n_init=2
    )
    return GenClus(config).fit(
        generated.network, attributes=WEATHER_ATTRIBUTES
    )


def sensor_queries(batch_size=BATCH_SIZE):
    """Distinct transient queries: kNN links plus observations."""
    rng = np.random.default_rng(7)
    queries = []
    for i in range(batch_size):
        neighbors = rng.choice(400, size=5, replace=False)
        level = float(rng.integers(1, 5))
        observations = rng.normal(level, 0.2, size=5).tolist()
        queries.append(
            dict(
                object_type=TEMPERATURE_TYPE,
                links=tuple(
                    (RELATION_TT, f"T{int(t)}", 1.0) for t in neighbors
                ),
                numeric={TEMPERATURE_ATTR: observations},
            )
        )
    return queries


# ----------------------------------------------------------------------
# pytest-benchmark suite (CI cluster-smoke)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    result = fit_weather_model()
    queries = sensor_queries()
    reference_engine = InferenceEngine.from_result(
        result, cache_size=0
    )
    reference = reference_engine.score_many(queries)
    return result, queries, reference


def test_single_engine_score_many(benchmark, served):
    """Baseline: the PR-4 coalesced batch path on one engine."""
    result, queries, reference = served
    engine = InferenceEngine.from_result(result, cache_size=0)
    memberships = benchmark(engine.score_many, queries)
    for a, b in zip(memberships, reference):
        np.testing.assert_array_equal(a, b)
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["queries_per_sec"] = round(
        BATCH_SIZE / benchmark.stats.stats.mean, 1
    )


@pytest.mark.parametrize("n_shards", ROUTER_SHARDS)
def test_router_score_many(benchmark, served, n_shards):
    """Scatter-gather through the router at 1 / 2 / 4 shards."""
    result, queries, reference = served
    engine = ShardedEngine.from_result(
        result, n_shards=n_shards, cache_size=0
    )
    memberships = benchmark(engine.score_many, queries)
    # correctness first: the gathered batch is bit-identical to the
    # singleton reference at every shard count
    for a, b in zip(memberships, reference):
        np.testing.assert_array_equal(a, b)
    benchmark.extra_info["n_shards"] = n_shards
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["cpus"] = os.cpu_count()
    benchmark.extra_info["queries_per_sec"] = round(
        BATCH_SIZE / benchmark.stats.stats.mean, 1
    )


def test_cluster_promote_roundtrip(benchmark, served):
    """Cluster-scope promote: gather extensions from every shard,
    warm-started refit, re-partition under a rebalanced plan."""
    result, queries, _ = served
    config = GenClusConfig(n_clusters=4, outer_iterations=4, seed=0)
    specs = [
        NewNode(
            f"new-T{i}",
            TEMPERATURE_TYPE,
            links=query["links"],
            numeric=query["numeric"],
        )
        for i, query in enumerate(queries[:50])
    ]

    def setup():
        engine = ShardedEngine.from_result(result, n_shards=2)
        for spec in specs:
            engine.extend([spec])
        return (engine,), {}

    def promote(engine):
        return engine.promote(config)

    promoted = benchmark.pedantic(
        promote, setup=setup, rounds=3, iterations=1
    )
    assert promoted.theta.shape[0] == 600 + 50
    benchmark.extra_info["extension_nodes"] = 50


# ----------------------------------------------------------------------
# standalone harness (records BENCH_serving.json rows)
# ----------------------------------------------------------------------
def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_harness(shards, batch_size, repeats):
    result = fit_weather_model()
    queries = sensor_queries(batch_size)
    single = InferenceEngine.from_result(result, cache_size=0)
    reference = single.score_many(queries)
    report = {
        "bench": "serving_cluster_score_many",
        "cpus": os.cpu_count(),
        "batch_size": batch_size,
        "repeats": repeats,
        "single_engine": {},
        "router": {},
    }
    single_best = _best_of(
        lambda: single.score_many(queries), repeats
    )
    report["single_engine"] = {
        "seconds": round(single_best, 6),
        "queries_per_sec": round(batch_size / single_best, 1),
    }
    for n_shards in shards:
        engine = ShardedEngine.from_result(
            result, n_shards=n_shards, cache_size=0
        )
        gathered = engine.score_many(queries)
        for a, b in zip(gathered, reference):
            np.testing.assert_array_equal(a, b)
        best = _best_of(lambda: engine.score_many(queries), repeats)
        report["router"][str(n_shards)] = {
            "seconds": round(best, 6),
            "queries_per_sec": round(batch_size / best, 1),
            "speedup_vs_single": round(single_best / best, 3),
        }
    return report


def main():
    parser = argparse.ArgumentParser(
        description="Router scatter-gather throughput vs one engine"
    )
    parser.add_argument(
        "--json", default=None, help="write the report here"
    )
    parser.add_argument(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts (default 1,2,4)",
    )
    parser.add_argument("--batch", type=int, default=BATCH_SIZE)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    shards = [int(piece) for piece in args.shards.split(",") if piece]
    report = run_harness(shards, args.batch, args.repeats)
    print(json.dumps(report, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
