"""Benchmarks of blocked top-k similarity serving vs the naive path.

The subject is ``InferenceEngine.similar_many``: per-block partial
selection (one matmul per block, ``argpartition`` top-k, ordered
cross-block merge) against the obvious baseline -- score one query at
a time against every candidate and full-sort the dense row
(``np.argsort(-scores, kind="stable")``).  Both paths share the same
scoring backend (:mod:`repro.core.topk`), so before any timing counts
the harness asserts the blocked rankings **bit-identical** to the
naive ones: a fast ranking that disagrees with the protocol reference
does not get a number.

The recorded ``pr9_similarity`` row in ``BENCH_serving.json`` is the
k=10 comparison at the weather_xl scale (9600 nodes); the sweep also
covers k in {1, 10, 100} and the scatter-gathered cluster path at
1 / 2 / 4 shards.

Standalone harness::

    PYTHONPATH=src python benchmarks/bench_similarity.py \
        --json /tmp/similarity.json --shards 1,2,4 --repeats 5

The pytest-benchmark suite (CI similarity-smoke) runs the same
comparison at a smaller scale (600 nodes).
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.core import topk
from repro.core.config import GenClusConfig
from repro.core.genclus import GenClus
from repro.datagen.weather import (
    TEMPERATURE_TYPE,
    WeatherConfig,
    generate_weather_network,
)
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.serving import InferenceEngine, ShardedEngine

N_QUERIES = 64
K_SWEEP = (1, 10, 100)
ROUTER_SHARDS = (1, 2, 4)


def fit_weather_model(xl=False):
    generated = generate_weather_network(
        WeatherConfig(
            n_temperature=6400 if xl else 400,
            n_precipitation=3200 if xl else 200,
            k_neighbors=10 if xl else 5,
            n_observations=10 if xl else 5,
            seed=0,
        )
    )
    config = GenClusConfig(
        n_clusters=4,
        outer_iterations=2,
        seed=0,
        n_init=1 if xl else 2,
    )
    return GenClus(config).fit(
        generated.network, attributes=WEATHER_ATTRIBUTES
    )


def query_nodes(n_queries=N_QUERIES):
    rng = np.random.default_rng(11)
    return [
        f"T{int(i)}"
        for i in rng.choice(400, size=n_queries, replace=False)
    ]


def naive_similar_many(engine, nodes, k, metric="cosine"):
    """The baseline: per query, dense-score every candidate of the
    query's type and full-sort the row.  Same scoring backend, same
    tie order (stable sort over ascending candidate index)."""
    state = engine.state
    network = state.network
    theta = state.theta
    resolved = topk.resolve_metric(metric)
    out = []
    for node in nodes:
        query = network.index_of(node)
        object_type = network.type_of(node)
        candidates = np.asarray(
            [
                index
                for index in network.indices_of_type(object_type)
                if index != query
            ],
            dtype=np.int64,
        )
        scores = topk.pairwise_scores(
            resolved, theta[[query]], theta[candidates]
        )[0]
        order = np.argsort(-scores, kind="stable")[:k]
        out.append(
            [
                (network.node_at(int(candidates[i])), float(scores[i]))
                for i in order
            ]
        )
    return out


# ----------------------------------------------------------------------
# pytest-benchmark suite (CI similarity-smoke)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    result = fit_weather_model()
    nodes = query_nodes()
    engine = InferenceEngine.from_result(result, cache_size=0)
    return result, nodes, engine


def test_naive_full_sort_baseline(benchmark, served):
    """Per-query dense score + full sort: what blocked top-k beats."""
    _, nodes, engine = served
    benchmark(naive_similar_many, engine, nodes, 10)
    benchmark.extra_info["n_queries"] = len(nodes)


def ranking_of(results):
    """Node order only: BLAS may differ in the last ulp between the
    blocked (full-theta) and gathered (naive) matmul shapes, so the
    contract pinned here is the *ranking*, not the float bits."""
    return [[node for node, _ in row] for row in results]


def test_blocked_similar_many(benchmark, served):
    """Blocked partial selection, rank-identical to the naive path."""
    _, nodes, engine = served
    assert ranking_of(
        engine.similar_many(nodes, k=10)
    ) == ranking_of(naive_similar_many(engine, nodes, 10))
    benchmark(engine.similar_many, nodes, k=10)
    benchmark.extra_info["n_queries"] = len(nodes)
    benchmark.extra_info["queries_per_sec"] = round(
        len(nodes) / benchmark.stats.stats.mean, 1
    )


@pytest.mark.parametrize("n_shards", (1, 2))
def test_router_similar_many(benchmark, served, n_shards):
    """The scatter-gathered cluster ranking at small scale."""
    result, nodes, engine = served
    cluster = ShardedEngine.from_result(
        result, n_shards=n_shards, cache_size=0
    )
    assert cluster.similar_many(nodes, k=10) == engine.similar_many(
        nodes, k=10
    )
    benchmark(cluster.similar_many, nodes, k=10)
    benchmark.extra_info["n_shards"] = n_shards
    benchmark.extra_info["cpus"] = os.cpu_count()


# ----------------------------------------------------------------------
# standalone harness (records the BENCH_serving.json row)
# ----------------------------------------------------------------------
def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_harness(shards, n_queries, repeats, xl=True):
    result = fit_weather_model(xl=xl)
    nodes = query_nodes(n_queries)
    engine = InferenceEngine.from_result(result, cache_size=0)
    report = {
        "bench": "similarity_topk",
        "cpus": os.cpu_count(),
        "num_nodes": int(result.theta.shape[0]),
        "n_queries": n_queries,
        "repeats": repeats,
        "k": {},
        "router": {},
    }
    for k in K_SWEEP:
        reference = naive_similar_many(engine, nodes, k)
        # correctness gate: blocked == naive before any timing
        blocked = engine.similar_many(nodes, k=k)
        if ranking_of(blocked) != ranking_of(reference):
            raise AssertionError(
                f"blocked top-k diverged from the full-sort "
                f"reference at k={k}"
            )
        naive_best = _best_of(
            lambda k=k: naive_similar_many(engine, nodes, k), repeats
        )
        blocked_best = _best_of(
            lambda k=k: engine.similar_many(nodes, k=k), repeats
        )
        report["k"][str(k)] = {
            "naive_seconds": round(naive_best, 6),
            "blocked_seconds": round(blocked_best, 6),
            "naive_queries_per_sec": round(
                n_queries / naive_best, 1
            ),
            "blocked_queries_per_sec": round(
                n_queries / blocked_best, 1
            ),
            "speedup": round(naive_best / blocked_best, 3),
        }
    reference = engine.similar_many(nodes, k=10)
    for n_shards in shards:
        cluster = ShardedEngine.from_result(
            result, n_shards=n_shards, cache_size=0
        )
        if cluster.similar_many(nodes, k=10) != reference:
            raise AssertionError(
                f"cluster ranking diverged at {n_shards} shard(s)"
            )
        best = _best_of(
            lambda: cluster.similar_many(nodes, k=10), repeats
        )
        report["router"][str(n_shards)] = {
            "seconds": round(best, 6),
            "queries_per_sec": round(n_queries / best, 1),
        }
    return report


def main():
    parser = argparse.ArgumentParser(
        description="Blocked top-k similarity vs naive full sort"
    )
    parser.add_argument(
        "--json", default=None, help="write the report here"
    )
    parser.add_argument(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts (default 1,2,4)",
    )
    parser.add_argument("--queries", type=int, default=N_QUERIES)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--mid",
        action="store_true",
        help="run at the 600-node weather_mid scale instead of "
        "weather_xl (for quick smoke runs)",
    )
    args = parser.parse_args()
    shards = [int(piece) for piece in args.shards.split(",") if piece]
    report = run_harness(
        shards, args.queries, args.repeats, xl=not args.mid
    )
    print(json.dumps(report, indent=2))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
