"""Benchmarks of the serving layer: fold-in throughput and cached queries.

Unlike the whole-experiment benches these time serving hot paths with
multiple rounds: batch posterior assignment of new sensors against a
fitted weather model (the bulk-scoring path, reported as nodes/sec in
``extra_info``), single-node scoring (the cold query path), a repeated
memoized query (the LRU hit path that dominates under serving traffic),
and the lifecycle paths -- a touched-component link delta against a
large extension space (must not scale with the total extension) and a
full ``promote()`` warm-started refit round trip.

Run as a script it times the transient batch path end to end -- the
single engine at 10 and 200 queries, and one worker process over the
process transport called directly -- and optionally merges a
``{before, after, speedup}`` record against a baseline run::

    PYTHONPATH=src python benchmarks/bench_serving_foldin.py \
        --json now.json [--baseline before.json]

The script touches only public entry points, so the same file measures
a parent commit's checkout for the ``before`` column.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

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
from repro.serving import (
    InferenceEngine,
    ModelArtifact,
    NewNode,
    ShardedEngine,
    fold_in,
)
from repro.serving.foldin import FrozenModel

BATCH_SIZE = 200
SMALL_BATCH = 10  # one micro-batched HTTP request's worth


def fit_served_model():
    """A fitted mid-size weather model (the ROADMAP baseline fit)."""
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


@pytest.fixture(scope="module")
def served_model():
    """The fitted mid-size weather model frozen for serving."""
    artifact = ModelArtifact.from_result(fit_served_model())
    return FrozenModel.from_artifact(artifact), artifact


def sensor_specs():
    """New temperature sensors: kNN-style links plus observations."""
    rng = np.random.default_rng(7)
    batch = []
    for i in range(BATCH_SIZE):
        neighbors = rng.choice(400, size=5, replace=False)
        links = tuple(
            (RELATION_TT, f"T{int(t)}", 1.0) for t in neighbors
        )
        level = float(rng.integers(1, 5))
        observations = rng.normal(level, 0.2, size=5).tolist()
        batch.append(
            NewNode(
                f"new-T{i}",
                TEMPERATURE_TYPE,
                links=links,
                numeric={TEMPERATURE_ATTR: observations},
            )
        )
    return batch


def as_queries(specs):
    return [
        dict(
            object_type=TEMPERATURE_TYPE,
            links=spec.links,
            numeric=spec.numeric,
        )
        for spec in specs
    ]


@pytest.fixture(scope="module")
def sensor_batch(served_model):
    return sensor_specs()


def test_batch_foldin_throughput(benchmark, served_model, sensor_batch):
    """Bulk scoring: the whole batch through one vectorized fold-in."""
    model, _ = served_model
    outcome = benchmark(fold_in, model, sensor_batch)
    assert outcome.theta.shape == (BATCH_SIZE, 4)
    np.testing.assert_allclose(outcome.theta.sum(axis=1), 1.0, atol=1e-9)
    assert outcome.converged
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["nodes_per_sec"] = round(
        BATCH_SIZE / benchmark.stats.stats.mean, 1
    )


def test_single_query_cold(benchmark, served_model, sensor_batch):
    """Cold path: one transient node scored with an empty cache."""
    _, artifact = served_model
    engine = InferenceEngine(artifact, cache_size=0)
    spec = sensor_batch[0]

    def score():
        return engine.query(
            TEMPERATURE_TYPE,
            links=spec.links,
            numeric=spec.numeric,
        )

    membership = benchmark(score)
    assert membership.shape == (4,)
    benchmark.extra_info["nodes_per_sec"] = round(
        1.0 / benchmark.stats.stats.mean, 1
    )


def test_repeated_query_cache_hit(benchmark, served_model, sensor_batch):
    """Hot path: the memoized answer for a repeated identical query."""
    _, artifact = served_model
    engine = InferenceEngine(artifact)
    spec = sensor_batch[0]

    def score():
        return engine.query(
            TEMPERATURE_TYPE,
            links=spec.links,
            numeric=spec.numeric,
        )

    score()  # warm the cache
    membership = benchmark(score)
    assert membership.shape == (4,)
    stats = engine.info()["cache"]
    assert stats["hits"] > 0
    assert stats["misses"] == 1


def test_score_many_batched_throughput(
    benchmark, served_model, sensor_batch
):
    """The batch request path: N transient queries coalesced into ONE
    blocked fold-in sweep via ``engine.score_many`` (vs N single
    ``query`` calls, each paying its own fixed point).  The cache is
    disabled so every round times the full batched fold-in."""
    _, artifact = served_model
    engine = InferenceEngine(artifact, cache_size=0)
    queries = as_queries(sensor_batch)

    memberships = benchmark(engine.score_many, queries)
    assert len(memberships) == BATCH_SIZE
    assert all(m.shape == (4,) for m in memberships)
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["queries_per_sec"] = round(
        BATCH_SIZE / benchmark.stats.stats.mean, 1
    )


def test_score_many_small_batch(benchmark, served_model, sensor_batch):
    """One HTTP request's worth (10 queries) through ``score_many``:
    at this size the per-call fixed costs -- compiling the batch,
    resolving it against the model, assembling the link operator --
    weigh as much as the fixed point itself."""
    _, artifact = served_model
    engine = InferenceEngine(artifact, cache_size=0)
    queries = as_queries(sensor_batch[:SMALL_BATCH])

    memberships = benchmark(engine.score_many, queries)
    assert len(memberships) == SMALL_BATCH
    benchmark.extra_info["batch_size"] = SMALL_BATCH
    benchmark.extra_info["queries_per_sec"] = round(
        SMALL_BATCH / benchmark.stats.stats.mean, 1
    )


def test_score_many_vs_single_queries(
    benchmark, served_model, sensor_batch
):
    """Reference loop for the batched path above: the same queries
    scored one at a time against one cache-disabled engine (every
    call pays its own fold-in fixed point), so the two benches' ratio
    is exactly the coalescing win -- engine construction stays outside
    the timed region on both sides."""
    _, artifact = served_model
    subset = sensor_batch[:20]
    queries = as_queries(subset)
    engine = InferenceEngine(artifact, cache_size=0)

    def single_loop():
        return [engine.query(**query) for query in queries]

    memberships = benchmark(single_loop)
    assert len(memberships) == len(subset)
    benchmark.extra_info["batch_size"] = len(subset)
    benchmark.extra_info["queries_per_sec"] = round(
        len(subset) / benchmark.stats.stats.mean, 1
    )


def test_add_links_touched_component(
    benchmark, served_model, sensor_batch
):
    """Link delta against a large extension: the re-fold covers only
    the touched component, so the cost must not scale with the total
    extension size (the whole batch is folded in first).

    Each round gets a fresh engine (``pedantic`` + setup): add_links
    accumulates onto the source's spec, so re-timing one engine would
    measure ever-growing link sets instead of a single delta.
    """
    _, artifact = served_model
    source = sensor_batch[0].node

    def setup():
        engine = InferenceEngine(artifact)
        engine.extend(sensor_batch)
        return (engine,), {}

    def delta(engine):
        return engine.add_links(
            [(source, RELATION_TT, "T7", 1.0)]
        )

    outcome = benchmark.pedantic(
        delta, setup=setup, rounds=20, iterations=1
    )
    # the delta's source has no extension dependants: exactly one row
    assert outcome.theta.shape[0] == 1
    benchmark.extra_info["extension_nodes"] = BATCH_SIZE
    benchmark.extra_info["refolded_rows"] = 1


def test_promote_roundtrip(benchmark, served_model, sensor_batch):
    """The full lifecycle closer: materialize base + extensions and run
    the warm-started refit (one outer iteration from the served
    optimum), then rebase the engine."""
    _, artifact = served_model
    config = GenClusConfig(n_clusters=4, outer_iterations=4, seed=0)

    def setup():
        engine = InferenceEngine(artifact)
        engine.extend(sensor_batch[:50])
        return (engine,), {}

    def promote(engine):
        return engine.promote(config)

    result = benchmark.pedantic(
        promote, setup=setup, rounds=3, iterations=1
    )
    assert result.theta.shape[0] == artifact.num_nodes + 50
    benchmark.extra_info["extension_nodes"] = 50
    benchmark.extra_info["refit_outer_iterations"] = int(
        result.history.records[-1].outer_iteration
    )


@pytest.fixture(scope="module")
def served_model_xxl():
    """Opt-in ~100k-node weather model (set ``REPRO_BENCH_XXL=1``).

    One cheap fit (single init, single outer round) -- the point is
    the serving-path scaling, not the training quality."""
    from repro.datagen.weather import weather_xxl_config

    generated = generate_weather_network(weather_xxl_config())
    config = GenClusConfig(
        n_clusters=4, outer_iterations=1, seed=0, n_init=1
    )
    result = GenClus(config).fit(
        generated.network, attributes=WEATHER_ATTRIBUTES
    )
    artifact = ModelArtifact.from_result(result)
    return FrozenModel.from_artifact(artifact), artifact


@pytest.mark.skipif(
    "not __import__('os').environ.get('REPRO_BENCH_XXL')",
    reason="opt-in ~100k-node scale: set REPRO_BENCH_XXL=1",
)
def test_batch_foldin_throughput_xxl(
    benchmark, served_model_xxl, sensor_batch
):
    """Bulk scoring against the ~100k-node model: fold-in cost must be
    driven by the batch, not the base-model size."""
    model, _ = served_model_xxl
    outcome = benchmark.pedantic(
        fold_in, args=(model, sensor_batch), rounds=3, iterations=1
    )
    assert outcome.theta.shape == (BATCH_SIZE, 4)
    np.testing.assert_allclose(
        outcome.theta.sum(axis=1), 1.0, atol=1e-9
    )
    benchmark.extra_info["batch_size"] = BATCH_SIZE
    benchmark.extra_info["base_nodes"] = model.theta.shape[0]


# ----------------------------------------------------------------------
# standalone harness
# ----------------------------------------------------------------------
def _median_ms(call, repeats: int) -> float:
    call()  # warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return round(statistics.median(samples) * 1e3, 4)


def measure(repeats: int) -> dict:
    """Median milliseconds per ``score_many`` call (cache disabled, so
    every call folds every query) on the single engine and on a
    one-worker process cluster called directly; the answers are
    checked bit-identical before anything is timed."""
    result = fit_served_model()
    queries = as_queries(sensor_specs())
    single = InferenceEngine.from_result(result, cache_size=0)
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "model"
        result.save(bundle)
        process = ShardedEngine.load(
            bundle, n_shards=1, transport="process", mmap=True,
            cache_size=0,
        )
        try:
            want = single.score_many(queries)
            got = process.score_many(queries)
            if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                raise SystemExit("process rows differ from the engine")
            cases = {}
            for size in (SMALL_BATCH, BATCH_SIZE):
                batch = queries[:size]
                rounds = repeats * BATCH_SIZE // size
                cases[f"single_engine_{size}"] = _median_ms(
                    lambda: single.score_many(batch), rounds
                )
                cases[f"process_direct_{size}"] = _median_ms(
                    lambda: process.score_many(batch), rounds
                )
        finally:
            process.close()
    return cases


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", help="write the record here")
    parser.add_argument(
        "--baseline", help="a record from the parent commit to compare"
    )
    parser.add_argument("--repeats", type=int, default=40)
    args = parser.parse_args(argv)
    record = {
        "bench": "score_many_transient",
        "unit": "ms per call (median, cache disabled)",
        "cpus": os.cpu_count(),
        "commit": _commit(),
        "cases": measure(args.repeats),
    }
    if args.baseline:
        before = json.loads(Path(args.baseline).read_text())
        record = {
            "bench": record["bench"],
            "unit": record["unit"],
            "cpus": record["cpus"],
            "before": {"commit": before["commit"], **before["cases"]},
            "after": {"commit": record["commit"], **record["cases"]},
            "speedup": {
                case: round(before["cases"][case] / ms, 2)
                for case, ms in record["cases"].items()
            },
        }
    text = json.dumps(record, indent=2)
    if args.json:
        Path(args.json).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
