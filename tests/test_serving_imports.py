"""The serving processes stay off the training stack.

``python -m repro.serving serve`` and its shard workers answer every
serving call -- fold-in, similarity, deltas, eviction, telemetry --
with numpy alone: the package re-exports are lazy, the modules serving
shares with training import scipy only inside the functions that need
it, and the engine imports ``GenClus`` only when a promote refits.  The
guard runs a full serving session in a fresh interpreter and fails if
scipy or a training-only module got loaded on the way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core
import repro.hin
from repro import GenClus, GenClusConfig
from repro.datagen.toy import political_forum_network
from repro.datagen.weather import WeatherConfig, generate_weather_network
from repro.experiments.weather_common import WEATHER_ATTRIBUTES

SRC = Path(repro.__file__).resolve().parents[1]

FORBIDDEN = ("scipy", "repro.core.genclus", "repro.core.strength")

# One session per (engine kind, bundle): load, validate, score with
# links to fitted and to folded-in nodes, rank, extend a batch whose
# nodes link to each other (the in-batch product), add links, evict,
# and read the telemetry.  A bundle comes with its query type, a fitted
# target, the relation to it, a relation between two nodes of the query
# type, and attribute observations.  ``validate_queries`` is the router's
# (the single engine has no separate validation pass).
SESSION = r"""
import json, sys
import repro.serving.__main__, repro.serving.worker
from repro.serving import InferenceEngine, NewNode, ShardedEngine

bundles = json.loads(sys.argv[1])


def session(engine, kind):
    base, target, relation, peer, attrs = kind
    def query(links, **extra):
        return {"object_type": base, "links": links, **extra}
    first = [(relation, target, 1.0)]
    queries = [query(first, **attrs), query([]), query(first)]
    if hasattr(engine, "validate_queries"):
        assert engine.validate_queries(queries) == 3
    assert len(engine.score_many(queries)) == 3
    engine.similar_many([target], k=3)
    engine.extend([
        NewNode("anchor", base, links=tuple(first)),
        NewNode("follower", base, links=((peer, "anchor", 1.0),)),
    ])
    engine.score_many([query([(peer, "follower", 1.0)], **attrs)])
    engine.add_links([("follower", relation, target, 2.0)])
    engine.similar_many([target, "follower", "anchor"], k=3)
    engine.evict(1)
    engine.info()
    engine.metrics_snapshot()


for path, kind in bundles:
    session(InferenceEngine.load(path), kind)
    cluster = ShardedEngine.load(path, n_shards=2)
    try:
        session(cluster, kind)
    finally:
        cluster.close()

print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("guard")
    forum = GenClus(
        GenClusConfig(n_clusters=2, outer_iterations=3, seed=0)
    ).fit(political_forum_network(), attributes=["text"])
    forum.save(root / "forum.bundle")
    weather = generate_weather_network(
        WeatherConfig(
            n_temperature=40,
            n_precipitation=20,
            k_neighbors=3,
            n_observations=3,
            seed=0,
        )
    )
    gaussian = GenClus(
        GenClusConfig(n_clusters=3, outer_iterations=2, seed=0)
    ).fit(weather.network, attributes=WEATHER_ATTRIBUTES)
    gaussian.save(root / "weather.bundle")
    return [
        (
            str(root / "forum.bundle"),
            [
                "user",
                "blog0_1",
                "writes",
                "friend",
                {"text": {"text": ["green"]}},
            ],
        ),
        (
            str(root / "weather.bundle"),
            [
                "temperature_sensor",
                "T1",
                "tt",
                "tt",
                {"numeric": {"temperature": [1.5, 2.0]}},
            ],
        ),
    ]


def test_serving_session_loads_no_training_stack(bundles):
    completed = subprocess.run(
        [sys.executable, "-c", SESSION, json.dumps(bundles)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout.splitlines()[-1])
    leaked = [
        name
        for name in loaded
        if any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in FORBIDDEN
        )
    ]
    assert not leaked, f"serving loaded {leaked[:10]}"
    # the session really exercised serving
    assert "repro.serving.foldin" in loaded
    assert "repro.core.topk" in loaded


@pytest.mark.parametrize("package", [repro, repro.core, repro.hin])
def test_every_lazy_export_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope
