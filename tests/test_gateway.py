"""Tests for the micro-batching HTTP gateway (repro.serving.gateway).

Two layers: :class:`MicroBatcher` unit tests against a fake engine
(trigger selection, empty-window flush, drain), and live-socket tests
through :class:`GatewayServer` (bit-identity over HTTP vs the
in-process cluster at every shard count, dedup across a merged batch,
admission control, graceful drain, degraded markers over a process
transport).

JSON floats round-trip exactly (shortest-repr), so "bit-identical over
HTTP" is a literal claim: the response body carries the same 64 bits
``ShardedEngine.score_many`` returns.
"""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import GenClus, GenClusConfig
from repro.datagen.toy import political_forum_network
from repro.obs import series_value
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    InferenceEngine,
    ShardedEngine,
    SupervisionPolicy,
)
from repro.serving.foldin import compile_queries
from repro.serving.gateway import (
    GatewayBusy,
    GatewayServer,
    MicroBatcher,
)
from repro.serving.telemetry import GatewayMetrics

SHARD_COUNTS = (1, 2, 3)

GREEN_QUERY = dict(
    links=[["writes", "blog0_1", 1.0], ["likes", "book0_2", 1.0]],
    text={"text": ["environment", "climate", "green"]},
)
PURPLE_QUERY = dict(
    links=[["writes", "blog1_1", 1.0], ["likes", "book1_2", 1.0]],
    text={"text": ["liberty", "market", "freedom"]},
)

FAST_FAIL = SupervisionPolicy(
    max_retries=0, backoff_base=0.0, breaker_threshold=1
)


@pytest.fixture(scope="module")
def forum_result():
    network = political_forum_network()
    config = GenClusConfig(
        n_clusters=2, outer_iterations=5, seed=0, n_init=3
    )
    return GenClus(config).fit(network, attributes=["text"])


@pytest.fixture(scope="module")
def artifact_path(forum_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("gateway") / "forum.npz"
    forum_result.save(path)
    return path


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def post(url, path, payload):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def trigger_counts(registry_snapshot):
    """Per-trigger firing counts of the labelled flush counter."""
    family = registry_snapshot["metrics"].get(
        "repro_gateway_flush_triggers_total", {}
    )
    return {
        entry["labels"]["trigger"]: entry["value"]
        for entry in family.get("series", [])
    }


# ----------------------------------------------------------------------
# MicroBatcher unit tests (fake engine, explicit event loop)
# ----------------------------------------------------------------------
class FakeEngine:
    """Records each ``score_many`` batch as its rows' object types."""

    def __init__(self):
        self.score_calls = []
        self.similar_calls = []

    def score_many(self, batch, partial=False):
        self.score_calls.append(
            [batch.types[code] for code in batch.type_codes.tolist()]
        )
        return [np.array([float(len(batch))]) for _ in range(len(batch))]

    def similar_many(self, nodes, k, metric, object_type):
        self.similar_calls.append((list(nodes), k, metric, object_type))
        return [[(node, 1.0)] for node in nodes]


def score_items(*object_types):
    """One ``/score`` request's admission items, as the gateway makes
    them: ``(compiled request batch, row)`` pairs."""
    batch = compile_queries(
        [{"object_type": object_type} for object_type in object_types]
    )
    return [(batch, row) for row in range(len(batch))]


def make_batcher(engine, loop, executor, **kwargs):
    kwargs.setdefault("batch_window", 0.02)
    kwargs.setdefault("max_batch", 3)
    kwargs.setdefault("max_queue", 100)
    registry = MetricsRegistry()
    batcher = MicroBatcher(
        engine,
        loop,
        executor,
        metrics=GatewayMetrics(registry),
        **kwargs,
    )
    return batcher, registry


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestMicroBatcher:
    def test_size_trigger_flushes_immediately(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = FakeEngine()
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, registry = make_batcher(engine, loop, pool)
                futures = batcher.admit(
                    "score", score_items("a", "b", "c")
                )
                # size trigger: flushed synchronously on admit, the
                # window timer cancelled before it could fire
                assert batcher._timer is None
                await asyncio.gather(*futures)
                await batcher.quiesce()
            assert engine.score_calls == [["a", "b", "c"]]
            counts = trigger_counts(registry.snapshot())
            assert counts.get("size") == 1
            assert "time" not in counts

        run_async(scenario())

    def test_time_trigger_flushes_partial_batch(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = FakeEngine()
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, registry = make_batcher(engine, loop, pool)
                futures = batcher.admit("score", score_items("a", "b"))
                assert batcher._timer is not None
                await asyncio.gather(*futures)
                await batcher.quiesce()
            assert engine.score_calls == [["a", "b"]]
            counts = trigger_counts(registry.snapshot())
            assert counts.get("time") == 1
            assert "size" not in counts

        run_async(scenario())

    def test_size_vs_time_race_flushes_once(self):
        # the race: a size flush empties the list while the window
        # timer is armed -- a later timer or drain firing into the
        # empty window must be a no-op, not a second (empty) batch
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = FakeEngine()
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, registry = make_batcher(engine, loop, pool)
                first = batcher.admit("score", score_items("a", "b"))
                # size trigger
                second = batcher.admit("score", score_items("c"))
                batcher._flush("time")  # the lost race, forced
                batcher.flush_now()  # drain on an empty window
                await asyncio.gather(*first, *second)
                await batcher.quiesce()
            assert engine.score_calls == [["a", "b", "c"]]
            snapshot = registry.snapshot()
            assert (
                series_value(
                    snapshot, "repro_gateway_batch_flushes_total"
                )
                == 1
            )
            counts = trigger_counts(snapshot)
            assert counts == {"size": 1}

        run_async(scenario())

    def test_admission_overflow_rejects_whole_request(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = FakeEngine()
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, _ = make_batcher(
                    engine, loop, pool, max_queue=2, max_batch=100
                )
                batcher.admit("score", score_items("a"))
                with pytest.raises(GatewayBusy, match="full"):
                    batcher.admit("score", score_items("b", "c"))
                # all-or-nothing: the rejected request queued nothing
                assert batcher.load == 1
                batcher.flush_now()
                await batcher.quiesce()
            assert engine.score_calls == [["a"]]

        run_async(scenario())

    def test_mixed_batch_groups_similar_by_shape(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = FakeEngine()
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, _ = make_batcher(
                    engine, loop, pool, max_batch=10
                )
                score = batcher.admit("score", score_items("q1"))
                similar = batcher.admit(
                    "similar",
                    [
                        ("n1", 5, "cosine", None),
                        ("n2", 3, "cosine", None),
                        ("n3", 5, "cosine", None),
                    ],
                )
                batcher.flush_now()
                await asyncio.gather(*score, *similar)
                await batcher.quiesce()
            # one score_many, one similar_many per (k, metric, type)
            assert engine.score_calls == [["q1"]]
            assert sorted(
                call[1:] for call in engine.similar_calls
            ) == [(3, "cosine", None), (5, "cosine", None)]
            grouped = {
                call[1]: call[0] for call in engine.similar_calls
            }
            assert grouped[5] == ["n1", "n3"]
            assert grouped[3] == ["n2"]

        run_async(scenario())


# ----------------------------------------------------------------------
# live gateway: bit-identity over HTTP
# ----------------------------------------------------------------------
class TestGatewayEquivalence:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_http_answers_bit_identical(self, forum_result, n_shards):
        reference = ShardedEngine.from_result(forum_result, n_shards=n_shards)
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
        ]
        ref_queries = [
            {
                **query,
                "links": [tuple(link) for link in query["links"]],
            }
            for query in queries
        ]
        want_rows = reference.score_many(ref_queries)
        want_similar = reference.similar_many(
            ["user0_0", "user1_0"], k=5
        )

        engine = ShardedEngine.from_result(forum_result, n_shards=n_shards)
        with GatewayServer.launch(
            engine, batch_window=0.01, max_batch=16
        ) as server:
            status, body = post(
                server.url, "/score", {"queries": queries}
            )
            assert status == 200
            assert body["degraded"] == 0
            for got, want in zip(body["results"], want_rows):
                np.testing.assert_array_equal(
                    np.asarray(got), want
                )
            status, body = post(
                server.url,
                "/similar",
                {"nodes": ["user0_0", "user1_0"], "k": 5},
            )
            assert status == 200
            got_similar = [
                [(node, score) for node, score in entry]
                for entry in body["results"]
            ]
            assert got_similar == [
                [(node, float(score)) for node, score in entry]
                for entry in want_similar
            ]
        reference.close()

    def test_duplicates_dedup_across_merged_batch(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        query = dict(object_type="user", **GREEN_QUERY)
        with GatewayServer.launch(
            engine, batch_window=0.05, max_batch=32
        ) as server:
            status, body = post(
                server.url, "/score", {"queries": [query] * 6}
            )
            assert status == 200
            rows = body["results"]
            assert len(rows) == 6
            assert all(row == rows[0] for row in rows)
        # six admitted items, one fold-in: the cluster dedup saw all
        # duplicates inside the merged micro-batch
        assert (
            series_value(
                engine.metrics_snapshot(),
                "repro_cache_misses_total",
            )
            == 1
        )
        engine.close()


# ----------------------------------------------------------------------
# live gateway: admission, validation, drain, probes
# ----------------------------------------------------------------------
class TestGatewayOperations:
    def test_overflow_is_429(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        query = dict(object_type="user", **GREEN_QUERY)
        with GatewayServer.launch(
            engine,
            batch_window=0.01,
            max_batch=16,
            max_queue=2,
        ) as server:
            status, body = post(
                server.url, "/score", {"queries": [query] * 3}
            )
            assert status == 429
            assert "full" in body["error"]
            # a request that fits still succeeds afterwards
            status, _ = post(
                server.url, "/score", {"queries": [query]}
            )
            assert status == 200
        engine.close()

    def test_bad_query_is_400_and_does_not_poison(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        with GatewayServer.launch(
            engine, batch_window=0.01, max_batch=16
        ) as server:
            status, body = post(
                server.url,
                "/score",
                {"queries": [{"object_type": "senator"}]},
            )
            assert status == 400
            assert "senator" in body["error"]
            status, body = post(
                server.url,
                "/score",
                {
                    "queries": [
                        {
                            "object_type": "user",
                            "links": [["friend", "nobody", 1.0]],
                        }
                    ]
                },
            )
            assert status == 400
            assert "nobody" in body["error"]
            # the rejected requests degraded nothing
            status, body = post(
                server.url,
                "/score",
                {
                    "queries": [
                        dict(object_type="user", **GREEN_QUERY)
                    ]
                },
            )
            assert status == 200
            assert body["degraded"] == 0
        engine.close()

    def test_malformed_body_is_400(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        with GatewayServer.launch(engine) as server:
            request = urllib.request.Request(
                server.url + "/score",
                data=b"not json",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            status, _ = post(server.url, "/nowhere", {})
            assert status == 404
            status, _ = get(server.url, "/score")
            assert status == 405
        engine.close()

    def test_drain_completes_inflight_work(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        query = dict(object_type="user", **GREEN_QUERY)
        want = engine.score_many(
            [
                {
                    **query,
                    "links": [
                        tuple(link) for link in query["links"]
                    ],
                }
            ]
        )[0]
        server = GatewayServer.launch(
            engine, batch_window=5.0, max_batch=100
        )
        outcome = {}

        def slow_request():
            outcome["response"] = post(
                server.url, "/score", {"queries": [query]}
            )

        worker = threading.Thread(target=slow_request)
        worker.start()
        # wait until the item is admitted (pending behind the long
        # window), then drain: the flush must run it to completion
        deadline = time.monotonic() + 10
        while (
            server.gateway._batcher.load == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert server.gateway._batcher.load == 1
        start = time.monotonic()
        server.drain()
        assert time.monotonic() - start < 5.0  # not the full window
        worker.join(timeout=10)
        status, body = outcome["response"]
        assert status == 200
        np.testing.assert_array_equal(
            np.asarray(body["results"][0]), want
        )
        # the listener is closed: new work is refused outright
        with pytest.raises(
            (urllib.error.URLError, ConnectionError, OSError)
        ):
            post(server.url, "/score", {"queries": [query]})
        engine.close()

    def test_probes_and_metrics(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        query = dict(object_type="user", **GREEN_QUERY)
        with GatewayServer.launch(
            engine, batch_window=0.01
        ) as server:
            status, body = get(server.url, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, body = get(server.url, "/readyz")
            assert status == 200
            ready = json.loads(body)
            assert ready == {"ready": True, "shards": 2}
            post(server.url, "/score", {"queries": [query]})
            status, body = get(server.url, "/metrics")
            assert status == 200
            text = body.decode("utf-8")
            # one page: engine families + gateway families, merged
            assert "repro_queries_total" in text
            assert "repro_gateway_requests_total" in text
            assert "repro_gateway_batch_flushes_total" in text
        engine.close()


# ----------------------------------------------------------------------
# live gateway over the process transport: degrade + recover
# ----------------------------------------------------------------------
class TestGatewayProcessTransport:
    def test_degraded_markers_and_recovery_over_http(
        self, forum_result, artifact_path
    ):
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
        ]
        reference = InferenceEngine.from_result(forum_result)
        want_rows = reference.score_many(
            [
                {
                    **query,
                    "links": [
                        tuple(link) for link in query["links"]
                    ],
                }
                for query in queries
            ]
        )
        engine = ShardedEngine.load(
            artifact_path,
            n_shards=2,
            transport="process",
            supervision=FAST_FAIL,
        )
        try:
            with GatewayServer.launch(
                engine, batch_window=0.01, max_batch=16
            ) as server:
                status, body = post(
                    server.url, "/score", {"queries": queries}
                )
                assert status == 200
                assert body["degraded"] == 0

                engine.shards[1].kill()
                status, body = post(
                    server.url, "/score", {"queries": queries}
                )
                assert status == 200
                assert body["degraded"] >= 1
                for got, want in zip(body["results"], want_rows):
                    if isinstance(got, dict):
                        assert got["degraded"] is True
                        assert got["shard"] == 1
                        continue
                    np.testing.assert_array_equal(
                        np.asarray(got), want
                    )

                # respawn + replay, then HTTP answers are whole again
                assert engine.heal() == (1,)
                status, body = post(
                    server.url, "/score", {"queries": queries}
                )
                assert status == 200
                assert body["degraded"] == 0
                for got, want in zip(body["results"], want_rows):
                    np.testing.assert_array_equal(
                        np.asarray(got), want
                    )
        finally:
            engine.close()
