"""Tests for the micro-batching HTTP gateway (repro.serving.gateway).

Two layers: :class:`MicroBatcher` unit tests against a fake engine
whose gate holds a flush in flight (an idle admit flushes at once,
items admitted during a flush leave together, drain), and live-socket
tests through :class:`GatewayServer` (bit-identity over HTTP vs the
in-process cluster at every shard count, dedup across a merged batch,
admission control, graceful drain, degraded markers over a process
transport).

JSON floats round-trip exactly (shortest-repr), so "bit-identical over
HTTP" is a literal claim: the response body carries the same 64 bits
``ShardedEngine.score_many`` returns.
"""

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GenClus, GenClusConfig
from repro.datagen.toy import political_forum_network
from repro.exceptions import ServingError
from repro.obs import series_value
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    InferenceEngine,
    NewNode,
    ShardedEngine,
    SupervisionPolicy,
)
from repro.serving.foldin import compile_queries
from repro.serving.gateway import (
    MAX_BODY_BYTES,
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
        with error:
            return error.code, json.loads(error.read())


def get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, error.read()


def raw_exchange(port, data, finish=True, timeout=10.0):
    """Send raw bytes; return everything the server writes back.

    ``finish`` half-closes the socket after sending (the server then
    sees EOF wherever the bytes stop); without it the reply must come
    while the connection stays open.
    """
    with socket.create_connection(("127.0.0.1", port), timeout) as sock:
        sock.sendall(data)
        if finish:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if not finish and b"\r\n\r\n" in b"".join(chunks):
                break
        return b"".join(chunks)


def parse_responses(raw):
    """``[(status, headers, body), ...]`` of the well-formed HTTP/1.1
    replies ``raw`` consists of, in order (a keep-alive connection
    answers each request it can frame)."""
    replies = []
    while raw:
        head, separator, rest = raw.partition(b"\r\n\r\n")
        assert separator, raw
        lines = head.decode("latin-1").split("\r\n")
        version, status, _ = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, raw
        replies.append((int(status), headers, rest[:length]))
        raw = rest[length:]
    return replies


def parse_response(raw):
    """``(status, headers, body)`` of exactly one well-formed reply."""
    (reply,) = parse_responses(raw)
    return reply


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


class GatedEngine:
    """Wraps an engine (fake or real): ``score_many`` /
    ``similar_many`` set :attr:`entered`, then wait for :attr:`gate`,
    so a test that closes the gate holds a flush in flight on the
    engine executor.  The gate starts open."""

    def __init__(self, engine):
        self._engine = engine
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def _held(self, method, *args, **kwargs):
        self.entered.set()
        assert self.gate.wait(10), "the gate was never opened"
        return method(*args, **kwargs)

    def score_many(self, *args, **kwargs):
        return self._held(self._engine.score_many, *args, **kwargs)

    def similar_many(self, *args, **kwargs):
        return self._held(self._engine.similar_many, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def score_items(*object_types):
    """One ``/score`` request's admission items, as the gateway makes
    them: ``(compiled request batch, row)`` pairs."""
    batch = compile_queries(
        [{"object_type": object_type} for object_type in object_types]
    )
    return [(batch, row) for row in range(len(batch))]


def make_batcher(engine, loop, executor, max_queue=100):
    registry = MetricsRegistry()
    batcher = MicroBatcher(
        engine,
        loop,
        executor,
        max_queue=max_queue,
        metrics=GatewayMetrics(registry),
    )
    return batcher, registry


def flushes(registry):
    return series_value(
        registry.snapshot(), "repro_gateway_batch_flushes_total"
    )


async def hold_flush(engine, batcher, *object_types):
    """Admit one request and wait until its flush is blocked inside the
    engine (the gate closed); returns the request's futures."""
    engine.gate.clear()
    engine.entered.clear()
    futures = batcher.admit("score", score_items(*object_types))
    assert await asyncio.to_thread(engine.entered.wait, 10)
    return futures


def run_async(coroutine):
    # bounded: a batch the batcher never sends fails the test, not
    # the run
    return asyncio.run(asyncio.wait_for(coroutine, 10))


class TestMicroBatcher:
    def test_idle_admit_flushes_at_once(self):
        # no timer: an item admitted while nothing is in flight is
        # flushed by admit() itself, before the loop runs again
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = GatedEngine(FakeEngine())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, registry = make_batcher(engine, loop, pool)
                futures = batcher.admit("score", score_items("a", "b"))
                assert flushes(registry) == 1
                await asyncio.gather(*futures)
                await batcher.quiesce()
            assert engine.score_calls == [["a", "b"]]
            assert batcher.load == 0
            snapshot = registry.snapshot()
            # the per-trigger family is gone with the triggers
            assert (
                "repro_gateway_flush_triggers_total"
                not in snapshot["metrics"]
            )

        run_async(scenario())

    def test_admitted_during_flush_leave_together_as_next_batch(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = GatedEngine(FakeEngine())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, registry = make_batcher(engine, loop, pool)
                first = await hold_flush(engine, batcher, "a")
                second = batcher.admit("score", score_items("b", "c"))
                third = batcher.admit("score", score_items("d"))
                # they wait behind the flush in flight: no new flush
                assert flushes(registry) == 1
                assert batcher.load == 4
                engine.gate.set()
                rows = await asyncio.gather(*first, *second, *third)
                await batcher.quiesce()
            # two whole requests merged, in admission order, into the
            # one batch the finishing flush sent
            assert engine.score_calls == [["a"], ["b", "c", "d"]]
            assert [row[0] for row in rows] == [1.0, 3.0, 3.0, 3.0]
            assert flushes(registry) == 2
            assert batcher.load == 0

        run_async(scenario())

    def test_finished_flush_with_nothing_pending_goes_idle(self):
        # a flush that finishes with nothing pending sends no (empty)
        # batch, and the next admit flushes at once again
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = GatedEngine(FakeEngine())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, registry = make_batcher(engine, loop, pool)
                await asyncio.gather(
                    *batcher.admit("score", score_items("a"))
                )
                await batcher.quiesce()
                assert flushes(registry) == 1
                futures = batcher.admit("score", score_items("b"))
                assert flushes(registry) == 2
                await asyncio.gather(*futures)
                await batcher.quiesce()
            assert engine.score_calls == [["a"], ["b"]]

        run_async(scenario())

    def test_quiesce_completes_inflight_and_accumulated_work(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = GatedEngine(FakeEngine())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, _ = make_batcher(engine, loop, pool)
                first = await hold_flush(engine, batcher, "a")
                second = batcher.admit("score", score_items("b"))
                drain = asyncio.create_task(batcher.quiesce())
                await asyncio.sleep(0.05)
                assert not drain.done()  # held by the gated flush
                engine.gate.set()
                await asyncio.wait_for(drain, 10)
                # the drain waited for the chained flush too
                assert all(f.done() for f in [*first, *second])
            assert engine.score_calls == [["a"], ["b"]]
            assert batcher.load == 0

        run_async(scenario())

    def test_admission_overflow_rejects_whole_request(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = GatedEngine(FakeEngine())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, _ = make_batcher(engine, loop, pool, max_queue=2)
                batcher.admit("score", score_items("a"))
                with pytest.raises(GatewayBusy, match="full"):
                    batcher.admit("score", score_items("b", "c"))
                # all-or-nothing: the rejected request queued nothing
                assert batcher.load == 1
                await batcher.quiesce()
            assert engine.score_calls == [["a"]]

        run_async(scenario())

    def test_mixed_batch_groups_similar_by_shape(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            engine = GatedEngine(FakeEngine())
            with ThreadPoolExecutor(max_workers=1) as pool:
                batcher, _ = make_batcher(engine, loop, pool)
                held = await hold_flush(engine, batcher, "q0")
                score = batcher.admit("score", score_items("q1"))
                similar = batcher.admit(
                    "similar",
                    [
                        ("n1", 5, "cosine", None),
                        ("n2", 3, "cosine", None),
                        ("n3", 5, "cosine", None),
                    ],
                )
                engine.gate.set()
                await asyncio.gather(*held, *score, *similar)
                await batcher.quiesce()
            # one score_many, one similar_many per (k, metric, type)
            assert engine.score_calls == [["q0"], ["q1"]]
            assert sorted(
                call[1:] for call in engine.similar_calls
            ) == [(3, "cosine", None), (5, "cosine", None)]
            grouped = {
                call[1]: call[0] for call in engine.similar_calls
            }
            assert grouped[5] == ["n1", "n3"]
            assert grouped[3] == ["n2"]

        run_async(scenario())


def wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert condition()


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
        with GatewayServer.launch(engine) as server:
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
        with GatewayServer.launch(engine) as server:
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
        with GatewayServer.launch(engine, max_queue=2) as server:
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
        with GatewayServer.launch(engine) as server:
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

    def test_bad_similar_node_is_400_and_does_not_poison(
        self, forum_result
    ):
        # a held flush makes every request below queue behind it, so
        # they would leave as one batch: a bad node admitted with them
        # would fail the whole similar_many group, the valid one too
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        want = engine.similar("user0_0", k=3)
        gated = GatedEngine(engine)
        gated.gate.clear()
        bodies = [
            {"nodes": ["user0_0"], "k": 3},
            {"nodes": ["nobody"], "k": 3},
            {"nodes": [{"a": 1}], "k": 3},
            {"nodes": ["user0_0", "nobody"], "k": 3},
        ]
        with GatewayServer.launch(gated) as server:
            batcher = server.gateway._batcher
            with ThreadPoolExecutor(len(bodies) + 1) as pool:
                held = pool.submit(
                    post, server.url, "/similar", {"nodes": ["user1_0"]}
                )
                assert gated.entered.wait(10)
                futures = [
                    pool.submit(post, server.url, "/similar", body)
                    for body in bodies
                ]
                for future in futures[1:]:
                    future.result(timeout=10)
                wait_for(lambda: batcher.load == 2)
                gated.gate.set()
                replies = [future.result(timeout=10) for future in futures]
                assert held.result(timeout=10)[0] == 200
        engine.close()
        status, body = replies[0]
        assert status == 200
        assert body["results"] == [[[found, score] for found, score in want]]
        named = ["nobody", "'a'", "nobody"]
        for (status, body), bad in zip(replies[1:], named):
            assert status == 400
            assert "not served" in body["error"] and bad in body["error"]

    def test_score_requests_admitted_during_a_flush_leave_together(
        self, forum_result
    ):
        # /score validation runs on the event loop, not behind the
        # held flush on the engine thread: both requests are admitted
        # while it runs and leave together as the next batch
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        reference = InferenceEngine.from_result(forum_result)
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
        ]
        want = reference.score_many(
            [
                {**query, "links": [tuple(link) for link in query["links"]]}
                for query in queries
            ]
        )
        gated = GatedEngine(engine)
        gated.gate.clear()
        with GatewayServer.launch(gated) as server:
            batcher = server.gateway._batcher
            with ThreadPoolExecutor(len(queries) + 1) as pool:
                held = pool.submit(
                    post,
                    server.url,
                    "/score",
                    {"queries": [{"object_type": "user"}]},
                )
                assert gated.entered.wait(10)
                futures = [
                    pool.submit(
                        post, server.url, "/score", {"queries": [query]}
                    )
                    for query in queries
                ]
                wait_for(lambda: batcher.load == 1 + len(queries))
                gated.gate.set()
                replies = [future.result(timeout=10) for future in futures]
                assert held.result(timeout=10)[0] == 200
            snapshot = server.gateway.registry.snapshot()
        engine.close()
        # the held flush, then one flush carrying both requests
        assert series_value(
            snapshot, "repro_gateway_batch_flushes_total"
        ) == 2
        for (status, body), row in zip(replies, want):
            assert status == 200
            np.testing.assert_array_equal(
                np.asarray(body["results"][0]), row
            )

    @pytest.mark.parametrize(
        "query",
        [
            {"text": 5},
            {"text": ["green"]},
            {"text": []},
            {"text": 0},
            {"text": False},
            {"numeric": "abc"},
            {"numeric": [1.0]},
            {"numeric": ""},
            {"numeric": 0},
        ],
    )
    def test_non_mapping_text_or_numeric_is_400(self, forum_result, query):
        engine = ShardedEngine.from_result(forum_result, n_shards=1)
        with GatewayServer.launch(engine) as server:
            status, body = post(
                server.url,
                "/score",
                {"queries": [GREEN_QUERY | {"object_type": "user"},
                             {"object_type": "user", **query}]},
            )
            assert status == 400
            assert body["error"].startswith("query #1: ")
            assert "must be a mapping" in body["error"]
        engine.close()

    @pytest.mark.parametrize(
        "links",
        [[5], [None], ["ab"], [["writes"]], [["writes", "blog0_0", 1, 2]],
         [{"writes": "blog0_0"}], 5, "ab", {"writes": "blog0_0"}, 0],
    )
    def test_malformed_links_are_400(self, forum_result, links):
        engine = ShardedEngine.from_result(forum_result, n_shards=1)
        with GatewayServer.launch(engine) as server:
            status, body = post(
                server.url,
                "/score",
                {"queries": [GREEN_QUERY | {"object_type": "user"},
                             {"object_type": "user", "links": links}]},
            )
            assert status == 400
            assert body["error"].startswith("query #1: ")
            assert "must be" in body["error"]
            status, _ = post(
                server.url,
                "/score",
                {"queries": [GREEN_QUERY | {"object_type": "user"}]},
            )
            assert status == 200
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
            with excinfo.value as error:
                assert error.code == 400
            status, _ = post(server.url, "/nowhere", {})
            assert status == 404
            status, _ = get(server.url, "/score")
            assert status == 405
        engine.close()

    @pytest.mark.parametrize("k", ["abc", [1], 2.7, True, None, 0, -3])
    def test_malformed_similar_k_is_400(self, forum_result, k):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        with GatewayServer.launch(engine) as server:
            status, body = post(
                server.url, "/similar", {"nodes": ["user0_0"], "k": k}
            )
            assert status == 400
            assert body["error"].startswith("k must be")
            status, body = post(
                server.url, "/similar", {"nodes": ["user0_0"], "k": 2}
            )
            assert status == 200
            assert len(body["results"][0]) == 2
        engine.close()

    @pytest.mark.parametrize(
        "body",
        [
            {"nodes": ["user0_0"], "object_type": ["user"]},
            {"nodes": ["user0_0"], "object_type": {"a": 1}},
            # nesting past the JSON decoder's recursion limit
            pytest.param("[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_malformed_similar_body_is_400(self, forum_result, body):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        with GatewayServer.launch(engine) as server:
            data = body if isinstance(body, str) else json.dumps(body)
            request = urllib.request.Request(
                server.url + "/similar", data=data.encode(), method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            with excinfo.value as error:
                assert error.code == 400
                assert "error" in json.loads(error.read())
        engine.close()

    @pytest.mark.parametrize("declared", ["abc", "-5", "1.5", "", "²"])
    def test_bad_content_length_is_400(self, forum_result, declared):
        engine = ShardedEngine.from_result(forum_result, n_shards=1)
        with GatewayServer.launch(engine) as server:
            raw = raw_exchange(
                server.port,
                (
                    f"POST /score HTTP/1.1\r\n"
                    f"Content-Length: {declared}\r\n\r\n{{}}"
                ).encode("latin-1"),
            )
            status, headers, body = parse_response(raw)
            assert status == 400
            assert headers["connection"] == "close"
            assert "Content-Length" in json.loads(body)["error"]
            assert get(server.url, "/healthz")[0] == 200
        engine.close()

    @pytest.mark.parametrize(
        "declared",
        [
            MAX_BODY_BYTES + 1,
            10**12,
            # past the interpreter's int-parsing digit limit
            pytest.param("9" * 5000, id="5000-digits"),
        ],
    )
    def test_oversized_body_is_413_before_reading(
        self, forum_result, declared
    ):
        engine = ShardedEngine.from_result(forum_result, n_shards=1)
        with GatewayServer.launch(engine) as server:
            # the connection stays open and no body follows: the
            # answer must come without waiting for the declared bytes
            raw = raw_exchange(
                server.port,
                (
                    f"POST /score HTTP/1.1\r\n"
                    f"Content-Length: {declared}\r\n\r\n"
                ).encode("latin-1"),
                finish=False,
            )
            status, headers, body = parse_response(raw)
            assert status == 413
            assert headers["connection"] == "close"
            assert "limit" in json.loads(body)["error"]
            assert get(server.url, "/healthz")[0] == 200
        engine.close()

    def test_drain_completes_inflight_work(self, forum_result):
        # a /score flush is held in the engine while a /similar request
        # queues behind it (its node check runs on the event loop);
        # drain must finish both, then refuse new work
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        query = dict(object_type="user", **GREEN_QUERY)
        want_row = engine.score_many(
            [{**query, "links": [tuple(link) for link in query["links"]]}]
        )[0]
        want_similar = engine.similar("user0_0", k=3)
        gated = GatedEngine(engine)
        gated.gate.clear()
        server = GatewayServer.launch(gated)
        batcher = server.gateway._batcher
        with ThreadPoolExecutor(2) as pool:
            inflight = pool.submit(
                post, server.url, "/score", {"queries": [query]}
            )
            assert gated.entered.wait(10)
            queued = pool.submit(
                post, server.url, "/similar", {"nodes": ["user0_0"], "k": 3}
            )
            wait_for(lambda: batcher.load == 2)
            drainer = threading.Thread(target=server.drain)
            drainer.start()
            time.sleep(0.05)
            assert drainer.is_alive()  # held by the in-flight flush
            gated.gate.set()
            drainer.join(timeout=10)
            assert not drainer.is_alive()
            (score_status, score_body), (similar_status, similar_body) = (
                inflight.result(10),
                queued.result(10),
            )
        assert score_status == similar_status == 200
        np.testing.assert_array_equal(
            np.asarray(score_body["results"][0]), want_row
        )
        assert similar_body["results"] == [
            [[found, score] for found, score in want_similar]
        ]
        assert batcher.load == 0
        # the listener is closed: new work is refused outright
        with pytest.raises(
            (urllib.error.URLError, ConnectionError, OSError)
        ):
            post(server.url, "/score", {"queries": [query]})
        engine.close()

    def test_probes_and_metrics(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=2)
        query = dict(object_type="user", **GREEN_QUERY)
        with GatewayServer.launch(engine) as server:
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
            assert "repro_gateway_flush_triggers_total" not in text
        engine.close()


# ----------------------------------------------------------------------
# live gateway over the process transport: degrade + recover
# ----------------------------------------------------------------------
class TestZeroDensityObservation:
    """A finite numeric value so far out that every fitted component
    gives it zero density is rejected like a non-finite one, instead of
    being served (and stored) as NaN memberships."""

    @pytest.fixture(scope="class")
    def weather_result(self):
        from repro.datagen.weather import (
            WeatherConfig,
            generate_weather_network,
        )
        from repro.experiments.weather_common import WEATHER_ATTRIBUTES

        generated = generate_weather_network(
            WeatherConfig(
                n_temperature=60,
                n_precipitation=30,
                k_neighbors=3,
                n_observations=5,
                seed=0,
            )
        )
        config = GenClusConfig(
            n_clusters=4, outer_iterations=3, seed=0, n_init=2
        )
        return GenClus(config).fit(
            generated.network, attributes=WEATHER_ATTRIBUTES
        )

    @staticmethod
    def sensor(value):
        return {
            "object_type": "temperature_sensor",
            "numeric": {"temperature": [value]},
        }

    def test_rejected_in_process(self, weather_result):
        engine = InferenceEngine.from_result(weather_result)
        version = engine.state.version
        with pytest.raises(ServingError, match="query #1: observation 1e"):
            engine.score_many([self.sensor(2.0), self.sensor(1e308)])
        with pytest.raises(ServingError, match="zero density"):
            engine.extend(
                [
                    NewNode(
                        "huge",
                        "temperature_sensor",
                        numeric={"temperature": [1e308]},
                    )
                ]
            )
        assert engine.state.version == version
        assert not engine.has_node("huge")
        # far out but representable: every component's density is
        # tiny, none is zero, and the memberships stay finite
        (far,) = engine.score_many([self.sensor(1e150)])
        assert np.isfinite(far).all()

    def test_http_score_is_400(self, weather_result):
        engine = ShardedEngine.from_result(weather_result, n_shards=2)
        with GatewayServer.launch(engine) as server:
            status, body = post(
                server.url, "/score", {"queries": [self.sensor(1e308)]}
            )
            assert status == 400
            assert "zero density" in body["error"]
            status, body = post(
                server.url, "/score", {"queries": [self.sensor(2.0)]}
            )
            assert status == 200
            assert np.isfinite(body["results"][0]).all()
        engine.close()


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
            with GatewayServer.launch(engine) as server:
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


# ----------------------------------------------------------------------
# fuzzing the HTTP parser
# ----------------------------------------------------------------------
VALID_SCORE = json.dumps(
    {"queries": [dict(object_type="user", **GREEN_QUERY)]}
).encode()
VALID_SIMILAR = json.dumps({"nodes": ["user0_0"], "k": 3}).encode()
# a JSON value that is neither an object nor null, for a query's
# text/numeric
NON_MAPPING = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)
# a query's links: not an array, or an array holding at least one
# entry that is not a [relation, target(, weight)] array
MALFORMED_LINK = st.one_of(
    st.none(),
    st.integers(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.text(max_size=4), max_size=1),
    st.lists(st.integers(), min_size=4, max_size=5),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
MALFORMED_LINKS = st.one_of(
    st.integers(),
    st.text(min_size=1, max_size=8),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    st.lists(MALFORMED_LINK, min_size=1, max_size=3),
)


@st.composite
def malformed_requests(draw):
    """Raw requests that are each broken somewhere: a truncated
    request line or header block, a body that is not the JSON object
    the endpoint wants (random text, a valid body cut short, a query
    whose ``text``/``numeric`` is not an object, or whose ``links``
    is not an array of link arrays), and a Content-Length that is
    missing, garbage, negative, huge, or longer than the body actually
    sent."""
    method = draw(st.sampled_from(["POST", "GET", "PUT"]))
    path = draw(st.sampled_from(["/score", "/similar", "/nope", "/score?x=1"]))
    valid = VALID_SCORE if path.startswith("/score") else VALID_SIMILAR
    body = draw(
        st.one_of(
            st.text(max_size=40).map(lambda text: text.encode("utf-8")),
            st.binary(max_size=40),
            st.integers(0, len(valid) - 1).map(lambda cut: valid[:cut]),
            st.builds(
                lambda field, value: json.dumps(
                    {"queries": [{"object_type": "user", field: value}]}
                ).encode(),
                st.sampled_from(["text", "numeric"]),
                NON_MAPPING,
            ),
            MALFORMED_LINKS.map(
                lambda links: json.dumps(
                    {"queries": [{"object_type": "user", "links": links}]}
                ).encode()
            ),
        )
    )
    declared = draw(
        st.one_of(
            st.just(str(len(body))),
            st.none(),
            st.text(
                st.characters(min_codepoint=33, max_codepoint=255),
                min_size=1,
                max_size=6,
            ),
            st.integers(-10**6, -1).map(str),
            st.integers(MAX_BODY_BYTES + 1, 10**15).map(str),
            st.integers(1, 64).map(lambda extra: str(len(body) + extra)),
        )
    )
    headers = "Content-Type: application/json\r\n"
    if declared is not None:
        headers += f"Content-Length: {declared}\r\n"
    raw = f"{method} {path} HTTP/1.1\r\n{headers}\r\n".encode(
        "latin-1"
    ) + body
    # optionally cut the request anywhere in its line or headers
    head = len(raw) - len(body)
    cut = draw(st.none() | st.integers(0, head - 1))
    return raw if cut is None else raw[:cut]


class TestHttpFuzz:
    @pytest.fixture(scope="class")
    def server(self, forum_result):
        engine = ShardedEngine.from_result(forum_result, n_shards=1)
        with GatewayServer.launch(engine) as server:
            yield server
        engine.close()

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(raw=malformed_requests())
    def test_malformed_requests_get_4xx_or_clean_close(self, server, raw):
        # bytes past a request's framed end parse as the next request
        # on the keep-alive connection, so one send may draw several
        # replies; a clean close sends nothing at all
        for status, _, body in parse_responses(raw_exchange(server.port, raw)):
            assert 400 <= status < 500, (status, body)
            assert "error" in json.loads(body)
        assert get(server.url, "/healthz")[0] == 200
