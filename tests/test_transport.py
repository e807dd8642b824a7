"""Tests for the multiprocess shard transport (repro.serving.transport
/ worker).

The load-bearing contract extends the cluster's: a process-backed
cluster -- shard engines in separate worker processes, answering over
the length-prefixed socket protocol -- is **bit-identical** to the
in-process cluster and to the singleton engine at every worker count,
across queries, batches, similarity, durable deltas, and promote.  A
SIGKILL'd worker degrades (typed markers in partial mode), and after
``heal()`` respawns it from the bundle plus its replayed durable
deltas, recovery is bit-identical too.

A worker is forked from the test process when no other thread is
alive and exec'd otherwise; :func:`spawn_path` arranges either thread
state, and the contracts are pinned through both paths.
"""

import contextlib
import dataclasses
import inspect
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import GenClus, GenClusConfig, NetworkBuilder, TextAttribute
from repro.datagen.toy import political_forum_network
from repro.exceptions import ServingError
from repro.serving import (
    InferenceEngine,
    NewNode,
    ShardedEngine,
    SupervisionPolicy,
)
from repro.serving.foldin import FoldInOutcome, compile_queries, compile_query
from repro.serving.supervision import ShardFailure
from repro.serving.transport import (
    SHARD_OPS,
    ProcessShardHandle,
    ProcessTransport,
    decode_link,
    decode_node,
    decode_payload,
    decode_spec,
    encode_frame,
    encode_link,
    encode_node,
    encode_spec,
    recv_message,
    send_message,
)

WORKER_COUNTS = (1, 2, 3)

GREEN_QUERY = dict(
    links=[("writes", "blog0_1", 1.0), ("likes", "book0_2", 1.0)],
    text={"text": ["environment", "climate", "green"]},
)
PURPLE_QUERY = dict(
    links=[("writes", "blog1_1", 1.0), ("likes", "book1_2", 1.0)],
    text={"text": ["liberty", "market", "freedom"]},
)

# fast-fail supervision: no retries, the first failure opens the
# breaker, so a SIGKILL'd worker degrades on the very next scatter
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
    path = tmp_path_factory.mktemp("transport") / "forum.npz"
    forum_result.save(path)
    return path


def process_cluster(artifact_path, n_shards, **kwargs):
    return ShardedEngine.load(
        artifact_path,
        n_shards=n_shards,
        transport="process",
        **kwargs,
    )


@contextlib.contextmanager
def spawn_path(spawn):
    """Hold the thread state that makes the transport ``fork`` (this
    is the only thread) or ``exec`` (a helper thread is alive)."""
    if spawn == "fork":
        assert threading.active_count() == 1, threading.enumerate()
        yield
        return
    release = threading.Event()
    helper = threading.Thread(target=release.wait, name="spawn-helper")
    helper.start()
    try:
        yield
    finally:
        release.set()
        helper.join(timeout=10)
        assert not helper.is_alive()


def spawn_cluster(artifact_path, n_shards, spawn, **kwargs):
    """A process cluster whose workers all started through ``spawn``."""
    with spawn_path(spawn):
        engine = process_cluster(artifact_path, n_shards, **kwargs)
    assert spawns_of(engine) == [spawn] * n_shards
    return engine


def spawns_of(engine):
    workers = engine.info()["cluster"]["transport"]["workers"]
    return [workers[str(shard)]["spawn"] for shard in range(len(workers))]


# ----------------------------------------------------------------------
# wire codecs
# ----------------------------------------------------------------------
class TestCodecs:
    @pytest.mark.parametrize(
        "node",
        [
            "user-1",
            7,
            3.5,
            True,
            None,
            ("__sentinel__", 4),
            ("outer", ("inner", 2), "tail"),
            np.int64(5),
            ("row", np.uint32(7)),
        ],
    )
    def test_node_roundtrip(self, node):
        assert decode_node(encode_node(node)) == node

    def test_tuple_nodes_survive_json_shape(self):
        # the encoded form must be plain JSON types all the way down
        wire = encode_node(("__q__", 3))
        assert wire == {"__tuple__": ["__q__", 3]}

    def test_unencodable_node_is_loud(self):
        with pytest.raises(ServingError, match="node id"):
            encode_node(object())

    def test_spec_roundtrip_preserves_text_shape(self):
        # counts-dict vs token-list is part of the canonical cache
        # key, so the codec must not collapse one into the other
        counts = NewNode(
            "n1",
            "user",
            links=[("writes", "blog0_0", 2.0)],
            text={"text": {"tax": 2.0, "vote": 1.0}},
        )
        tokens = NewNode(
            ("t", 1),
            "user",
            text={"text": ["tax", "tax", "vote"]},
        )
        for spec in (counts, tokens):
            got = decode_spec(encode_spec(spec))
            assert got == spec

    def test_link_roundtrip(self):
        links = [
            ("writes", "blog0_0", 1.5),
            ("likes", ("tuple", "id"), 2.0),
        ]
        for link in links:
            assert decode_link(encode_link(link)) == link

    def test_frame_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            header = {"op": "test", "payload": [1, 2, 3]}
            arrays = [
                np.arange(12, dtype=np.float64).reshape(3, 4),
                np.array([], dtype=np.int64),
            ]
            sender = threading.Thread(
                target=send_message, args=(left, header, arrays)
            )
            sender.start()
            got_header, got_arrays = recv_message(right)
            sender.join()
            arrays_out = got_arrays
            assert {
                k: v for k, v in got_header.items()
            } == header
            assert len(arrays_out) == 2
            np.testing.assert_array_equal(arrays_out[0], arrays[0])
            assert arrays_out[0].dtype == np.float64
            assert arrays_out[1].size == 0
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# the SHARD_OPS codecs, property-tested through real frames
# ----------------------------------------------------------------------
NAMES = st.sampled_from(["user", "blog", "likes", "x y", "é", ""])
NUMPY_INTS = st.builds(
    lambda kind, value: kind(value),
    st.sampled_from([np.int8, np.int32, np.int64, np.uint16, np.uint64]),
    st.integers(0, 100),
)
NODES = st.recursive(
    st.one_of(
        st.text(max_size=6),
        st.integers(-(2**63), 2**63),
        NUMPY_INTS,
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
WEIGHTS = st.floats(0.0, 1e12, allow_nan=False)
BAGS = st.one_of(
    st.lists(st.text(max_size=4), max_size=4),
    st.dictionaries(st.text(max_size=4), WEIGHTS, max_size=4),
)
TEXT = st.dictionaries(NAMES, BAGS, max_size=2)
NUMERIC = st.dictionaries(NAMES, st.lists(FINITE, max_size=3), max_size=2)
SPECS = st.builds(
    NewNode,
    node=NODES,
    object_type=NAMES,
    links=st.lists(st.tuples(NAMES, NODES, WEIGHTS), max_size=3),
    text=TEXT,
    numeric=NUMERIC,
)
LINKS = st.one_of(
    st.tuples(NODES, NAMES, NODES),
    st.tuples(NODES, NAMES, NODES, WEIGHTS),
)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FINITE, st.text()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)
QUERY = st.fixed_dictionaries(
    {"object_type": NAMES},
    optional={
        "links": st.lists(
            st.one_of(
                st.tuples(NAMES, NODES), st.tuples(NAMES, NODES, WEIGHTS)
            ),
            max_size=4,
        ),
        "text": TEXT,
        "numeric": NUMERIC,
    },
)
BATCHES = st.one_of(
    st.lists(QUERY, max_size=5).map(compile_queries),
    QUERY.map(
        lambda query: compile_query(
            query["object_type"],
            query.get("links", ()),
            query.get("text"),
            query.get("numeric"),
        )
    ),
)


def floats_array(shape):
    return arrays(np.float64, shape, elements=st.floats(width=64))


VECTOR = st.integers(0, 4).flatmap(floats_array)
MATRIX = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    floats_array
)
OUTCOMES = st.integers(0, 4).flatmap(
    lambda m: st.builds(
        FoldInOutcome,
        nodes=st.lists(NODES, min_size=m, max_size=m).map(tuple),
        theta=floats_array((m, 3)),
        iterations=st.integers(0, 500),
        converged=st.booleans(),
        oov_terms=st.integers(0, 10**6),
    )
)
PARTIALS = st.lists(
    st.integers(0, 4).flatmap(
        lambda k: st.tuples(
            floats_array(k), arrays(np.int64, k)
        )
    ),
    max_size=3,
)
NODE_TUPLES = st.lists(NODES, max_size=4).map(tuple)
NODE_SETS = st.sets(NODES, max_size=4)


def call(**parameters):
    return st.fixed_dictionaries(parameters).map(
        lambda values: SimpleNamespace(**values)
    )


# (arguments, reply) strategies for every op of the shard surface
OP_VALUES = {
    "query_batch": (call(batch=BATCHES), MATRIX),
    "score_batch": (
        call(batch=BATCHES),
        st.integers(0, 4).flatmap(
            lambda k: st.lists(floats_array(k), max_size=4)
        ),
    ),
    "extend": (call(nodes=st.lists(SPECS, max_size=3)), OUTCOMES),
    "add_links": (call(links=st.lists(LINKS, max_size=4)), OUTCOMES),
    "evict_nodes": (call(nodes=st.lists(NODES, max_size=4)), NODE_TUPLES),
    "membership_of": (call(node=NODES), VECTOR),
    "similar_rows_partial": (
        call(
            queries=MATRIX,
            k=st.integers(1, 50),
            metric=st.sampled_from(["cosine", "dot", "euclidean"]),
            candidate_types=st.none()
            | st.lists(st.none() | NAMES, max_size=3),
            exclude_nodes=st.none()
            | st.lists(st.none() | NODE_SETS, max_size=3),
            base_range=st.none()
            | st.tuples(st.integers(0, 99), st.integers(0, 99)),
        ),
        PARTIALS,
    ),
    "served_vectors": (
        call(nodes=st.lists(NODES, max_size=4)),
        st.tuples(MATRIX, st.lists(NAMES, max_size=4)),
    ),
    "suggest_context": (
        call(node=NODES, relation=NAMES),
        st.tuples(VECTOR, NAMES, st.none() | NODE_SETS.map(frozenset)),
    ),
    "extension_nodes": (call(), NODE_TUPLES),
    "extension_export": (
        call(),
        st.tuples(
            NODE_TUPLES, st.lists(SPECS, max_size=2).map(tuple), MATRIX
        ),
    ),
    "extension_dependants": (call(node=NODES), NODE_SETS.map(frozenset)),
    "info": (call(), st.dictionaries(st.text(max_size=6), JSON)),
    "metrics_snapshot": (call(), st.dictionaries(st.text(max_size=6), JSON)),
}


def through_wire(codec, value):
    """Encode ``value`` into a real frame, parse it, decode it."""
    frame_arrays = []
    wire = codec.encode(value, frame_arrays)
    header, got_arrays = decode_payload(
        encode_frame({"value": wire}, frame_arrays)[8:]
    )
    return codec.decode(header["value"], got_arrays)


def assert_same(got, want):
    """Deep equality; arrays bit for bit, numpy integers as ``int``."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    elif dataclasses.is_dataclass(want) or isinstance(want, SimpleNamespace):
        assert type(got) is type(want)
        names = (
            [field.name for field in dataclasses.fields(want)]
            if dataclasses.is_dataclass(want)
            else sorted(vars(want))
        )
        if isinstance(want, SimpleNamespace):
            assert sorted(vars(got)) == names
        for name in names:
            assert_same(getattr(got, name), getattr(want, name))
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_same(got_item, want_item)
    elif isinstance(want, dict):
        assert type(got) is dict and list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, (set, frozenset)):
        assert type(got) is type(want) and got == want
    else:
        assert type(got) in (str, int, float, bool, type(None))
        assert got == want


class TestShardOpCodecs:
    def test_every_op_is_covered(self):
        assert set(OP_VALUES) == set(SHARD_OPS)

    @pytest.mark.parametrize("name", sorted(SHARD_OPS))
    def test_handle_method_matches_engine(self, name):
        want = inspect.signature(getattr(InferenceEngine, name))
        got = inspect.signature(getattr(ProcessShardHandle, name))
        assert list(got.parameters.values()) == list(
            want.parameters.values()
        )

    @pytest.mark.parametrize("name", sorted(SHARD_OPS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_arguments_round_trip(self, name, data):
        arguments = data.draw(OP_VALUES[name][0])
        parameters = inspect.signature(
            getattr(InferenceEngine, name)
        ).parameters
        assert sorted(vars(arguments)) == sorted(set(parameters) - {"self"})
        assert_same(through_wire(SHARD_OPS[name].args, arguments), arguments)

    @pytest.mark.parametrize("name", sorted(SHARD_OPS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reply_round_trips(self, name, data):
        reply = data.draw(OP_VALUES[name][1])
        assert_same(through_wire(SHARD_OPS[name].reply, reply), reply)


# ----------------------------------------------------------------------
# process-backed cluster == in-process cluster == singleton
# ----------------------------------------------------------------------
class TestProcessEquivalence:
    @pytest.mark.parametrize("n_shards", WORKER_COUNTS)
    def test_traffic_bit_identical(
        self, forum_result, artifact_path, n_shards, spawn="fork"
    ):
        reference = InferenceEngine.from_result(forum_result)
        inproc = ShardedEngine.from_result(forum_result, n_shards=n_shards)
        with spawn_cluster(artifact_path, n_shards, spawn) as engine:
            assert (
                engine.info()["cluster"]["transport"]["backend"]
                == "process"
            )
            for query in (GREEN_QUERY, PURPLE_QUERY):
                want = reference.query("user", **query)
                np.testing.assert_array_equal(
                    want, inproc.query("user", **query)
                )
                np.testing.assert_array_equal(
                    want, engine.query("user", **query)
                )
            # batch with a duplicate: dedup routes once, fans out
            batch = [
                dict(object_type="user", **GREEN_QUERY),
                dict(object_type="user", **PURPLE_QUERY),
                dict(object_type="user", **GREEN_QUERY),
            ]
            want_rows = reference.score_many(batch)
            got_rows = engine.score_many(batch)
            for want, got in zip(want_rows, got_rows):
                np.testing.assert_array_equal(want, got)
            # similarity and link suggestion ride the same sockets
            nodes = ["user0_0", "user1_0"]
            assert engine.similar_many(
                nodes, k=5
            ) == reference.similar_many(nodes, k=5)
            assert engine.suggest_links(
                "user0_0", "writes", k=3
            ) == reference.suggest_links("user0_0", "writes", k=3)
        inproc.close()

    @pytest.mark.parametrize("n_shards", WORKER_COUNTS)
    def test_traffic_bit_identical_exec(
        self, forum_result, artifact_path, n_shards
    ):
        self.test_traffic_bit_identical(
            forum_result, artifact_path, n_shards, spawn="exec"
        )

    def test_numpy_int_ids_bit_identical(self, tmp_path):
        """numpy integer ids are node ids like any int: the process
        transport answers what the in-process router answers."""
        source = political_forum_network()
        renumber = {node: i for i, node in enumerate(source.node_ids)}
        builder = NetworkBuilder()
        for object_type in source.schema.object_types:
            builder.object_type(object_type.name)
        for relation in source.schema.relations:
            builder.relation(relation.name, relation.source, relation.target)
        for node in source.node_ids:
            builder.node(renumber[node], source.type_of(node))
        for edge in source.edges():
            builder.link(
                renumber[edge.source],
                renumber[edge.target],
                edge.relation,
                edge.weight,
            )
        text, old_text = TextAttribute("text"), source.attribute("text")
        for node in old_text.nodes_with_observations():
            text.add_counts(renumber[node], old_text.bag_of(node))
        builder.attribute(text)
        result = GenClus(
            GenClusConfig(n_clusters=2, outer_iterations=3, seed=0, n_init=2)
        ).fit(builder.build(), attributes=["text"])
        path = result.save(tmp_path / "int-ids")

        ids = np.arange(40)
        blog, book = ids[renumber["blog0_1"]], ids[renumber["book1_2"]]
        batch = [
            dict(object_type="user", links=[("writes", blog, 1.0)]),
            dict(object_type="user", links=[("likes", book, 2.0)]),
        ]
        with ShardedEngine.from_result(
            result, n_shards=2
        ) as inproc, process_cluster(path, 2) as engine:
            np.testing.assert_array_equal(
                engine.membership_of(ids[5]), inproc.membership_of(ids[5])
            )
            for got, want in zip(
                engine.score_many(batch), inproc.score_many(batch)
            ):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_shards", WORKER_COUNTS)
    def test_durable_deltas_bit_identical(
        self, forum_result, artifact_path, n_shards
    ):
        reference = InferenceEngine.from_result(forum_result)
        with process_cluster(artifact_path, n_shards) as engine:
            specs = [
                NewNode(
                    "newbie",
                    "user",
                    links=[("friend", "user0_0", 1.0)],
                    text={"text": ["green", "climate"]},
                )
            ]
            want = reference.extend(specs)
            got = engine.extend(specs)
            np.testing.assert_array_equal(want.theta, got.theta)
            assert want.nodes == got.nodes
            assert want.converged == got.converged

            links = [("newbie", "friend", "user1_0", 1.0)]
            want_links = reference.add_links(links)
            got_links = engine.add_links(links)
            np.testing.assert_array_equal(
                want_links.theta, got_links.theta
            )
            np.testing.assert_array_equal(
                reference.membership_of("newbie"),
                engine.membership_of("newbie"),
            )
            assert engine.evict(0) == reference.evict(0)

    @pytest.mark.parametrize("n_shards", WORKER_COUNTS)
    def test_promote_bit_identical_including_g1(
        self, forum_result, artifact_path, n_shards, spawn="fork"
    ):
        config = GenClusConfig(n_clusters=2, outer_iterations=4, seed=0)
        reference_engine = InferenceEngine.from_result(forum_result)
        reference_engine.extend(
            [
                NewNode(
                    "n0",
                    "user",
                    links=[("writes", "blog0_0", 1.0)],
                )
            ]
        )
        reference = reference_engine.promote(config)

        with spawn_cluster(artifact_path, n_shards, spawn) as engine:
            engine.extend(
                [
                    NewNode(
                        "n0",
                        "user",
                        links=[("writes", "blog0_0", 1.0)],
                    )
                ]
            )
            promoted = engine.promote(config)
            np.testing.assert_array_equal(
                reference.theta, promoted.theta
            )
            np.testing.assert_array_equal(
                reference.gamma, promoted.gamma
            )
            np.testing.assert_array_equal(
                reference.history.g1_series(),
                promoted.history.g1_series(),
            )
            # the workers hot-swapped onto the promoted bundle:
            # post-promote traffic matches the promoted singleton
            np.testing.assert_array_equal(
                reference_engine.query("user", **PURPLE_QUERY),
                engine.query("user", **PURPLE_QUERY),
            )
            assert engine.num_extension_nodes == 0

    @pytest.mark.parametrize("n_shards", WORKER_COUNTS)
    def test_promote_bit_identical_including_g1_exec(
        self, forum_result, artifact_path, n_shards
    ):
        self.test_promote_bit_identical_including_g1(
            forum_result, artifact_path, n_shards, spawn="exec"
        )


# ----------------------------------------------------------------------
# process death: degrade, respawn, replay
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_kill_degrade_heal_recover(
        self, forum_result, artifact_path, spawn="fork"
    ):
        reference = InferenceEngine.from_result(forum_result)
        batch = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
        ]
        want_rows = reference.score_many(batch)
        with spawn_cluster(
            artifact_path, 2, spawn, supervision=FAST_FAIL
        ) as engine:
            # a durable delta before the crash: replay must restore it
            engine.extend(
                [
                    NewNode(
                        "newbie",
                        "user",
                        links=[("friend", "user0_0", 1.0)],
                    )
                ]
            )
            membership_before = engine.membership_of("newbie")
            owner = engine.owner_of("newbie")

            engine.shards[owner].kill()

            degraded = engine.score_many(batch, partial=True)
            markers = [
                row
                for row in degraded
                if isinstance(row, ShardFailure)
            ]
            assert markers, "no query landed on the killed shard"
            for marker in markers:
                assert marker.shard == owner
            for row, want in zip(degraded, want_rows):
                if isinstance(row, ShardFailure):
                    continue
                np.testing.assert_array_equal(row, want)

            # heal(): the transport respawns the worker from the
            # bundle and the router replays the durable-delta log
            assert engine.heal() == (owner,)
            recovered = engine.score_many(batch)
            for row, want in zip(recovered, want_rows):
                np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(
                membership_before, engine.membership_of("newbie")
            )
            # the respawned process is a different pid, still alive
            workers = engine.info()["cluster"]["transport"]["workers"]
            assert all(
                entry["alive"] for entry in workers.values()
            )

    def test_kill_degrade_heal_recover_exec(
        self, forum_result, artifact_path
    ):
        self.test_kill_degrade_heal_recover(
            forum_result, artifact_path, spawn="exec"
        )

    def test_scripted_worker_call_fault_site(
        self, forum_result, artifact_path
    ):
        from repro.faults import FaultPlan

        plan = FaultPlan().fail(
            "worker.call", op="query_batch", message="drill"
        )
        with process_cluster(
            artifact_path, 2, supervision=FAST_FAIL, faults=plan
        ) as engine:
            with pytest.raises(ServingError):
                engine.query("user", **GREEN_QUERY)
            engine.heal()
            np.testing.assert_array_equal(
                InferenceEngine.from_result(forum_result).query(
                    "user", **GREEN_QUERY
                ),
                engine.query("user", **GREEN_QUERY),
            )


# ----------------------------------------------------------------------
# transport plumbing
# ----------------------------------------------------------------------
class TestTransportPlumbing:
    def test_resolve_rejects_bare_process_string(self, forum_result):
        with pytest.raises(ServingError, match="process"):
            ShardedEngine.from_result(
                forum_result, n_shards=2, transport="process"
            )

    def test_single_threaded_start_forks(self, artifact_path):
        assert threading.active_count() == 1, threading.enumerate()
        with process_cluster(artifact_path, 2) as engine:
            assert spawns_of(engine) == ["fork", "fork"]
            if os.path.isdir("/proc/self"):
                # a fork keeps its parent's command line
                for handle in engine.shards:
                    assert _cmdline(handle.pid) == _cmdline(os.getpid())

    def test_start_with_a_live_thread_execs(self, artifact_path):
        with spawn_path("exec"):
            engine = process_cluster(artifact_path, 1)
        with engine:
            assert spawns_of(engine) == ["exec"]
            if os.path.isdir("/proc/self"):
                for handle in engine.shards:
                    assert "repro.serving.worker" in _cmdline(handle.pid)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc"
    )
    def test_forked_worker_holds_only_its_own_socket(self, artifact_path):
        """No listener, no parent end of a sibling's connection: a
        worker sees EOF the moment its router's end closes."""
        with spawn_cluster(artifact_path, 3, "fork") as engine:
            for handle in engine.shards:
                fd_dir = Path(f"/proc/{handle.pid}/fd")
                sockets = [
                    fd.name
                    for fd in fd_dir.iterdir()
                    if int(fd.name) > 2
                    and os.readlink(fd).startswith("socket:")
                ]
                assert len(sockets) == 1, (handle.shard, sockets)

    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
        reason="needs /proc/<pid>/task/<tid>/children",
    )
    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"]
    )
    def test_no_worker_outlives_serve(self, artifact_path, signum):
        """``serve``'s forked fleet dies with it, drained or killed."""
        src = Path(__file__).resolve().parents[1] / "src"
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "serve",
             str(artifact_path), "--shards", "3", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(src)},
            text=True,
        )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(serve.stdout, selectors.EVENT_READ)
                assert selector.select(60), "serve did not print READY"
            assert serve.stdout.readline().startswith("READY ")
            workers = _children(serve.pid)
            assert len(workers) == 3, workers
            # serve builds its fleet single-threaded: forks, which
            # carry serve's own command line
            for pid in workers:
                assert _cmdline(pid) == _cmdline(serve.pid)
            serve.send_signal(signum)
            deadline = time.monotonic() + 10.0
            while not all(map(_gone, workers)):
                assert time.monotonic() < deadline, [
                    pid for pid in workers if not _gone(pid)
                ]
                time.sleep(0.05)
        finally:
            serve.kill()
            serve.wait()
            serve.stdout.close()

    def test_shutdown_reaps_workers(self, artifact_path):
        engine = process_cluster(artifact_path, 2)
        processes = [
            handle._process for handle in engine.shards
        ]
        assert all(proc.poll() is None for proc in processes)
        engine.close()
        for proc in processes:
            proc.wait(timeout=10)
        assert all(proc.poll() is not None for proc in processes)

    def test_transport_metrics_aggregate_across_processes(
        self, artifact_path
    ):
        from repro.obs import series_value
        from repro.obs.export import render_prometheus

        with process_cluster(artifact_path, 2) as engine:
            engine.score_many(
                [
                    dict(object_type="user", **GREEN_QUERY),
                    dict(object_type="user", **PURPLE_QUERY),
                ]
            )
            snapshot = engine.metrics_snapshot()
            # worker-side counters crossed the process boundary
            assert (
                series_value(snapshot, "repro_cache_misses_total")
                >= 1
            )
            text = render_prometheus(snapshot)
            assert "repro_queries_total" in text


def _cmdline(pid):
    return Path(f"/proc/{pid}/cmdline").read_bytes().decode()


def _children(pid):
    return [
        int(child)
        for task in Path(f"/proc/{pid}/task").iterdir()
        for child in (task / "children").read_text().split()
    ]


def _gone(pid):
    """Exited: no process, or a zombie waiting for its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")
