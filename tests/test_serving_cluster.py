"""Tests for the sharded serving cluster (repro.serving.cluster /
router / driver) and its CLI.

The load-bearing contract: sharded serving is **bit-identical** to the
single-engine reference at every shard count -- memberships, hard
labels, scatter-gathered batches, eviction verdicts, and the ``g1`` /
theta / gamma of a (driver-triggered) cluster promote.  The promote
identity is also pinned with the ``small_blocks`` fixture, so refits
and fold-ins on both sides run many blocks.
"""

import json
import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GenClus, GenClusConfig
from repro.core.state import ModelState
from repro.datagen.toy import political_forum_network
from repro.exceptions import ServingError, StateError
from repro.obs import TELEMETRY_VERSION, Observability, series_value
from repro.serving import (
    InferenceEngine,
    NewNode,
    RetrainDriver,
    RetrainPolicy,
    ShardPlan,
    ShardedEngine,
)
from repro.serving.__main__ import main

SHARD_COUNTS = (1, 2, 3)

GREEN_QUERY = dict(
    links=[("writes", "blog0_1", 1.0), ("likes", "book0_2", 1.0)],
    text={"text": ["environment", "climate", "green"]},
)
PURPLE_QUERY = dict(
    links=[("writes", "blog1_1", 1.0), ("likes", "book1_2", 1.0)],
    text={"text": ["liberty", "market", "freedom"]},
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
    path = tmp_path_factory.mktemp("cluster") / "forum.npz"
    forum_result.save(path)
    return path


def singleton(forum_result, **kwargs):
    return InferenceEngine.from_result(forum_result, **kwargs)


def cluster(forum_result, n_shards, **kwargs):
    return ShardedEngine.from_result(
        forum_result, n_shards=n_shards, **kwargs
    )


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_balanced_contiguous_cover(self, forum_result):
        state = ModelState.from_result(forum_result)
        plan = ShardPlan.from_state(state, 3)
        assert plan.n_shards == 3
        assert plan.num_rows == 32
        assert [plan.rows_of(s) for s in range(3)] == [
            (0, 10), (10, 21), (21, 32)
        ]

    def test_plan_is_deterministic(self, forum_result):
        state = ModelState.from_result(forum_result)
        assert ShardPlan.from_state(state, 3) == ShardPlan.from_state(
            state, 3
        )

    @given(
        num_rows=st.integers(1, 1000), n_shards=st.integers(1, 64)
    )
    def test_balanced_row_ranges_property(self, num_rows, n_shards):
        state = SimpleNamespace(num_nodes=num_rows)  # all a plan reads
        if n_shards > num_rows:
            with pytest.raises(ServingError, match="cannot split"):
                ShardPlan.from_state(state, n_shards)
            return
        plan = ShardPlan.from_state(state, n_shards)
        bounds = [plan.rows_of(s) for s in range(n_shards)]
        # the ranges tile [0, num_rows) in shard order
        assert bounds[0][0] == 0
        assert bounds[-1][1] == num_rows
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        # balanced: sizes differ by at most one row, none is empty
        sizes = [stop - start for start, stop in bounds]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        # shard_of_row inverts rows_of on every row
        for shard, (start, stop) in enumerate(bounds):
            for row in range(start, stop):
                assert plan.shard_of_row(row) == shard

    def test_shard_of_row_matches_bounds(self, forum_result):
        state = ModelState.from_result(forum_result)
        plan = ShardPlan.from_state(state, 3)
        for row in range(plan.num_rows):
            shard = plan.shard_of_row(row)
            start, stop = plan.rows_of(shard)
            assert start <= row < stop
        with pytest.raises(ServingError, match="outside"):
            plan.shard_of_row(32)

    def test_too_many_shards_is_actionable(self, forum_result):
        state = ModelState.from_result(forum_result)
        with pytest.raises(
            ServingError, match="^cannot split 32 rows across 40 shards$"
        ):
            ShardPlan.from_state(state, 40)
        with pytest.raises(ServingError, match="n_shards"):
            ShardPlan.from_state(state, 0)
        assert len(ShardPlan.from_state(state, 32)) == 32

    def test_describe_reports_link_load(self, forum_result):
        state = ModelState.from_result(forum_result)
        plan = ShardPlan.from_state(state, 2)
        summary = plan.describe(state)
        assert summary["n_shards"] == 2
        totals = [entry["total_links"] for entry in summary["shards"]]
        assert sum(totals) == state.network.num_edges()
        assert all(
            set(entry["links"]) == set(state.relation_names)
            for entry in summary["shards"]
        )


# ----------------------------------------------------------------------
# ModelState.partition
# ----------------------------------------------------------------------
class TestPartition:
    def test_shards_share_frozen_base_theta(self, forum_result):
        state = ModelState.from_result(forum_result)
        plan = ShardPlan.from_state(state, 3)
        shards = state.partition(plan)
        assert len(shards) == 3
        for shard in shards:
            assert shard.num_base_nodes == state.num_base_nodes
            assert np.shares_memory(shard.theta, shards[0].theta)
            assert not shard.refit_capable

    def test_extension_growth_stays_private(self, forum_result):
        state = ModelState.from_result(forum_result)
        plan = ShardPlan.from_state(state, 2)
        first, second = state.partition(plan)
        spec = NewNode(
            "n", "user", links=[("writes", "blog0_0", 1.0)]
        )
        first.append_extensions((spec,), np.array([[0.9, 0.1]]))
        assert first.num_extension_nodes == 1
        assert second.num_extension_nodes == 0
        assert state.num_extension_nodes == 0
        # the grown shard copied onto a private buffer; the shared
        # frozen base is untouched
        np.testing.assert_array_equal(
            second.theta, state.theta
        )

    def test_partition_requires_pristine_state(self, forum_result):
        state = ModelState.from_result(forum_result)
        plan = ShardPlan.from_state(state, 2)
        spec = NewNode("n", "user")
        state.append_extensions((spec,), np.array([[0.5, 0.5]]))
        with pytest.raises(StateError, match="pristine"):
            state.partition(plan)

    def test_partition_rejects_mismatched_plan(self, forum_result):
        state = ModelState.from_result(forum_result)
        stale = ShardPlan(2, 16)
        with pytest.raises(StateError, match="rows"):
            state.partition(stale)


# ----------------------------------------------------------------------
# cluster equivalence: the tentpole contract
# ----------------------------------------------------------------------
def drive_traffic(engine):
    """One serving life: queries, durable deltas (with in-batch and
    cross-shard-source links), batched scoring with duplicates, reads,
    and eviction -- returning every observable along the way."""
    observed = {}
    observed["cold"] = engine.query("user", **GREEN_QUERY)
    # two anchored extends: x2 links to x1 in-batch, x3 anchors to x1
    # later, so all x-nodes colocate on whichever shard took the batch
    engine.extend(
        [
            NewNode("x1", "user", links=[("writes", "blog0_0", 1.0)]),
            NewNode("x2", "user", links=[("friend", "x1", 1.0)]),
        ]
    )
    engine.extend(
        [NewNode("x3", "user", links=[("friend", "x1", 1.0)])]
    )
    engine.extend(
        [NewNode("y1", "user", links=[("writes", "blog1_0", 1.0)])]
    )
    # a cross-shard delta: sources x1 and y1 usually live on different
    # shards; each side re-folds only its own touched component
    outcome = engine.add_links(
        [
            ("x1", "likes", "book0_0", 2.0),
            ("y1", "likes", "book1_0", 1.0),
        ]
    )
    observed["delta_nodes"] = set(outcome.nodes)
    observed["batch"] = engine.score_many(
        [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
            dict(object_type="user", links=[("friend", "x2", 1.0)]),
            dict(object_type="user", **GREEN_QUERY),  # duplicate
            dict(object_type="user"),  # empty query: uniform
        ]
    )
    observed["labels"] = engine.assign_many(
        [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
        ]
    )
    observed["memberships"] = {
        node: engine.membership_of(node)
        for node in ("x1", "x2", "x3", "y1", "user0_0", "blog1_1")
    }
    observed["hard"] = {
        node: engine.hard_label_of(node) for node in ("x1", "y1")
    }
    return observed


def assert_observed_equal(reference, observed, context):
    for key, expected in reference.items():
        got = observed[key]
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(
                expected, got, err_msg=f"{context}: {key}"
            )
        elif isinstance(expected, list):
            assert len(expected) == len(got), (context, key)
            for position, (a, b) in enumerate(zip(expected, got)):
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(
                        a, b, err_msg=f"{context}: {key}[{position}]"
                    )
                else:
                    assert a == b, (context, key, position)
        elif isinstance(expected, dict):
            assert set(expected) == set(got), (context, key)
            for name, value in expected.items():
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(
                        value, got[name],
                        err_msg=f"{context}: {key}[{name}]",
                    )
                else:
                    assert value == got[name], (context, key, name)
        else:
            assert expected == got, (context, key)


class TestClusterEquivalence:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_traffic_bit_identical_to_singleton(
        self, forum_result, n_shards
    ):
        reference = drive_traffic(singleton(forum_result))
        observed = drive_traffic(cluster(forum_result, n_shards))
        assert_observed_equal(
            reference, observed, f"shards={n_shards}"
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_promote_bit_identical_including_g1(
        self, small_blocks, n_shards
    ):
        forum_result = small_blocks(outer_iterations=5, seed=0, n_init=3)
        config = GenClusConfig(n_clusters=2, outer_iterations=4, seed=0)
        reference_engine = singleton(forum_result)
        drive_traffic(reference_engine)
        reference = reference_engine.promote(config)

        engine = cluster(forum_result, n_shards)
        drive_traffic(engine)
        promoted = engine.promote(config)

        np.testing.assert_array_equal(reference.theta, promoted.theta)
        np.testing.assert_array_equal(reference.gamma, promoted.gamma)
        np.testing.assert_array_equal(
            reference.history.g1_series(),
            promoted.history.g1_series(),
        )
        # the cluster rebased: bigger base, empty extension space, and
        # post-promote queries still match the singleton bit-for-bit
        assert engine.num_base_nodes == reference_engine.num_base_nodes
        assert engine.num_extension_nodes == 0
        np.testing.assert_array_equal(
            reference_engine.query("user", **PURPLE_QUERY),
            engine.query("user", **PURPLE_QUERY),
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_eviction_verdicts_match_singleton(
        self, forum_result, n_shards
    ):
        def churn(engine):
            for i in range(6):
                target = "blog0_0" if i % 2 == 0 else "blog1_0"
                engine.extend(
                    [
                        NewNode(
                            f"n{i}",
                            "user",
                            links=[("writes", target, 1.0)],
                        )
                    ]
                )
            engine.membership_of("n1")  # refresh n1's LRU age
            engine.query(
                "user", links=[("friend", "n2", 1.0)]
            )  # and n2's
            evicted = engine.evict(3)
            survivors = {
                node: engine.membership_of(node)
                for node in ("n1", "n2", "n5")
            }
            return evicted, survivors

        reference_evicted, reference_rows = churn(
            singleton(forum_result)
        )
        evicted, rows = churn(cluster(forum_result, n_shards))
        assert evicted == reference_evicted
        for node, expected in reference_rows.items():
            np.testing.assert_array_equal(expected, rows[node])

    def test_scatter_with_equal_nested_pool_widths(
        self, forum_result, request
    ):
        """A concurrent scatter whose shard sub-batches each span
        several fold-in blocks answers exactly like the singleton (and
        blocking never changes transient scores)."""
        queries = [
            dict(object_type="user", links=[("writes", f"blog{i % 2}_{i % 4}", 1.0)])
            for i in range(16)
        ]
        reference = singleton(forum_result, cache_size=0).score_many(
            queries
        )
        # from here on 8-query sub-batches span 2 fold-in blocks
        request.getfixturevalue("small_blocks")
        engine = cluster(forum_result, 2, cache_size=0)
        single_blocked = singleton(forum_result, cache_size=0).score_many(
            queries
        )
        for a, b in zip(engine.score_many(queries), single_blocked):
            np.testing.assert_array_equal(a, b)
        # and blocking never changes transient scores anyway
        for a, b in zip(single_blocked, reference):
            np.testing.assert_array_equal(a, b)

    def test_loading_artifact_matches_in_memory(
        self, forum_result, artifact_path
    ):
        engine = ShardedEngine.load(artifact_path, n_shards=2)
        np.testing.assert_array_equal(
            singleton(forum_result).query("user", **GREEN_QUERY),
            engine.query("user", **GREEN_QUERY),
        )
        # artifact-backed clusters hydrate lazily and stay promotable
        engine.extend(
            [NewNode("z", "user", links=[("writes", "blog0_0", 1.0)])]
        )
        config = GenClusConfig(n_clusters=2, outer_iterations=2, seed=0)
        promoted = engine.promote(config)
        assert promoted.theta.shape[0] == 33


# ----------------------------------------------------------------------
# per-row convergence: fold-in is row-decomposable
# ----------------------------------------------------------------------
class TestRowDecomposability:
    def test_score_many_bit_identical_to_single_queries(
        self, forum_result
    ):
        engine = singleton(forum_result, cache_size=0)
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
            dict(object_type="user", links=[("friend", "user0_0", 1.0)]),
        ]
        batch = engine.score_many(queries)
        for query, membership in zip(queries, batch):
            solo = engine.query(
                query["object_type"],
                links=query.get("links", ()),
                text=query.get("text"),
            )
            np.testing.assert_array_equal(membership, solo)

    def test_linked_rows_track_their_moving_targets(self, forum_result):
        """A row whose in-batch link target is still drifting must not
        freeze at its transient value (regression for the per-row
        convergence rule)."""
        engine = singleton(forum_result)
        engine.extend(
            [
                NewNode(
                    "writer", "user",
                    links=[("writes", "blog0_0", 1.0)],
                ),
                NewNode(
                    "fan", "blog",
                    links=[("written_by", "writer", 1.0)],
                ),
            ]
        )
        fan = engine.membership_of("fan")
        writer = engine.membership_of("writer")
        assert fan.max() > 0.9
        assert int(fan.argmax()) == int(writer.argmax())


# ----------------------------------------------------------------------
# routing semantics and loud limits
# ----------------------------------------------------------------------
class TestRouting:
    def test_owner_of_base_rows_follows_plan(self, forum_result):
        engine = cluster(forum_result, 3)
        plan = engine.plan
        index = engine.shards[0].state.network.node_index_view
        for node, row in index.items():
            assert engine.owner_of(node) == plan.shard_of_row(row)
        with pytest.raises(ServingError, match="not served"):
            engine.owner_of("nobody")

    def test_unanchored_extends_balance_by_load(self, forum_result):
        engine = cluster(forum_result, 2)
        for i in range(4):
            engine.extend([NewNode(f"solo{i}", "user")])
        assert engine.info()["cluster"]["shard_extension_nodes"] == [
            2,
            2,
        ]

    def test_anchored_extends_colocate(self, forum_result):
        engine = cluster(forum_result, 3)
        engine.extend(
            [NewNode("root", "user", links=[("writes", "blog0_0", 1.0)])]
        )
        owner = engine.owner_of("root")
        for i in range(3):
            engine.extend(
                [
                    NewNode(
                        f"leaf{i}", "user",
                        links=[("friend", "root", 1.0)],
                    )
                ]
            )
            assert engine.owner_of(f"leaf{i}") == owner

    def test_extend_anchored_to_two_shards_rejected(self, forum_result):
        engine = cluster(forum_result, 2)
        engine.extend([NewNode("a", "user")])
        engine.extend([NewNode("b", "user")])
        assert engine.owner_of("a") != engine.owner_of("b")
        with pytest.raises(ServingError, match="colocated"):
            engine.extend(
                [
                    NewNode(
                        "c", "user",
                        links=[
                            ("friend", "a", 1.0),
                            ("friend", "b", 1.0),
                        ],
                    )
                ]
            )

    def test_cross_shard_link_target_rejected(self, forum_result):
        engine = cluster(forum_result, 2)
        engine.extend([NewNode("a", "user")])
        engine.extend([NewNode("b", "user")])
        with pytest.raises(ServingError, match="crosses shards"):
            engine.add_links([("a", "friend", "b", 1.0)])

    def test_query_spanning_shards_rejected(self, forum_result):
        engine = cluster(forum_result, 2)
        engine.extend([NewNode("a", "user")])
        engine.extend([NewNode("b", "user")])
        with pytest.raises(ServingError, match="colocated"):
            engine.query(
                "user",
                links=[("friend", "a", 1.0), ("friend", "b", 1.0)],
            )

    def test_duplicate_extension_rejected_cluster_wide(
        self, forum_result
    ):
        engine = cluster(forum_result, 2)
        engine.extend([NewNode("a", "user")])
        # the duplicate would otherwise land on the *other* shard,
        # which has never heard of node "a"
        with pytest.raises(ServingError, match="already part"):
            engine.extend([NewNode("a", "user")])

    def test_add_links_base_and_unknown_sources(self, forum_result):
        engine = cluster(forum_result, 2)
        with pytest.raises(ServingError, match="frozen base"):
            engine.add_links([("user0_0", "writes", "blog0_0")])
        with pytest.raises(ServingError, match="not served"):
            engine.add_links([("ghost", "writes", "blog0_0")])

    def test_batch_errors_keep_global_positions(self, forum_result):
        engine = cluster(forum_result, 3, cache_size=0)
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
            dict(
                object_type="user",
                links=[("writes", "ghost-blog", 1.0)],
            ),
        ]
        with pytest.raises(ServingError, match="query #2"):
            engine.score_many(queries)
        with pytest.raises(ServingError, match="query #1"):
            engine.score_many(
                [dict(object_type="user"), dict(links=[])]
            )
        with pytest.raises(ServingError, match="^query:"):
            engine.query("user", links=[("writes", "ghost", 1.0)])

    def test_constructor_validation(self, forum_result):
        state = ModelState.from_result(forum_result)
        with pytest.raises(ServingError, match="n_shards must be >= 1"):
            ShardedEngine(state, n_shards=0)
        with pytest.raises(ServingError, match="32 rows across 40"):
            ShardedEngine(state, n_shards=40)
        engine = ShardedEngine(state, n_shards=2)
        assert engine.plan == ShardPlan.from_state(state, 2)


# ----------------------------------------------------------------------
# cluster telemetry
# ----------------------------------------------------------------------
class TestClusterInfo:
    def test_shared_schema_and_cluster_section(self, forum_result):
        engine = cluster(forum_result, 2)
        engine.extend([NewNode("a", "user")])
        engine.query("user", **GREEN_QUERY)
        engine.score_many([dict(object_type="user", **PURPLE_QUERY)])
        info = engine.info()
        assert info["n_clusters"] == 2
        assert info["num_base_nodes"] == 32
        assert info["num_extension_nodes"] == 1
        assert info["queries"]["served"] == 2
        assert info["execution"]["shard_id"] is None
        assert info["execution"]["shard_count"] == 2
        assert info["cache"]["misses"] == 2
        cluster_info = info["cluster"]
        assert cluster_info["n_shards"] == 2
        assert sum(cluster_info["shard_extension_nodes"]) == 1
        assert len(cluster_info["shards"]) == 2
        for shard_id, shard_info in enumerate(cluster_info["shards"]):
            execution = shard_info["execution"]
            assert execution["shard_id"] == shard_id
            assert execution["shard_count"] == 2
        plan = cluster_info["plan"]
        assert plan["num_rows"] == 32
        assert [entry["shard"] for entry in plan["shards"]] == [0, 1]

    def test_singleton_reports_shard_zero_of_one(self, forum_result):
        info = singleton(forum_result).info()
        assert info["execution"]["shard_id"] == 0
        assert info["execution"]["shard_count"] == 1
        assert info["queries"]["served"] == 0

    def test_state_backed_engine_has_no_artifact(self, forum_result):
        engine = cluster(forum_result, 2)
        with pytest.raises(ServingError, match="no artifact"):
            engine.shards[0].artifact


# ----------------------------------------------------------------------
# observability: tracing never changes results, one schema everywhere
# ----------------------------------------------------------------------
class TestClusterObservability:
    PROMOTE_CONFIG = GenClusConfig(n_clusters=2, outer_iterations=4, seed=0)

    @pytest.mark.parametrize("n_shards", (1, 3))
    def test_traffic_and_promote_bit_identical_tracing_on_off(
        self, small_blocks, n_shards
    ):
        forum_result = small_blocks(outer_iterations=5, seed=0, n_init=3)
        plain = cluster(forum_result, n_shards)
        reference = drive_traffic(plain)
        plain_promoted = plain.promote(self.PROMOTE_CONFIG)

        obs = Observability(trace=True)
        traced = cluster(forum_result, n_shards, obs=obs)
        observed = drive_traffic(traced)
        traced_promoted = traced.promote(self.PROMOTE_CONFIG)

        assert_observed_equal(
            reference, observed, f"traced shards={n_shards}"
        )
        np.testing.assert_array_equal(
            plain_promoted.theta, traced_promoted.theta
        )
        np.testing.assert_array_equal(
            plain_promoted.gamma, traced_promoted.gamma
        )
        np.testing.assert_array_equal(
            plain_promoted.history.g1_series(),
            traced_promoted.history.g1_series(),
        )
        # post-promote traffic stays bit-identical too
        np.testing.assert_array_equal(
            plain.query("user", **PURPLE_QUERY),
            traced.query("user", **PURPLE_QUERY),
        )
        assert obs.tracer.traces()  # tracing actually happened

    def test_router_batch_trace_has_per_shard_child_spans(
        self, forum_result
    ):
        obs = Observability(trace=True)
        engine = cluster(forum_result, 3, obs=obs)
        engine.score_many(
            [
                dict(object_type="user", **GREEN_QUERY),
                dict(object_type="user", **PURPLE_QUERY),
            ]
        )
        batch = [
            span
            for span in obs.tracer.traces()
            if span.name == "score_many"
        ]
        assert len(batch) == 1
        (span,) = batch
        assert span.attributes["queries"] == 2
        assert span.children, "scatter produced no per-shard spans"
        for child in span.children:
            assert child.name.startswith("shard[")
            assert child.name.endswith(".foldin")
            assert child.duration >= 0.0

    def test_cluster_snapshot_aggregates_shard_registries(
        self, forum_result
    ):
        engine = cluster(forum_result, 3)
        drive_traffic(engine)
        snapshot = engine.metrics_snapshot()
        assert snapshot["telemetry_version"] == TELEMETRY_VERSION
        # the router owns query accounting (each query would otherwise
        # be double-counted by the shard that served it)
        assert series_value(snapshot, "repro_queries_total") == float(
            engine.info()["queries"]["served"]
        )
        # fold-in work happened on the shards and survives aggregation
        assert series_value(snapshot, "repro_foldin_sweeps_total") > 0
        assert series_value(snapshot, "repro_foldin_seconds") > 0
        # router-only families ride the same snapshot (score_many and
        # assign_many each scattered one batch)
        assert series_value(snapshot, "repro_router_batches_total") == 2
        assert "repro_router_shard_batch_seconds" in snapshot["metrics"]

    def test_info_schema_unified_across_engine_kinds(self, forum_result):
        single = singleton(forum_result).info()
        clustered = cluster(forum_result, 2).info()
        assert single["telemetry_version"] == TELEMETRY_VERSION
        assert clustered["telemetry_version"] == TELEMETRY_VERSION
        for section in ("cache", "queries", "extension", "foldin"):
            assert set(single[section]) == set(clustered[section]), section
        assert "cluster" not in single
        assert clustered["cluster"]["n_shards"] == 2


# ----------------------------------------------------------------------
# random interleavings: one LRU age book behind every engine kind
# ----------------------------------------------------------------------
# base targets per relation an extension user may link to
BASE_TARGETS = {
    "friend": ("user0_0", "user1_3"),
    "writes": ("blog0_1", "blog1_2"),
    "likes": ("book0_0", "book1_1"),
}
# a link pick: (relation, pick) -- an even pick names a base target
# of the relation, an odd one a ``friend`` link to a live extension
# node (users are the only extension type), wrapped around the list
LINK_PICKS = st.lists(
    st.tuples(st.sampled_from(sorted(BASE_TARGETS)), st.integers(0, 7)),
    max_size=2,
)
INTERLEAVED_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), LINK_PICKS, st.booleans()),
        st.tuples(st.just("add_links"), st.integers(0, 7), LINK_PICKS),
        st.tuples(st.just("query"), LINK_PICKS),
        st.tuples(st.just("score_many"), st.lists(LINK_PICKS, max_size=3)),
        st.tuples(st.just("membership_of"), st.integers(0, 7)),
        st.tuples(st.just("evict"), st.integers(0, 4)),
    ),
    max_size=10,
)


class TestRandomInterleavings:
    """Random op sequences answer alike on every engine kind.

    One :class:`InferenceEngine` and in-process clusters at 1, 2 and
    3 shards run the same sequence of extends, link deltas, queries,
    batches, membership reads and evictions.  Memberships, eviction
    verdicts and the ``info()`` extension and query counters must
    agree exactly -- which pins the shared LRU age book across
    interleavings no scenario test spells out.  An op whose extension
    links some cluster would have to split across shards (a routing
    limit, not an answer) is skipped on every engine.  Every sequence
    starts from three extension nodes (so touches can reorder ages)
    and ends in ``evict(0)``, whose oldest-first verdict spells out the
    whole age order of the surviving extension nodes.
    """

    @staticmethod
    def resolve(picks, live, source=None):
        links = []
        for relation, pick in picks:
            if pick % 2 and live:
                relation, target = "friend", live[(pick // 2) % len(live)]
            else:
                targets = BASE_TARGETS[relation]
                target = targets[pick % len(targets)]
            links.append((relation, target, 1.0))
        return links

    @staticmethod
    def colocated(clusters, groups, live):
        return all(
            len({engine.owner_of(node) for node in group if node in live})
            <= 1
            for engine in clusters
            for group in groups
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ops=INTERLEAVED_OPS)
    def test_engine_kinds_agree(self, forum_result, ops):
        reference = singleton(forum_result)
        clusters = [cluster(forum_result, n) for n in SHARD_COUNTS]
        engines = [reference, *clusters]
        live: list[str] = []
        try:
            seed = [("extend", [], True), ("extend", [("writes", 0)], False)]
            for step, op in enumerate([*seed, *ops, ("evict", 0)]):
                kind = op[0]
                results = None
                if kind == "extend":
                    _, picks, chained = op
                    first = NewNode(
                        f"x{step}a", "user", links=self.resolve(picks, live)
                    )
                    batch = [first]
                    if chained:  # an in-batch link to the first node
                        batch.append(
                            NewNode(
                                f"x{step}b",
                                "user",
                                links=[("friend", first.node, 1.0)],
                            )
                        )
                    targets = [t for spec in batch for _, t, _ in spec.links]
                    if not self.colocated(clusters, [targets], live):
                        continue
                    for engine in engines:
                        engine.extend(batch)
                    live.extend(spec.node for spec in batch)
                elif kind == "add_links":
                    _, pick, picks = op
                    if not live:
                        continue
                    source = live[pick % len(live)]
                    links = [
                        (source, relation, target, weight)
                        for relation, target, weight in self.resolve(
                            picks, live
                        )
                    ]
                    groups = [[source, target] for _, _, target, _ in links]
                    if not self.colocated(clusters, groups, live):
                        continue
                    for engine in engines:
                        engine.add_links(links)
                elif kind == "query":
                    links = self.resolve(op[1], live)
                    groups = [[target for _, target, _ in links]]
                    if not self.colocated(clusters, groups, live):
                        continue
                    results = [
                        [engine.query("user", links=links)]
                        for engine in engines
                    ]
                elif kind == "score_many":
                    queries = [
                        dict(object_type="user", links=self.resolve(p, live))
                        for p in op[1]
                    ]
                    groups = [
                        [target for _, target, _ in query["links"]]
                        for query in queries
                    ]
                    if not self.colocated(clusters, groups, live):
                        continue
                    results = [
                        engine.score_many(queries) for engine in engines
                    ]
                elif kind == "membership_of":
                    nodes = live or ["user0_0"]
                    node = nodes[op[1] % len(nodes)]
                    results = [
                        [engine.membership_of(node)] for engine in engines
                    ]
                else:
                    verdicts = [engine.evict(op[1]) for engine in engines]
                    assert all(v == verdicts[0] for v in verdicts), verdicts
                    live = [node for node in live if node not in verdicts[0]]
                for rows in results or ():
                    assert len(rows) == len(results[0])
                    for row, expected in zip(rows, results[0]):
                        np.testing.assert_array_equal(row, expected)
            infos = [engine.info() for engine in engines]
            for info in infos[1:]:
                for section, key in (
                    ("extension", "nodes"),
                    ("extension", "links"),
                    ("extension", "evicted_total"),
                    ("queries", "served"),
                    ("foldin", "extends"),
                ):
                    assert info[section][key] == infos[0][section][key], (
                        section,
                        key,
                    )
            assert infos[0]["extension"]["nodes"] == len(live)
        finally:
            for engine in clusters:
                engine.close()


# ----------------------------------------------------------------------
# the autonomic retrain driver
# ----------------------------------------------------------------------
class TestRetrainDriver:
    def refit_config(self):
        return GenClusConfig(n_clusters=2, outer_iterations=3, seed=0)

    def test_policy_validation(self):
        with pytest.raises(ServingError, match="at least one trigger"):
            RetrainPolicy()
        with pytest.raises(ServingError, match="max_extension_nodes"):
            RetrainPolicy(max_extension_nodes=0)
        with pytest.raises(ServingError, match="max_staleness"):
            RetrainPolicy(max_staleness_queries=0)
        with pytest.raises(ServingError, match="min_g1_gain"):
            RetrainPolicy(max_extension_nodes=1, min_g1_gain=-1.0)
        with pytest.raises(ServingError, match="backoff_factor"):
            RetrainPolicy(max_extension_nodes=1, backoff_factor=0.5)

    def test_pressure_watches_the_hottest_shard(self, forum_result):
        engine = cluster(forum_result, 2)
        driver = RetrainDriver(
            engine,
            RetrainPolicy(max_extension_nodes=2),
            config=self.refit_config(),
        )
        # 1 + 1 across two shards: cluster total meets the bar but no
        # single shard does -- pressure is per shard
        engine.extend([NewNode("a", "user")])
        engine.extend([NewNode("b", "user")])
        assert driver.check() is None
        # anchor a third node to a's shard: that shard now owns 2
        engine.extend(
            [NewNode("c", "user", links=[("friend", "a", 1.0)])]
        )
        trigger = driver.check()
        assert trigger is not None
        reason, shard_id = trigger
        assert reason == "extension_pressure"
        assert shard_id == engine.owner_of("a")
        round_ = driver.tick()
        assert round_.trigger == "extension_pressure"
        assert round_.extension_nodes == 3
        assert round_.rebalanced  # the grown base re-split the plan
        assert engine.num_extension_nodes == 0
        assert engine.num_base_nodes == 35
        assert driver.check() is None  # pressure drained

    def test_staleness_counts_queries_since_promote(self, forum_result):
        engine = singleton(forum_result)
        driver = RetrainDriver(
            engine,
            RetrainPolicy(max_staleness_queries=3),
            config=self.refit_config(),
        )
        engine.query("user", **GREEN_QUERY)
        engine.score_many([dict(object_type="user", **PURPLE_QUERY)])
        assert driver.check() is None
        engine.query("user", **GREEN_QUERY)  # cached -- still counts
        assert driver.check() == ("staleness", None)
        round_ = driver.tick()
        assert round_.trigger == "staleness"
        assert not round_.rebalanced  # singletons have no plan
        assert driver.check() is None  # the counter reset

    def test_unprofitable_refit_backs_off(self, forum_result):
        engine = cluster(forum_result, 2)
        driver = RetrainDriver(
            engine,
            RetrainPolicy(
                max_extension_nodes=1,
                min_g1_gain=1e9,  # nothing can pay this
                backoff_factor=2.0,
            ),
            config=self.refit_config(),
        )
        engine.extend([NewNode("a", "user")])
        round_ = driver.tick()
        assert round_.backed_off
        assert driver.pressure_scale == 2.0
        # one node no longer trips the doubled threshold
        engine.extend([NewNode("b", "user")])
        assert driver.check() is None
        engine.extend(
            [NewNode("c", "user", links=[("friend", "b", 1.0)])]
        )
        assert driver.check() is not None

    def test_driver_triggered_promote_matches_singleton(
        self, forum_result
    ):
        """The acceptance contract: g1 after a *driver-triggered*
        cluster promote equals the single-engine reference.  The
        extension chain is anchored so per-shard pressure and the
        singleton's total pressure trip at the same moment."""
        policy = RetrainPolicy(max_extension_nodes=3)
        config = self.refit_config()

        def serve(engine):
            driver = RetrainDriver(engine, policy, config=config)
            engine.extend(
                [
                    NewNode(
                        "r0", "user",
                        links=[("writes", "blog0_0", 1.0)],
                    )
                ]
            )
            assert driver.tick() is None
            engine.extend(
                [
                    NewNode(
                        "r1", "user", links=[("friend", "r0", 1.0)]
                    ),
                    NewNode(
                        "r2", "user", links=[("friend", "r1", 1.0)]
                    ),
                ]
            )
            round_ = driver.tick()
            assert round_ is not None
            return round_

        reference = serve(singleton(forum_result))
        for n_shards in SHARD_COUNTS:
            round_ = serve(cluster(forum_result, n_shards))
            assert round_.g1_final == reference.g1_final
            assert round_.g1_first == reference.g1_first
            assert round_.outer_iterations == reference.outer_iterations

    def test_background_refit_on_shared_pool(self, forum_result):
        engine = cluster(forum_result, 2)
        driver = RetrainDriver(
            engine,
            RetrainPolicy(max_extension_nodes=1),
            config=self.refit_config(),
            background=True,
        )
        engine.extend([NewNode("a", "user")])
        future = driver.tick()
        assert future is not None
        assert driver.tick() is None  # refit already in flight
        round_ = driver.join()
        assert round_.trigger == "extension_pressure"
        assert engine.num_extension_nodes == 0
        assert len(driver.rounds) == 1
        assert driver.join() is None
        # join() stops the driver's own refit thread
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-retrain")
        ]

    def test_background_failure_is_recorded_and_surfaced(
        self, forum_result, monkeypatch
    ):
        engine = cluster(forum_result, 2)
        driver = RetrainDriver(
            engine,
            RetrainPolicy(max_extension_nodes=1),
            config=self.refit_config(),
            background=True,
        )
        engine.extend([NewNode("a", "user")])

        def exploding_promote(config=None):
            raise ServingError("refit exploded")

        monkeypatch.setattr(engine, "promote", exploding_promote)
        assert driver.tick() is not None
        # the exception surfaces from join() instead of vanishing into
        # the future, and the attempt is still on the books
        with pytest.raises(ServingError, match="refit exploded"):
            driver.join()
        assert len(driver.rounds) == 1
        round_ = driver.rounds[0]
        assert round_.trigger == "extension_pressure"
        assert round_.error == "ServingError: refit exploded"
        assert round_.extension_nodes == 1
        assert math.isnan(round_.g1_gain)
        assert not round_.backed_off
        # counted in the engine's (cluster-scope) registry
        assert (
            series_value(
                engine.metrics_snapshot(),
                "repro_retrain_failures_total",
            )
            == 1.0
        )
        # the in-flight slot was released: the driver can retry
        assert driver.join() is None
        assert driver.tick() is not None
        with pytest.raises(ServingError, match="refit exploded"):
            driver.join()
        assert len(driver.rounds) == 2


# ----------------------------------------------------------------------
# CLI: score --batch and shard-plan
# ----------------------------------------------------------------------
class TestCli:
    def write_batch(self, tmp_path, payload):
        path = tmp_path / "batch.json"
        path.write_text(payload, encoding="utf-8")
        return path

    def test_score_batch_matches_api(
        self, artifact_path, forum_result, tmp_path, capsys
    ):
        queries = [
            {
                "object_type": "user",
                "links": [
                    ["writes", "blog0_1"],
                    ["likes", "book0_2", 1.0],
                ],
                "text": {"text": ["green", "climate"]},
            },
            {"object_type": "user", "links": [["writes", "blog1_1"]]},
        ]
        path = self.write_batch(tmp_path, json.dumps(queries))
        code = main(
            ["score", str(artifact_path), "--batch", str(path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        engine = InferenceEngine.load(artifact_path)
        expected = engine.score_many(
            [
                dict(
                    object_type="user",
                    links=[("writes", "blog0_1"), ("likes", "book0_2", 1.0)],
                    text={"text": ["green", "climate"]},
                ),
                dict(
                    object_type="user",
                    links=[("writes", "blog1_1")],
                ),
            ]
        )
        for row, membership in zip(payload, expected):
            np.testing.assert_allclose(row["membership"], membership)
            assert row["cluster"] == int(membership.argmax())

    def test_score_batch_text_output_and_jsonl(
        self, artifact_path, tmp_path, capsys
    ):
        jsonl = "\n".join(
            [
                json.dumps(
                    {
                        "object_type": "user",
                        "links": [["writes", "blog0_0"]],
                    }
                ),
                json.dumps({"object_type": "user"}),
            ]
        )
        path = self.write_batch(tmp_path, jsonl)
        assert main(
            ["score", str(artifact_path), "--batch", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "query #0: cluster" in out
        assert "query #1: cluster" in out

    def test_score_batch_excludes_single_query_flags(
        self, artifact_path, tmp_path, capsys
    ):
        path = self.write_batch(tmp_path, "[]")
        code = main(
            [
                "score",
                str(artifact_path),
                "--batch",
                str(path),
                "--type",
                "user",
            ]
        )
        assert code == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_score_requires_type_or_batch(self, artifact_path, capsys):
        assert main(["score", str(artifact_path)]) == 1
        assert "--batch" in capsys.readouterr().err

    def test_score_batch_bad_query_position(
        self, artifact_path, tmp_path, capsys
    ):
        queries = [
            {"object_type": "user"},
            {"object_type": "user", "links": [["writes", "ghost"]]},
        ]
        path = self.write_batch(tmp_path, json.dumps(queries))
        assert main(
            ["score", str(artifact_path), "--batch", str(path)]
        ) == 1
        assert "query #1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "metrics", "trace", "chaos"])
    @pytest.mark.parametrize(
        "payload",
        [
            None,  # the file does not exist
            '[{"object_type": "user"}',  # truncated JSON array
            '{"object_type": "user"}\n{not json',  # bad JSON line
        ],
        ids=["missing", "bad-array", "bad-jsonl"],
    )
    def test_unreadable_batch_file_is_an_error(
        self, artifact_path, tmp_path, capsys, command, payload
    ):
        if payload is None:
            path = tmp_path / "missing.json"
        else:
            path = self.write_batch(tmp_path, payload)
        code = main([command, str(artifact_path), "--batch", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read batch file '{path}'")
        assert "Traceback" not in err

    def test_shard_plan_text(self, artifact_path, capsys):
        code = main(
            [
                "shard-plan",
                str(artifact_path),
                "--shards",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 shard(s) over 32 rows" in out
        assert out.count("shard ") >= 3
        assert "out-links" in out  # schema-v2 bundles report load

    def test_shard_plan_json_round_trips(self, artifact_path, capsys):
        code = main(
            [
                "shard-plan",
                str(artifact_path),
                "--shards",
                "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_shards"] == 2
        assert [e["rows"] for e in payload["shards"]] == [
            [0, 16],
            [16, 32],
        ]
        assert sum(e["total_links"] for e in payload["shards"]) > 0

    def test_shard_plan_link_counts_pinned(self, artifact_path, capsys):
        """Per-shard out-link counts, per relation, as the CLI printed
        them when they were read off the link views' index pointers."""
        assert main(
            ["shard-plan", str(artifact_path), "--shards", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [
            (entry["rows"], entry["links"], entry["total_links"])
            for entry in payload["shards"]
        ] == [
            (
                [0, 10],
                {"friend": 32, "writes": 8, "written_by": 2,
                 "likes": 16, "liked_by": 4},
                62,
            ),
            (
                [10, 21],
                {"friend": 20, "writes": 5, "written_by": 6,
                 "likes": 10, "liked_by": 12},
                53,
            ),
            (
                [21, 32],
                {"friend": 12, "writes": 3, "written_by": 8,
                 "likes": 6, "liked_by": 16},
                45,
            ),
        ]
        assert main(["shard-plan", str(artifact_path), "--shards", "3"]) == 0
        assert capsys.readouterr().out == (
            "shard plan: 3 shard(s) over 32 rows\n"
            "  shard 0: rows [0, 10)  10 rows  62 out-links\n"
            "  shard 1: rows [10, 21)  11 rows  53 out-links\n"
            "  shard 2: rows [21, 32)  11 rows  45 out-links\n"
        )

    def test_cluster_plan_reports_links_once_hydrated(
        self, artifact_path, forum_result
    ):
        """A fresh fit's and a promoted model's network carry their
        links; a loaded bundle reports them only once hydrated."""
        links = {"friend": 32, "writes": 8, "written_by": 8,
                 "likes": 16, "liked_by": 16}
        halves = [
            {"shard": shard, "rows": rows, "num_rows": 16,
             "links": links, "total_links": 80}
            for shard, rows in ((0, [0, 16]), (1, [16, 32]))
        ]
        fitted = ShardedEngine.from_result(forum_result, n_shards=2)
        loaded = ShardedEngine.load(artifact_path, n_shards=2)
        try:
            assert fitted.info()["cluster"]["plan"]["shards"] == halves
            assert [
                sorted(entry)
                for entry in loaded.info()["cluster"]["plan"]["shards"]
            ] == [["num_rows", "rows", "shard"]] * 2
            loaded.promote()
            assert loaded.info()["cluster"]["plan"]["shards"] == halves
        finally:
            fitted.close()
            loaded.close()

    def test_shard_plan_too_many_shards(self, artifact_path, capsys):
        assert main(
            ["shard-plan", str(artifact_path), "--shards", "40"]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot split 32 rows across 40 shards\n"
        )

    def test_similar_too_many_shards(self, artifact_path, capsys):
        assert main(
            [
                "similar",
                str(artifact_path),
                "--node",
                "blog0_1",
                "--shards",
                "40",
            ]
        ) == 1
        assert capsys.readouterr().err == (
            "error: cannot split 32 rows across 40 shards\n"
        )

    def metrics_batch(self, tmp_path):
        queries = [
            {
                "object_type": "user",
                "links": [["writes", "blog0_1"]],
                "text": {"text": ["green", "climate"]},
            },
            {"object_type": "user", "links": [["writes", "blog1_1"]]},
            {"object_type": "user", "links": [["writes", "blog0_1"]]},
        ]
        return self.write_batch(tmp_path, json.dumps(queries))

    def test_metrics_emits_prometheus_families(
        self, artifact_path, tmp_path, capsys
    ):
        code = main(
            [
                "metrics",
                str(artifact_path),
                "--batch",
                str(self.metrics_batch(tmp_path)),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        for family in (
            "repro_queries_total",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_foldin_sweep_seconds",
            "repro_foldin_seconds_bucket",
            "repro_evicted_nodes_total",
            "repro_retrain_rounds_total",
        ):
            assert family in text, family
        assert 'le="+Inf"' in text
        assert "# TYPE repro_foldin_seconds histogram" in text
        assert "repro_queries_total 3" in text

    def test_metrics_sharded_json_round_trips(
        self, artifact_path, tmp_path, capsys
    ):
        code = main(
            [
                "metrics",
                str(artifact_path),
                "--shards",
                "3",
                "--batch",
                str(self.metrics_batch(tmp_path)),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry_version"] == TELEMETRY_VERSION
        assert "repro_router_shard_batch_seconds" in payload["metrics"]
        assert series_value(payload, "repro_queries_total") == 3
        assert series_value(payload, "repro_router_batches_total") == 1

    def test_trace_prints_tree_and_writes_jsonl(
        self, artifact_path, tmp_path, capsys
    ):
        jsonl = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                str(artifact_path),
                "--batch",
                str(self.metrics_batch(tmp_path)),
                "--shards",
                "2",
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "score_many" in captured.out
        assert "ms" in captured.out
        records = [
            json.loads(line)
            for line in jsonl.read_text(encoding="utf-8").splitlines()
        ]
        assert records
        batch = [r for r in records if r["name"] == "score_many"]
        assert len(batch) == 1
        child_names = [c["name"] for c in batch[0]["children"]]
        assert child_names
        assert all(name.startswith("shard[") for name in child_names)

    def test_trace_requires_batch(self, artifact_path, capsys):
        with pytest.raises(SystemExit):
            main(["trace", str(artifact_path)])
        assert "--batch" in capsys.readouterr().err
