"""Tests for repro.serving.engine and the ``python -m repro.serving`` CLI."""

import json

import numpy as np
import pytest

from repro import GenClus, GenClusConfig
from repro.core.kernels import BlockPlan
from repro.datagen.toy import political_forum_network
from repro.exceptions import ServingError
from repro.serving import InferenceEngine, ModelArtifact, NewNode
from repro.serving.__main__ import build_parser, main


@pytest.fixture(scope="module")
def forum_result():
    network = political_forum_network()
    config = GenClusConfig(
        n_clusters=2, outer_iterations=5, seed=0, n_init=3
    )
    return GenClus(config).fit(network, attributes=["text"])


@pytest.fixture(scope="module")
def artifact_path(forum_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "forum.npz"
    forum_result.save(path)
    return path


@pytest.fixture
def engine(artifact_path):
    return InferenceEngine.load(artifact_path)


GREEN_QUERY = dict(
    links=[("writes", "blog0_1", 1.0), ("likes", "book0_2", 1.0)],
    text={"text": ["environment", "climate", "green"]},
)


class TestQueries:
    def test_query_matches_from_result(self, forum_result, engine):
        direct = InferenceEngine.from_result(forum_result)
        np.testing.assert_allclose(
            engine.query("user", **GREEN_QUERY),
            direct.query("user", **GREEN_QUERY),
        )

    def test_repeated_query_hits_cache(self, engine):
        first = engine.query("user", **GREEN_QUERY)
        second = engine.query("user", **GREEN_QUERY)
        np.testing.assert_array_equal(first, second)
        stats = engine.info()["cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_cache_key_is_order_insensitive(self, engine):
        engine.query(
            "user",
            links=[("writes", "blog0_1", 1.0), ("likes", "book0_2", 1.0)],
        )
        engine.query(
            "user",
            links=[("likes", "book0_2", 1.0), ("writes", "blog0_1", 1.0)],
        )
        assert engine.info()["cache"]["hits"] == 1

    def test_cache_result_is_isolated_copy(self, engine):
        first = engine.query("user", **GREEN_QUERY)
        first[:] = -1.0
        second = engine.query("user", **GREEN_QUERY)
        assert np.all(second >= 0.0)

    def test_cache_evicts_least_recent(self, artifact_path):
        engine = InferenceEngine.load(artifact_path, cache_size=2)
        engine.query("user", links=[("writes", "blog0_0", 1.0)])
        engine.query("user", links=[("writes", "blog0_1", 1.0)])
        engine.query("user", links=[("writes", "blog0_2", 1.0)])
        assert engine.info()["cache"]["size"] == 2

    def test_cache_disabled(self, artifact_path):
        engine = InferenceEngine.load(artifact_path, cache_size=0)
        engine.query("user", **GREEN_QUERY)
        engine.query("user", **GREEN_QUERY)
        stats = engine.info()["cache"]
        assert stats["size"] == 0
        assert stats["hits"] == 0

    def test_assign_returns_argmax(self, engine):
        membership = engine.query("user", **GREEN_QUERY)
        assert engine.assign("user", **GREEN_QUERY) == int(
            membership.argmax()
        )

    def test_query_error_does_not_leak_sentinel(self, engine):
        with pytest.raises(ServingError, match="^query:") as excinfo:
            engine.query("user", links=[("writes", "ghost-blog", 1.0)])
        assert "__repro.serving.query__" not in str(excinfo.value)

    def test_membership_of_base_node(self, forum_result, engine):
        np.testing.assert_allclose(
            engine.membership_of("user0_0"),
            forum_result.membership_of("user0_0"),
        )

    def test_membership_of_unknown_node(self, engine):
        with pytest.raises(ServingError, match="not served"):
            engine.membership_of("nobody")


class TestDeltas:
    def test_extend_appends_nodes(self, engine):
        outcome = engine.extend(
            [
                NewNode(
                    "green-user",
                    "user",
                    links=[
                        ("writes", "blog0_0", 1.0),
                        ("likes", "book0_1", 1.0),
                    ],
                )
            ]
        )
        assert outcome.converged
        assert engine.has_node("green-user")
        assert engine.num_extension_nodes == 1
        assert engine.num_nodes == engine.num_base_nodes + 1
        np.testing.assert_allclose(
            engine.membership_of("green-user"),
            outcome.membership_of("green-user"),
        )

    def test_extension_is_linkable(self, engine):
        engine.extend(
            [
                NewNode(
                    "anchor",
                    "user",
                    links=[
                        ("writes", "blog1_0", 1.0),
                        ("likes", "book1_1", 1.0),
                    ],
                )
            ]
        )
        membership = engine.query(
            "user", links=[("friend", "anchor", 1.0)]
        )
        anchor_label = engine.hard_label_of("anchor")
        assert membership[anchor_label] >= membership[1 - anchor_label]

    def test_extend_invalidates_cache(self, engine):
        engine.query("user", **GREEN_QUERY)
        engine.extend(
            [NewNode("x", "user", links=[("writes", "blog0_0", 1.0)])]
        )
        engine.query("user", **GREEN_QUERY)
        stats = engine.info()["cache"]
        assert stats["hits"] == 0
        assert stats["misses"] == 2

    def test_add_links_moves_membership(self, engine):
        engine.extend([NewNode("drifter", "user")])
        np.testing.assert_allclose(
            engine.membership_of("drifter"), [0.5, 0.5]
        )
        engine.add_links(
            [
                ("drifter", "writes", "blog1_0"),
                ("drifter", "likes", "book1_0", 2.0),
            ]
        )
        membership = engine.membership_of("drifter")
        assert membership.max() > 0.9

    def test_add_links_to_base_node_rejected(self, engine):
        with pytest.raises(ServingError, match="frozen base"):
            engine.add_links([("user0_0", "writes", "blog0_0")])

    def test_add_links_unknown_source_rejected(self, engine):
        with pytest.raises(ServingError, match="not served"):
            engine.add_links([("nobody", "writes", "blog0_0")])

    def test_failed_delta_leaves_state_intact(self, engine):
        engine.extend(
            [NewNode("y", "user", links=[("writes", "blog0_0", 1.0)])]
        )
        before = engine.membership_of("y")
        with pytest.raises(ServingError):
            engine.add_links([("y", "writes", "ghost-blog")])
        np.testing.assert_array_equal(engine.membership_of("y"), before)
        # the bad link must not have been committed: the next valid
        # delta re-folds from the stored specs
        engine.add_links([("y", "likes", "book0_0")])

    def test_extend_duplicate_of_base_rejected(self, engine):
        with pytest.raises(ServingError, match="already part"):
            engine.extend([NewNode("user0_0", "user")])

    def test_generator_observations_survive_refold(self, engine):
        """Regression: a one-pass token iterable must not be consumed
        by the first fold, or a later add_links re-fold would silently
        reset the node to the uniform prior."""
        engine.extend(
            [
                NewNode(
                    "gen-user",
                    "user",
                    text={"text": iter(["liberty", "market", "tax"])},
                )
            ]
        )
        before = engine.membership_of("gen-user")
        assert before.max() > 0.9
        engine.add_links([("gen-user", "likes", "book1_0")])
        after = engine.membership_of("gen-user")
        assert int(after.argmax()) == int(before.argmax())
        assert after.max() > 0.9


class TestStreamingExtends:
    """The growable extension buffer must behave like repeated vstacks."""

    def test_many_small_extends_grow_past_initial_capacity(self, engine):
        # 80 single-node deltas forces several capacity doublings (the
        # first allocation reserves 64 extension slots)
        memberships = {}
        for i in range(80):
            node = f"stream-{i}"
            target = "blog0_0" if i % 2 == 0 else "blog1_0"
            outcome = engine.extend(
                [NewNode(node, "user", links=[("writes", target, 1.0)])]
            )
            memberships[node] = outcome.membership_of(node)
        assert engine.num_extension_nodes == 80
        # every row must have survived the buffer regrowths verbatim
        for node, expected in memberships.items():
            np.testing.assert_array_equal(
                engine.membership_of(node), expected
            )
        # and the index space stays linkable end to end
        assert engine.has_node("stream-79")
        membership = engine.query(
            "user", links=[("friend", "stream-0", 1.0)]
        )
        assert membership.shape == (engine.n_clusters,)

    def test_add_links_after_streaming_extends(self, engine):
        for i in range(5):
            engine.extend([NewNode(f"s{i}", "user")])
        engine.add_links([("s3", "writes", "blog1_0", 1.0)])
        moved = engine.membership_of("s3")
        label = int(np.argmax(moved))
        # s3 now follows the purple camp blog; untouched extension
        # nodes keep their uniform prior
        assert moved[label] > 0.5
        np.testing.assert_allclose(engine.membership_of("s1"), [0.5, 0.5])
        assert engine.num_extension_nodes == 5


PURPLE_QUERY = dict(
    links=[("writes", "blog1_1", 1.0), ("likes", "book1_2", 1.0)],
    text={"text": ["liberty", "market", "freedom"]},
)


class TestScoreMany:
    def test_batch_matches_single_queries(self, engine):
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
            dict(object_type="user", links=[("friend", "user0_0", 1.0)]),
        ]
        batch = engine.score_many(queries)
        assert len(batch) == 3
        for membership, query in zip(batch, queries):
            assert membership.shape == (2,)
            np.testing.assert_allclose(
                membership.sum(), 1.0, atol=1e-9
            )
            solo = engine.query(
                query["object_type"],
                links=query.get("links", ()),
                text=query.get("text"),
                numeric=query.get("numeric"),
            )
            # same fixed point within the sweep tolerance; identical
            # here because batched rows converge together
            np.testing.assert_allclose(
                membership, solo, atol=1e-5
            )

    def test_batch_fills_and_reads_cache(self, engine):
        queries = [
            dict(object_type="user", **GREEN_QUERY),
            dict(object_type="user", **PURPLE_QUERY),
        ]
        engine.score_many(queries)
        stats = engine.info()["cache"]
        assert stats["misses"] == 2
        assert stats["size"] == 2
        # identical batch is now pure cache hits
        again = engine.score_many(queries)
        stats = engine.info()["cache"]
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        first = engine.score_many(queries[:1])[0]
        np.testing.assert_array_equal(first, again[0])

    def test_duplicates_fold_once(self, engine):
        queries = [dict(object_type="user", **GREEN_QUERY)] * 4
        batch = engine.score_many(queries)
        assert len(batch) == 4
        for membership in batch[1:]:
            np.testing.assert_array_equal(batch[0], membership)
        assert engine.info()["cache"]["misses"] == 1

    def test_empty_batch(self, engine):
        assert engine.score_many([]) == []

    def test_assign_many(self, engine):
        labels = engine.assign_many(
            [
                dict(object_type="user", **GREEN_QUERY),
                dict(object_type="user", **PURPLE_QUERY),
            ]
        )
        assert len(labels) == 2
        assert labels[0] != labels[1]  # opposite camps

    def test_validation_errors_name_query_position(self, engine):
        with pytest.raises(ServingError, match="query #0"):
            engine.score_many([dict(object_type="ghost")])
        with pytest.raises(ServingError, match="query #1"):
            engine.score_many(
                [
                    dict(object_type="user"),
                    dict(
                        object_type="user",
                        links=[("ghost", "user0_0", 1.0)],
                    ),
                ]
            )
        with pytest.raises(ServingError, match="object_type"):
            engine.score_many([dict(links=[])])
        with pytest.raises(ServingError, match="unknown arguments"):
            engine.score_many([dict(object_type="user", nope=1)])

    @pytest.mark.parametrize(
        "field, value",
        [("text", 5), ("text", ["green"]), ("text", []), ("text", 0),
         ("text", False), ("numeric", "abc"), ("numeric", [1.0]),
         ("numeric", ""), ("numeric", 0)],
    )
    def test_non_mapping_text_or_numeric_names_query(
        self, engine, field, value
    ):
        with pytest.raises(
            ServingError, match=f"query #1: {field} must be a mapping"
        ):
            engine.score_many(
                [{"object_type": "user"}, {"object_type": "user", field: value}]
            )

    @pytest.mark.parametrize(
        "links, complaint",
        [([5], "link 5 must be"), ([None], "link None must be"),
         (["ab"], "link 'ab' must be"), ([["writes"]], "must be"),
         ([("writes", "blog0_0", 1.0, 2.0)], "must be"),
         (5, "links must be a list"), ("ab", "links must be a list"),
         ({"writes": "blog0_0"}, "links must be a list"),
         (0, "links must be a list")],
    )
    def test_malformed_links_name_query(self, engine, links, complaint):
        with pytest.raises(ServingError, match=f"query #1: .*{complaint}"):
            engine.score_many(
                [{"object_type": "user"},
                 {"object_type": "user", "links": links}]
            )
        with pytest.raises(ServingError, match=f"^query: .*{complaint}"):
            engine.query("user", links=links)
        with pytest.raises(ServingError, match=f"node 'x': .*{complaint}"):
            NewNode("x", "user", links=links)
        # a well-formed query still scores afterwards
        assert engine.score_many([{"object_type": "user"}])[0].shape == (2,)


class TestInfo:
    def test_info_shape(self, engine):
        info = engine.info()
        assert info["n_clusters"] == 2
        assert info["num_base_nodes"] == 32
        assert info["num_extension_nodes"] == 0
        assert info["attributes"] == {"text": "categorical"}
        assert set(info["relations"]) == {
            "friend",
            "writes",
            "written_by",
            "likes",
            "liked_by",
        }

    def test_invalid_construction(self, artifact_path):
        with pytest.raises(ServingError, match="cache_size"):
            InferenceEngine.load(artifact_path, cache_size=-1)
        # blocking is shape-derived and fold-in runs fold_in's own
        # budget: there is no execution knob
        for knob in ("block_size", "max_iterations", "tol"):
            with pytest.raises(TypeError):
                InferenceEngine.load(artifact_path, **{knob: 4})

    def test_execution_telemetry(self, artifact_path):
        execution = InferenceEngine.load(artifact_path).info()["execution"]
        # the shape-derived plan (32 rows fit one cache-sized block)
        # plus the engine's cluster position: a standalone engine is
        # shard 0 of 1, the schema the router's shard engines report
        assert execution == {
            "block_rows": BlockPlan.for_shape(32, 2).block_rows,
            "block_count": 1,
            "num_rows": 32,
            "shard_id": 0,
            "shard_count": 1,
        }


class TestCli:
    def test_serve_defaults_to_one_shard(self):
        args = build_parser().parse_args(["serve", "model.bundle"])
        assert args.shards == 1

    def test_info_text(self, artifact_path, capsys):
        assert main(["info", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "K=2" in out
        assert "likes" in out

    def test_info_json(self, artifact_path, capsys):
        assert main(["info", "--json", str(artifact_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_base_nodes"] == 32

    def test_score_text_output(self, artifact_path, capsys):
        code = main(
            [
                "score",
                str(artifact_path),
                "--type",
                "user",
                "--link",
                "writes=blog0_1",
                "--link",
                "likes=book0_2:2.0",
                "--text",
                "text=green,climate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster:" in out
        assert "membership:" in out

    def test_score_json_matches_api(self, artifact_path, engine, capsys):
        code = main(
            [
                "score",
                str(artifact_path),
                "--type",
                "user",
                "--link",
                "writes=blog0_1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = engine.query(
            "user", links=[("writes", "blog0_1", 1.0)]
        )
        np.testing.assert_allclose(payload["membership"], expected)
        assert payload["cluster"] == int(expected.argmax())

    def test_score_bad_target_fails_cleanly(self, artifact_path, capsys):
        code = main(
            [
                "score",
                str(artifact_path),
                "--type",
                "user",
                "--link",
                "writes=ghost",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_info_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "missing.npz")])
        assert code == 1
        assert "error:" in capsys.readouterr().err