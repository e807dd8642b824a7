"""Tests for blocked top-k similarity serving (repro.core.topk +
the engine/router similarity API + its CLI).

The load-bearing contracts:

* **Determinism** -- ties break by (score desc, global node index asc)
  everywhere, so a ranking is bit-identical at every worker count,
  every shard count, and under any row blocking; the toy forum model
  holds exact duplicate theta rows, which makes ties real rather than
  hypothetical.
* **Accuracy** -- the online blocked partial selection returns exactly
  the prefix of the offline full-sort reference ranking
  (:func:`repro.eval.reference_ranking`), for every metric.
* **Freshness** -- per-metric precomputes are stamped with the state
  version and dropped on every mutation (extend / evict / promote),
  visible through the ``info()["similarity"]`` counters.
"""

import json

import numpy as np
import pytest

from repro import GenClus, GenClusConfig
from repro.core import topk
from repro.datagen.toy import political_forum_network
from repro.datagen.weather import (
    TEMPERATURE_TYPE,
    WeatherConfig,
    generate_weather_network,
)
from repro.eval.linkpred import reference_ranking
from repro.eval.similarity import (
    cosine_similarity,
    negative_cross_entropy,
    negative_euclidean,
)
from repro.exceptions import ServingError
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.serving import InferenceEngine, NewNode, ShardedEngine
from repro.serving.__main__ import main

METRICS = ("cosine", "euclidean", "cross_entropy")
SHARD_COUNTS = (1, 2, 3)


@pytest.fixture(scope="module")
def forum_network():
    return political_forum_network()


@pytest.fixture(scope="module")
def forum_result(forum_network):
    config = GenClusConfig(
        n_clusters=2, outer_iterations=5, seed=0, n_init=3
    )
    return GenClus(config).fit(forum_network, attributes=["text"])


@pytest.fixture(scope="module")
def forum_engine(forum_result):
    return InferenceEngine.from_result(forum_result)


@pytest.fixture(scope="module")
def artifact_path(forum_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("similarity") / "forum.npz"
    forum_result.save(path)
    return path


def new_user(node="newbie"):
    return NewNode(
        node=node,
        object_type="user",
        links=[("writes", "blog0_1", 1.0)],
        text={"text": ["green", "climate"]},
    )


# ----------------------------------------------------------------------
# kernels: repro.core.topk
# ----------------------------------------------------------------------
class TestKernels:
    def test_resolve_metric_aliases(self):
        assert topk.resolve_metric("cosine") == "cosine"
        assert topk.resolve_metric("euclidean") == "neg_euclidean"
        assert topk.resolve_metric("neg_euclidean") == "neg_euclidean"
        assert (
            topk.resolve_metric("cross_entropy") == "neg_cross_entropy"
        )
        with pytest.raises(ValueError, match="unknown similarity"):
            topk.resolve_metric("jaccard")

    def test_pairwise_matches_eval_similarity_bytes(self):
        rng = np.random.default_rng(0)
        queries = rng.dirichlet(np.ones(4), size=7)
        candidates = rng.dirichlet(np.ones(4), size=11)
        for metric, reference in (
            ("cosine", cosine_similarity),
            ("neg_euclidean", negative_euclidean),
            ("neg_cross_entropy", negative_cross_entropy),
        ):
            got = topk.pairwise_scores(metric, queries, candidates)
            want = reference(queries, candidates)
            assert got.tobytes() == want.tobytes(), metric

    def test_block_topk_breaks_ties_by_index(self):
        # four-way tie at the top; k=2 must keep the lowest indices
        scores = np.array([[1.0, 1.0, 0.5, 1.0, 1.0]])
        values, rows = topk.block_topk(scores, 2, start=10)[0]
        assert rows.tolist() == [10, 11]
        assert values.tolist() == [1.0, 1.0]

    def test_block_topk_boundary_tie_keeps_all_then_truncates(self):
        # the k-th and (k+1)-th scores tie: argpartition alone could
        # pick either; the kernel must keep the lower index
        scores = np.array([[0.9, 0.7, 0.7, 0.7, 0.1]])
        _, rows = topk.block_topk(scores, 2)[0]
        assert rows.tolist() == [0, 1]

    def test_merge_topk_orders_across_blocks(self):
        parts = [
            (np.array([0.5, 0.5]), np.array([4, 7])),
            (np.array([0.9, 0.5]), np.array([2, 3])),
        ]
        values, rows = topk.merge_topk(parts, 3)
        assert rows.tolist() == [2, 3, 4]
        assert values.tolist() == [0.9, 0.5, 0.5]

    def test_blocked_equals_full_sort_any_block_size(self):
        rng = np.random.default_rng(1)
        theta = rng.dirichlet(np.ones(3), size=40)
        # quantize hard so duplicate scores are plentiful
        theta = np.round(theta, 1)
        queries = theta[[0, 17, 39]]
        for metric in ("cosine", "neg_euclidean", "neg_cross_entropy"):
            pre = topk.precompute(metric, theta)
            prepared = topk.prepare_queries(metric, queries)
            reference = None
            for block in (5, 7, 40):
                bounds = [
                    (start, min(start + block, 40))
                    for start in range(0, 40, block)
                ]
                got = topk.topk_bounds(
                    metric, prepared, theta, 10, bounds, pre
                )
                rendered = [
                    (v.tolist(), r.tolist()) for v, r in got
                ]
                if reference is None:
                    reference = rendered
                else:
                    assert rendered == reference, (metric, block)
            # against the dense full-sort protocol
            scores = topk.pairwise_scores(metric, queries, theta)
            for (values, rows), row_scores in zip(got, scores):
                order = np.lexsort(
                    (np.arange(40), -row_scores)
                )[:10]
                assert rows.tolist() == order.tolist()
                assert values.tolist() == row_scores[order].tolist()

    def test_precompute_gather_is_bit_identical_to_fresh(self):
        rng = np.random.default_rng(2)
        theta = rng.dirichlet(np.ones(4), size=20)
        rows = np.array([3, 11, 19])
        for metric in ("cosine", "neg_euclidean", "neg_cross_entropy"):
            pre = topk.precompute(metric, theta)
            cached = topk.prepare_queries(
                metric, theta[rows], pre, rows
            )
            fresh = topk.prepare_queries(metric, theta[rows])
            if isinstance(cached, tuple):
                for have, want in zip(cached, fresh):
                    assert have.tobytes() == want.tobytes()
            else:
                assert cached.tobytes() == fresh.tobytes()


# ----------------------------------------------------------------------
# engine: accuracy + determinism
# ----------------------------------------------------------------------
class TestEngineSimilarity:
    def test_duplicate_theta_rows_exist(self, forum_engine):
        # ties are real in this model: the determinism tests below
        # exercise actual duplicate rows, not just near-ties
        theta = forum_engine.state.theta
        assert np.unique(theta, axis=0).shape[0] < theta.shape[0]

    @pytest.mark.parametrize("metric", METRICS)
    def test_online_equals_offline_reference(
        self, forum_engine, metric
    ):
        state = forum_engine.state
        network = state.network
        query = network.index_of("user0_0")
        candidates = np.asarray(
            [
                index
                for index in network.indices_of_type("user")
                if index != query
            ],
            dtype=np.int64,
        )
        got = forum_engine.similar(
            "user0_0",
            k=len(candidates),
            metric=metric,
            object_type="user",
        )
        want = reference_ranking(
            state.theta, query, candidates, metric=metric
        )
        assert [node for node, _ in got] == [
            network.node_at(index) for index in want
        ]

    def test_k_larger_than_candidates(self, forum_engine):
        got = forum_engine.similar(
            "user0_0", k=10_000, object_type="user"
        )
        # every other user exactly once, self excluded
        users = set(
            forum_engine.state.network.nodes_of_type("user")
        )
        assert {node for node, _ in got} == users - {"user0_0"}
        assert len(got) == len(users) - 1

    def test_type_filter(self, forum_engine):
        network = forum_engine.state.network
        for node, _ in forum_engine.similar(
            "user0_0", k=50, object_type="blog"
        ):
            assert node in set(network.nodes_of_type("blog"))

    def test_unknown_inputs_are_actionable(self, forum_engine):
        with pytest.raises(ServingError, match="not served"):
            forum_engine.similar("ghost")
        with pytest.raises(ServingError, match="metric"):
            forum_engine.similar("user0_0", metric="jaccard")
        with pytest.raises(ServingError, match="object type"):
            forum_engine.similar("user0_0", object_type="galaxy")
        with pytest.raises(ServingError, match="relation"):
            forum_engine.suggest_links("user0_0", "befriends")
        with pytest.raises(ServingError, match="k must be"):
            forum_engine.similar("user0_0", k=0)

    def test_suggest_links_excludes_neighbors(
        self, forum_engine, forum_network
    ):
        linked = {
            target
            for target, _, _ in forum_network.out_neighbors(
                "user0_0", "writes"
            )
        }
        assert linked
        suggested = forum_engine.suggest_links(
            "user0_0", "writes", k=30
        )
        names = {node for node, _ in suggested}
        assert "user0_0" not in names
        assert not linked & names
        # candidates are exactly the relation's target type minus the
        # exclusions
        blogs = set(forum_engine.state.network.nodes_of_type("blog"))
        assert names == blogs - linked

    def test_suggest_links_excludes_extension_links(self, forum_result):
        engine = InferenceEngine.from_result(forum_result)
        engine.extend([new_user()])
        suggested = engine.suggest_links("newbie", "writes", k=50)
        names = {node for node, _ in suggested}
        assert "blog0_1" not in names
        assert "newbie" not in names


# ----------------------------------------------------------------------
# engine: precompute lifecycle
# ----------------------------------------------------------------------
class TestPrecomputeLifecycle:
    def fresh(self, forum_result):
        return InferenceEngine.from_result(forum_result)

    def test_hit_and_miss_counters(self, forum_result):
        engine = self.fresh(forum_result)
        engine.similar("user0_0", k=3)
        engine.similar("blog0_1", k=3)
        section = engine.info()["similarity"]
        assert section["queries"] == 2
        assert section["misses"] == 1
        assert section["hits"] == 1
        assert section["precompute_entries"] == 1
        assert section["precompute_bytes"] > 0
        engine.similar("user0_0", k=3, metric="euclidean")
        section = engine.info()["similarity"]
        assert section["precompute_entries"] == 2
        assert section["misses"] == 2

    def test_extend_invalidates(self, forum_result):
        engine = self.fresh(forum_result)
        engine.similar("user0_0", k=3)
        before = engine.info()["similarity"]
        engine.extend([new_user()])
        section = engine.info()["similarity"]
        assert section["precompute_entries"] == 0
        assert section["invalidations"] >= 1
        assert section["version"] > before["version"]
        # the rebuilt precompute covers the extension row
        got = engine.similar("newbie", k=5)
        assert "newbie" not in {node for node, _ in got}
        assert engine.info()["similarity"]["misses"] == 2

    def test_evict_invalidates(self, forum_result):
        engine = self.fresh(forum_result)
        engine.extend([new_user()])
        engine.similar("user0_0", k=3)
        invalidations = engine.info()["similarity"]["invalidations"]
        assert engine.evict(0) == ("newbie",)
        section = engine.info()["similarity"]
        assert section["precompute_entries"] == 0
        # counts dropped cache entries (precomputes + type masks)
        assert section["invalidations"] > invalidations

    def test_promote_invalidates_and_keeps_serving(self, forum_result):
        engine = self.fresh(forum_result)
        engine.extend([new_user()])
        engine.similar("user0_0", k=3)
        promoted = engine.promote(
            GenClusConfig(
                n_clusters=2, outer_iterations=2, seed=0, n_init=1
            )
        )
        section = engine.info()["similarity"]
        assert section["precompute_entries"] == 0
        # a promoted ranking equals a fresh engine's on the promoted
        # result -- no stale precompute survives the rebase
        fresh = InferenceEngine.from_result(promoted)
        assert engine.similar("user0_0", k=5) == fresh.similar(
            "user0_0", k=5
        )


# ----------------------------------------------------------------------
# cluster: scatter-gather identity
# ----------------------------------------------------------------------
class TestClusterSimilarity:
    @pytest.mark.parametrize("metric", METRICS)
    def test_shard_count_identity(
        self, forum_result, forum_engine, metric
    ):
        reference = forum_engine.similar_many(
            ["user0_0", "blog1_1"], k=6, metric=metric
        )
        for shards in SHARD_COUNTS:
            cluster = ShardedEngine.from_result(forum_result, n_shards=shards)
            got = cluster.similar_many(
                ["user0_0", "blog1_1"], k=6, metric=metric
            )
            assert got == reference, (metric, shards)

    def test_suggest_links_identity(self, forum_result, forum_engine):
        reference = forum_engine.suggest_links(
            "user0_0", "writes", k=30
        )
        for shards in SHARD_COUNTS:
            cluster = ShardedEngine.from_result(forum_result, n_shards=shards)
            assert (
                cluster.suggest_links("user0_0", "writes", k=30)
                == reference
            ), shards

    def test_extension_identity_across_shard_counts(
        self, forum_result
    ):
        reference = None
        for shards in SHARD_COUNTS:
            cluster = ShardedEngine.from_result(forum_result, n_shards=shards)
            cluster.extend([new_user(), new_user("fresh")])
            got = cluster.similar_many(
                ["newbie", "user0_0", "fresh"], k=8
            )
            suggested = cluster.suggest_links("newbie", "writes", k=30)
            assert "blog0_1" not in {n for n, _ in suggested}
            if reference is None:
                reference = (got, suggested)
            else:
                assert (got, suggested) == reference, shards

    def test_query_vectors_come_once_per_owner_shard(
        self, forum_result, forum_engine
    ):
        """One ``served_vectors`` call per owner shard, in shard order,
        carrying that shard's nodes in request order."""
        ids = forum_result.network.node_ids
        nodes = [ids[30], ids[2], ids[15], ids[11], ids[25], ids[2]]
        cluster = ShardedEngine.from_result(forum_result, n_shards=3)
        calls = []
        for shard, handle in enumerate(cluster.shards):
            def recorded(nodes, shard=shard, fetch=handle.served_vectors):
                calls.append((shard, list(nodes)))
                return fetch(nodes)

            handle.served_vectors = recorded
        got = cluster.similar_many(nodes, k=5)
        assert got == forum_engine.similar_many(nodes, k=5)
        assert calls == [
            (0, [ids[2], ids[2]]),
            (1, [ids[15], ids[11]]),
            (2, [ids[30], ids[25]]),
        ]

    def test_first_unknown_node_names_the_error(
        self, forum_result, forum_engine
    ):
        nodes = ["blog1_1", "nobody", "user0_0", "nobody-else"]
        for engine in (
            forum_engine,
            ShardedEngine.from_result(forum_result, n_shards=3),
        ):
            with pytest.raises(
                ServingError,
                match="^node 'nobody' is not served by this engine$",
            ):
                engine.similar_many(nodes, k=3)

    def test_router_owns_similarity_telemetry(self, forum_result):
        cluster = ShardedEngine.from_result(forum_result, n_shards=2)
        cluster.similar_many(["user0_0", "blog1_1"], k=3)
        section = cluster.info()["similarity"]
        # two queries counted once at the router, not once per shard
        assert section["queries"] == 2


# ----------------------------------------------------------------------
# suggest_links excludes a base node's training links
# ----------------------------------------------------------------------
def _suggest_oracle(engine, network, node, relation, k):
    """The ranked target-type nodes minus the node's training links,
    read off the fitted network's own adjacency."""
    target_type = network.relation_declaration(relation).target
    linked = {target for target, _, _ in network.out_neighbors(node, relation)}
    ranked = engine.similar(node, k=network.num_nodes, object_type=target_type)
    return [pair for pair in ranked if pair[0] not in linked][:k]


def _assert_suggestions_pinned(network, engines, k=6):
    for relation in network.schema.relation_names:
        source = network.relation_declaration(relation).source
        for node in network.nodes_of_type(source):
            for engine in engines:
                assert engine.suggest_links(node, relation, k=k) == (
                    _suggest_oracle(engine, network, node, relation, k)
                ), (node, relation)


class TestSuggestLinksPinned:
    def test_toy_model(self, forum_network, forum_result, artifact_path):
        _assert_suggestions_pinned(forum_network, [
            InferenceEngine.from_result(forum_result),
            InferenceEngine.load(artifact_path),  # hydrated on demand
        ])

    def test_weather_model(self, tmp_path):
        network = generate_weather_network(
            WeatherConfig(
                n_temperature=24, n_precipitation=12, k_neighbors=3,
                n_observations=3, seed=5,
            )
        ).network
        result = GenClus(
            GenClusConfig(n_clusters=3, outer_iterations=2, seed=0, n_init=1)
        ).fit(network, attributes=WEATHER_ATTRIBUTES)
        _assert_suggestions_pinned(network, [
            InferenceEngine.from_result(result),
            InferenceEngine.load(result.save(tmp_path / "weather")),
        ])


# ----------------------------------------------------------------------
# mmap: schema-v3 bundles serve similarity off the map
# ----------------------------------------------------------------------
class TestMappedSimilarity:
    @pytest.fixture(scope="class")
    def weather_bundle(self, tmp_path_factory):
        generated = generate_weather_network(
            WeatherConfig(
                n_temperature=30,
                n_precipitation=15,
                k_neighbors=3,
                n_observations=3,
                seed=0,
            )
        )
        config = GenClusConfig(
            n_clusters=4, outer_iterations=2, seed=0, n_init=2
        )
        result = GenClus(config).fit(
            generated.network, attributes=WEATHER_ATTRIBUTES
        )
        return result.save(
            tmp_path_factory.mktemp("simmap") / "model_v3"
        )

    def test_similar_serves_off_the_map(self, weather_bundle):
        eager = InferenceEngine.load(weather_bundle, cache_size=0)
        mapped = InferenceEngine.load(
            weather_bundle, mmap=True, cache_size=0
        )
        got = mapped.similar("T0", k=5)
        assert got == eager.similar("T0", k=5)
        assert mapped.similar(
            "T0", k=5, metric="euclidean"
        ) == eager.similar("T0", k=5, metric="euclidean")
        # similarity reads pages; it never materializes the map
        assert mapped.info()["memory"]["theta_mapped"]

    def test_mapped_cluster_identity(self, weather_bundle):
        eager = InferenceEngine.load(weather_bundle, cache_size=0)
        cluster = ShardedEngine.load(
            weather_bundle, n_shards=2, mmap=True
        )
        assert cluster.similar_many(
            ["T0", "T7"], k=6
        ) == eager.similar_many(["T0", "T7"], k=6)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_similar_text(self, artifact_path, capsys):
        assert (
            main(
                [
                    "similar",
                    str(artifact_path),
                    "--node",
                    "user0_0",
                    "-k",
                    "3",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].lstrip().startswith("1. ")

    def test_similar_json_matches_api(
        self, artifact_path, forum_result, capsys
    ):
        assert (
            main(
                [
                    "similar",
                    str(artifact_path),
                    "--node",
                    "user0_0",
                    "-k",
                    "4",
                    "--metric",
                    "euclidean",
                    "--json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        engine = InferenceEngine.load(artifact_path)
        want = engine.similar("user0_0", k=4, metric="euclidean")
        assert [(row["node"], row["score"]) for row in rows] == [
            (node, score) for node, score in want
        ]

    def test_similar_sharded_identity(self, artifact_path, capsys):
        outputs = []
        for shards in ("1", "3"):
            assert (
                main(
                    [
                        "similar",
                        str(artifact_path),
                        "--node",
                        "user0_0",
                        "-k",
                        "5",
                        "--shards",
                        shards,
                        "--json",
                    ]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_suggest_links_excludes(
        self, artifact_path, forum_network, capsys
    ):
        assert (
            main(
                [
                    "suggest-links",
                    str(artifact_path),
                    "--node",
                    "user0_0",
                    "--relation",
                    "writes",
                    "-k",
                    "30",
                    "--json",
                ]
            )
            == 0
        )
        names = {
            row["node"]
            for row in json.loads(capsys.readouterr().out)
        }
        linked = {
            target
            for target, _, _ in forum_network.out_neighbors(
                "user0_0", "writes"
            )
        }
        assert linked and not linked & names
        assert "user0_0" not in names

    def test_unknown_node_fails_cleanly(self, artifact_path, capsys):
        assert (
            main(
                ["similar", str(artifact_path), "--node", "ghost"]
            )
            == 1
        )
        assert "not served" in capsys.readouterr().err
