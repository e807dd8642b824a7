"""Tests for repro.eval.linkpred and repro.eval.alignment."""

import numpy as np
import pytest

from repro.eval.alignment import align_clusters, confusion_matrix
from repro.eval.linkpred import link_prediction_map, relevance_matrix
from repro.hin.builder import NetworkBuilder


def make_ac_network():
    """2 areas; authors publish only in their area's conference."""
    builder = NetworkBuilder()
    builder.object_type("author").object_type("conf")
    builder.relation("publish_in", "author", "conf")
    for area in range(2):
        builder.node(f"c{area}", "conf")
        for i in range(4):
            builder.node(f"a{area}_{i}", "author")
    for area in range(2):
        for i in range(4):
            builder.link(f"a{area}_{i}", f"c{area}", "publish_in")
    return builder.build()


def aligned_theta(network):
    theta = np.zeros((network.num_nodes, 2))
    for node in network.node_ids:
        area = int(str(node)[1])
        idx = network.index_of(node)
        theta[idx, area] = 0.9
        theta[idx, 1 - area] = 0.1
    return theta


class TestRelevanceMatrix:
    def test_marks_observed_links(self):
        network = make_ac_network()
        queries = network.indices_of_type("author")
        candidates = network.indices_of_type("conf")
        relevance = relevance_matrix(
            network, "publish_in", queries, candidates
        )
        assert relevance.shape == (8, 2)
        assert relevance.sum() == 8
        # author a0_0 links only to c0
        row = queries.index(network.index_of("a0_0"))
        col = candidates.index(network.index_of("c0"))
        assert relevance[row, col]
        assert relevance[row, 1 - col] == False  # noqa: E712


class TestLinkPredictionMap:
    def test_perfect_memberships_give_map_one(self):
        network = make_ac_network()
        theta = aligned_theta(network)
        result = link_prediction_map(network, theta, "publish_in")
        for value in result.map_by_similarity.values():
            assert value == pytest.approx(1.0)

    def test_random_memberships_score_lower(self):
        network = make_ac_network()
        rng = np.random.default_rng(0)
        random_theta = rng.dirichlet(np.ones(2), size=network.num_nodes)
        aligned = link_prediction_map(
            network, aligned_theta(network), "publish_in"
        )
        shuffled = link_prediction_map(
            network, random_theta, "publish_in"
        )
        assert (
            aligned.map_by_similarity["cosine"]
            >= shuffled.map_by_similarity["cosine"]
        )

    def test_similarity_subset(self):
        network = make_ac_network()
        result = link_prediction_map(
            network,
            aligned_theta(network),
            "publish_in",
            similarities=["cosine"],
        )
        assert list(result.map_by_similarity) == ["cosine"]

    def test_unknown_similarity_raises(self):
        network = make_ac_network()
        with pytest.raises(KeyError, match="unknown similarity"):
            link_prediction_map(
                network,
                aligned_theta(network),
                "publish_in",
                similarities=["jaccard"],
            )

    def test_wrong_theta_rows_raises(self):
        network = make_ac_network()
        with pytest.raises(ValueError, match="rows"):
            link_prediction_map(network, np.ones((3, 2)), "publish_in")


class TestAlignment:
    def test_confusion_matrix(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([1, 1, 0, 0])
        table = confusion_matrix(truth, pred)
        np.testing.assert_array_equal(table, [[0, 2], [2, 0]])

    def test_align_swapped_labels(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        mapping = align_clusters(truth, pred)
        assert mapping == {2: 0, 0: 1, 1: 2}
        np.testing.assert_array_equal(
            [mapping[cluster] for cluster in pred.tolist()], truth
        )

    def test_align_with_noise(self):
        truth = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([1, 1, 0, 0, 0, 0])
        mapping = align_clusters(truth, pred)
        # cluster 1 is mostly class 0; cluster 0 mostly class 1
        assert mapping[1] == 0
        assert mapping[0] == 1

    def test_extra_clusters_map_to_majority(self):
        truth = np.array([0, 0, 1, 1, 1, 1])
        pred = np.array([0, 0, 1, 1, 2, 2])
        mapping = align_clusters(truth, pred)
        assert set(mapping) == {0, 1, 2}
        assert mapping[2] == 1  # majority class of cluster 2

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            confusion_matrix(np.array([-1, 0]), np.array([0, 1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal shape"):
            confusion_matrix(np.array([0, 1]), np.array([0, 1, 1]))
