"""Tests for repro.hin.views."""

import numpy as np
import pytest

from repro.hin.builder import NetworkBuilder
from repro.hin.views import build_relation_matrices


@pytest.fixture
def network():
    builder = NetworkBuilder()
    builder.object_type("author").object_type("conf")
    builder.add_paired_relation(
        "publish_in", "author", "conf", inverse="published_by"
    )
    builder.relation("coauthor", "author", "author")
    builder.nodes(["a1", "a2"], "author").nodes(["c1"], "conf")
    builder.link_paired("a1", "c1", "publish_in", weight=3.0)
    builder.link_paired("a2", "c1", "publish_in", weight=1.0)
    builder.link("a1", "a2", "coauthor", weight=2.0)
    builder.link("a2", "a1", "coauthor", weight=2.0)
    return builder.build()


class TestBuildRelationMatrices:
    def test_relation_order_follows_schema(self, network):
        mats = build_relation_matrices(network)
        assert mats.relation_names == (
            "publish_in",
            "published_by",
            "coauthor",
        )
        assert mats.num_relations == 3
        assert mats.num_nodes == 3

    def test_matrix_entries(self, network):
        mats = build_relation_matrices(network)
        publish = mats.matrix("publish_in").toarray()
        # a1 -> c1 weight 3, a2 -> c1 weight 1
        assert publish[0, 2] == 3.0
        assert publish[1, 2] == 1.0
        assert publish.sum() == 4.0
        published = mats.matrix("published_by").toarray()
        assert published[2, 0] == 3.0
        assert published[2, 1] == 1.0

    def test_empty_relations_dropped_by_default(self, network):
        # remove all coauthor edges by building a new network without them
        builder = NetworkBuilder()
        builder.object_type("author").object_type("conf")
        builder.add_paired_relation(
            "publish_in", "author", "conf", inverse="published_by"
        )
        builder.relation("coauthor", "author", "author")
        builder.nodes(["a1"], "author").nodes(["c1"], "conf")
        builder.link_paired("a1", "c1", "publish_in")
        net = builder.build()
        mats = build_relation_matrices(net)
        assert "coauthor" not in mats.relation_names

    def test_index_of_unknown_relation(self, network):
        mats = build_relation_matrices(network)
        with pytest.raises(KeyError):
            mats.index_of("cites")

    def test_out_weight_totals(self, network):
        mats = build_relation_matrices(network)
        totals = mats.out_weight_totals()
        r = mats.index_of("publish_in")
        np.testing.assert_allclose(totals[:, r], [3.0, 1.0, 0.0])
        r = mats.index_of("coauthor")
        np.testing.assert_allclose(totals[:, r], [2.0, 2.0, 0.0])

    def test_combined_default_flattens_all(self, network):
        mats = build_relation_matrices(network)
        combined = mats.combined().toarray()
        assert combined[0, 2] == 3.0  # publish_in
        assert combined[2, 0] == 3.0  # published_by
        assert combined[0, 1] == 2.0  # coauthor

    def test_combined_with_weights(self, network):
        mats = build_relation_matrices(network)
        weights = np.zeros(mats.num_relations)
        weights[mats.index_of("coauthor")] = 2.0
        combined = mats.combined(weights).toarray()
        assert combined[0, 1] == 4.0
        assert combined[0, 2] == 0.0

    def test_combined_wrong_shape_raises(self, network):
        mats = build_relation_matrices(network)
        with pytest.raises(ValueError, match="expected 3 weights"):
            mats.combined(np.ones(2))

    def test_neighbor_term_matches_manual_sum(self, network):
        """W_r @ Theta must equal the explicit per-edge accumulation."""
        rng = np.random.default_rng(0)
        theta = rng.dirichlet(np.ones(4), size=3)
        mats = build_relation_matrices(network)
        expected = np.zeros((3, 4))
        for edge in network.edges():
            r = edge.relation
            i = network.index_of(edge.source)
            j = network.index_of(edge.target)
            expected[i] += edge.weight * theta[j] * 1.0  # gamma == 1
        combined = sum(m @ theta for m in mats.matrices)
        np.testing.assert_allclose(combined, expected)
