"""Tests for repro.datagen.toy (Figs. 1 and 4 networks)."""

import numpy as np
import pytest

from repro.core.feature import feature_function
from repro.datagen.toy import (
    FIG4_MEMBERSHIPS,
    fig4_network,
    fig4_theta,
    political_forum_network,
    political_forum_truth,
)


class TestFig4Network:
    def test_seven_objects(self):
        net = fig4_network()
        assert net.num_nodes == 7
        assert len(net.nodes_of_type("paper")) == 3
        assert len(net.nodes_of_type("author")) == 3
        assert len(net.nodes_of_type("venue")) == 1

    def test_drawn_out_links(self):
        net = fig4_network()
        out = net.out_neighbors("paper-1")
        assert ("venue-2", "published_by", 1.0) in out
        assert ("author-3", "written_by", 1.0) in out
        assert ("paper-6", "write", 1.0) in net.out_neighbors("author-4")
        assert net.num_edges() == 7

    def test_theta_matches_figure(self):
        net = fig4_network()
        theta = fig4_theta(net)
        assert theta.shape == (7, 3)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        np.testing.assert_allclose(
            theta[net.index_of("author-4")], [1 / 3, 1 / 3, 1 / 3]
        )

    def test_paper_feature_values_on_network(self):
        """Recompute the four published feature values from the network."""
        net = fig4_network()
        theta = fig4_theta(net)

        def f(src, dst):
            return feature_function(
                theta[net.index_of(src)], theta[net.index_of(dst)], 1.0
            )

        assert f("paper-1", "author-3") == pytest.approx(-0.4701, abs=1e-4)
        assert f("paper-1", "venue-2") == pytest.approx(-0.4701, abs=1e-4)
        assert f("paper-1", "author-4") == pytest.approx(-1.7174, abs=1e-4)
        assert f("paper-1", "author-5") == pytest.approx(-2.3410, abs=1e-4)
        assert f("author-4", "paper-1") == pytest.approx(-1.0986, abs=1e-4)

    def test_membership_constants_cover_all_nodes(self):
        net = fig4_network()
        assert set(FIG4_MEMBERSHIPS) == set(net.node_ids)


class TestPoliticalForum:
    def test_structure(self):
        net = political_forum_network()
        assert len(net.nodes_of_type("user")) == 16
        assert len(net.nodes_of_type("blog")) == 8
        assert len(net.nodes_of_type("book")) == 8
        present = {r for r in net.schema.relation_names if net.num_edges(r)}
        assert {"friend", "writes", "written_by", "likes", "liked_by"} <= (
            present
        )

    def test_text_is_incomplete_on_users(self):
        net = political_forum_network()
        text = net.text_attribute("text")
        users = net.nodes_of_type("user")
        observed = [u for u in users if text.has_observations(u)]
        assert 0 < len(observed) < len(users)

    def test_blogs_and_books_always_have_text(self):
        net = political_forum_network()
        text = net.text_attribute("text")
        for node in net.nodes_of_type("blog") + net.nodes_of_type("book"):
            assert text.has_observations(node)

    def test_friendship_crosses_camps(self):
        net = political_forum_network()
        truth = political_forum_truth(net)
        cross = sum(
            1
            for edge in net.edges("friend")
            if truth[edge.source] != truth[edge.target]
        )
        assert cross > 0

    def test_likes_stay_in_camp(self):
        net = political_forum_network()
        truth = political_forum_truth(net)
        for edge in net.edges("likes"):
            assert truth[edge.source] == truth[edge.target]

    def test_truth_labels_binary(self):
        net = political_forum_network()
        truth = political_forum_truth(net)
        assert set(truth.values()) == {0, 1}

    def test_genclus_learns_like_over_friend(self):
        """The motivating claim of Fig. 1: user-like-book should earn a
        higher strength than friendship for political-interest clusters."""
        from repro.core import GenClus, GenClusConfig

        net = political_forum_network()
        config = GenClusConfig(
            n_clusters=2, outer_iterations=5, seed=1, n_init=3
        )
        result = GenClus(config).fit(net, attributes=["text"])
        strengths = result.strengths()
        assert strengths["likes"] > strengths["friend"]
        # and the camps are actually recovered
        truth = political_forum_truth(net)
        labels = result.hard_labels()
        from repro.eval.nmi import nmi

        truth_array = np.array(
            [truth[node] for node in net.node_ids]
        )
        assert nmi(truth_array, labels) > 0.8
