"""Tests for the NetPLSA and iTopicModel baselines."""

import numpy as np
import pytest

from repro.baselines.itopicmodel import ITopicModel
from repro.baselines.netplsa import NetPLSA
from repro.exceptions import ConfigError
from repro.hin.attributes import TextAttribute
from repro.hin.builder import NetworkBuilder


def make_text_network(seed=0):
    """Two communities: papers with text + authors without, linked."""
    rng = np.random.default_rng(seed)
    vocabularies = (
        ["query", "index", "join"],
        ["neural", "kernel", "gradient"],
    )
    text = TextAttribute("title")
    builder = NetworkBuilder()
    builder.object_type("paper").object_type("author")
    builder.add_paired_relation(
        "written_by", "paper", "author", inverse="write"
    )
    truth = {}
    for community in range(2):
        for a in range(3):
            author = f"a{community}_{a}"
            builder.node(author, "author")
            truth[author] = community
        for p in range(8):
            paper = f"p{community}_{p}"
            builder.node(paper, "paper")
            truth[paper] = community
            text.add_tokens(
                paper,
                rng.choice(vocabularies[community], size=6).tolist(),
            )
            builder.link_paired(
                paper, f"a{community}_{p % 3}", "written_by"
            )
    builder.attribute(text)
    return builder.build(), truth


def label_agreement(theta, network, truth):
    labels = np.argmax(theta, axis=1)
    direct = swapped = 0
    for node, community in truth.items():
        label = labels[network.index_of(node)]
        direct += label == community
        swapped += label == 1 - community
    return max(direct, swapped) / len(truth)


class TestNetPLSA:
    def test_recovers_communities(self):
        network, truth = make_text_network()
        theta = NetPLSA(2, seed=0, max_iterations=60).fit_network(
            network, "title"
        )
        assert theta.shape == (network.num_nodes, 2)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        assert label_agreement(theta, network, truth) > 0.9

    def test_lambda_zero_ignores_network(self):
        """With lambda=0 text-free nodes never move from initialization."""
        network, _ = make_text_network()
        theta = NetPLSA(
            2, lambda_=0.0, seed=3, max_iterations=20
        ).fit_network(network, "title")
        rng = np.random.default_rng(3)
        initial = rng.dirichlet(np.ones(2), size=network.num_nodes)
        author_idx = network.index_of("a0_0")
        np.testing.assert_allclose(
            theta[author_idx], initial[author_idx], atol=1e-9
        )

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            NetPLSA(0)
        with pytest.raises(ConfigError):
            NetPLSA(2, lambda_=1.0)
        with pytest.raises(ConfigError):
            NetPLSA(2, smoothing_steps=-1)

    def test_requires_text_attribute(self):
        network, _ = make_text_network()
        from repro.exceptions import AttributeSpecError

        with pytest.raises(AttributeSpecError):
            NetPLSA(2).fit_network(network, "missing")


class TestITopicModel:
    def test_recovers_communities_including_authors(self):
        network, truth = make_text_network()
        theta = ITopicModel(2, seed=0, max_iterations=80).fit_network(
            network, "title"
        )
        assert label_agreement(theta, network, truth) > 0.9

    def test_rows_on_simplex(self):
        network, _ = make_text_network()
        theta = ITopicModel(2, seed=1).fit_network(network, "title")
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        assert np.all(theta >= 0)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ITopicModel(0)
        with pytest.raises(ConfigError):
            ITopicModel(2, link_weight=-1.0)

    def test_seeded_reproducibility(self):
        network, _ = make_text_network()
        t1 = ITopicModel(2, seed=4, max_iterations=10).fit_network(
            network, "title"
        )
        network2, _ = make_text_network()
        t2 = ITopicModel(2, seed=4, max_iterations=10).fit_network(
            network2, "title"
        )
        np.testing.assert_array_equal(t1, t2)
