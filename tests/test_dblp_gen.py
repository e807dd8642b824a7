"""Tests for repro.datagen.dblp (synthetic four-area corpus)."""

import numpy as np
import pytest

from repro.datagen.dblp import (
    AREAS,
    CONFERENCES_BY_AREA,
    FourAreaConfig,
    build_ac_network,
    build_acp_network,
    generate_corpus,
    ground_truth_labels,
)
from repro.datagen.dblp_vocab import AREA_TERM_LISTS, COMMON_TERMS
from repro.exceptions import ConfigError


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        FourAreaConfig(n_authors=120, n_papers=500, seed=3)
    )


class TestCorpus:
    def test_sizes(self, corpus):
        assert len(corpus.authors) == 120
        assert len(corpus.papers) == 500
        assert len(corpus.conferences) == 20

    def test_conference_areas_by_construction(self, corpus):
        for area_index, area in enumerate(AREAS):
            for conference in CONFERENCES_BY_AREA[area]:
                assert corpus.conference_area[conference] == area_index

    def test_every_area_has_authors(self, corpus):
        areas = set(corpus.author_area.values())
        assert areas == {0, 1, 2, 3}

    def test_profiles_are_distributions(self, corpus):
        for profile in corpus.author_profiles.values():
            assert profile.shape == (4,)
            assert profile.sum() == pytest.approx(1.0)

    def test_profiles_concentrate_on_home_area(self, corpus):
        agree = sum(
            1
            for author, home in corpus.author_area.items()
            if np.argmax(corpus.author_profiles[author]) == home
        )
        assert agree / len(corpus.author_area) > 0.8

    def test_papers_mostly_publish_in_area(self, corpus):
        """In-area rate tracks 1 - off_area_venue_prob (0.18 default)."""
        in_area = sum(
            1
            for paper in corpus.papers
            if corpus.conference_area[paper.venue] == paper.area
        )
        assert in_area / len(corpus.papers) > 0.75

    def test_titles_lean_on_area_vocabulary(self, corpus):
        """Home-area + common terms dominate titles; off-topic terms are
        a minority injected by off_topic_term_prob."""
        in_vocabulary = 0
        total = 0
        for paper in corpus.papers[:100]:
            allowed = set(AREA_TERM_LISTS[paper.area]) | set(COMMON_TERMS)
            in_vocabulary += sum(
                1 for token in paper.title_tokens if token in allowed
            )
            total += len(paper.title_tokens)
        assert in_vocabulary / total > 0.75

    def test_off_topic_zero_keeps_titles_pure(self):
        pure = generate_corpus(
            FourAreaConfig(
                n_authors=40, n_papers=60, seed=1,
                off_topic_term_prob=0.0,
            )
        )
        for paper in pure.papers:
            allowed = set(AREA_TERM_LISTS[paper.area]) | set(COMMON_TERMS)
            assert set(paper.title_tokens) <= allowed

    def test_author_team_sizes_bounded(self, corpus):
        for paper in corpus.papers:
            assert 1 <= len(paper.authors) <= 4
            assert len(set(paper.authors)) == len(paper.authors)

    def test_seeded_reproducibility(self):
        config = FourAreaConfig(n_authors=40, n_papers=100, seed=11)
        c1 = generate_corpus(config)
        c2 = generate_corpus(config)
        assert c1.papers == c2.papers

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_authors": 2},
            {"n_papers": 0},
            {"title_length": 0},
            {"area_concentration": 0.0},
            {"cross_area_fraction": 1.5},
            {"off_area_venue_prob": -0.1},
            {"max_authors_per_paper": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FourAreaConfig(**kwargs)


class TestACNetwork:
    def test_object_types(self, corpus):
        net = build_ac_network(corpus)
        assert len(net.nodes_of_type("author")) == 120
        assert len(net.nodes_of_type("conference")) == 20

    def test_publish_weights_count_papers(self, corpus):
        net = build_ac_network(corpus)
        # pick an author with at least one paper and verify one weight
        paper = corpus.papers[0]
        author = paper.authors[0]
        expected = sum(
            1
            for p in corpus.papers
            if author in p.authors and p.venue == paper.venue
        )
        assert (paper.venue, "publish_in", float(expected)) in (
            net.out_neighbors(author)
        )
        assert (author, "published_by", float(expected)) in (
            net.out_neighbors(paper.venue)
        )

    def test_coauthor_links_symmetric(self, corpus):
        net = build_ac_network(corpus)
        for edge in list(net.edges("coauthor"))[:100]:
            assert (edge.source, "coauthor", edge.weight) in (
                net.out_neighbors(edge.target, "coauthor")
            )

    def test_text_on_both_types(self, corpus):
        net = build_ac_network(corpus)
        text = net.text_attribute("title")
        authors_with_papers = {
            a for p in corpus.papers for a in p.authors
        }
        for author in list(authors_with_papers)[:10]:
            assert text.has_observations(author)
        venues_used = {p.venue for p in corpus.papers}
        for conference in list(venues_used)[:10]:
            assert text.has_observations(conference)

    def test_every_node_linked_with_mutual_inverses(self, corpus):
        """Every node has an out-link, every paired relation's links
        appear reversed under its inverse, and titles are observed."""
        net = build_ac_network(corpus)
        out_linked = np.zeros(net.num_nodes, dtype=bool)
        for relation in net.schema.relations:
            sources, targets, weights = net.edge_arrays(relation.name)
            out_linked[sources] = True
            if relation.inverse is not None:
                back = net.edge_arrays(relation.inverse)
                assert sorted(zip(*(a.tolist() for a in back))) == sorted(
                    zip(targets.tolist(), sources.tolist(), weights.tolist())
                )
        assert out_linked.all()
        assert net.text_attribute("title").nodes_with_observations()

    def test_ground_truth_covers_all_nodes(self, corpus):
        net = build_ac_network(corpus)
        labels = ground_truth_labels(corpus, net)
        assert set(labels) == set(net.node_ids)


class TestACPNetwork:
    def test_object_types(self, corpus):
        net = build_acp_network(corpus)
        assert len(net.nodes_of_type("paper")) == 500
        assert len(net.nodes_of_type("author")) == 120
        assert len(net.nodes_of_type("conference")) == 20

    def test_binary_weights(self, corpus):
        net = build_acp_network(corpus)
        for edge in list(net.edges())[:200]:
            assert edge.weight == 1.0

    def test_text_on_papers_only(self, corpus):
        net = build_acp_network(corpus)
        text = net.text_attribute("title")
        observed = set(text.nodes_with_observations())
        papers = set(net.nodes_of_type("paper"))
        assert observed == papers

    def test_every_paper_has_author_and_venue(self, corpus):
        net = build_acp_network(corpus)
        for paper in corpus.papers[:50]:
            out = net.out_neighbors(paper.paper_id)
            relations = {relation for _, relation, _ in out}
            assert "written_by" in relations
            assert "published_by" in relations

    def test_ground_truth_covers_all_nodes(self, corpus):
        net = build_acp_network(corpus)
        labels = ground_truth_labels(corpus, net)
        assert set(labels) == set(net.node_ids)
        assert all(0 <= a < 4 for a in labels.values())
