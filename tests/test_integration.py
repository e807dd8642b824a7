"""Cross-module integration tests: full workflows a user would run."""

import numpy as np
import pytest

from repro import (
    GenClus,
    GenClusConfig,
    load_network,
    save_network,
)
from repro.datagen.dblp import (
    FourAreaConfig,
    build_ac_network,
    build_acp_network,
    generate_corpus,
    ground_truth_labels,
)
from repro.datagen.weather import WeatherConfig, generate_weather_network
from repro.eval.linkpred import link_prediction_map
from repro.eval.nmi import nmi


class TestSaveFitLoadRoundTrip:
    def test_saved_network_clusters_identically(self, tmp_path):
        """save -> load -> fit must match fit on the original network."""
        corpus = generate_corpus(
            FourAreaConfig(n_authors=60, n_papers=200, seed=5)
        )
        network = build_ac_network(corpus)
        path = tmp_path / "ac.json"
        save_network(network, path)
        restored = load_network(path)

        config = GenClusConfig(
            n_clusters=4, outer_iterations=3, seed=9, n_init=2
        )
        original_fit = GenClus(config).fit(network, ["title"])
        restored_fit = GenClus(config).fit(restored, ["title"])
        np.testing.assert_allclose(
            original_fit.theta, restored_fit.theta, atol=1e-12
        )
        np.testing.assert_allclose(
            original_fit.gamma, restored_fit.gamma, atol=1e-12
        )


class TestEndToEndBibliographic:
    @pytest.fixture(scope="class")
    def corpus(self):
        """A mechanism-test corpus: easier text than the benchmark
        defaults (longer titles, less off-topic noise) so recovery
        quality reflects correctness rather than benchmark hardness."""
        return generate_corpus(
            FourAreaConfig(
                n_authors=150,
                n_papers=600,
                seed=2,
                title_length=8,
                off_topic_term_prob=0.1,
                off_area_venue_prob=0.08,
            )
        )

    def test_acp_recovers_areas_well(self, corpus):
        network = build_acp_network(corpus)
        truth = ground_truth_labels(corpus, network)
        config = GenClusConfig(
            n_clusters=4, outer_iterations=6, seed=1, n_init=3
        )
        result = GenClus(config).fit(network, ["title"])
        truth_array = np.asarray(
            [truth[node] for node in network.node_ids]
        )
        assert nmi(truth_array, result.hard_labels()) > 0.6

    def test_acp_author_strength_beats_venue(self, corpus):
        """The Fig. 9 claim on the ACP network."""
        network = build_acp_network(corpus)
        config = GenClusConfig(
            n_clusters=4, outer_iterations=6, seed=1, n_init=3
        )
        result = GenClus(config).fit(network, ["title"])
        strengths = result.strengths()
        assert strengths["written_by"] > strengths["published_by"]

    def test_link_prediction_from_fit(self, corpus):
        network = build_acp_network(corpus)
        config = GenClusConfig(
            n_clusters=4, outer_iterations=4, seed=1, n_init=2
        )
        result = GenClus(config).fit(network, ["title"])
        prediction = link_prediction_map(
            network, result.theta, "published_by"
        )
        for value in prediction.map_by_similarity.values():
            # 20 conferences, ~5 in-area: random MAP ~ 0.18
            assert value > 0.3



class TestEndToEndWeather:
    def test_weather_pipeline(self):
        generated = generate_weather_network(
            WeatherConfig(
                n_temperature=120,
                n_precipitation=60,
                k_neighbors=4,
                n_observations=5,
                seed=11,
            )
        )
        from repro.experiments.weather_common import fit_weather_genclus

        result = fit_weather_genclus(generated, seed=11)
        truth = generated.labels_array()
        score = nmi(truth, result.hard_labels())
        assert score > 0.35
        # strengths exist for all four relations and are non-negative
        strengths = result.strengths()
        assert set(strengths) == {"tt", "tp", "pt", "pp"}
        assert all(v >= 0 for v in strengths.values())

    def test_incomplete_attributes_are_genuinely_incomplete(self):
        generated = generate_weather_network(
            WeatherConfig(
                n_temperature=30,
                n_precipitation=15,
                k_neighbors=3,
                n_observations=2,
                seed=0,
            )
        )
        network = generated.network
        temperature = network.numeric_attribute("temperature")
        precipitation = network.numeric_attribute("precipitation")
        # no sensor carries both attributes
        both = set(temperature.nodes_with_observations()) & set(
            precipitation.nodes_with_observations()
        )
        assert both == set()
        # yet GenClus assigns every sensor a membership
        from repro.experiments.weather_common import fit_weather_genclus

        result = fit_weather_genclus(generated, seed=0)
        assert result.theta.shape == (45, 4)
        np.testing.assert_allclose(result.theta.sum(axis=1), 1.0)


class TestReporting:
    def test_render_table_alignment(self):
        from repro.experiments.reporting import render_table

        text = render_table(
            ("name", "value"),
            [{"name": "alpha", "value": 0.5}, {"name": "b", "value": 2}],
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "0.5000" in lines[2]

    def test_render_table_empty_columns_rejected(self):
        from repro.experiments.reporting import render_table

        with pytest.raises(ValueError, match="non-empty"):
            render_table((), [])

    def test_format_cell(self):
        from repro.experiments.reporting import format_cell

        assert format_cell(0.123456) == "0.1235"
        assert format_cell(True) == "True"
        assert format_cell("x") == "x"
        assert format_cell(3) == "3"
