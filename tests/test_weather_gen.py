"""Tests for repro.datagen.weather (Appendix C generator)."""

import numpy as np
import pytest

from repro.datagen.weather import (
    PRECIPITATION_ATTR,
    PRECIPITATION_TYPE,
    RELATION_PP,
    RELATION_PT,
    RELATION_TP,
    RELATION_TT,
    TEMPERATURE_ATTR,
    TEMPERATURE_TYPE,
    WeatherConfig,
    generate_weather_network,
    setting1_means,
    setting2_means,
)
from repro.exceptions import ConfigError


@pytest.fixture(scope="module")
def small_weather():
    config = WeatherConfig(
        n_temperature=60,
        n_precipitation=30,
        k_neighbors=3,
        n_observations=5,
        seed=7,
    )
    return generate_weather_network(config)


class TestStructure:
    def test_node_counts(self, small_weather):
        net = small_weather.network
        assert len(net.nodes_of_type(TEMPERATURE_TYPE)) == 60
        assert len(net.nodes_of_type(PRECIPITATION_TYPE)) == 30
        assert net.num_nodes == 90

    def test_knn_out_degrees(self, small_weather):
        net = small_weather.network
        # every sensor has exactly k out-links per relation it sources
        for relation, type_name, count in [
            (RELATION_TT, TEMPERATURE_TYPE, 60),
            (RELATION_TP, TEMPERATURE_TYPE, 60),
            (RELATION_PT, PRECIPITATION_TYPE, 30),
            (RELATION_PP, PRECIPITATION_TYPE, 30),
        ]:
            assert net.num_edges(relation) == count * 3

    def test_no_self_links(self, small_weather):
        for edge in small_weather.network.edges():
            assert edge.source != edge.target

    def test_links_are_geographically_local(self, small_weather):
        """kNN targets must be closer than ~all non-targets on average."""
        net = small_weather.network
        locations = small_weather.locations
        rng = np.random.default_rng(0)
        linked: list[float] = []
        for edge in list(net.edges(RELATION_TT))[:50]:
            i = net.index_of(edge.source)
            j = net.index_of(edge.target)
            linked.append(float(np.linalg.norm(locations[i] - locations[j])))
        random_pairs: list[float] = []
        for _ in range(200):
            i, j = rng.choice(90, size=2, replace=False)
            random_pairs.append(
                float(np.linalg.norm(locations[i] - locations[j]))
            )
        assert np.mean(linked) < np.mean(random_pairs)

    def test_locations_in_unit_disc(self, small_weather):
        radii = np.linalg.norm(small_weather.locations, axis=1)
        assert np.all(radii <= 1.0 + 1e-12)


class TestMemberships:
    def test_true_theta_on_simplex(self, small_weather):
        theta = small_weather.true_theta
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        assert np.all(theta >= 0)

    def test_spread_t2_p3(self, small_weather):
        """T sensors: mass on <=2 rings; P sensors: on <=3 (Section 5.1)."""
        theta = small_weather.true_theta
        support = (theta > 0).sum(axis=1)
        assert np.all(support[:60] <= 2)
        assert np.all(support[60:] <= 3)
        # and at least some P sensors genuinely use 3 rings
        assert np.any(support[60:] == 3)

    def test_hard_labels_match_equal_area_ring(self, small_weather):
        """Equal-area rings: boundary at sqrt(k/K), so ring = floor(r^2 K)."""
        labels = small_weather.labels_array()
        radii = np.linalg.norm(small_weather.locations, axis=1)
        k = small_weather.config.n_clusters
        expected = np.minimum((radii**2 * k).astype(int), k - 1)
        np.testing.assert_array_equal(labels, expected)

    def test_rings_are_balanced(self, small_weather):
        """Equal-area partition keeps ring populations comparable."""
        labels = small_weather.labels_array()
        counts = np.bincount(labels, minlength=4)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 3.0

    def test_all_labels_in_range(self, small_weather):
        labels = small_weather.labels_array()
        assert labels.min() >= 0
        assert labels.max() < small_weather.config.n_clusters


class TestObservations:
    def test_each_sensor_has_requested_observations(self, small_weather):
        net = small_weather.network
        temp = net.numeric_attribute(TEMPERATURE_ATTR)
        precip = net.numeric_attribute(PRECIPITATION_ATTR)
        for node in net.nodes_of_type(TEMPERATURE_TYPE):
            assert len(temp.values_of(node)) == 5
            assert precip.values_of(node) == ()
        for node in net.nodes_of_type(PRECIPITATION_TYPE):
            assert len(precip.values_of(node)) == 5
            assert temp.values_of(node) == ()

    def test_observations_near_owned_pattern_means(self, small_weather):
        """Sensor observations should track their ring's pattern mean."""
        net = small_weather.network
        temp = net.numeric_attribute(TEMPERATURE_ATTR)
        means = small_weather.config.pattern_means
        errors = []
        for node in net.nodes_of_type(TEMPERATURE_TYPE):
            label = small_weather.true_labels[node]
            observed = np.mean(temp.values_of(node))
            errors.append(abs(observed - means[label][0]))
        # reciprocal-distance mixing blurs boundaries; mean error stays
        # well under one inter-pattern gap (1.0 in Setting 1)
        assert float(np.mean(errors)) < 0.6

    def test_zero_observations_supported(self):
        config = WeatherConfig(
            n_temperature=10,
            n_precipitation=5,
            k_neighbors=2,
            n_observations=0,
            seed=0,
        )
        generated = generate_weather_network(config)
        temp = generated.network.numeric_attribute(TEMPERATURE_ATTR)
        assert temp.nodes_with_observations() == ()


class TestConfig:
    def test_setting_means_shapes(self):
        assert setting1_means().shape == (4, 2)
        assert setting2_means().shape == (4, 2)
        np.testing.assert_array_equal(
            setting1_means()[0], [1.0, 1.0]
        )
        np.testing.assert_array_equal(
            setting2_means()[2], [-1.0, -1.0]
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_temperature": 0},
            {"n_precipitation": 0},
            {"k_neighbors": 0},
            {"pattern_std": 0.0},
            {"n_observations": -1},
            {"temperature_regions": 0},
            {"pattern_means": np.ones((4, 3))},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WeatherConfig(**kwargs)

    def test_seeded_reproducibility(self):
        config = WeatherConfig(
            n_temperature=20, n_precipitation=10, seed=5,
            n_observations=2, k_neighbors=2,
        )
        g1 = generate_weather_network(config)
        g2 = generate_weather_network(config)
        np.testing.assert_array_equal(g1.locations, g2.locations)
        assert g1.true_labels == g2.true_labels
        temp1 = g1.network.numeric_attribute(TEMPERATURE_ATTR)
        temp2 = g2.network.numeric_attribute(TEMPERATURE_ATTR)
        for node in g1.network.nodes_of_type(TEMPERATURE_TYPE):
            assert temp1.values_of(node) == temp2.values_of(node)
