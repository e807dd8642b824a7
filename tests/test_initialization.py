"""Tests for repro.core.initialization."""

import numpy as np
import pytest

from repro import GenClus, GenClusConfig
from repro.core.initialization import random_theta, select_initial_theta
from repro.core.objective import g1
from repro.core.problem import compile_problem
from repro.datagen.weather import WeatherConfig, generate_weather_network
from repro.exceptions import ConvergenceError
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.hin.attributes import TextAttribute
from repro.hin.builder import NetworkBuilder


def make_problem():
    text = TextAttribute("title")
    builder = NetworkBuilder()
    builder.object_type("paper")
    builder.relation("cites", "paper", "paper")
    names = [f"p{i}" for i in range(10)]
    builder.nodes(names, "paper")
    vocab = [["a", "b"], ["c", "d"]]
    for i, name in enumerate(names):
        text.add_tokens(name, vocab[i % 2] * 2)
        builder.link(name, names[(i + 2) % 10], "cites")
    builder.attribute(text)
    return compile_problem(builder.build(), ["title"], 2)


class TestRandomTheta:
    def test_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        theta = random_theta(rng, 20, 4)
        assert theta.shape == (20, 4)
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)
        assert np.all(theta >= 0)

    def test_seeded_reproducible(self):
        t1 = random_theta(np.random.default_rng(5), 7, 3)
        t2 = random_theta(np.random.default_rng(5), 7, 3)
        np.testing.assert_array_equal(t1, t2)


class TestSelectInitialTheta:
    def test_beats_or_matches_single_seed(self):
        """Multi-seed selection must reach at least the g1 of one seed."""
        problem_multi = make_problem()
        gamma = np.ones(problem_multi.num_relations)
        theta_multi = select_initial_theta(
            problem_multi, gamma, np.random.default_rng(3),
            n_init=5, init_steps=4,
        )
        multi_g1 = g1(
            theta_multi, gamma, problem_multi.matrices,
            problem_multi.attribute_models,
        )
        problem_single = make_problem()
        theta_single = select_initial_theta(
            problem_single, gamma, np.random.default_rng(3),
            n_init=1, init_steps=4,
        )
        single_g1 = g1(
            theta_single, gamma, problem_single.matrices,
            problem_single.attribute_models,
        )
        assert multi_g1 >= single_g1 - 1e-9

    def test_output_on_simplex(self):
        problem = make_problem()
        theta = select_initial_theta(
            problem, np.ones(1), np.random.default_rng(0),
            n_init=2, init_steps=2,
        )
        np.testing.assert_allclose(theta.sum(axis=1), 1.0)

    def test_winning_params_installed(self):
        """After selection the models must hold usable parameters."""
        problem = make_problem()
        theta = select_initial_theta(
            problem, np.ones(1), np.random.default_rng(1),
            n_init=3, init_steps=2,
        )
        value = g1(
            theta, np.ones(1), problem.matrices, problem.attribute_models
        )
        assert np.isfinite(value)

    def test_no_finite_start_is_a_named_error(self):
        """One overflowing observation makes every start's objective
        NaN: the fit names the cause instead of failing an assert."""
        network = generate_weather_network(
            WeatherConfig(
                n_temperature=60,
                n_precipitation=30,
                k_neighbors=3,
                n_observations=5,
                seed=0,
            )
        ).network
        network.attribute("temperature").add_value("T0", 1e308)
        config = GenClusConfig(
            n_clusters=4, outer_iterations=3, seed=0, n_init=2
        )
        with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match="finite objective"
        ):
            GenClus(config).fit(network, attributes=WEATHER_ATTRIBUTES)
