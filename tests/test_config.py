"""Tests for repro.core.config."""

import pytest

from repro.core.config import GenClusConfig
from repro.exceptions import ConfigError


class TestGenClusConfig:
    def test_defaults_follow_paper(self):
        config = GenClusConfig(n_clusters=4)
        assert config.outer_iterations == 10  # Section 5.2.1
        assert config.sigma == 0.1  # Section 3.4

    def test_frozen(self):
        config = GenClusConfig(n_clusters=4)
        with pytest.raises(AttributeError):
            config.n_clusters = 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clusters": 0},
            {"n_clusters": 4, "outer_iterations": 0},
            {"n_clusters": 4, "em_iterations": 0},
            {"n_clusters": 4, "newton_iterations": -1},
            {"n_clusters": 4, "sigma": 0.0},
            {"n_clusters": 4, "sigma": -0.1},
            {"n_clusters": 4, "n_init": 0},
            {"n_clusters": 4, "init_steps": 0},
            {"n_clusters": 4, "theta_floor": 0.0},
            {"n_clusters": 4, "theta_floor": 0.5},
            {"n_clusters": 4, "variance_floor": 0.0},
            {"n_clusters": 4, "em_tol": -1.0},
            {"n_clusters": 4, "newton_tol": -1.0},
            {"n_clusters": 4, "gamma_tol": -1.0},
            {"n_clusters": 4, "variance_floor": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GenClusConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["sigma", "variance_floor", "theta_floor", "em_tol", "newton_tol", "gamma_tol"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_reals_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GenClusConfig(n_clusters=4, **{field: value})

    def test_newton_can_be_disabled(self):
        config = GenClusConfig(n_clusters=4, newton_iterations=0)
        assert config.newton_iterations == 0

    def test_blocked_execution_knobs(self):
        # blocking is derived from the problem shape: a fit has no
        # execution knobs at all
        for knob in ("block_size", "num_workers"):
            with pytest.raises(TypeError):
                GenClusConfig(n_clusters=4, **{knob: 2})
