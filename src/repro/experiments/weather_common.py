"""Shared plumbing for the weather-network experiments (Figs. 7-8, 11,
Tables 4-5)."""

from __future__ import annotations

import numpy as np

from repro.baselines.interpolation import interpolate_numeric_attributes
from repro.baselines.kmeans import kmeans
from repro.baselines.spectral import SpectralCombine
from repro.core.config import GenClusConfig
from repro.core.genclus import GenClus
from repro.core.result import GenClusResult
from repro.datagen.weather import (
    PRECIPITATION_ATTR,
    TEMPERATURE_ATTR,
    WeatherConfig,
    WeatherNetwork,
    generate_weather_network,
    setting1_means,
    setting2_means,
)
from repro.eval.nmi import nmi
from repro.experiments.common import check_scale

WEATHER_ATTRIBUTES = [TEMPERATURE_ATTR, PRECIPITATION_ATTR]
WEATHER_METHODS = ("Kmeans", "SpectralCombine", "GenClus")
OBSERVATION_COUNTS = (1, 5, 20)


def sensor_counts(scale: str) -> tuple[int, tuple[int, ...]]:
    """``(#T, (#P choices))`` per scale (paper: 1000 / 250,500,1000)."""
    check_scale(scale)
    if scale == "smoke":
        return 60, (15, 30, 60)
    if scale == "default":
        return 300, (75, 150, 300)
    return 1000, (250, 500, 1000)


def weather_config(
    setting: int,
    n_temperature: int,
    n_precipitation: int,
    n_observations: int,
    seed: int,
) -> WeatherConfig:
    """Build the Appendix C configuration for Setting 1 or 2."""
    if setting not in (1, 2):
        raise ValueError(f"setting must be 1 or 2, got {setting}")
    means = setting1_means() if setting == 1 else setting2_means()
    return WeatherConfig(
        n_temperature=n_temperature,
        n_precipitation=n_precipitation,
        k_neighbors=5,
        pattern_means=means,
        pattern_std=0.2,
        n_observations=n_observations,
        seed=seed,
    )


PAPER_WEATHER_LINKS = (1000 + 250) * 10
"""Link count of the paper's smallest weather network (kNN=5 per type)."""


def scaled_sigma(generated: WeatherNetwork) -> float:
    """Keep the gamma prior's strength *per link* at the paper's level.

    The data term of g2' grows linearly with the number of links while
    the prior ``||gamma||^2 / 2 sigma^2`` is fixed, so the paper's
    ``sigma = 0.1`` -- calibrated on networks of >= 12,500 links --
    over-regularizes the reduced smoke/default presets and can drive
    informative relations to the gamma >= 0 boundary before the mutual
    enhancement loop can use them.  Scaling ``sigma^2`` by the inverse
    link-count ratio keeps the prior-to-data balance of the paper's
    configuration; at paper scale this returns 0.1 exactly.
    """
    links = generated.network.num_edges()
    ratio = PAPER_WEATHER_LINKS / max(links, 1)
    return 0.1 * float(np.sqrt(max(ratio, 1.0)))


def fit_weather_genclus(
    generated: WeatherNetwork,
    seed: int,
    outer_iterations: int = 5,
) -> GenClusResult:
    """GenClus on a weather network (paper: 5 outer iterations,
    best-of-tentative-seeds initialization, sigma balanced per link)."""
    config = GenClusConfig(
        n_clusters=generated.config.n_clusters,
        outer_iterations=outer_iterations,
        seed=seed,
        n_init=8,
        init_steps=10,
        sigma=scaled_sigma(generated),
    )
    return GenClus(config).fit(
        generated.network, attributes=WEATHER_ATTRIBUTES
    )


def weather_method_nmi(
    method: str, generated: WeatherNetwork, seed: int
) -> float:
    """Run one of the three Fig. 7/8 methods and score NMI vs truth."""
    network = generated.network
    truth = generated.labels_array()
    k = generated.config.n_clusters
    if method == "GenClus":
        result = fit_weather_genclus(generated, seed)
        return nmi(truth, result.hard_labels())
    features = interpolate_numeric_attributes(network, WEATHER_ATTRIBUTES)
    if method == "Kmeans":
        labels = kmeans(features, k, seed=seed, n_init=5).labels
        return nmi(truth, labels)
    if method == "SpectralCombine":
        labels = SpectralCombine(k, seed=seed).fit_network(
            network, features
        )
        return nmi(truth, labels)
    raise KeyError(f"unknown method {method!r}")


def observation_grid(scale: str) -> tuple[int, ...]:
    """nobs sweep; the smoke scale drops nobs=20 to stay fast."""
    check_scale(scale)
    if scale == "smoke":
        return (1, 5)
    return OBSERVATION_COUNTS
