"""Tests for repro.core.strength (Eqs. 14-17, Newton solver)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import strength
from repro.core.strength import (
    compute_statistics,
    gradient,
    hessian,
    learn_strengths,
    objective_value,
)
from repro.hin.builder import NetworkBuilder
from repro.hin.views import build_relation_matrices


def make_two_relation_network(n_per_cluster=8, seed=0):
    """Two clusters of 'item' nodes.

    Relation 'good' links nodes within the same cluster; relation 'noisy'
    links random pairs.  With cluster-aligned memberships, 'good' should
    earn a higher learned strength than 'noisy'.
    """
    rng = np.random.default_rng(seed)
    builder = NetworkBuilder()
    builder.object_type("item")
    builder.relation("good", "item", "item")
    builder.relation("noisy", "item", "item")
    n = 2 * n_per_cluster
    names = [f"v{i}" for i in range(n)]
    builder.nodes(names, "item")
    cluster = [0] * n_per_cluster + [1] * n_per_cluster
    for i in range(n):
        same = [j for j in range(n) if j != i and cluster[j] == cluster[i]]
        for j in rng.choice(same, size=3, replace=False):
            builder.link(names[i], names[int(j)], "good")
        others = [j for j in range(n) if j != i]
        for j in rng.choice(others, size=3, replace=False):
            builder.link(names[i], names[int(j)], "noisy")
    network = builder.build()
    theta = np.zeros((n, 2))
    for i in range(n):
        theta[i, cluster[i]] = 0.9
        theta[i, 1 - cluster[i]] = 0.1
    return network, theta


@pytest.fixture
def objective_calls(monkeypatch):
    """Records every g2' evaluation of the Newton workspace path."""
    calls = []
    original = strength._objective_from_alphas

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(strength, "_objective_from_alphas", counting)
    return calls


@pytest.fixture
def stats_and_matrices():
    network, theta = make_two_relation_network()
    matrices = build_relation_matrices(network)
    return compute_statistics(theta, matrices), matrices, theta


class TestDerivatives:
    """Gradient/Hessian of g2' must match finite differences."""

    def test_gradient_matches_finite_differences(self, stats_and_matrices):
        stats, _, _ = stats_and_matrices
        sigma = 0.5
        gamma = np.array([0.8, 1.3])
        analytic = gradient(stats, gamma, sigma)
        eps = 1e-6
        for r in range(2):
            bump = np.zeros(2)
            bump[r] = eps
            numeric = (
                objective_value(stats, gamma + bump, sigma)
                - objective_value(stats, gamma - bump, sigma)
            ) / (2 * eps)
            assert analytic[r] == pytest.approx(numeric, rel=1e-4)

    def test_hessian_matches_finite_differences(self, stats_and_matrices):
        stats, _, _ = stats_and_matrices
        sigma = 0.5
        gamma = np.array([0.8, 1.3])
        analytic = hessian(stats, gamma, sigma)
        eps = 1e-6
        for r in range(2):
            bump = np.zeros(2)
            bump[r] = eps
            numeric_col = (
                gradient(stats, gamma + bump, sigma)
                - gradient(stats, gamma - bump, sigma)
            ) / (2 * eps)
            np.testing.assert_allclose(
                analytic[:, r], numeric_col, rtol=1e-4, atol=1e-6
            )

    def test_hessian_symmetric(self, stats_and_matrices):
        stats, _, _ = stats_and_matrices
        hess = hessian(stats, np.array([1.0, 2.0]), 0.5)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-10)

    def test_hessian_negative_definite(self, stats_and_matrices):
        """Appendix B: g2' is concave, so H must be negative definite."""
        stats, _, _ = stats_and_matrices
        rng = np.random.default_rng(2)
        for _ in range(5):
            gamma = rng.random(2) * 3
            hess = hessian(stats, gamma, 0.5)
            eigenvalues = np.linalg.eigvalsh(hess)
            assert np.all(eigenvalues < 0)

    def test_concavity_along_random_segments(self, stats_and_matrices):
        stats, _, _ = stats_and_matrices
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.random(2) * 3
            b = rng.random(2) * 3
            mid = 0.5 * (a + b)
            lhs = objective_value(stats, mid, 0.5)
            rhs = 0.5 * (
                objective_value(stats, a, 0.5)
                + objective_value(stats, b, 0.5)
            )
            assert lhs >= rhs - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_per_cluster=st.integers(4, 10),
        log_sigma=st.floats(-1.5, 1.0),
        zeros=st.integers(0, 3),
    )
    def test_first_order_upper_bound(
        self, seed, n_per_cluster, log_sigma, zeros
    ):
        """The premise of the certified line search: concave g2' lies
        below its tangent plane, g2'(x) <= g2'(gamma) + grad . (x - gamma),
        for any gamma, x >= 0 -- including points on the bound."""
        network, _ = make_two_relation_network(n_per_cluster, seed % 1000)
        matrices = build_relation_matrices(network)
        rng = np.random.default_rng(seed)
        theta = rng.dirichlet(np.ones(2), size=network.num_nodes)
        stats = compute_statistics(theta, matrices)
        sigma = 10.0**log_sigma
        gamma, x = rng.random(2) * 5, rng.random(2) * 5
        if zeros & 1:
            gamma[0] = 0.0
        if zeros & 2:
            x[1] = 0.0
        here = objective_value(stats, gamma, sigma)
        there = objective_value(stats, x, sigma)
        tangent = float(gradient(stats, gamma, sigma) @ (x - gamma))
        assert there <= here + tangent + 1e-9 * (
            1.0 + abs(here) + abs(tangent)
        )


class TestStatistics:
    def test_rowsums_equal_out_weights(self, stats_and_matrices):
        stats, matrices, _ = stats_and_matrices
        out_weights = np.column_stack(
            [np.asarray(m.sum(axis=1)).ravel() for m in matrices.matrices]
        )
        np.testing.assert_allclose(stats.rowsums, out_weights, rtol=1e-12)

    def test_ce_totals_non_positive(self, stats_and_matrices):
        stats, _, _ = stats_and_matrices
        assert np.all(stats.ce_totals <= 0)

    def test_propagated_shape(self, stats_and_matrices):
        stats, matrices, theta = stats_and_matrices
        assert stats.propagated.shape == (
            matrices.num_relations,
            theta.shape[0],
            theta.shape[1],
        )


class TestLearnStrengths:
    def test_objective_improves_from_start(self, stats_and_matrices):
        stats, matrices, theta = stats_and_matrices
        gamma0 = np.ones(2)
        start_value = objective_value(stats, gamma0, 0.5)
        outcome = learn_strengths(
            theta, matrices, gamma0, sigma=0.5, max_iterations=50
        )
        assert outcome.objective >= start_value

    def test_gamma_non_negative(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        outcome = learn_strengths(theta, matrices, np.ones(2), sigma=0.5)
        assert np.all(outcome.gamma >= 0)

    def test_consistent_relation_beats_noisy(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        outcome = learn_strengths(
            theta, matrices, np.ones(2), sigma=1.0, max_iterations=100
        )
        good = outcome.gamma[matrices.relation_names.index("good")]
        noisy = outcome.gamma[matrices.relation_names.index("noisy")]
        assert good > noisy

    def test_converges(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        outcome = learn_strengths(
            theta, matrices, np.ones(2), sigma=0.5, max_iterations=200
        )
        assert outcome.converged

    def test_stationary_at_optimum(self, stats_and_matrices):
        """At an interior optimum, the gradient must be ~0."""
        stats, matrices, theta = stats_and_matrices
        outcome = learn_strengths(
            theta, matrices, np.ones(2), sigma=0.5, max_iterations=200,
            tol=1e-12,
        )
        if np.all(outcome.gamma > 1e-9):  # interior solution
            grad = gradient(stats, outcome.gamma, 0.5)
            np.testing.assert_allclose(grad, 0.0, atol=1e-5)

    def test_strong_prior_shrinks_gamma(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        weak = learn_strengths(theta, matrices, np.ones(2), sigma=10.0)
        strong = learn_strengths(theta, matrices, np.ones(2), sigma=0.01)
        assert np.sum(strong.gamma) < np.sum(weak.gamma)

    def test_wrong_gamma_shape_raises(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        with pytest.raises(ValueError, match="gamma0 must have shape"):
            learn_strengths(theta, matrices, np.ones(5))

    def test_deterministic(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        out1 = learn_strengths(theta, matrices, np.ones(2), sigma=0.5)
        out2 = learn_strengths(theta, matrices, np.ones(2), sigma=0.5)
        np.testing.assert_array_equal(out1.gamma, out2.gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma0_raises_before_any_evaluation(
        self, stats_and_matrices, objective_calls, bad
    ):
        _, matrices, theta = stats_and_matrices
        with pytest.raises(ValueError, match="gamma0 must be finite"):
            learn_strengths(theta, matrices, np.array([1.0, bad]))
        assert objective_calls == []

    def test_evaluations_count_every_objective_evaluation(
        self, stats_and_matrices, objective_calls
    ):
        _, matrices, theta = stats_and_matrices
        outcome = learn_strengths(theta, matrices, np.ones(2), sigma=0.5)
        # the initial evaluation plus at least one per accepted step
        assert outcome.evaluations == len(objective_calls) >= 2
        assert outcome.converged

    def test_no_iterations_no_stall(self, stats_and_matrices):
        _, matrices, theta = stats_and_matrices
        outcome = learn_strengths(
            theta, matrices, np.ones(2), max_iterations=0
        )
        assert outcome.evaluations == 1
        assert not outcome.stalled
        assert not outcome.converged
