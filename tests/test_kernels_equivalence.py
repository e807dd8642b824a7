"""Numerical equivalence of the fused/workspace kernels vs references.

The PR that introduced :mod:`repro.core.kernels` rewrote every training
and serving hot loop (fused propagation operator, caller-owned
workspaces, bincount/scatter owner sums, shared-alpha Newton kernels).
All of those are pure algebraic rewrites: this suite pins them to the
readable reference implementations at ``rtol=1e-10`` on randomized
networks covering the paper's regimes -- links-only rows, attributes-only
rows, mixed, zero-gamma relations, and dead (uninformed) rows -- and
checks that a full ``GenClus.fit`` on the toy network still lands on the
reference cluster assignments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import polygamma, zeta

from repro.core.attribute_models import (
    BETA_SMOOTHING,
    CategoricalModel,
    CountsPattern,
    categorical_theta_term,
    gaussian_responsibilities,
    gaussian_theta_term,
)
from repro.core.em import em_update, neighbor_term, run_em
from repro.core.genclus import GenClus
from repro.core.config import GenClusConfig
from repro.core.initialization import random_theta
from repro.core.kernels import (
    BlockPlan,
    EMWorkspace,
    PropagationOperator,
    csr_matmul,
    csr_matmul_rows,
    csr_rows_product,
    floor_normalize_inplace,
    normalize_update_block,
    ordered_block_sum,
    plan_for_observations,
    row_max,
    row_sum,
    run_blocks,
    trigamma_ge1,
)
from repro.core.objective import dirichlet_alphas, g1
from repro.core.problem import compile_problem
from repro.core import kernels, strength
from repro.core.strength import (
    _alphas_into,
    _gradient_into,
    _line_search,
    _NewtonWorkspace,
    _objective_from_alphas,
    compute_statistics,
    gradient,
    hessian,
    learn_strengths,
    objective_value,
)
from repro.datagen.toy import (
    political_forum_network,
    political_forum_truth,
)
from repro.hin.attributes import (
    CompiledTextAttribute,
    NumericAttribute,
    TextAttribute,
)
from repro.hin.builder import NetworkBuilder
from repro.hin.views import RelationMatrices
from repro.exceptions import ConfigError

RTOL = 1e-10


def random_matrices(rng, n, num_relations, density=0.05):
    """Random non-negative CSR relation matrices over n nodes."""
    mats = []
    for r in range(num_relations):
        m = sparse.random(
            n,
            n,
            density=density,
            format="csr",
            random_state=int(rng.integers(0, 2**31)),
        )
        m.data = np.abs(m.data) + 0.1
        mats.append(m)
    return mats


def random_network(rng, n=40, with_text=True, with_numeric=True,
                   coverage=0.6, links=True):
    """A random heterogeneous network exercising incomplete attributes.

    ``coverage`` controls the fraction of nodes carrying observations,
    so some rows are links-only; with ``links=False`` some rows are
    attributes-only (and isolated rows are fully dead).
    """
    builder = NetworkBuilder()
    builder.object_type("u")
    builder.relation("r0", "u", "u")
    builder.relation("r1", "u", "u")
    names = [f"n{i}" for i in range(n)]
    builder.nodes(names, "u")
    if links:
        for i in range(n):
            for _ in range(3):
                j = int(rng.integers(0, n))
                if j != i:
                    relation = "r0" if rng.random() < 0.5 else "r1"
                    builder.link(
                        names[i],
                        names[j],
                        relation,
                        weight=float(rng.random() + 0.5),
                    )
    else:
        # a handful of links so both relations exist, leaving most
        # rows link-free
        builder.link(names[0], names[1], "r0")
        builder.link(names[1], names[0], "r1")
    attributes = []
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
    if with_text:
        text = TextAttribute("words")
        for i, name in enumerate(names):
            if rng.random() < coverage:
                tokens = [
                    vocab[int(rng.integers(0, len(vocab)))]
                    for _ in range(int(rng.integers(1, 6)))
                ]
                text.add_tokens(name, tokens)
        builder.attribute(text)
        attributes.append("words")
    if with_numeric:
        numeric = NumericAttribute("x")
        for i, name in enumerate(names):
            if rng.random() < coverage:
                for _ in range(int(rng.integers(1, 4))):
                    numeric.add_value(name, float(rng.normal(i % 3, 1.0)))
        builder.attribute(numeric)
        attributes.append("x")
    network = builder.build()
    return compile_problem(network, attributes, 3)


def make_problem_pair(seed, **kwargs):
    """Two identically initialized copies of the same random problem."""
    problems = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        problem = random_network(rng, **kwargs)
        init_rng = np.random.default_rng(seed + 1)
        for model in problem.attribute_models:
            model.init_params(init_rng)
        problems.append(problem)
    return problems


class TestPropagationOperator:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_relation_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 60, 4
        mats = random_matrices(rng, n, 3)
        theta = rng.dirichlet(np.ones(k), size=n)
        gamma = rng.random(3) * 2
        operator = PropagationOperator(mats)
        reference = np.zeros((n, k))
        for g, m in zip(gamma, mats):
            reference += g * (m @ theta)
        np.testing.assert_allclose(
            operator.propagate(theta, gamma), reference, rtol=RTOL,
            atol=1e-14,
        )
        # preallocated-output path
        out = np.empty((n, k))
        operator.propagate(theta, gamma, out=out)
        np.testing.assert_allclose(out, reference, rtol=RTOL, atol=1e-14)

    def test_zero_gamma_and_gamma_switch(self):
        rng = np.random.default_rng(3)
        n, k = 30, 2
        mats = random_matrices(rng, n, 2)
        theta = rng.dirichlet(np.ones(k), size=n)
        operator = PropagationOperator(mats)
        np.testing.assert_array_equal(
            operator.propagate(theta, np.zeros(2)), 0.0
        )
        # cache must invalidate when gamma changes
        gamma = np.array([0.0, 2.5])
        np.testing.assert_allclose(
            operator.propagate(theta, gamma),
            2.5 * (mats[1] @ theta),
            rtol=RTOL,
        )
        gamma2 = np.array([1.5, 0.0])
        np.testing.assert_allclose(
            operator.propagate(theta, gamma2),
            1.5 * (mats[0] @ theta),
            rtol=RTOL,
        )

    def test_overlapping_patterns_accumulate(self):
        # identical sparsity in both relations: union slots must sum
        m = sparse.csr_matrix(
            np.array([[0.0, 2.0], [1.0, 0.0]])
        )
        operator = PropagationOperator([m, m])
        theta = np.array([[0.3, 0.7], [0.6, 0.4]])
        gamma = np.array([1.0, 3.0])
        np.testing.assert_allclose(
            operator.propagate(theta, gamma),
            4.0 * (m @ theta),
            rtol=RTOL,
        )

    def test_empty_operator(self):
        operator = PropagationOperator([], shape=(5, 7))
        theta = np.ones((7, 3))
        out = operator.propagate(theta, np.zeros(0))
        assert out.shape == (5, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_wrap_caches_on_relation_matrices(self):
        problem, _ = make_problem_pair(11, n=20)
        op1 = PropagationOperator.wrap(problem.matrices)
        op2 = PropagationOperator.wrap(problem.matrices)
        assert op1 is op2
        assert PropagationOperator.wrap(op1) is op1

    def test_matches_matrices_combined(self):
        problem, _ = make_problem_pair(12, n=25)
        gamma = np.array([1.3, 0.4])[: problem.num_relations]
        if gamma.shape[0] != problem.num_relations:
            gamma = np.full(problem.num_relations, 0.8)
        operator = PropagationOperator.wrap(problem.matrices)
        np.testing.assert_allclose(
            operator.combined(gamma).toarray(),
            problem.matrices.combined(gamma).toarray(),
            rtol=RTOL,
            atol=1e-14,
        )


class TestSmallHelpers:
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 9, 20])
    def test_row_sum_and_max(self, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(33, k))
        out = np.empty(33)
        np.testing.assert_allclose(
            row_sum(a, out), a.sum(axis=1), rtol=RTOL
        )
        np.testing.assert_array_equal(row_max(a, out), a.max(axis=1))

    def test_floor_normalize_matches_floor_distribution(self):
        from repro.core.feature import floor_distribution

        rng = np.random.default_rng(0)
        theta = rng.random((20, 4))
        theta[3] = [0.0, 0.0, 1.0, 0.0]
        expected = floor_distribution(theta, 1e-9)
        buf = theta.copy()
        floor_normalize_inplace(buf, 1e-9, np.empty(20))
        np.testing.assert_allclose(buf, expected, rtol=RTOL)

    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_normalize_update_block_matches_masked_broadcast(self, k):
        """Dead rows re-summed alone and column-wise divides give the
        bits of the masked full re-sum and broadcast divides."""
        rng = np.random.default_rng(k)
        update = rng.random((50, k))
        update[rng.random(50) < 0.3] = 0.0  # dead rows
        theta = rng.dirichlet(np.ones(k), size=50)
        expected = update.copy()
        sums = row_sum(expected, np.empty(50))
        dead = sums <= 0.0
        expected[dead] = theta[dead]
        sums = row_sum(expected, np.empty(50))
        expected = expected / sums[:, None]
        np.clip(expected, 1e-12, None, out=expected)
        expected /= row_sum(expected, np.empty(50))[:, None]
        out = np.empty_like(theta)
        normalize_update_block(
            update.copy(), theta, out, np.empty(50), 1e-12, 0, 50
        )
        assert np.array_equal(out, expected)

    def test_csr_matmul_accumulate(self):
        rng = np.random.default_rng(1)
        m = sparse.random(9, 6, density=0.4, format="csr", random_state=0)
        x = rng.random((6, 3))
        out = np.ones((9, 3))
        csr_matmul(m, x, out, accumulate=True)
        np.testing.assert_allclose(out, 1.0 + m @ x, rtol=RTOL)
        csr_matmul(m, x, out)
        np.testing.assert_allclose(out, m @ x, rtol=RTOL, atol=1e-15)

    def test_trigamma_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = np.concatenate(
            [[1.0, 1.0 + 1e-9, 2.0, 7.999, 8.0, 123.0, 1e7],
             1.0 + rng.gamma(1.0, 20.0, size=5000)]
        )
        np.testing.assert_allclose(
            trigamma_ge1(x), polygamma(1, x), rtol=1e-11
        )
        # out= path, 2-D, and the hot-path alias zeta(2, x)
        field = 1.0 + rng.gamma(2.0, 5.0, size=(40, 4))
        out = np.empty_like(field)
        trigamma_ge1(field, out=out)
        np.testing.assert_allclose(out, zeta(2, field), rtol=1e-11)


class TestAttributeTermEquivalence:
    def test_categorical_pattern_cache_matches_fresh(self):
        rng = np.random.default_rng(4)
        m, vocab, k = 12, 9, 3
        counts = sparse.random(
            m, vocab, density=0.3, format="csr", random_state=0
        )
        counts.data = np.ceil(np.abs(counts.data) * 4)
        theta = rng.dirichlet(np.ones(k), size=m)
        beta = rng.dirichlet(np.ones(vocab), size=k)
        fresh = categorical_theta_term(theta, counts, beta)
        pattern = CountsPattern.from_counts(counts)
        cached = categorical_theta_term(
            theta, counts, beta, pattern=pattern
        )
        np.testing.assert_allclose(cached, fresh, rtol=RTOL)
        # the pattern is reusable across theta values
        theta2 = rng.dirichlet(np.ones(k), size=m)
        np.testing.assert_allclose(
            categorical_theta_term(theta2, counts, beta, pattern=pattern),
            categorical_theta_term(theta2, counts, beta),
            rtol=RTOL,
        )

    def test_gaussian_bincount_scatter_matches_add_at(self):
        rng = np.random.default_rng(5)
        m, k, n_obs = 10, 4, 60
        theta = rng.dirichlet(np.ones(k), size=m)
        values = rng.normal(size=n_obs)
        owners = rng.integers(0, m, size=n_obs)
        means = rng.normal(size=k)
        variances = rng.random(k) + 0.2
        term = gaussian_theta_term(theta, values, owners, means, variances)
        resp = gaussian_responsibilities(
            theta, values, owners, means, variances
        )
        reference = np.zeros((m, k))
        np.add.at(reference, owners, resp)  # the historical scatter
        np.testing.assert_allclose(term, reference, rtol=RTOL)

    def test_gaussian_one_hot_theta_far_observation(self):
        """A one-hot theta row whose supported component's density
        underflows must still produce the reference posterior (the
        linear-space fast path falls back to the clamped log-space
        reference for such rows) -- and must not poison the model's
        parameters with NaN."""
        from repro.hin.attributes import NumericAttribute

        numeric = NumericAttribute("x")
        numeric.add_value("a", 0.0)
        numeric.add_value("b", 1.0)
        compiled = numeric.compile({"a": 0, "b": 1})
        from repro.core.attribute_models import GaussianModel

        model = GaussianModel(compiled, 2, 2)
        model.set_params(np.array([60.0, 0.0]), np.array([1.0, 1.0]))
        theta = np.array([[1.0, 0.0], [0.5, 0.5]])
        expected_rows = gaussian_theta_term(
            theta,
            compiled.values,
            compiled.owners,
            np.array([60.0, 0.0]),
            np.array([1.0, 1.0]),
        )
        out = np.zeros((2, 2))
        model.accumulate_em_step(theta, out)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, expected_rows, rtol=RTOL)
        assert np.all(np.isfinite(model.means))
        assert np.all(np.isfinite(model.variances))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(with_text=True, with_numeric=True),  # mixed
            dict(with_text=True, with_numeric=False),
            dict(with_text=False, with_numeric=True),
            dict(with_text=True, with_numeric=True, links=False),
        ],
    )
    def test_accumulate_em_step_matches_frozen_terms(self, kwargs):
        """One model EM pass == frozen-parameter term at same params."""
        problem, _ = make_problem_pair(6, n=30, **kwargs)
        rng = np.random.default_rng(7)
        theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
        for model in problem.attribute_models:
            compiled = model.compiled
            idx = compiled.node_indices
            if hasattr(model, "beta"):
                expected_rows = categorical_theta_term(
                    theta[idx], compiled.counts, model.beta
                )
            else:
                expected_rows = gaussian_theta_term(
                    theta[idx],
                    compiled.values,
                    compiled.owners,
                    model.means,
                    model.variances,
                )
            expected = np.zeros((problem.num_nodes, problem.n_clusters))
            if idx.size:
                expected[idx] = expected_rows
            out = np.zeros((problem.num_nodes, problem.n_clusters))
            model.accumulate_em_step(theta, out)
            np.testing.assert_allclose(
                out, expected, rtol=RTOL, atol=1e-12
            )


def fancy_gather_categorical_step(model, theta, out, block_rows=None):
    """The fancy-gather categorical E+M pass, kept as the exact oracle.

    Per block: ``theta_obs[rows]`` and ``beta[:, cols]`` fancy-index
    gathers reduced by a strided ``einsum("nk,kn->n")``, a row-indexed
    ``out[indices] += term`` scatter; then scipy's ``theta_obs.T @
    ratio`` for the beta M-step.  Returns the updated beta (``None``
    when the table holds no counts, as the model then keeps beta).
    """
    beta = model.beta
    compiled = model.compiled
    pattern = CountsPattern.from_counts(compiled.counts)
    if pattern.nnz == 0:
        return None
    indices = compiled.node_indices
    n_obs, k = compiled.counts.shape[0], beta.shape[0]
    theta_obs = np.empty((n_obs, k))
    term = np.empty((n_obs, k))
    denom = np.empty(pattern.nnz)
    ratio_data = np.empty(pattern.nnz)
    ratio = pattern.ratio_matrix(ratio_data)
    beta_t = np.ascontiguousarray(beta.T)
    plan = (
        plan_for_observations(n_obs, k, pattern.nnz)
        if block_rows is None
        else BlockPlan(n_obs, block_rows)
    )
    for v0, v1 in plan:
        p0, p1 = int(pattern.indptr[v0]), int(pattern.indptr[v1])
        theta_obs[v0:v1] = theta[indices[v0:v1]]
        if p1 > p0:
            np.einsum(
                "nk,kn->n",
                theta_obs[pattern.rows[p0:p1]],
                beta[:, pattern.cols[p0:p1]],
                out=denom[p0:p1],
            )
            np.maximum(denom[p0:p1], 1e-300, out=denom[p0:p1])
            np.divide(
                pattern.vals[p0:p1], denom[p0:p1], out=ratio_data[p0:p1]
            )
        csr_matmul_rows(ratio, beta_t, term, v0, v1)
        term[v0:v1] *= theta_obs[v0:v1]
        out[indices[v0:v1]] += term[v0:v1]
    beta_new = beta * (theta_obs.T @ ratio)
    beta_new += BETA_SMOOTHING
    return beta_new / beta_new.sum(axis=1, keepdims=True)


def categorical_case(rng, num_nodes, n_obs, vocab, k, density):
    """A text table over ``n_obs`` observed nodes scattered (unsorted,
    with gaps) across ``num_nodes``; some rows hold no counts."""
    counts = sparse.random(
        n_obs, vocab, density=density, format="csr",
        random_state=int(rng.integers(0, 2**31)),
    )
    counts.data = np.ceil(counts.data * 5)
    # row 0 and about a fifth of the rest hold no counts
    keep = rng.random(n_obs) >= 0.2
    keep[0] = False
    counts = sparse.csr_matrix(sparse.diags(keep.astype(float)) @ counts)
    counts.eliminate_zeros()
    compiled = CompiledTextAttribute(
        node_indices=rng.permutation(num_nodes)[:n_obs].astype(np.int64),
        counts=counts,
        vocabulary=tuple(f"t{i}" for i in range(vocab)),
    )
    theta = random_theta(rng, num_nodes, k)
    beta = rng.dirichlet(np.ones(vocab), size=k)
    return compiled, theta, beta


def assert_categorical_matches_oracle(
    compiled, theta, beta, block_rows, steps=3
):
    num_nodes, k = theta.shape
    model = CategoricalModel(compiled, k, num_nodes)
    model.set_block_rows(block_rows)
    model.beta = beta.copy()
    oracle = CategoricalModel(compiled, k, num_nodes)
    oracle.beta = beta.copy()
    for _ in range(steps):
        expected = np.zeros((num_nodes, k))
        expected_beta = fancy_gather_categorical_step(
            oracle, theta, expected, block_rows
        )
        if expected_beta is not None:
            oracle.beta = expected_beta
        out = np.zeros((num_nodes, k))
        model.accumulate_em_step(theta, out)
        assert np.array_equal(out, expected)
        assert np.array_equal(model.beta, oracle.beta)


class TestGatherFreeCategoricalKernel:
    """The gathered E+M pass against the fancy-gather oracle, bit for bit."""

    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    def test_matches_fancy_gather_oracle(self, block_rows):
        rng = np.random.default_rng(11)
        compiled, theta, beta = categorical_case(rng, 60, 17, 13, 4, 0.3)
        model = CategoricalModel(compiled, 4, 60)
        model.set_block_rows(block_rows)
        if block_rows is not None:
            assert model._get_plan().num_blocks >= 3
        assert np.diff(compiled.counts.indptr).min() == 0  # empty rows
        assert_categorical_matches_oracle(compiled, theta, beta, block_rows)

    def test_empty_table(self):
        rng = np.random.default_rng(12)
        for n_obs in (0, 5):
            compiled = CompiledTextAttribute(
                node_indices=np.arange(n_obs, dtype=np.int64),
                counts=sparse.csr_matrix((n_obs, 4)),
                vocabulary=("a", "b", "c", "d"),
            )
            theta = random_theta(rng, 8, 3)
            beta = rng.dirichlet(np.ones(4), size=3)
            assert_categorical_matches_oracle(compiled, theta, beta, None)
            model = CategoricalModel(compiled, 3, 8)
            model.beta = beta
            assert model.log_likelihood(theta) == 0.0

    def test_log_likelihood_matches_fancy_gathers(self):
        rng = np.random.default_rng(13)
        compiled, theta, beta = categorical_case(rng, 40, 25, 9, 3, 0.4)
        model = CategoricalModel(compiled, 3, 40)
        model.beta = beta
        pattern = CountsPattern.from_counts(compiled.counts)
        denom = np.einsum(
            "nk,kn->n",
            theta[compiled.node_indices][pattern.rows],
            beta[:, pattern.cols],
        )
        expected = float(
            np.dot(pattern.vals, np.log(np.maximum(denom, 1e-300)))
        )
        assert model.log_likelihood(theta) == expected

    def test_frozen_term_matches_fancy_gathers(self):
        rng = np.random.default_rng(14)
        compiled, theta, beta = categorical_case(rng, 30, 30, 11, 5, 0.3)
        theta_rows = theta[:30]
        pattern = CountsPattern.from_counts(compiled.counts)
        denom = np.einsum(
            "nk,kn->n", theta_rows[pattern.rows], beta[:, pattern.cols]
        )
        ratio = pattern.ratio_matrix(
            pattern.vals / np.maximum(denom, 1e-300)
        )
        expected = theta_rows * (ratio @ beta.T)
        got = categorical_theta_term(theta_rows, None, beta, pattern=pattern)
        assert np.array_equal(got, expected)

    def test_rejects_misfit_fields(self):
        rng = np.random.default_rng(15)
        compiled, theta, beta = categorical_case(rng, 20, 8, 6, 3, 0.5)
        model = CategoricalModel(compiled, 3, 20)
        model.beta = beta
        with pytest.raises(ValueError):
            model.accumulate_em_step(theta[:10], np.zeros((20, 3)))
        with pytest.raises(ValueError):
            model.accumulate_em_step(theta, np.zeros((3, 20)).T)
        with pytest.raises(ConfigError):
            CategoricalModel(compiled, 3, int(compiled.node_indices.max()))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(1, 8),
        n_obs=st.integers(1, 40),
        vocab=st.integers(1, 30),
        density=st.floats(0.0, 1.0),
        block_rows=st.one_of(st.none(), st.integers(1, 16)),
    )
    def test_property_matches_oracle(
        self, seed, k, n_obs, vocab, density, block_rows
    ):
        rng = np.random.default_rng(seed)
        compiled, theta, beta = categorical_case(
            rng, n_obs + int(rng.integers(0, 20)), n_obs, vocab, k, density
        )
        assert_categorical_matches_oracle(
            compiled, theta, beta, block_rows, steps=2
        )


def text_only_problem(n_authors):
    """DBLP four-area ACP at a given size: titles are the only attribute."""
    from repro.datagen.dblp import (
        TITLE_ATTR,
        FourAreaConfig,
        build_acp_network,
        generate_corpus,
    )

    corpus = generate_corpus(
        FourAreaConfig(n_authors=n_authors, n_papers=n_authors, seed=0)
    )
    return compile_problem(build_acp_network(corpus), [TITLE_ATTR], 4)


def test_em_update_allocates_less_than_one_field():
    """After a warm-up sweep, one text-only em_update on DBLP at the
    benchmark's size (8,020 nodes) allocates less than a single (n, K)
    float64 field: every gather and scatter runs in buffers sized at
    construction."""
    import tracemalloc

    problem = text_only_problem(4000)
    rng = np.random.default_rng(0)
    for model in problem.attribute_models:
        model.init_params(rng)
    theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
    gamma = np.ones(problem.num_relations)
    operator = PropagationOperator.wrap(problem.matrices)
    workspace = EMWorkspace(problem.num_nodes, problem.n_clusters)
    out = np.empty_like(theta)
    plan = BlockPlan.for_shape(problem.num_nodes, problem.n_clusters)

    def sweep():
        em_update(
            theta, gamma, operator, problem.attribute_models,
            out=out, workspace=workspace, plan=plan,
        )

    sweep()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < theta.nbytes, (peak, theta.nbytes)


def reference_em_update(theta, gamma, matrices, models, floor=1e-12):
    """The pre-fusion em_update: per-relation loop + allocating models."""
    from repro.core.feature import floor_distribution

    update = neighbor_term(theta, gamma, matrices)
    for model in models:
        update += model.em_step(theta)
    row_sums = update.sum(axis=1)
    dead = row_sums <= 0.0
    if np.any(dead):
        update[dead] = theta[dead]
        row_sums = update.sum(axis=1)
    return floor_distribution(update / row_sums[:, None], floor)


class TestEMEquivalence:
    @pytest.mark.parametrize(
        "seed,kwargs",
        [
            (0, dict()),  # mixed network
            (1, dict(with_text=False)),  # numeric only
            (2, dict(with_numeric=False)),  # text only
            (3, dict(links=False)),  # attributes drive everything
            (4, dict(coverage=0.3)),  # mostly links-only rows
        ],
    )
    def test_em_update_matches_reference(self, seed, kwargs):
        fused_problem, ref_problem = make_problem_pair(
            20 + seed, n=35, **kwargs
        )
        rng = np.random.default_rng(seed)
        theta = random_theta(
            rng, fused_problem.num_nodes, fused_problem.n_clusters
        )
        gamma = rng.random(fused_problem.num_relations) * 2
        gamma[0] = 0.0  # zero-gamma relation must be skipped exactly
        workspace = EMWorkspace(
            fused_problem.num_nodes, fused_problem.n_clusters
        )
        out = np.empty_like(theta)
        for _ in range(4):  # several steps so parameter updates compound
            fused = em_update(
                theta,
                gamma,
                fused_problem.matrices,
                fused_problem.attribute_models,
                out=out,
                workspace=workspace,
            )
            reference = reference_em_update(
                theta,
                gamma,
                ref_problem.matrices,
                ref_problem.attribute_models,
            )
            np.testing.assert_allclose(
                fused, reference, rtol=RTOL, atol=1e-12
            )
            theta = fused.copy()

    def test_em_update_dead_rows_keep_membership(self):
        problem, _ = make_problem_pair(30, n=20, links=False, coverage=0.4)
        rng = np.random.default_rng(0)
        theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
        new_theta = em_update(
            theta,
            np.zeros(problem.num_relations),  # no links count at all
            problem.matrices,
            problem.attribute_models,
        )
        observed = set()
        for model in problem.attribute_models:
            observed.update(model.compiled.node_indices.tolist())
        for v in range(problem.num_nodes):
            if v not in observed:
                np.testing.assert_allclose(
                    new_theta[v], theta[v], atol=1e-9
                )

    def test_run_em_matches_reference_loop(self):
        fused_problem, ref_problem = make_problem_pair(40, n=30)
        rng = np.random.default_rng(9)
        theta0 = random_theta(
            rng, fused_problem.num_nodes, fused_problem.n_clusters
        )
        gamma = np.full(fused_problem.num_relations, 1.2)
        outcome = run_em(
            theta0,
            gamma,
            fused_problem.matrices,
            fused_problem.attribute_models,
            max_iterations=8,
            tol=0.0,
            track_objective=False,
        )
        theta = theta0.copy()
        from repro.core.feature import floor_distribution

        theta = floor_distribution(theta, 1e-12)
        for _ in range(8):
            theta = reference_em_update(
                theta, gamma, ref_problem.matrices,
                ref_problem.attribute_models,
            )
        np.testing.assert_allclose(
            outcome.theta, theta, rtol=RTOL, atol=1e-12
        )


class TestObjectiveEquivalence:
    def test_structural_consistency_matches_per_relation(self):
        problem, _ = make_problem_pair(50, n=30)
        rng = np.random.default_rng(1)
        theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
        gamma = rng.random(problem.num_relations)
        from repro.core.feature import (
            floor_distribution,
            relation_consistency_totals,
            structural_consistency,
        )

        totals = relation_consistency_totals(theta, problem.matrices)
        np.testing.assert_allclose(
            structural_consistency(theta, gamma, problem.matrices),
            float(np.dot(gamma, totals)),
            rtol=RTOL,
        )

    def test_dirichlet_alphas_matches_loop(self):
        problem, _ = make_problem_pair(51, n=30)
        rng = np.random.default_rng(2)
        theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
        gamma = rng.random(problem.num_relations)
        reference = np.ones_like(theta)
        for g, matrix in zip(gamma, problem.matrices.matrices):
            reference += g * (matrix @ theta)
        np.testing.assert_allclose(
            dirichlet_alphas(theta, gamma, problem.matrices),
            reference,
            rtol=RTOL,
        )


class TestStrengthEquivalence:
    def test_learn_strengths_matches_reference_newton(self):
        """The workspace Newton loop == a loop over the public kernels."""
        problem, _ = make_problem_pair(60, n=40)
        rng = np.random.default_rng(3)
        theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
        gamma0 = np.ones(problem.num_relations)
        outcome = learn_strengths(
            theta, problem.matrices, gamma0, sigma=0.5, max_iterations=40
        )
        # reference: same algorithm built from the allocating kernels
        stats = compute_statistics(theta, problem.matrices)
        gamma = gamma0.copy()
        value = objective_value(stats, gamma, 0.5)
        for _ in range(40):
            grad = gradient(stats, gamma, 0.5)
            hess = hessian(stats, gamma, 0.5)
            step = -np.linalg.solve(hess, grad)
            scale, accepted = 1.0, None
            for _ in range(30):
                candidate = np.clip(gamma + scale * step, 0.0, None)
                cand_value = objective_value(stats, candidate, 0.5)
                if np.isfinite(cand_value) and (
                    cand_value >= value - 1e-12
                ):
                    accepted = (candidate, cand_value)
                    break
                scale *= 0.5
            if accepted is None:
                break
            delta = float(np.max(np.abs(accepted[0] - gamma)))
            gamma, value = accepted
            if delta < 1e-6:
                break
        np.testing.assert_allclose(outcome.gamma, gamma, rtol=1e-8)
        assert outcome.objective == pytest.approx(value, rel=1e-10)


def reference_line_search(
    stats, gamma, step, current_value, sigma, ws, max_halvings=30
):
    """The evaluate-every-candidate backtracking loop the certified
    line search replaced, kept verbatim as its oracle."""
    scale = 1.0
    for attempt in range(max_halvings):
        candidate = np.clip(gamma + scale * step, 0.0, None)
        _alphas_into(stats, candidate, ws.cand_alphas, ws.cand_sums, ws)
        value = _objective_from_alphas(
            stats, candidate, sigma, ws.cand_alphas, ws.cand_sums, ws
        )
        if np.isfinite(value) and value >= current_value - 1e-12:
            return candidate, value, attempt > 0, True
        scale *= 0.5
    return gamma.copy(), current_value, True, False


def strength_case(rng, n, num_relations, k, density):
    """Random relation matrices and memberships for g2'."""
    matrices = RelationMatrices(
        tuple(f"r{r}" for r in range(num_relations)),
        tuple(random_matrices(rng, n, num_relations, density)),
        n,
    )
    return matrices, random_theta(rng, n, k)


def line_search_start(stats, gamma, sigma, plan):
    """A workspace holding gamma's field, as ``learn_strengths`` keeps
    it between iterations, plus gamma's value and gradient."""
    _, n, k = stats.propagated.shape
    ws = _NewtonWorkspace(n, k, stats.num_relations, plan)
    _alphas_into(stats, gamma, ws.alphas, ws.alpha_sums, ws)
    value = _objective_from_alphas(
        stats, gamma, sigma, ws.alphas, ws.alpha_sums, ws
    )
    return ws, value, _gradient_into(stats, gamma, sigma, ws)


def oracle_learn_strengths(*args, **kwargs):
    """``learn_strengths`` driven by the evaluate-every-candidate loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            strength,
            "_line_search",
            lambda stats, gamma, step, value, sigma, ws, grad, magnitude: (
                reference_line_search(stats, gamma, step, value, sigma, ws)
            ),
        )
        return learn_strengths(*args, **kwargs)


class TestCertifiedLineSearch:
    """The line search skips only candidates concavity proves fail, so
    every search and every solve equals the evaluate-everything loop
    bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 150),
        num_relations=st.integers(1, 4),
        k=st.integers(1, 5),
        density=st.floats(0.02, 0.5),
        block_rows=st.one_of(st.none(), st.integers(1, 16)),
        log_sigma=st.floats(-1.5, 1.0),
        log_gamma=st.floats(-1.0, 1.5),
        mode=st.sampled_from(["newton", "random", "descent"]),
        log_size=st.floats(-13.0, 2.0),
    )
    def test_property_matches_oracle(
        self, seed, n, num_relations, k, density, block_rows,
        log_sigma, log_gamma, mode, log_size,
    ):
        rng = np.random.default_rng(seed)
        matrices, theta = strength_case(rng, n, num_relations, k, density)
        plan = (
            BlockPlan.for_shape(n, k)
            if block_rows is None
            else BlockPlan(n, block_rows)
        )
        stats = compute_statistics(theta, matrices, plan=plan)
        sigma = 10.0**log_sigma
        gamma = rng.random(num_relations) * 10.0**log_gamma
        gamma[rng.random(num_relations) < 0.5] = 0.0
        ws, value, grad = line_search_start(stats, gamma, sigma, plan)
        if mode == "newton":  # the solver's own direction
            step = -np.linalg.solve(
                hessian(stats, gamma, sigma), gradient(stats, gamma, sigma)
            )
        elif mode == "random":
            step = rng.normal(size=num_relations) * 10.0**log_size
        else:
            # a first-order loss of 10**log_size, at most 1e-8: small
            # enough that the values' rounding decides acceptance, the
            # case the slack must cover
            scale = 10.0 ** min(log_size, -8.0)
            step = -grad * scale / max(float(grad @ grad), 1e-300)
        # the zero components' steps push into the bound
        step[gamma == 0.0] = -np.abs(step[gamma == 0.0])
        oracle_ws, oracle_value, _ = line_search_start(
            stats, gamma, sigma, plan
        )
        assert value == oracle_value
        got = _line_search(
            stats, gamma, step, value, sigma, ws, grad, ws.magnitude
        )
        want = reference_line_search(
            stats, gamma, step, value, sigma, oracle_ws
        )
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        if got[3]:  # the accepted candidate's field, as the solver uses it
            assert np.array_equal(ws.cand_alphas, oracle_ws.cand_alphas)
            assert np.array_equal(ws.cand_sums, oracle_ws.cand_sums)
        assert ws.evaluations <= oracle_ws.evaluations

    def test_descent_direction_skips_every_candidate(self):
        """Against the gradient no halving can ascend: the bound proves
        it for each candidate, so none is evaluated."""
        rng = np.random.default_rng(7)
        matrices, theta = strength_case(rng, 30, 3, 3, 0.2)
        plan = BlockPlan.for_shape(30, 3)
        stats = compute_statistics(theta, matrices, plan=plan)
        gamma = np.array([1.5, 0.0, 0.7])
        ws, value, grad = line_search_start(stats, gamma, 0.5, plan)
        assert np.max(np.abs(grad)) > 1e-3
        evaluations = ws.evaluations
        got = _line_search(
            stats, gamma, -grad, value, 0.5, ws, grad, ws.magnitude
        )
        oracle_ws, _, _ = line_search_start(stats, gamma, 0.5, plan)
        want = reference_line_search(
            stats, gamma, -grad, value, 0.5, oracle_ws
        )
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:] == (value, True, False)
        assert ws.evaluations == evaluations
        assert oracle_ws.evaluations == evaluations + 30

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(5, 50),
        num_relations=st.integers(1, 4),
        k=st.integers(2, 5),
        log_sigma=st.floats(-1.0, 1.0),
    )
    def test_learn_strengths_matches_oracle_run(
        self, seed, n, num_relations, k, log_sigma
    ):
        rng = np.random.default_rng(seed)
        matrices, theta = strength_case(rng, n, num_relations, k, 0.2)
        gamma0 = rng.random(num_relations) * 3.0
        gamma0[rng.random(num_relations) < 0.5] = 0.0
        kwargs = dict(sigma=10.0**log_sigma)
        got = learn_strengths(theta, matrices, gamma0, **kwargs)
        want = oracle_learn_strengths(theta, matrices, gamma0, **kwargs)
        assert np.array_equal(got.gamma, want.gamma)
        assert (
            got.iterations, got.objective, got.converged,
            got.used_fallback, got.stalled,
        ) == (
            want.iterations, want.objective, want.converged,
            want.used_fallback, want.stalled,
        )
        assert got.evaluations <= want.evaluations

    def test_stalled_solve_is_flagged_and_cheaper(self):
        """A solve whose last search finds no ascent at the bound: the
        outcome says ``stalled`` (``converged`` alone reads as success),
        and the certified search skips most of that search."""
        rng = np.random.default_rng(0)
        matrices, theta = strength_case(rng, 30, 3, 3, 0.2)
        gamma0 = np.ones(3)
        got = learn_strengths(theta, matrices, gamma0, sigma=1.0)
        want = oracle_learn_strengths(theta, matrices, gamma0, sigma=1.0)
        assert got.stalled and got.converged and want.stalled
        assert got.gamma[0] == 0.0  # stopped on the bound
        assert np.array_equal(got.gamma, want.gamma)
        assert got.objective == want.objective
        # the failed search alone costs the oracle 30 evaluations
        assert got.evaluations + 25 <= want.evaluations


class TestBlockPlan:
    def test_blocks_cover_rows_exactly(self):
        plan = BlockPlan(100, 32)
        bounds = plan.bounds
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        assert plan.num_blocks == 4  # 32 + 32 + 32 + 4
        assert len(list(plan)) == 4

    def test_shape_only_determinism(self):
        # the plan must never depend on anything but (rows, block_rows)
        assert BlockPlan(77, 10).bounds == BlockPlan(77, 10).bounds
        auto = BlockPlan.for_shape(5000, 4)
        assert auto.bounds == BlockPlan.for_shape(5000, 4).bounds

    def test_zero_rows(self):
        plan = BlockPlan(0, 16)
        assert plan.num_blocks == 0
        assert run_blocks(plan, lambda i, a, b: 1) == []

    def test_observation_plan_scales_with_multiplicity(self):
        dense = plan_for_observations(10000, 4, 10000 * 50)
        sparse_plan = plan_for_observations(10000, 4, 10000)
        assert dense.block_rows < sparse_plan.block_rows

    def test_run_blocks_order_and_pool(self):
        # blocks run inline, in block order, and report in that order
        plan = BlockPlan(10, 3)
        seen = []

        def block(i, a, b):
            seen.append(i)
            return (i, a, b)

        assert run_blocks(plan, block) == [
            (0, 0, 3), (1, 3, 6), (2, 6, 9), (3, 9, 10)
        ]
        assert seen == [0, 1, 2, 3]

    def test_ordered_block_sum(self):
        parts = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        out = np.empty(2)
        np.testing.assert_array_equal(
            ordered_block_sum(parts, out), [4.0, 6.0]
        )

    def test_csr_matmul_rows_matches_full(self):
        rng = np.random.default_rng(0)
        m = sparse.csr_matrix(
            sparse.random(37, 21, density=0.2, random_state=1)
        )
        x = rng.random((21, 3))
        full = m @ x
        out = np.zeros((37, 3))
        for start, stop in BlockPlan(37, 8):
            csr_matmul_rows(m, x, out, start, stop)
        np.testing.assert_allclose(out, full, rtol=RTOL, atol=1e-15)


def _fresh_problem(seed, block_rows=None, **kwargs):
    """One compiled random problem with deterministic init (and an
    optional forced block size so small tests still get many blocks)."""
    rng = np.random.default_rng(seed)
    problem = random_network(rng, **kwargs)
    init_rng = np.random.default_rng(seed + 1)
    for model in problem.attribute_models:
        model.init_params(init_rng)
        model.set_block_rows(block_rows)
    return problem


class TestBlockedParallelEquivalence:
    """The determinism contract: blocked kernels depend only on the
    plan, and the node-space plan never changes a result -- per-row
    stages write disjoint row slices, and block-ordered reductions
    are grouped by the attribute models' own plans."""

    BLOCK = 7  # tiny forced block size: ~6 blocks on a 40-node net

    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocked_propagate_equals_unblocked(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 60, 4
        mats = random_matrices(rng, n, 3)
        theta = rng.dirichlet(np.ones(k), size=n)
        gamma = rng.random(3) * 2
        operator = PropagationOperator(mats)
        out = np.empty((n, k))
        operator.propagate(
            theta, gamma, out=out, plan=BlockPlan(n, self.BLOCK)
        )
        np.testing.assert_array_equal(
            out, operator.combined(gamma) @ theta
        )

    @pytest.mark.parametrize(
        "seed,kwargs",
        [
            (0, dict()),
            (1, dict(with_text=False)),
            (2, dict(with_numeric=False)),
            (3, dict(links=False)),
        ],
    )
    def test_em_update_identical_with_and_without_plan(self, seed, kwargs):
        results = []
        for forced in (True, False):
            problem = _fresh_problem(
                40 + seed, block_rows=self.BLOCK, **kwargs
            )
            rng = np.random.default_rng(seed)
            theta = random_theta(
                rng, problem.num_nodes, problem.n_clusters
            )
            gamma = rng.random(problem.num_relations) * 2
            operator = PropagationOperator.wrap(problem.matrices)
            plan = (
                BlockPlan(problem.num_nodes, self.BLOCK)
                if forced
                else None
            )
            workspace = EMWorkspace(
                problem.num_nodes, problem.n_clusters
            )
            out = np.empty_like(theta)
            for _ in range(3):  # compound so parameter updates count
                out = em_update(
                    theta, gamma, operator,
                    problem.attribute_models,
                    out=out, workspace=workspace, plan=plan,
                )
                theta, out = out.copy(), out
            params = []
            for model in problem.attribute_models:
                if hasattr(model, "beta"):
                    params.append(model.beta.copy())
                else:
                    params.append(model.means.copy())
                    params.append(model.variances.copy())
            results.append((theta, params))
        (theta_forced, params_forced), (theta_auto, params_auto) = results
        np.testing.assert_array_equal(theta_forced, theta_auto)
        for a, b in zip(params_forced, params_auto):
            np.testing.assert_array_equal(a, b)


class TestObservabilityBitIdentity:
    """The repro.obs determinism contract: observability reads clocks
    and never influences execution, so a fit with tracing fully on is
    **bit-identical** to the uninstrumented fit, multi-block fits
    included."""

    CONFIG = dict(outer_iterations=4, seed=1, n_init=2)

    @classmethod
    def _fit(cls, obs=None):
        net = political_forum_network()
        config = GenClusConfig(n_clusters=2, **cls.CONFIG)
        return GenClus(config).fit(net, attributes=["text"], obs=obs)

    @pytest.mark.parametrize("small_blocks", [1, 4], indirect=True)
    def test_fit_bit_identical_tracing_on_off(self, small_blocks):
        from repro.obs import Observability

        plain = small_blocks(**self.CONFIG)
        traced_obs = Observability(trace=True)
        traced = small_blocks(obs=traced_obs, **self.CONFIG)
        metrics_only = small_blocks(obs=Observability(), **self.CONFIG)
        for other in (traced, metrics_only):
            np.testing.assert_array_equal(plain.theta, other.theta)
            np.testing.assert_array_equal(plain.gamma, other.gamma)
            np.testing.assert_array_equal(
                plain.hard_labels(), other.hard_labels()
            )
        assert traced_obs.tracer.traces()  # and it really traced

    def test_fit_span_tree_shape(self):
        from repro.obs import Observability, series_value

        obs = Observability(trace=True)
        result = self._fit(obs=obs)
        (root,) = obs.tracer.traces()
        assert root.name == "fit"
        outer_spans = root.children[1:]
        assert root.children[0].name == "init"
        assert [span.name for span in outer_spans] == [
            f"outer_iter[{i}]"
            for i in range(1, len(outer_spans) + 1)
        ]
        for span in outer_spans:
            assert [c.name for c in span.children] == [
                "em_sweep", "newton",
            ]
        assert root.attributes["outer_iterations"] == len(outer_spans)
        # counters recorded alongside the spans
        snapshot = obs.metrics.snapshot()
        assert series_value(snapshot, "repro_fits_total") == 1.0
        assert series_value(
            snapshot, "repro_em_sweeps_total"
        ) == sum(r.em_iterations for r in result.history.records)

    def test_newton_spans_report_evaluations_and_stalls(self):
        """Each ``newton`` span carries its solve's g2' evaluation count
        and stall flag; the counter sums the evaluations once per call."""
        from repro.obs import Observability, series_value

        obs = Observability(trace=True)
        self._fit(obs=obs)
        (root,) = obs.tracer.traces()
        newton_spans = [span.children[1] for span in root.children[1:]]
        assert newton_spans
        for span in newton_spans:
            assert span.attributes["evaluations"] >= 1
            assert isinstance(span.attributes["stalled"], bool)
        assert series_value(
            obs.metrics.snapshot(),
            "repro_newton_objective_evaluations_total",
        ) == sum(span.attributes["evaluations"] for span in newton_spans)

    def test_history_timings_come_from_spans(self):
        """RunHistory em/newton seconds == the spans' durations (same
        clock, same interval), with or without a caller tracer."""
        from repro.obs import Observability

        obs = Observability(trace=True)
        traced = self._fit(obs=obs)
        (root,) = obs.tracer.traces()
        for record, outer_span in zip(
            traced.history.records[1:], root.children[1:]
        ):
            em_span, newton_span = outer_span.children
            assert record.em_seconds == em_span.duration
            assert record.newton_seconds == newton_span.duration
        # the untraced fit still fills the timing fields
        plain = self._fit()
        assert all(
            record.em_seconds > 0.0
            for record in plain.history.records[1:]
        )


class TestFullFitEquivalence:
    def test_toy_fit_reference_assignments(self):
        """Full GenClus.fit on the toy network: the fused pipeline must
        land on the same clusters the seed implementation produced
        (perfect camp recovery, recorded before the kernel rewrite;
        hard assignments are invariant to kernel roundoff)."""
        net = political_forum_network()
        result = GenClus(
            GenClusConfig(
                n_clusters=2, outer_iterations=5, seed=1, n_init=3
            )
        ).fit(net, attributes=["text"])
        truth = political_forum_truth(net)
        truth_array = np.array([truth[node] for node in net.node_ids])
        labels = result.hard_labels()
        agreement = max(
            float(np.mean(labels == truth_array)),
            float(np.mean(labels == 1 - truth_array)),
        )
        assert agreement == 1.0

    def test_fit_deterministic_across_runs(self):
        net = political_forum_network()
        model = GenClus(
            GenClusConfig(
                n_clusters=2, outer_iterations=3, seed=3, n_init=2
            )
        )
        r1 = model.fit(net, attributes=["text"])
        r2 = model.fit(net, attributes=["text"])
        np.testing.assert_array_equal(r1.theta, r2.theta)
        np.testing.assert_array_equal(r1.gamma, r2.gamma)


# ----------------------------------------------------------------------
# the numpy row product behind fold-in, pinned to scipy bit for bit
# ----------------------------------------------------------------------
# order-sensitive magnitudes: (1e16 + 1) + 1 != 1e16 + (1 + 1)
PRODUCT_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0, 0.5, 3.0, -2.25, 0.1, 1e16, -1e16, 1e-300, 7.0]
)


@st.composite
def row_product_cases(draw):
    """A CSR in entry order (rows grouped, a row's entries in draw
    order) with duplicate cells, zero weights and empty rows, a dense
    operand, and a row range."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1), st.integers(0, n - 1), PRODUCT_VALUES
            ),
            max_size=40,
        )
    )
    entries.sort(key=lambda entry: entry[0])  # stable within a row
    rows = np.asarray([e[0] for e in entries], dtype=np.int64)
    columns = np.asarray([e[1] for e in entries], dtype=np.int64)
    data = np.asarray([e[2] for e in entries], dtype=np.float64)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    dense = np.asarray(
        draw(st.lists(PRODUCT_VALUES, min_size=n * k, max_size=n * k)),
        dtype=np.float64,
    ).reshape(n, k)
    start = draw(st.integers(0, m))
    stop = draw(st.integers(start, m))
    return indptr, columns, data, dense, start, stop


def same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNumpyRowProduct:
    """``csr_rows_product`` (numpy only) against scipy's C kernel
    ``csr_matvecs`` over the same, non-canonical CSR."""

    def test_scipy_c_kernel_is_the_oracle(self):
        assert kernels._matvecs()[0] is not None

    @settings(max_examples=300, deadline=None)
    @given(row_product_cases())
    def test_matches_csr_matvecs(self, case):
        indptr, columns, data, dense, start, stop = case
        matrix = sparse.csr_matrix(
            (data, columns, indptr), shape=(indptr.size - 1, dense.shape[0])
        )
        assert matrix.nnz == data.size  # duplicates kept, as stored
        want = np.full((indptr.size - 1, dense.shape[1]), np.nan)
        csr_matmul_rows(matrix, dense, want, start, stop)
        got = csr_rows_product(indptr, columns, data, dense, start, stop)
        assert same_bits(got, want[start:stop])

    def test_empty_range_and_empty_rows(self):
        indptr = np.asarray([0, 0, 2, 2])
        got = csr_rows_product(
            indptr, np.asarray([1, 1]), np.asarray([2.0, 3.0]),
            np.asarray([[1.0, 2.0], [4.0, 8.0]]),
        )
        assert same_bits(got, np.asarray([[0.0, 0.0], [20.0, 40.0], [0.0, 0.0]]))
        assert csr_rows_product(indptr, indptr[:0], np.zeros(0),
                                np.ones((2, 2)), 1, 1).shape == (0, 2)

    @settings(max_examples=300, deadline=None)
    @given(row_product_cases(), st.data())
    def test_categorical_theta_term_matches_scipy_ratio_product(
        self, case, data
    ):
        indptr, columns, counts, beta_t, _, _ = case
        m, k = indptr.size - 1, beta_t.shape[1]
        counts = np.abs(counts)
        beta = np.ascontiguousarray(np.abs(beta_t).T) + 0.25
        theta = np.asarray(
            data.draw(
                st.lists(
                    st.floats(0.01, 1.0), min_size=m * k, max_size=m * k
                )
            )
        ).reshape(m, k)
        pattern = CountsPattern(
            rows=np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr)),
            cols=columns,
            vals=counts,
            indptr=indptr,
            shape=(m, beta.shape[1]),
        )
        got = categorical_theta_term(theta, None, beta, pattern=pattern)
        # the scipy formulation fold-in ran before the numpy product
        if pattern.nnz:
            denom = np.einsum(
                "nk,nk->n", theta[pattern.rows], beta.T[pattern.cols]
            )
            np.maximum(denom, 1e-300, out=denom)
            ratio = pattern.ratio_matrix(pattern.vals / denom)
            want = theta * (ratio @ beta.T)
        else:
            want = np.zeros((m, k))
        assert same_bits(got, want)
