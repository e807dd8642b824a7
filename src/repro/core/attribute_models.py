"""Per-attribute mixture-model components of Section 3.2.

Each specified attribute ``X`` is modeled as a mixture over the common
hidden space: component ``k`` is shared across all objects, the mixing
proportions of object ``v`` are its membership vector ``theta_v``.  Two
component families are implemented:

* :class:`CategoricalModel` -- text attributes, PLSA-style categorical
  components ``beta_k`` over the vocabulary (Eq. 3); EM pieces of Eq. 10.
* :class:`GaussianModel` -- numeric attributes, components
  ``N(mu_k, sigma_k^2)`` (Eq. 4); EM pieces of Eqs. 11-12.

Both expose the same interface:

``init_params(rng)``
    Draw initial component parameters.
``accumulate_em_step(theta, out)``
    One E+M pass given the current memberships: adds each observed
    object's summed responsibilities -- the attribute part of the theta
    update in Eqs. 10-12 -- into the caller-owned ``(n, K)`` accumulator
    ``out``, and updates the component parameters in place.  This is the
    solver's hot path: the observation pattern (CSR structure /
    owner-scatter matrix) is frozen at construction, and every
    per-observation array is a buffer preallocated once: a categorical
    pass allocates only its ``(K, vocab)`` parameters, a Gaussian one at
    most a block's owner sums.
``em_step(theta)``
    Allocating convenience wrapper: same pass, but the responsibility
    sums are returned scattered into a fresh dense ``(n, K)`` array.
``log_likelihood(theta)``
    ``log p({v[X]} | Theta, beta)`` under current parameters.

The multi-attribute case (Eq. 5 / Eq. 12) needs no special handling: the
models are independent given Theta, so the solver simply sums their theta
contributions and log-likelihoods.

The E-step arithmetic is also exposed as module-level *frozen-parameter*
functions (:func:`categorical_theta_term`, :func:`gaussian_theta_term`):
given memberships, observations, and fixed component parameters they
return the responsibility sums of Eqs. 10-12 without touching any model
state.  ``em_step`` semantics match them, and the serving fold-in engine
(:mod:`repro.serving.foldin`) calls them directly to score *new*
observations against a fitted model whose parameters stay frozen;
:class:`CountsPattern` lets such repeated callers pay the sparse-counts
decomposition once per batch instead of once per fixed-point sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.kernels import (
    BlockPlan,
    csr_matmul_rows,
    csr_rmatmul_rows,
    csr_rows_product,
    ordered_block_sum,
    plan_for_observations,
    run_blocks,
)
from repro.exceptions import ConfigError
from repro.hin.attributes import (
    CompiledNumericAttribute,
    CompiledTextAttribute,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

_LOG_2PI = float(np.log(2.0 * np.pi))
# additive smoothing of the beta M-step: no term probability hits
# exactly zero, so log-likelihoods stay finite for terms that drift out
# of a cluster
BETA_SMOOTHING = 1e-10


# ----------------------------------------------------------------------
# frozen-parameter responsibility scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountsPattern:
    """The decomposed sparse structure of a term-count matrix.

    ``categorical_theta_term`` needs the nonzero triplets and the CSR
    index pointer of the counts matrix on every call; fixed-point
    callers (serving fold-in, the models' own EM) evaluate the same
    counts dozens of times, so this pattern is computed once and passed
    back in.  Entries are in canonical CSR order.
    """

    rows: np.ndarray  # (nnz,) row of each stored count
    cols: np.ndarray  # (nnz,) column (term id) of each stored count
    vals: np.ndarray  # (nnz,) the counts c_{v,l}
    indptr: np.ndarray  # CSR row pointer, len shape[0] + 1
    shape: tuple[int, int]

    @classmethod
    def from_counts(cls, counts: sparse.spmatrix) -> "CountsPattern":
        from scipy import sparse

        csr = sparse.csr_matrix(counts, dtype=np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        rows = np.repeat(
            np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr)
        )
        return cls(
            rows=rows,
            cols=csr.indices.astype(np.int64, copy=False),
            vals=csr.data,
            indptr=csr.indptr,
            shape=(int(csr.shape[0]), int(csr.shape[1])),
        )

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def ratio_matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        """A CSR over this pattern carrying ``data`` (no re-sorting)."""
        from scipy import sparse

        return sparse.csr_matrix(
            (data, self.cols, self.indptr), shape=self.shape
        )


def _categorical_denominators(
    theta_rows: np.ndarray, pattern: CountsPattern, beta: np.ndarray
) -> np.ndarray:
    """``d_{v,l} = sum_k theta_vk beta_kl`` at each nonzero count, as a
    contiguous einsum over row-wise gathers (bit-identical to the
    strided ``"nk,kn->n"`` over fancy-indexed copies, and faster)."""
    return np.einsum(
        "nk,nk->n",
        np.take(theta_rows, pattern.rows, axis=0),
        np.take(beta.T, pattern.cols, axis=0),
    )


def categorical_theta_term(
    theta_rows: np.ndarray,
    counts: sparse.spmatrix | None,
    beta: np.ndarray,
    pattern: CountsPattern | None = None,
) -> np.ndarray:
    """Frozen-``beta`` responsibility sums of Eq. 10 for a batch of rows.

    Parameters
    ----------
    theta_rows:
        ``(m, K)`` memberships of the ``m`` observed objects, aligned
        with the rows of ``counts``.
    counts:
        ``(m, vocab)`` sparse term counts ``c_{v,l}``.  May be ``None``
        when ``pattern`` is given -- the pattern *is* the decomposed
        counts, and it alone is read in that case.
    beta:
        ``(K, vocab)`` fixed component term distributions.
    pattern:
        Optional precomputed :class:`CountsPattern` of ``counts``.
        Callers evaluating the same counts repeatedly (fold-in sweeps)
        should build it once; without it the matrix is decomposed per
        call.

    Returns
    -------
    ``(m, K)`` array: ``sum_l c_{v,l} p(z_{v,l} = k | theta_v, beta)``
    per row.  No parameters are updated.
    """
    if pattern is None:
        if counts is None:
            raise ValueError("either counts or pattern is required")
        pattern = CountsPattern.from_counts(counts)
    if pattern.nnz == 0:
        return np.zeros((pattern.shape[0], beta.shape[0]))
    denom = _categorical_denominators(theta_rows, pattern, beta)
    # guard: denom is 0 only if theta_v and beta share no support
    np.maximum(denom, 1e-300, out=denom)
    # theta part: theta_vk * sum_l (c_vl / d_vl) beta_kl, the sparse
    # product ``ratio @ beta.T`` in numpy alone (bit-identical)
    return theta_rows * csr_rows_product(
        pattern.indptr, pattern.cols, pattern.vals / denom, beta.T
    )


def gaussian_log_pdf(
    values: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """``(n_obs, K)`` log densities of every observation per cluster."""
    x = np.asarray(values, dtype=np.float64)[:, None]
    return (
        -0.5 * (_LOG_2PI + np.log(variances)[None, :])
        - 0.5 * (x - means[None, :]) ** 2 / variances[None, :]
    )


def gaussian_responsibilities(
    theta_rows: np.ndarray,
    values: np.ndarray,
    owners: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """``p(z_{v,x} = k)`` per observation with frozen parameters (Eq. 11).

    ``theta_rows`` holds one membership row per observed *object*;
    ``owners[i]`` is the row of observation ``values[i]``.
    """
    log_mix = np.log(
        np.maximum(theta_rows[owners], 1e-300)
    ) + gaussian_log_pdf(values, means, variances)
    log_mix -= log_mix.max(axis=1, keepdims=True)
    resp = np.exp(log_mix)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp


def gaussian_theta_term(
    theta_rows: np.ndarray,
    values: np.ndarray,
    owners: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """Frozen-parameter responsibility sums of Eq. 11 for a batch of rows.

    Returns ``(m, K)``: ``sum_{x in v[X]} p(z_{v,x} = k)`` per row of
    ``theta_rows``.  No parameters are updated.  The owner scatter runs
    through per-column ``np.bincount`` -- same result as the historical
    ``np.add.at``, many times faster.
    """
    resp = gaussian_responsibilities(
        theta_rows, values, owners, means, variances
    )
    m, k = theta_rows.shape
    per_node = np.empty((m, k))
    for col in range(k):
        per_node[:, col] = np.bincount(
            owners, weights=resp[:, col], minlength=m
        )
    return per_node


class CategoricalModel:
    """Text attribute mixture: ``X | k ~ discrete(beta_k)`` (Eq. 3).

    Parameters
    ----------
    compiled:
        The frozen term-count table (``c_{v,l}`` of Eq. 3).
    n_clusters:
        ``K``.
    num_nodes:
        Global node count ``n`` (for scattering theta contributions).
    """

    def __init__(
        self,
        compiled: CompiledTextAttribute,
        n_clusters: int,
        num_nodes: int,
    ) -> None:
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        self.compiled = compiled
        self.n_clusters = n_clusters
        self.num_nodes = num_nodes
        self.beta: np.ndarray | None = None
        # frozen sparse structure + per-call buffers, allocated once
        self._pattern = pattern = CountsPattern.from_counts(compiled.counts)
        n_obs_nodes, vocab = pattern.shape
        indices = np.asarray(compiled.node_indices, dtype=np.int64)
        # the hot-path gathers skip numpy's per-call bounds check
        # (mode="clip"): check the frozen indices once, here
        for index, bound in ((indices, num_nodes), (pattern.cols, vocab)):
            if index.size and not 0 <= index.min() <= index.max() < bound:
                raise ConfigError("text attribute ids out of range")
        self._indices = indices
        # flat (node, component) slots of out, for a one-call scatter
        self._out_slots = (
            indices[:, None] * n_clusters + np.arange(n_clusters)
        ).ravel()
        self._ratio_data = np.empty(pattern.nnz)
        self._ratio = pattern.ratio_matrix(self._ratio_data)
        self._theta_obs = np.empty((n_obs_nodes, n_clusters))
        self._term = np.empty((n_obs_nodes, n_clusters))
        self._beta_t = np.empty((vocab, n_clusters))
        # blocked execution over observed-node rows: each block owns a
        # contiguous nnz range of the canonical counts pattern
        self._block_rows: int | None = None
        self._plan, self._gathers = None, ()

    # ------------------------------------------------------------------
    def init_params(
        self, rng: np.random.Generator, variant: int = 0
    ) -> None:
        """Random near-uniform term distributions (broken symmetry).

        ``variant`` exists for interface parity with
        :meth:`GaussianModel.init_params`; categorical components are
        exchangeable, so every variant draws the same way.
        """
        del variant  # exchangeable components: nothing to permute
        m = max(self.compiled.vocab_size, 1)
        noise = rng.random((self.n_clusters, m)) + 0.5
        self.beta = noise / noise.sum(axis=1, keepdims=True)

    def _require_params(self) -> np.ndarray:
        if self.beta is None:
            raise RuntimeError(
                "CategoricalModel used before init_params/set_params"
            )
        return self.beta

    def set_params(self, beta: np.ndarray) -> None:
        """Install explicit component parameters (rows must sum to 1)."""
        beta = np.asarray(beta, dtype=np.float64)
        expected = (self.n_clusters, self.compiled.vocab_size)
        if beta.shape != expected:
            raise ValueError(f"beta must have shape {expected}, got {beta.shape}")
        if np.any(beta < 0):
            raise ValueError("beta entries must be non-negative")
        sums = beta.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-8):
            raise ValueError("beta rows must sum to 1")
        self.beta = beta.copy()

    # ------------------------------------------------------------------
    def set_block_rows(self, block_rows: int | None) -> None:
        """Force the blocked-execution row count (``None`` = the
        shape-derived plan); a test seam, fits never call it."""
        if block_rows != self._block_rows:
            self._block_rows = block_rows
            self._plan = None

    def _get_plan(self):
        plan = self._plan
        if plan is None:
            rows = self.compiled.counts.shape[0]
            plan = (
                plan_for_observations(rows, self.n_clusters, self._pattern.nnz)
                if self._block_rows is None
                else BlockPlan(rows, self._block_rows)
            )
            # one scratch set serves every block, so it stays in cache
            indptr = self._pattern.indptr
            widest = max(
                (int(indptr[b] - indptr[a]) for a, b in plan), default=0
            )
            self._gathers = (
                np.empty((widest, self.n_clusters)),
                np.empty((widest, self.n_clusters)),
                np.empty(widest),
            )
            self._plan = plan
        return plan

    def accumulate_em_step(self, theta: np.ndarray, out: np.ndarray) -> None:
        """One EM pass (Eq. 10), adding the theta contribution to ``out``.

        ``out[v] += sum_l c_{v,l} * p(z_{v,l} = k | Theta, beta)`` for
        each observed object, computed with the *incoming* parameters
        exactly as Eq. 10 prescribes; ``beta`` is then updated in place
        from the same responsibilities.

        The pass runs over contiguous observed-node blocks: each block
        gathers its nnz range of the canonical counts pattern into
        scratch with ``np.take`` (clip mode: the indices were checked at
        construction), writes disjoint rows of ``out`` through one flat
        add, and adds its rows' share of the ``beta`` M-step statistic
        in row order.
        """
        beta = self._require_params()
        if self._pattern.nnz == 0:
            return
        shape = (self.num_nodes, self.n_clusters)
        if not (theta.shape == out.shape == shape and out.flags.c_contiguous):
            raise ValueError(f"theta and out must be C-contiguous {shape}")
        plan = self._get_plan()
        pattern, k, theta_obs = self._pattern, self.n_clusters, self._theta_obs
        theta_buf, beta_buf, denom = self._gathers
        np.copyto(self._beta_t, beta.T)
        m_step = np.zeros_like(self._beta_t)
        flat_out = out.reshape(-1)

        def block(_index: int, v0: int, v1: int) -> None:
            p0, p1 = int(pattern.indptr[v0]), int(pattern.indptr[v1])
            rows = theta_obs[v0:v1]
            indices = self._indices[v0:v1]
            np.take(theta, indices, axis=0, out=rows, mode="clip")
            if p1 > p0:
                n = p1 - p0
                np.take(theta_obs, pattern.rows[p0:p1], axis=0,
                        out=theta_buf[:n], mode="clip")
                np.take(self._beta_t, pattern.cols[p0:p1], axis=0,
                        out=beta_buf[:n], mode="clip")
                d = np.einsum("nk,nk->n", theta_buf[:n], beta_buf[:n],
                              out=denom[:n])
                np.maximum(d, 1e-300, out=d)
                np.divide(pattern.vals[p0:p1], d, out=self._ratio_data[p0:p1])
            # self._ratio shares ratio_data: its rows v0:v1 now hold C/d
            csr_matmul_rows(self._ratio, self._beta_t, self._term, v0, v1)
            block_term = self._term[v0:v1]
            block_term *= rows
            np.add.at(flat_out, self._out_slots[v0 * k : v1 * k],
                      block_term.reshape(-1))
            # the M-step statistic [(C/d)^T theta]_lk, in row order
            csr_rmatmul_rows(self._ratio, theta_obs, m_step, v0, v1)

        run_blocks(plan, block)
        # beta M-step: beta_kl propto sum_v c_vl p(z=k) = beta_kl * [theta^T (C/d)]_kl
        beta_new = beta * m_step.T
        beta_new += BETA_SMOOTHING
        self.beta = beta_new / beta_new.sum(axis=1, keepdims=True)

    def em_step(self, theta: np.ndarray) -> np.ndarray:
        """Allocating wrapper: the Eq. 10 contribution as a dense array.

        The returned ``(n, K)`` array holds the responsibility sums for
        each observed object (zero elsewhere); parameters are refreshed
        exactly as in :meth:`accumulate_em_step`.
        """
        contribution = np.zeros((self.num_nodes, self.n_clusters))
        self._require_params()
        self.accumulate_em_step(theta, contribution)
        return contribution

    def log_likelihood(self, theta: np.ndarray) -> float:
        """``sum_v sum_l c_vl log(sum_k theta_vk beta_kl)`` (log of Eq. 3)."""
        if self._pattern.nnz == 0:
            return 0.0
        denom = _categorical_denominators(
            theta[self._indices], self._pattern, self._require_params()
        )
        np.maximum(denom, 1e-300, out=denom)
        return float(np.dot(self._pattern.vals, np.log(denom, out=denom)))


class GaussianModel:
    """Numeric attribute mixture: ``X | k ~ N(mu_k, sigma_k^2)`` (Eq. 4).

    Parameters
    ----------
    compiled:
        The frozen observation list.
    n_clusters:
        ``K``.
    num_nodes:
        Global node count ``n``.
    variance_floor:
        Lower clamp for component variances (prevents collapse when a
        component captures a single observation).
    """

    def __init__(
        self,
        compiled: CompiledNumericAttribute,
        n_clusters: int,
        num_nodes: int,
        variance_floor: float = 1e-8,
    ) -> None:
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        if variance_floor <= 0:
            raise ConfigError(
                f"variance_floor must be positive, got {variance_floor}"
            )
        self.compiled = compiled
        self.n_clusters = n_clusters
        self.num_nodes = num_nodes
        self.variance_floor = variance_floor
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None
        # frozen observation structure + per-call buffers.  Blocked
        # execution needs each observed node's observations contiguous,
        # so the flattened observation list is canonicalized to
        # owner-grouped order once (compile() already emits it grouped;
        # the stable sort is a no-op then).
        owners = compiled.owners.astype(np.int64, copy=False)
        values = np.asarray(compiled.values, dtype=np.float64)
        if owners.size and np.any(np.diff(owners) < 0):
            order = np.argsort(owners, kind="stable")
            owners = owners[order]
            values = values[order]
        self._owners = owners
        self._values = np.ascontiguousarray(values)
        n_obs = values.size
        n_obs_nodes = compiled.node_indices.shape[0]
        # owners index into the local observed-node block; precompose
        # with node_indices so theta rows gather in one take
        self._global_owners = compiled.node_indices[owners]
        # per-node observation ranges: node v owns observations
        # _obs_indptr[v] .. _obs_indptr[v + 1] of the grouped arrays
        self._obs_indptr = np.searchsorted(
            owners, np.arange(n_obs_nodes + 1)
        )
        # the E+M sweep runs in *component-major* ``(K, n_obs)`` layout:
        # every per-component field is then a contiguous row, so the
        # scalar/broadcast ufuncs stay on numpy's SIMD fast paths (the
        # historical ``(n_obs, K)`` layout paid strided inner loops of
        # length K on every broadcastng pass)
        self._resp = np.empty((n_clusters, n_obs))
        self._dev = np.empty((n_clusters, n_obs))
        self._gather = np.empty((n_clusters, n_obs))
        self._obs_buf = np.empty(n_obs)
        self._per_node = np.empty((n_obs_nodes, n_clusters))
        self._theta_t = np.empty((n_clusters, num_nodes))
        # blocked execution over observed-node rows + per-block M-step
        # partials (accumulated in block order for determinism)
        self._block_rows: int | None = None
        self._plan = None
        self._partials: np.ndarray | None = None

    # ------------------------------------------------------------------
    def init_params(
        self, rng: np.random.Generator, variant: int = 0
    ) -> None:
        """Quantile-spread means plus jitter; variance = global variance.

        Component ``k`` starts at the ``(k + 0.5) / K`` quantile of the
        observed values.  ``variant`` selects the *component order*:

        * ``variant == 0`` -- sorted ascending.  When several attributes
          are co-monotone over the hidden clusters (the weather
          Setting 1 patterns), sorted components start aligned on the
          same cluster indices, so link consistency reinforces rather
          than fights the attribute terms.
        * ``variant > 0`` -- a random permutation of the quantiles.  For
          non-co-monotone patterns (Setting 2's corner means, where the
          marginal of each attribute repeats values across clusters) no
          sorted order is correct; permuted seeds let the multi-seed
          ``g1`` selection of Section 4.3 discover a cross-attribute
          alignment the links agree with.

        The jitter breaks exact ties when distinct clusters share a mean
        in one dimension -- identical components would otherwise receive
        identical responsibilities forever.
        """
        values = self.compiled.values
        if values.size == 0:
            self.means = np.zeros(self.n_clusters)
            self.variances = np.ones(self.n_clusters)
            return
        quantiles = (np.arange(self.n_clusters) + 0.5) / self.n_clusters
        means = np.quantile(values, quantiles)
        if variant > 0:
            means = rng.permutation(means)
        spread = max(float(values.std()), 1e-3)
        jitter = rng.normal(0.0, spread * 0.05, size=self.n_clusters)
        self.means = means + jitter
        global_var = max(float(values.var()), self.variance_floor)
        self.variances = np.full(self.n_clusters, global_var)

    def set_params(self, means: np.ndarray, variances: np.ndarray) -> None:
        """Install explicit component parameters."""
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if means.shape != (self.n_clusters,):
            raise ValueError(
                f"means must have shape ({self.n_clusters},), "
                f"got {means.shape}"
            )
        if variances.shape != (self.n_clusters,):
            raise ValueError(
                f"variances must have shape ({self.n_clusters},), "
                f"got {variances.shape}"
            )
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        self.means = means.copy()
        self.variances = np.maximum(variances, self.variance_floor)

    def _require_params(self) -> tuple[np.ndarray, np.ndarray]:
        if self.means is None or self.variances is None:
            raise RuntimeError(
                "GaussianModel used before init_params/set_params"
            )
        return self.means, self.variances

    # ------------------------------------------------------------------
    def _log_pdf(self) -> np.ndarray:
        """``(n_obs, K)`` log densities of every observation per cluster
        (in the canonical owner-grouped order of ``_values``)."""
        means, variances = self._require_params()
        return gaussian_log_pdf(self._values, means, variances)

    def set_block_rows(self, block_rows: int | None) -> None:
        """Force the blocked-execution row count (``None`` = the
        shape-derived plan); a test seam, fits never call it."""
        if block_rows != self._block_rows:
            self._block_rows = block_rows
            self._plan = None
            self._partials = None

    def _get_plan(self):
        plan = self._plan
        if plan is None:
            rows = self.compiled.node_indices.shape[0]
            plan = (
                plan_for_observations(rows, self.n_clusters, self._values.size)
                if self._block_rows is None
                else BlockPlan(rows, self._block_rows)
            )
            self._plan = plan
            self._partials = np.empty(
                (3, plan.num_blocks, self.n_clusters)
            )
        return plan

    def accumulate_em_step(self, theta: np.ndarray, out: np.ndarray) -> None:
        """One EM pass (Eq. 11), adding the theta contribution to ``out``.

        ``out[v] += sum_{x in v[X]} p(z_{v,x} = k)`` for observed
        objects; means and variances are then refreshed from the same
        responsibilities (their M-step in Eq. 11).

        The E and M passes are fused into one sweep over contiguous
        observed-node blocks in component-major ``(K, n_obs)`` layout:
        every per-component field is a contiguous row (scalar-operand
        ufuncs, SIMD-friendly), a block's fields stay cache-resident
        across the density / gather / normalize / scatter / moment
        passes, and the M-step reduces per-block moment partials in
        block order.  The second moment is taken around the
        incoming means -- exactly the ``(x - mu_k)^2`` field the
        density already computed, removed as a shift afterwards --
        which folds the variance pass into the same block sweep
        without the cancellation a raw ``E[x^2]`` would risk.
        """
        means, variances = self._require_params()
        if self._values.size == 0:
            return
        plan = self._get_plan()
        k_components = self.n_clusters
        values = self._values
        indices = self.compiled.node_indices
        obs_indptr = self._obs_indptr
        owners = self._owners
        global_owners = self._global_owners
        theta_t = self._theta_t
        np.copyto(theta_t, theta.T)
        # log N(x; mu_k, s_k) = coeff_k (x - mu_k)^2 + log_norm_k; the
        # row max-shift of the softmax is skipped -- log_norm is bounded
        # (|A_k| < 709 for any positive float64 variance) so exp cannot
        # overflow, and fully-underflowed rows take the same clamped
        # log-space fallback the shifted path used
        coeff = -0.5 / variances
        log_norm = -0.5 * (_LOG_2PI + np.log(variances))
        partials = self._partials
        totals_p, m1_p, m2_p = partials[0], partials[1], partials[2]

        def block(index: int, v0: int, v1: int) -> None:
            o0 = int(obs_indptr[v0])
            o1 = int(obs_indptr[v1])
            x = values[o0:o1]
            r = self._resp[:, o0:o1]
            dev = self._dev[:, o0:o1]
            gather = self._gather[:, o0:o1]
            sums = self._obs_buf[o0:o1]
            for k in range(k_components):
                np.subtract(x, means[k], out=dev[k])
            np.multiply(dev, dev, out=dev)  # dev = (x - mu_k)^2
            np.multiply(dev, coeff[:, None], out=r)
            r += log_norm[:, None]
            np.exp(r, out=r)
            # weight by the owning object's memberships and normalize
            np.take(theta_t, global_owners[o0:o1], axis=1, out=gather)
            r *= gather
            if k_components == 1:
                np.copyto(sums, r[0])
            else:
                np.add(r[0], r[1], out=sums)
                for k in range(2, k_components):
                    sums += r[k]
            if o1 > o0 and float(np.min(sums)) <= 0.0:
                # every component underflowed (density spread > ~708
                # nats from the theta-supported one): re-score just
                # those observations through the clamped log-space
                # reference, which cannot vanish
                bad = np.flatnonzero(sums <= 0.0)
                r[:, bad] = gaussian_responsibilities(
                    theta[global_owners[o0:o1][bad]],
                    x[bad],
                    np.arange(bad.size),
                    means,
                    variances,
                ).T
                sums[bad] = 1.0
            r /= sums[None, :]
            # scatter + M-step moment partials for this block
            local = owners[o0:o1] - v0
            per_node = self._per_node
            for k in range(k_components):
                counts = np.bincount(
                    local, weights=r[k], minlength=v1 - v0
                )
                per_node[v0:v1, k] = counts
                totals_p[index, k] = counts.sum()
                m1_p[index, k] = np.dot(x, r[k])
                m2_p[index, k] = np.dot(r[k], dev[k])
            out[indices[v0:v1]] += per_node[v0:v1]

        run_blocks(plan, block)
        num_blocks = plan.num_blocks
        totals = ordered_block_sum(
            totals_p[:num_blocks], np.empty(self.n_clusters)
        )
        m1 = ordered_block_sum(
            m1_p[:num_blocks], np.empty(self.n_clusters)
        )
        m2 = ordered_block_sum(
            m2_p[:num_blocks], np.empty(self.n_clusters)
        )
        safe_totals = np.maximum(totals, 1e-300)
        means_new = m1 / safe_totals
        # shifted second moment around the incoming means c = mu_k:
        # E[(x - m)^2] = E[(x - c)^2] - (m - c)^2
        delta = means_new - means
        var_new = m2 / safe_totals - delta * delta
        # clusters with no responsibility mass keep their parameters
        dead = totals <= 1e-300
        means_new[dead] = means[dead]
        var_new[dead] = variances[dead]
        self.means = means_new
        self.variances = np.maximum(var_new, self.variance_floor)

    def em_step(self, theta: np.ndarray) -> np.ndarray:
        """Allocating wrapper: the Eq. 11 contribution as a dense array."""
        contribution = np.zeros((self.num_nodes, self.n_clusters))
        self._require_params()
        self.accumulate_em_step(theta, contribution)
        return contribution

    def log_likelihood(self, theta: np.ndarray) -> float:
        """Log of Eq. (4): ``sum_obs log sum_k theta_vk N(x; mu_k, s_k)``."""
        if self.compiled.values.size == 0:
            return 0.0
        log_theta = np.log(
            np.maximum(theta[self._global_owners], 1e-300)
        )
        log_mix = log_theta + self._log_pdf()
        peak = log_mix.max(axis=1, keepdims=True)
        return float(
            np.sum(peak.ravel() + np.log(
                np.exp(log_mix - peak).sum(axis=1)
            ))
        )


AttributeModel = CategoricalModel | GaussianModel
"""Union of the concrete attribute model types."""
