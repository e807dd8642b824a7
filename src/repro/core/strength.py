"""Link-type strength learning: the Newton step of Section 4.2.

Given fixed memberships Theta, finds the gamma >= 0 maximizing the
pseudo-log-likelihood ``g2'(gamma)`` of Eq. 14.  Because each object's
conditional ``p(theta_i | out-neighbours)`` is Dirichlet with parameters
``alpha_ik = sum_e gamma(phi(e)) w(e) theta_jk + 1`` (Eq. 15), the local
partition functions are multivariate Beta functions, giving the closed
forms:

* gradient (Eq. 16) via the digamma function ``psi``;
* Hessian (Eq. 17) via the trigamma function ``psi'``.

``g2'`` is concave (Appendix B: the Hessian is a negative-definite sum of
negated conditional covariance matrices minus the prior's ``I/sigma^2``),
so Newton-Raphson with the non-negativity projection
``gamma_r < 0 -> gamma_r = 0`` converges to the constrained maximum.  A
backtracking guard halves steps that fail to improve ``g2'`` -- the exact
Newton step can overshoot right after projection.

The per-object sufficient statistics are precomputed once per call:

* ``S[r] = W_r @ Theta``            (``(R, n, K)``)
* ``rowsum[i, r] = sum_k S[r][i,k]`` = total out-weight per relation
* ``ce_total[r] = sum_{i,k} S[r][i,k] log theta_ik`` (unit-strength
  feature totals)

Hot-path layout: within one Newton iteration the gradient and Hessian
share a single evaluation of the ``(n, K)`` alpha field (Eq. 15) --
historically each recomputed it from scratch, and every line-search
halving allocated a fresh one.  :class:`_NewtonWorkspace` owns the alpha
/ digamma / trigamma / gammaln buffers and reuses them across all
iterations and halvings; the public :func:`gradient`, :func:`hessian`
and :func:`objective_value` remain the allocating reference entry points
(used by tests and diagnostics) and agree with the fused path to
floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, polygamma, psi

from repro.core.feature import floor_distribution
from repro.core.kernels import (
    BlockPlan,
    PropagationOperator,
    csr_matmul_rows,
    ordered_block_sum,
    row_sum,
    run_blocks,
    trigamma_ge1,
)
from repro.hin.views import RelationMatrices

_UNIT = np.finfo(np.float64).eps / 2  # unit roundoff of float64


@dataclass(frozen=True)
class StrengthStatistics:
    """Sufficient statistics of g2' at a fixed Theta."""

    propagated: np.ndarray  # (R, n, K): S[r] = W_r @ Theta
    rowsums: np.ndarray  # (n, R): total out-weight per node per relation
    ce_totals: np.ndarray  # (R,): unit-strength feature totals

    @property
    def num_relations(self) -> int:
        return self.propagated.shape[0]

    @property
    def flat(self) -> np.ndarray:
        """``(R, n*K)`` view of ``propagated`` for BLAS-shaped products."""
        r, n, k = self.propagated.shape
        return self.propagated.reshape(r, n * k)


@dataclass(frozen=True, slots=True)
class StrengthOutcome:
    """Result of one strength-learning step."""

    gamma: np.ndarray
    iterations: int
    objective: float
    converged: bool
    used_fallback: bool
    """True when any iteration fell back to gradient ascent."""
    evaluations: int  # g2' evaluations, the initial one included
    stalled: bool  # the last line search found no ascent and kept gamma


def compute_statistics(
    theta: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    floor: float = 1e-12,
    plan: BlockPlan | None = None,
) -> StrengthStatistics:
    """Precompute S, rowsums and cross-entropy totals for g2'.

    Runs block-by-block over the node rows: each block fills its slice
    of every relation's ``S[r]`` / row sums and contributes a
    cross-entropy partial, reduced in block order.
    """
    theta = floor_distribution(theta, floor)
    log_theta = np.empty_like(theta)
    n, k = theta.shape
    num_relations = matrices.num_relations
    propagated = np.empty((num_relations, n, k))
    rowsums = np.empty((n, num_relations))
    if plan is None:
        plan = BlockPlan.for_shape(n, k)
    ce_partials = np.empty((plan.num_blocks, num_relations))
    mats = matrices.matrices

    def block(index: int, v0: int, v1: int) -> None:
        np.log(theta[v0:v1], out=log_theta[v0:v1])
        for r, matrix in enumerate(mats):
            s = propagated[r]
            csr_matmul_rows(matrix, theta, s, v0, v1)
            row_sum(s[v0:v1], rowsums[v0:v1, r])
            ce_partials[index, r] = np.einsum(
                "nk,nk->", s[v0:v1], log_theta[v0:v1]
            )

    run_blocks(plan, block)
    ce_totals = ordered_block_sum(
        ce_partials, np.empty(num_relations)
    )
    return StrengthStatistics(
        propagated=propagated, rowsums=rowsums, ce_totals=ce_totals
    )


def _alphas(stats: StrengthStatistics, gamma: np.ndarray) -> np.ndarray:
    """Eq. (15): ``alpha = 1 + sum_r gamma_r S[r]`` -- shape ``(n, K)``."""
    return 1.0 + np.tensordot(gamma, stats.propagated, axes=(0, 0))


class _NewtonWorkspace:
    """Per-call scratch shared by all Newton iterations and halvings.

    ``alphas``/``alpha_sums`` hold the Eq. 15 field of the *current*
    gamma (shared by gradient and Hessian); ``cand_alphas`` and the
    special-function fields are overwritten freely by whichever kernel
    runs next.  The workspace also carries the node-space
    :class:`BlockPlan` every kernel blocks over and the per-block
    partial buffers their block-ordered reductions land in.
    """

    __slots__ = (
        "alphas",
        "cand_alphas",
        "alpha_sums",
        "cand_sums",
        "field",
        "row",
        "weighted",
        "weighted_rowsums",
        "plan",
        "partial_vec",
        "partial_vec2",
        "partial_mat",
        "partial_mat2",
        "partial_sums",
        "magnitude",
        "evaluations",
    )

    def __init__(
        self, n: int, k: int, r: int, plan: BlockPlan
    ) -> None:
        self.alphas = np.empty((n, k))
        self.cand_alphas = np.empty((n, k))
        self.alpha_sums = np.empty(n)
        self.cand_sums = np.empty(n)
        self.field = np.empty((n, k))  # psi / trigamma / gammaln of alphas
        self.row = np.empty(n)  # the same of alpha_sums
        self.weighted = np.empty((n, k))  # one relation's trigamma-weighted S
        self.weighted_rowsums = np.empty((n, r))
        self.plan = plan
        num_blocks = plan.num_blocks
        self.partial_vec = np.empty((num_blocks, r))
        self.partial_vec2 = np.empty((num_blocks, r))
        self.partial_mat = np.empty((num_blocks, r, r))
        self.partial_mat2 = np.empty((num_blocks, r, r))
        self.partial_sums = np.empty((num_blocks, 2))
        self.magnitude = np.inf  # of the last g2' evaluation
        self.evaluations = 0


def _alphas_into(
    stats: StrengthStatistics,
    gamma: np.ndarray,
    alphas: np.ndarray,
    alpha_sums: np.ndarray,
    ws: "_NewtonWorkspace | None" = None,
) -> None:
    """Eq. 15 field and its row sums, written into caller buffers.

    The row sums use ``sum_k alpha_ik = K + rowsums_i . gamma`` instead
    of summing the ``(n, K)`` field -- one ``(n, R)`` matvec.  With a
    workspace the rows are filled block-by-block (disjoint slices).
    """
    k = alphas.shape[1]
    if ws is None:
        np.dot(gamma, stats.flat, out=alphas.reshape(-1))
        alphas += 1.0
        np.dot(stats.rowsums, gamma, out=alpha_sums)
        alpha_sums += float(k)
        return
    propagated = stats.propagated
    rowsums = stats.rowsums

    def block(_index: int, v0: int, v1: int) -> None:
        np.einsum(
            "r,rnk->nk",
            gamma,
            propagated[:, v0:v1],
            out=alphas[v0:v1],
        )
        alphas[v0:v1] += 1.0
        np.matmul(rowsums[v0:v1], gamma, out=alpha_sums[v0:v1])
        alpha_sums[v0:v1] += float(k)

    run_blocks(ws.plan, block)


def _gradient_into(
    stats: StrengthStatistics,
    gamma: np.ndarray,
    sigma: float,
    ws: _NewtonWorkspace,
) -> np.ndarray:
    """Eq. 16 from the current-gamma alpha field in ``ws`` (allocates
    only the ``(R,)`` result; per-block partials reduce in block
    order)."""
    propagated = stats.propagated
    rowsums = stats.rowsums

    def block(index: int, v0: int, v1: int) -> None:
        psi(ws.alphas[v0:v1], out=ws.field[v0:v1])
        psi(ws.alpha_sums[v0:v1], out=ws.row[v0:v1])
        # term1[r] = sum_{i,k} psi(alpha_ik) S[r][i,k]
        np.einsum(
            "rnk,nk->r",
            propagated[:, v0:v1],
            ws.field[v0:v1],
            out=ws.partial_vec[index],
        )
        # term2[r] = sum_i psi(alpha_i0) rowsum[i,r]
        np.matmul(
            ws.row[v0:v1], rowsums[v0:v1], out=ws.partial_vec2[index]
        )

    run_blocks(ws.plan, block)
    num_relations = stats.num_relations
    term1 = ordered_block_sum(ws.partial_vec, np.empty(num_relations))
    term2 = ordered_block_sum(ws.partial_vec2, np.empty(num_relations))
    return stats.ce_totals - (term1 - term2) - gamma / sigma**2


def _hessian_into(
    stats: StrengthStatistics,
    gamma: np.ndarray,
    sigma: float,
    ws: _NewtonWorkspace,
) -> np.ndarray:
    """Eq. 17 from the current-gamma alpha field in ``ws`` (allocates
    only the ``(R, R)`` result; per-block partials reduce in block
    order)."""
    num_relations = stats.num_relations
    propagated = stats.propagated
    rowsums = stats.rowsums

    def block(index: int, v0: int, v1: int) -> None:
        # trigamma of the alpha field; alphas >= 1 by Eq. 15, so the
        # fast recurrence + asymptotic-series evaluation applies
        trigamma_ge1(ws.alphas[v0:v1], out=ws.field[v0:v1])
        trigamma_ge1(ws.alpha_sums[v0:v1], out=ws.row[v0:v1])
        # one relation's weighted field at a time: the (n, K) scratch
        # row slice is block-disjoint, so no (R, n, K) buffer is needed
        weighted = ws.weighted[v0:v1]
        for r in range(num_relations):
            np.multiply(
                propagated[r, v0:v1], ws.field[v0:v1], out=weighted
            )
            np.einsum(
                "nk,snk->s",
                weighted,
                propagated[:, v0:v1],
                out=ws.partial_mat[index, r],
            )
        wrs = ws.weighted_rowsums[v0:v1]
        np.multiply(rowsums[v0:v1], ws.row[v0:v1, None], out=wrs)
        np.matmul(
            rowsums[v0:v1].T, wrs, out=ws.partial_mat2[index]
        )

    run_blocks(ws.plan, block)
    shape = (num_relations, num_relations)
    term1 = ordered_block_sum(ws.partial_mat, np.empty(shape))
    term2 = ordered_block_sum(ws.partial_mat2, np.empty(shape))
    return -term1 + term2 - np.eye(num_relations) / sigma**2


def _objective_from_alphas(
    stats: StrengthStatistics,
    gamma: np.ndarray,
    sigma: float,
    alphas: np.ndarray,
    alpha_sums: np.ndarray,
    ws: _NewtonWorkspace,
) -> float:
    """g2'(gamma) given an already-evaluated Eq. 15 field; counts the
    evaluation and sets ``ws.magnitude``, its terms' summed size plus 1
    per gammaln term (gammaln >= -0.1215 on ``[1, inf)``; ce <= 0)."""
    field = ws.field
    row = ws.row

    def block(index: int, v0: int, v1: int) -> None:
        gammaln(alphas[v0:v1], out=field[v0:v1])
        gammaln(alpha_sums[v0:v1], out=row[v0:v1])
        ws.partial_sums[index] = field[v0:v1].sum(), row[v0:v1].sum()

    run_blocks(ws.plan, block)
    log_partition = magnitude = 0.0
    for terms, totals in ws.partial_sums.tolist():
        log_partition += terms - totals
        magnitude += terms + totals
    feature_total = float(np.dot(gamma, stats.ce_totals))
    prior = float(np.dot(gamma, gamma)) / (2.0 * sigma**2)
    ws.evaluations += 1
    count = alphas.size + alpha_sums.size
    ws.magnitude = magnitude + 1.243 * count + prior - feature_total
    return feature_total - log_partition - prior


def objective_value(
    stats: StrengthStatistics, gamma: np.ndarray, sigma: float
) -> float:
    """g2'(gamma) from precomputed statistics (Eq. 14)."""
    alphas = _alphas(stats, gamma)
    log_partition = float(
        (gammaln(alphas).sum(axis=1) - gammaln(alphas.sum(axis=1))).sum()
    )
    feature_total = float(np.dot(gamma, stats.ce_totals))
    prior = float(np.dot(gamma, gamma)) / (2.0 * sigma**2)
    return feature_total - log_partition - prior


def gradient(
    stats: StrengthStatistics, gamma: np.ndarray, sigma: float
) -> np.ndarray:
    """Eq. (16): the gradient of g2' with respect to gamma."""
    alphas = _alphas(stats, gamma)
    psi_alphas = psi(alphas)  # (n, K)
    psi_total = psi(alphas.sum(axis=1))  # (n,)
    # term1[r] = sum_{i,k} psi(alpha_ik) S[r][i,k]
    term1 = np.einsum("rik,ik->r", stats.propagated, psi_alphas)
    # term2[r] = sum_i psi(alpha_i0) rowsum[i,r]
    term2 = psi_total @ stats.rowsums
    return stats.ce_totals - (term1 - term2) - gamma / sigma**2


def hessian(
    stats: StrengthStatistics, gamma: np.ndarray, sigma: float
) -> np.ndarray:
    """Eq. (17): the Hessian of g2' with respect to gamma."""
    alphas = _alphas(stats, gamma)
    tri_alphas = polygamma(1, alphas)  # (n, K)
    tri_total = polygamma(1, alphas.sum(axis=1))  # (n,)
    weighted = stats.propagated * tri_alphas[None, :, :]
    term1 = np.einsum("rik,sik->rs", weighted, stats.propagated)
    term2 = stats.rowsums.T @ (stats.rowsums * tri_total[:, None])
    num_relations = stats.num_relations
    return -term1 + term2 - np.eye(num_relations) / sigma**2


def learn_strengths(
    theta: np.ndarray,
    matrices: RelationMatrices | PropagationOperator,
    gamma0: np.ndarray,
    sigma: float = 0.1,
    max_iterations: int = 50,
    tol: float = 1e-6,
    floor: float = 1e-12,
    plan: BlockPlan | None = None,
    obs=None,
) -> StrengthOutcome:
    """Algorithm 1, step 2: projected Newton-Raphson on g2'.

    Parameters
    ----------
    theta:
        Fixed memberships from the preceding EM step.
    matrices:
        Per-relation link matrices (or a wrapping operator).
    gamma0:
        Finite starting strengths (the previous outer iteration's value).
    sigma:
        Prior scale of Eq. 8.
    max_iterations, tol:
        Stop when ``max |gamma_t - gamma_{t-1}| < tol`` or at the cap.
    plan:
        The node-space :class:`BlockPlan`.  The statistics pass and
        every Newton kernel (Eq. 15 field, Eq. 16/17 sums, the
        line-search objective) run over it with block-ordered
        reductions.
    obs:
        Optional :class:`~repro.obs.Observability`; when recording,
        the call contributes ``repro_newton_iterations_total``,
        ``repro_newton_objective_evaluations_total`` and
        ``repro_newton_fallbacks_total`` counters (once per call --
        nothing inside the Newton loop is instrumented).
    """
    n, k = theta.shape
    gamma = np.asarray(gamma0, dtype=np.float64)
    if gamma.shape != (matrices.num_relations,):
        raise ValueError(
            f"gamma0 must have shape ({matrices.num_relations},), "
            f"got {gamma.shape}"
        )
    if not np.all(np.isfinite(gamma)):
        raise ValueError(f"gamma0 must be finite, got {gamma}")
    gamma = np.clip(gamma, 0.0, None)
    if plan is None:
        plan = BlockPlan.for_shape(n, k)
    stats = compute_statistics(theta, matrices, floor, plan=plan)
    ws = _NewtonWorkspace(n, k, stats.num_relations, plan)
    _alphas_into(stats, gamma, ws.alphas, ws.alpha_sums, ws)
    value = _objective_from_alphas(
        stats, gamma, sigma, ws.alphas, ws.alpha_sums, ws
    )
    magnitude = ws.magnitude
    converged = False
    improved = True
    used_fallback = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # ws.alphas already holds the Eq. 15 field of the current gamma
        # (from initialization or the accepted line-search candidate);
        # gradient and Hessian share that single evaluation
        grad = _gradient_into(stats, gamma, sigma, ws)
        hess = _hessian_into(stats, gamma, sigma, ws)
        step = _newton_direction(hess, grad)
        if step is None:
            used_fallback = True
            step = grad * (sigma**2)  # scaled gradient ascent direction
        candidate, cand_value, fell_back, improved = _line_search(
            stats, gamma, step, value, sigma, ws, grad, magnitude
        )
        if improved:
            # the candidate buffers hold the accepted gamma's field
            ws.alphas, ws.cand_alphas = ws.cand_alphas, ws.alphas
            ws.alpha_sums, ws.cand_sums = ws.cand_sums, ws.alpha_sums
            magnitude = ws.magnitude
        used_fallback = used_fallback or fell_back
        delta = float(np.max(np.abs(candidate - gamma)))
        gamma, value = candidate, cand_value
        if delta < tol:
            converged = True
            break
    if obs is not None and obs.recording:
        obs.metrics.counter(
            "repro_newton_iterations_total", "Newton iterations run"
        ).inc(iterations)
        obs.metrics.counter(
            "repro_newton_objective_evaluations_total",
            "g2' evaluations by the strength solver",
        ).inc(ws.evaluations)
        if used_fallback:
            obs.metrics.counter(
                "repro_newton_fallbacks_total",
                "Strength steps that fell back to gradient ascent "
                "or backtracked",
            ).inc()
    return StrengthOutcome(
        gamma=gamma,
        iterations=iterations,
        objective=value,
        converged=converged,
        used_fallback=used_fallback,
        evaluations=ws.evaluations,
        stalled=not improved,
    )


def _newton_direction(
    hess: np.ndarray, grad: np.ndarray
) -> np.ndarray | None:
    """``-H^{-1} grad`` (an *ascent* step since H is negative definite).

    Returns ``None`` when the solve fails or produces non-finite values,
    signalling the caller to fall back to gradient ascent.
    """
    try:
        step = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(step)):
        return None
    return step


def _line_search(
    stats: StrengthStatistics,
    gamma: np.ndarray,
    step: np.ndarray,
    current_value: float,
    sigma: float,
    ws: _NewtonWorkspace,
    grad: np.ndarray,
    magnitude: float,
    max_halvings: int = 30,
) -> tuple[np.ndarray, float, bool, bool]:
    """Projected backtracking: halve the step until g2' improves.

    Returns ``(new_gamma, new_value, used_fallback, improved)`` where
    ``used_fallback`` records whether any halving was needed and
    ``improved`` whether a step was accepted (so ``ws.cand_*`` hold the
    returned gamma's alpha field).  If no step length improves the
    objective, gamma is kept, though it need not be a maximum: the
    projected Newton step can leave the feasible set where the gradient
    within it is nonzero.  Halvings reuse the candidate alpha buffers.

    A candidate ``x`` that provably fails is skipped unevaluated.  g2'
    is concave (Appendix B), so ``g2'(x) <= g2'(gamma) + grad . d`` for
    ``d = x - gamma`` and the exact gradient.  ``slack`` bounds, twice
    over, the rounding of both computed values and of ``grad . d``:
    ``eps`` (argument, special-function and pairwise-summation rounding
    per term) times ``magnitude`` (``ws.magnitude`` at gamma), plus
    ``eps_grad`` (naive summation) times ``|d| . rates``, the terms'
    growth at ``x`` and the gradient's error (``|psi| <= ln(max alpha)
    + 0.5773`` on the segment).  If ``grad . d + slack < -1e-12`` the
    accept test cannot pass: the result equals evaluating them all.
    """
    n, k = ws.alphas.shape
    weights = None
    scale = 1.0
    for attempt in range(max_halvings):
        candidate = np.clip(gamma + scale * step, 0.0, None)
        d = candidate - gamma
        if grad @ d < -1e-12:  # else no slack can rule the candidate out
            if weights is None:  # total and peak out-weight per relation
                columns = stats.rowsums.T.copy()  # fast axis reductions
                weights, peaks = columns.sum(1), columns.max(1, initial=0)
            eps = _UNIT * (2 * (k + len(gamma)) + np.log2(n * k + 1) + 32)
            eps += _UNIT * len(ws.plan)
            eps_grad = eps + _UNIT * n * k
            top = np.maximum(candidate, gamma)
            rates = np.log(k + peaks @ top) + 0.5773
            rates = 2 * rates * weights + np.abs(stats.ce_totals)
            rates += top / sigma**2 + np.abs(grad)
            slack = 4 * (eps * magnitude + eps_grad * (np.abs(d) @ rates))
            if -np.inf < grad @ d + slack < -1e-12:
                scale *= 0.5
                continue
        _alphas_into(stats, candidate, ws.cand_alphas, ws.cand_sums, ws)
        value = _objective_from_alphas(
            stats, candidate, sigma, ws.cand_alphas, ws.cand_sums, ws
        )
        if np.isfinite(value) and value >= current_value - 1e-12:
            return candidate, value, attempt > 0, True
        scale *= 0.5
    return gamma.copy(), current_value, True, False
