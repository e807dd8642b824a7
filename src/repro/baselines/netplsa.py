"""NetPLSA baseline (Mei, Cai, Zhang, Zhai, WWW 2008 [18]).

Topic modeling with network regularization: the PLSA log-likelihood is
traded off against a graph-harmonic penalty

    (1 - lambda) * L_PLSA(theta, beta)
    - lambda * 1/2 * sum_{<u,v>} w_uv sum_k (theta_uk - theta_vk)^2 .

Following the original paper's optimization, each M-step first computes
the PLSA update of ``theta`` and then applies random-walk smoothing
steps ``theta <- (1 - xi) theta_plsa + xi D^-1 W theta`` that push linked
nodes together.

Heterogeneous networks are seen through a *homogenized* symmetric
adjacency (every relation flattened at weight 1, as Section 5.2.1 of the
GenClus paper prescribes for this baseline).  Objects without text
participate only through smoothing -- their theta starts random and only
the propagation term moves it, which is exactly the weakness the GenClus
comparison exposes on the ACP network.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import ConfigError
from repro.hin.network import HeterogeneousNetwork
from repro.hin.views import build_relation_matrices


class NetPLSA:
    """NetPLSA on a homogenized heterogeneous network.

    Parameters
    ----------
    n_topics:
        Number of topics ``K``.
    lambda_:
        Trade-off between text likelihood and graph smoothness in
        ``[0, 1)``; the original paper uses 0.5.
    smoothing_steps:
        Random-walk smoothing applications per M-step.
    max_iterations:
        Outer EM iteration cap.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        n_topics: int,
        lambda_: float = 0.5,
        smoothing_steps: int = 3,
        max_iterations: int = 100,
        seed: int | None = None,
    ) -> None:
        if n_topics < 1:
            raise ConfigError(f"n_topics must be >= 1, got {n_topics}")
        if not 0.0 <= lambda_ < 1.0:
            raise ConfigError(f"lambda_ must be in [0, 1), got {lambda_}")
        if smoothing_steps < 0:
            raise ConfigError(
                f"smoothing_steps must be >= 0, got {smoothing_steps}"
            )
        self.n_topics = n_topics
        self.lambda_ = lambda_
        self.smoothing_steps = smoothing_steps
        self.max_iterations = max_iterations
        self.seed = seed

    def fit_network(
        self, network: HeterogeneousNetwork, attribute: str
    ) -> np.ndarray:
        """Cluster a network by one text attribute; returns ``(n, K)``.

        Every node gets a topic-proportion row, including nodes with no
        text (driven by smoothing only).
        """
        text = network.text_attribute(attribute)
        compiled = text.compile(network.node_index)
        n = network.num_nodes
        vocab = compiled.vocab_size
        if vocab == 0:
            raise ConfigError(
                f"attribute {attribute!r} has an empty vocabulary"
            )
        # full-network count matrix (zero rows for text-free nodes)
        expanded = sparse.lil_matrix((n, vocab))
        expanded[compiled.node_indices] = compiled.counts
        counts = expanded.tocsr()
        coo = counts.tocoo()

        walk = _random_walk_matrix(network)
        rng = np.random.default_rng(self.seed)
        theta = rng.dirichlet(np.ones(self.n_topics), size=n)
        beta = rng.dirichlet(np.ones(vocab), size=self.n_topics)
        has_text = np.zeros(n, dtype=bool)
        has_text[compiled.node_indices] = True

        for _ in range(self.max_iterations):
            theta_plsa, beta = _plsa_step(
                theta, beta, counts, coo.row, coo.col, coo.data
            )
            # nodes without text have no PLSA evidence: keep current theta
            theta_plsa[~has_text] = theta[~has_text]
            smoothed = theta_plsa
            for _ in range(self.smoothing_steps):
                smoothed = (
                    (1.0 - self.lambda_) * theta_plsa
                    + self.lambda_ * (walk @ smoothed)
                )
            row_sums = smoothed.sum(axis=1, keepdims=True)
            theta = smoothed / np.maximum(row_sums, 1e-300)
        return theta


def _plsa_step(
    theta: np.ndarray,
    beta: np.ndarray,
    counts: sparse.csr_matrix,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One PLSA (Hofmann 1999, [11]) EM sweep via the sparse ratio
    ``c_dl / sum_k theta_dk beta_kl``:

        theta_dk  propto  theta_dk sum_l ratio_dl beta_kl
        beta_kl   propto  beta_kl  sum_d theta_dk ratio_dl

    An additive ``1e-10`` in both updates keeps every probability
    positive."""
    denom = np.einsum("nk,nk->n", theta[rows], beta[:, cols].T)
    denom = np.maximum(denom, 1e-300)
    ratio = sparse.csr_matrix(
        (vals / denom, (rows, cols)), shape=counts.shape
    )
    theta_new = theta * (ratio @ beta.T) + 1e-10
    theta_new /= theta_new.sum(axis=1, keepdims=True)
    beta_new = beta * (theta.T @ ratio) + 1e-10
    beta_new /= beta_new.sum(axis=1, keepdims=True)
    return theta_new, beta_new


def _random_walk_matrix(
    network: HeterogeneousNetwork,
) -> sparse.csr_matrix:
    """Symmetric homogenized adjacency, row-normalized (``D^-1 W``).

    Isolated rows become self-loops so the walk is well defined.
    """
    matrices = build_relation_matrices(network)
    combined = matrices.combined()
    symmetric = (combined + combined.T).tocsr()
    degrees = np.asarray(symmetric.sum(axis=1)).ravel()
    n = network.num_nodes
    isolated = degrees <= 0
    if isolated.any():
        fix = sparse.csr_matrix(
            (
                np.ones(int(isolated.sum())),
                (np.nonzero(isolated)[0], np.nonzero(isolated)[0]),
            ),
            shape=(n, n),
        )
        symmetric = (symmetric + fix).tocsr()
        degrees = np.asarray(symmetric.sum(axis=1)).ravel()
    inverse_degree = sparse.diags(1.0 / degrees)
    return (inverse_degree @ symmetric).tocsr()
