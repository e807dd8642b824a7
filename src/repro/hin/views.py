"""Vectorized views over a heterogeneous network.

The solvers never walk Python adjacency lists; they operate on one sparse
matrix per relation.  ``W_r[i, j] = w(e)`` for each link ``e = <v_i, v_j>``
of relation ``r``, over the *global* node index space.  With these
matrices the EM neighbour term of Eq. 10-12 is
``sum_r gamma_r * (W_r @ Theta)`` and the strength-learning statistics of
Eqs. 16-17 are ``S_r = W_r @ Theta`` -- both ``O(K |E|)`` as the paper's
complexity analysis requires.

Views have one derivation: :func:`build_relation_matrices` over a
network, an ``O(|E|)`` pass that costs less than one EM sweep.  A model
whose node space grew (served nodes promoted into training data)
materializes the grown network and builds its views from that, so the
views of a network never depend on how the network was assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.hin.network import HeterogeneousNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse


@dataclass(frozen=True)
class RelationMatrices:
    """Per-relation CSR adjacency matrices over the global index space.

    Attributes
    ----------
    relation_names:
        Relations with at least one link, in schema declaration order;
        this tuple fixes the index of each entry of the strength vector
        ``gamma``.
    matrices:
        ``matrices[r]`` is the ``(n, n)`` CSR matrix of relation
        ``relation_names[r]``.
    num_nodes:
        ``n``, the global node count.
    """

    relation_names: tuple[str, ...]
    matrices: tuple[sparse.csr_matrix, ...]
    num_nodes: int

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    @cached_property
    def operator(self):
        """The fused propagation operator over these matrices.

        Built on first access and shared by every solver stage touching
        this view (inner EM, objectives, strength statistics), so the
        union-pattern construction cost is paid once per compiled
        problem.  See
        :class:`repro.core.kernels.PropagationOperator`.
        """
        # local import: repro.core modules import this one at top level
        from repro.core.kernels import PropagationOperator

        return PropagationOperator(
            self.matrices, shape=(self.num_nodes, self.num_nodes)
        )

    def combined(self, weights: np.ndarray | None = None) -> sparse.csr_matrix:
        """Weighted sum ``sum_r weights[r] * W_r`` (all-ones by default).

        Used by baselines that "assume homogeneity of links"
        (Section 5.2.1): they see the network through this single flattened
        matrix.
        """
        if weights is None:
            weights = np.ones(self.num_relations)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.num_relations,):
            raise ValueError(
                f"expected {self.num_relations} weights, "
                f"got shape {weights.shape}"
            )
        from scipy import sparse

        total = sparse.csr_matrix(
            (self.num_nodes, self.num_nodes), dtype=np.float64
        )
        for w, mat in zip(weights, self.matrices):
            if w != 0.0:
                total = total + w * mat
        return total.tocsr()


def build_relation_matrices(network: HeterogeneousNetwork) -> RelationMatrices:
    """Freeze a network's links into :class:`RelationMatrices`.

    Relations declared in the schema but carrying no links are dropped,
    matching the paper's setting where every modeled relation has
    links (and so a strength slot).  One ``O(|E|)`` pass over the
    network's link columns: this is the only way views are made, for a
    fresh fit and for a refit over a grown network alike.
    """
    from scipy import sparse

    names: list[str] = []
    mats: list[sparse.csr_matrix] = []
    n = network.num_nodes
    for relation in network.schema.relation_names:
        sources, targets, weights = network.edge_arrays(relation)
        if not sources.size:
            continue
        matrix = sparse.csr_matrix(
            (weights, (sources, targets)), shape=(n, n)
        )
        names.append(relation)
        mats.append(matrix)
    return RelationMatrices(
        relation_names=tuple(names),
        matrices=tuple(mats),
        num_nodes=n,
    )
