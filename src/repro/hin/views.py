"""Vectorized views over a heterogeneous network.

The solvers never walk Python adjacency lists; they operate on one sparse
matrix per relation.  ``W_r[i, j] = w(e)`` for each link ``e = <v_i, v_j>``
of relation ``r``, over the *global* node index space.  With these
matrices the EM neighbour term of Eq. 10-12 is
``sum_r gamma_r * (W_r @ Theta)`` and the strength-learning statistics of
Eqs. 16-17 are ``S_r = W_r @ Theta`` -- both ``O(K |E|)`` as the paper's
complexity analysis requires.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.hin.network import HeterogeneousNetwork


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

    def index_of(self, relation: str) -> int:
        """Position of a relation in ``relation_names`` (gamma index)."""
        try:
            return self.relation_names.index(relation)
        except ValueError:
            raise KeyError(
                f"relation {relation!r} has no links in this network"
            ) from None

    def matrix(self, relation: str) -> sparse.csr_matrix:
        return self.matrices[self.index_of(relation)]

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

    def block_plan(self, row_width: int):
        """The node-space :class:`~repro.core.kernels.BlockPlan` shared
        by every blocked kernel over these views.

        Delegates to the cached operator so trainer, objectives, and
        serving block identically -- and so the plan is **patched, not
        rebuilt**, when the views grow through
        :func:`append_relation_rows` (the grown operator carries the
        grown plans).
        """
        return self.operator.block_plan(row_width)

    def row_slice(
        self, start: int, stop: int
    ) -> tuple[sparse.csr_matrix, ...]:
        """Per-relation ``(stop - start, num_nodes)`` CSR row blocks.

        The shard view of these matrices: row ``i`` of each block is
        global row ``start + i``, columns stay in the global index
        space.  Built from index-pointer arithmetic alone -- the
        ``data`` and ``indices`` arrays are shared with the full
        matrices, so slicing a shard's rows out of a large network
        costs ``O(rows)``, not ``O(nnz)``.
        """
        if not 0 <= start <= stop <= self.num_nodes:
            raise ValueError(
                f"row range [{start}, {stop}) must lie within "
                f"0..{self.num_nodes}"
            )
        blocks = []
        for mat in self.matrices:
            indptr = mat.indptr[start : stop + 1] - mat.indptr[start]
            lo, hi = mat.indptr[start], mat.indptr[stop]
            blocks.append(
                sparse.csr_matrix(
                    (mat.data[lo:hi], mat.indices[lo:hi], indptr),
                    shape=(stop - start, self.num_nodes),
                )
            )
        return tuple(blocks)

    def row_link_counts(self, start: int, stop: int) -> dict[str, int]:
        """Stored links originating in rows ``[start, stop)``, per
        relation -- the out-link load a shard owning those rows
        carries (reported by ``ShardPlan.describe`` and the
        ``shard-plan`` CLI)."""
        return {
            name: int(block.nnz)
            for name, block in zip(
                self.relation_names, self.row_slice(start, stop)
            )
        }

    def out_weight_totals(self) -> np.ndarray:
        """``(n, R)`` array: total out-link weight per node per relation."""
        totals = np.zeros((self.num_nodes, self.num_relations))
        for r, mat in enumerate(self.matrices):
            totals[:, r] = np.asarray(mat.sum(axis=1)).ravel()
        return totals

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
        total = sparse.csr_matrix(
            (self.num_nodes, self.num_nodes), dtype=np.float64
        )
        for w, mat in zip(weights, self.matrices):
            if w != 0.0:
                total = total + w * mat
        return total.tocsr()


def build_relation_matrices(
    network: HeterogeneousNetwork,
    include_empty: bool = False,
) -> RelationMatrices:
    """Freeze a network's links into :class:`RelationMatrices`.

    Parameters
    ----------
    network:
        The source network.
    include_empty:
        When true, relations declared in the schema but carrying no links
        still get a (zero) matrix and a gamma slot.  The default drops
        them, matching the paper's setting where every modeled relation
        has links.
    """
    names: list[str] = []
    mats: list[sparse.csr_matrix] = []
    n = network.num_nodes
    for relation in network.schema.relation_names:
        sources, targets, weights = network.edge_arrays(relation)
        if not sources.size and not include_empty:
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


def empty_relation_matrices(
    relation_names: Sequence[str], num_nodes: int
) -> RelationMatrices:
    """All-zero matrices for a fixed relation list over ``num_nodes``.

    Starting point for incrementally grown views -- e.g. rebuilding
    link views for a model reloaded from an artifact (which carries no
    training edges) before feeding deltas to
    :func:`extend_relation_matrices`.
    """
    return RelationMatrices(
        relation_names=tuple(relation_names),
        matrices=tuple(
            sparse.csr_matrix((num_nodes, num_nodes), dtype=np.float64)
            for _ in relation_names
        ),
        num_nodes=num_nodes,
    )


def append_relation_rows(
    base: RelationMatrices,
    num_new_nodes: int,
    links: Mapping[str, Sequence[tuple[int, int, float]]],
) -> RelationMatrices:
    """Grow views to ``(n + m, n + m)`` by *appending rows* -- patched,
    not rebuilt.

    The restricted (and common) growth case: every delta link
    originates at one of the ``m`` appended nodes (sources in
    ``n .. n + m - 1``; targets anywhere in the extended space).  That
    is exactly how served fold-in state grows -- new nodes bring their
    out-links, and link deltas only touch extension nodes -- and it
    means the existing CSR arrays and, crucially, the cached
    :class:`~repro.core.kernels.PropagationOperator` union pattern are
    reused verbatim: the returned view carries a **patched** operator
    built in ``O(m + nnz(delta))`` via
    :meth:`~repro.core.kernels.PropagationOperator.grown`, instead of
    paying a full union rebuild over all training links.

    For deltas with base-node sources use the general (rebuilding)
    :func:`extend_relation_matrices`.
    """
    if num_new_nodes < 0:
        raise ValueError(
            f"num_new_nodes must be >= 0, got {num_new_nodes}"
        )
    n = base.num_nodes
    total = n + num_new_nodes
    for relation in links:
        if relation not in base.relation_names:
            raise KeyError(
                f"relation {relation!r} has no matrix (and no gamma "
                f"slot) in the base views"
            )
    blocks: list[sparse.csr_matrix] = []
    for name in base.relation_names:
        delta = links.get(name) or ()
        sources = np.asarray([d[0] for d in delta], dtype=np.int64)
        targets = np.asarray([d[1] for d in delta], dtype=np.int64)
        weights = np.asarray([d[2] for d in delta], dtype=np.float64)
        if sources.size:
            if sources.min() < n or sources.max() >= total:
                raise ValueError(
                    f"relation {name!r}: append_relation_rows requires "
                    f"link sources in the appended range {n}..{total - 1}"
                )
            if targets.min() < 0 or targets.max() >= total:
                raise IndexError(
                    f"relation {name!r}: link targets must lie in "
                    f"0..{total - 1}"
                )
        blocks.append(
            sparse.csr_matrix(
                (weights, (sources - n, targets)),
                shape=(num_new_nodes, total),
            )
        )
    operator = base.operator.grown(blocks, num_new_nodes)
    grown = RelationMatrices(
        relation_names=base.relation_names,
        matrices=operator.matrices,
        num_nodes=total,
    )
    # install the patched operator in the cached_property slot so every
    # consumer of the grown views shares it (no rebuild on first access)
    grown.__dict__["operator"] = operator
    return grown


def extend_relation_matrices(
    base: RelationMatrices,
    num_new_nodes: int,
    links: Mapping[str, Sequence[tuple[int, int, float]]],
) -> RelationMatrices:
    """Grow matrices to ``(n + m, n + m)`` with appended delta links.

    New nodes extend the global index space (rows/columns
    ``n .. n + m - 1``) and their links are summed in *without
    recompiling the full problem* -- the existing CSR storage is reused
    verbatim (columns extend for free; rows extend by padding the index
    pointer), so the cost is ``O(m + nnz(delta))`` rather than a fresh
    pass over the whole network.  This is the general-purpose growth
    path (e.g. warm-starting a refit from served deltas, see ROADMAP);
    serving fold-in itself compiles only the ``m`` new *rows* of this
    product directly, since frozen base rows are never multiplied.

    Parameters
    ----------
    base:
        The matrices being extended.
    num_new_nodes:
        ``m >= 0``, how many rows/columns to append.
    links:
        ``{relation: [(source, target, weight), ...]}`` with endpoints in
        the *extended* index space ``0 .. n + m - 1``.  Repeated pairs
        accumulate, matching the network container's semantics.  A
        relation absent from ``base.relation_names`` is a ``KeyError``:
        it has no strength slot, so the solvers could not use it.
    """
    if num_new_nodes < 0:
        raise ValueError(
            f"num_new_nodes must be >= 0, got {num_new_nodes}"
        )
    n = base.num_nodes
    total = n + num_new_nodes
    for relation in links:
        if relation not in base.relation_names:
            raise KeyError(
                f"relation {relation!r} has no matrix (and no gamma "
                f"slot) in the base views"
            )
    extended: list[sparse.csr_matrix] = []
    for name, mat in zip(base.relation_names, base.matrices):
        indptr = np.concatenate(
            [mat.indptr, np.full(num_new_nodes, mat.indptr[-1])]
        )
        resized = sparse.csr_matrix(
            (mat.data, mat.indices, indptr), shape=(total, total)
        )
        delta = links.get(name)
        if delta:
            sources = np.asarray([d[0] for d in delta], dtype=np.int64)
            targets = np.asarray([d[1] for d in delta], dtype=np.int64)
            weights = np.asarray([d[2] for d in delta], dtype=np.float64)
            if sources.size and (
                sources.min() < 0
                or targets.min() < 0
                or sources.max() >= total
                or targets.max() >= total
            ):
                raise IndexError(
                    f"relation {name!r}: link endpoints must lie in "
                    f"0..{total - 1}"
                )
            resized = (
                resized
                + sparse.csr_matrix(
                    (weights, (sources, targets)), shape=(total, total)
                )
            ).tocsr()
        extended.append(resized)
    return RelationMatrices(
        relation_names=base.relation_names,
        matrices=tuple(extended),
        num_nodes=total,
    )
