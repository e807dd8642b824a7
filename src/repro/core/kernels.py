"""Fused, allocation-free numeric kernels shared by training and serving.

Two observations drive the hot-path design (the Fig. 11 "linear in the
number of links" claim):

1. **The propagation sum is a single matmul.**  Every consumer of the
   link structure -- the EM neighbour term of Eqs. 10-12, the structural
   consistency of Eq. 7, the Dirichlet parameters of Eq. 15, and the
   serving fold-in fixed point -- evaluates ``sum_r gamma_r (W_r @ X)``
   for some dense ``X``.  While gamma is fixed (all of inner EM, every
   fold-in sweep) the weighted matrices collapse into **one** combined
   CSR matrix, so each evaluation is a single sparse matmul instead of
   ``R``.  :class:`PropagationOperator` owns that combined matrix: the
   union sparsity pattern is built once, per-relation entries are mapped
   to slots in the union data array, and a gamma change only rewrites
   the data vector in place (``O(nnz)``, no structure rebuild).

2. **The inner loops should not allocate.**  :class:`EMWorkspace`
   carries the caller-owned ``(n, K)`` scratch that ``em_update`` and
   the attribute models write responsibility sums into, and
   :func:`csr_matmul` accumulates sparse-dense products directly into a
   preallocated output via scipy's C kernel.  After a warm-up, one
   text-only ``em_update`` allocates less than a single ``(n, K)``
   field (a test pins this at DBLP size); what remains is ``(K, vocab)``
   parameters, a block's Gaussian owner sums, the indices of all-zero
   rows, and numpy's fixed-size buffer for the broadcast row divide.
   scipy is imported on first use: serving fold-in multiplies its few
   batch rows with :func:`csr_rows_product`, the same sums in numpy
   alone, so a serving process never loads scipy.

Both pieces are exact algebraic rewrites: equivalence to the reference
per-relation implementations is asserted to ``rtol=1e-10`` (the
categorical E+M pass: bit for bit) in ``tests/test_kernels_equivalence.py``.

3. **The index space is blockable.**  :class:`BlockPlan` partitions a
   row space into contiguous, cache-sized blocks.  Every hot loop
   (fused propagation, the EM theta update, the attribute models' E+M
   passes, the Eq. 15 gradient/Hessian statistics, serving fold-in
   sweeps) executes block-by-block, inline and in block order
   (:func:`run_blocks`): per-row work writes disjoint row slices, and
   cross-block reductions accumulate **in block order**
   (:func:`ordered_block_sum`).  Determinism therefore rests on one
   fact: the plan is a pure function of the problem shape, so the same
   shapes always produce the same blocks and the same reduction order.
   The blocking pays on one core: a block's buffers stay resident in
   L2 across the many elementwise passes of the Gaussian E-step, where
   the unblocked sweep streamed multi-megabyte arrays from RAM once
   per pass.  Nothing configures the plan: a fit, score or objective is
   a pure function of its inputs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse


@cache
def _matvecs() -> tuple:
    """scipy's C kernels for ``Y += A @ X`` as ``(csr_matvecs,
    csc_matvecs)`` (a stable private API; ``None`` where missing).
    Imported on first use: only training multiplies with them, and a
    serving process never loads scipy."""
    try:
        from scipy.sparse import _sparsetools as st
    except ImportError:  # pragma: no cover - scipy always ships it today
        return None, None
    return (
        getattr(st, "csr_matvecs", None),
        getattr(st, "csc_matvecs", None),
    )


def csr_rows_product(
    indptr: np.ndarray,
    columns: np.ndarray,
    data: np.ndarray,
    dense: np.ndarray,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """``A[start:stop] @ dense`` for a CSR ``A = (indptr, columns,
    data)``, in numpy alone; returns a fresh ``(stop - start, K)``
    array.

    Bit-identical to scipy's ``csr_matvecs`` into a zeroed output (what
    :func:`csr_matmul_rows` runs): every stored entry contributes
    ``data[j] * dense[columns[j], k]``, and one flat ``bincount`` over
    the ``row * K + k`` slots adds each slot's contributions to ``0.0``
    sequentially in entry order -- the C kernel's order.  Duplicate
    cells stay separate terms and empty rows come out ``0.0``, as
    there.  Meant for short row ranges (a fold-in batch); a fitted
    network's products keep the C kernel.
    """
    if stop is None:
        stop = indptr.size - 1
    k = dense.shape[1]
    lo, hi = int(indptr[start]), int(indptr[stop])
    if lo == hi:  # bincount would return integer zeros
        return np.zeros((stop - start, k))
    rows = np.repeat(
        np.arange(stop - start, dtype=np.intp),
        np.diff(indptr[start : stop + 1]),
    )
    terms = data[lo:hi, None] * np.take(dense, columns[lo:hi], axis=0)
    slots = (rows * k)[:, None] + np.arange(k, dtype=np.intp)
    return np.bincount(
        slots.ravel(), weights=terms.ravel(), minlength=(stop - start) * k
    ).reshape(stop - start, k)


def _c_kernel_fits(matrix, dense: np.ndarray, out: np.ndarray) -> bool:
    """Whether scipy's C kernels can run on these operands in place."""
    arrays = (matrix.data, dense, out)
    return all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)


def csr_matmul(
    matrix: sparse.csr_matrix,
    dense: np.ndarray,
    out: np.ndarray,
    accumulate: bool = False,
) -> np.ndarray:
    """``out (+)= matrix @ dense`` without allocating the product."""
    return csr_matmul_rows(
        matrix, dense, out, 0, matrix.shape[0], accumulate=accumulate
    )


def csr_matmul_rows(
    matrix: sparse.csr_matrix,
    dense: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
    accumulate: bool = False,
) -> np.ndarray:
    """``out[start:stop] (+)= matrix[start:stop] @ dense`` without any
    row-slice copy.

    scipy's ``csr_matvecs`` reads the index pointer entries as
    *absolute* offsets into the shared ``indices``/``data`` arrays, so
    passing a **view** of ``indptr`` selects a row range for free --
    this is what makes blocked execution allocation-free: every block
    multiplies its rows of the one canonical CSR in place.  Falls back
    to an allocating matmul when the C kernel is unavailable or the
    operands are not contiguous float64 (the result is identical
    either way).
    """
    sub_out = out[start:stop]
    if not accumulate:
        sub_out[...] = 0.0
    csr_matvecs = _matvecs()[0]
    if csr_matvecs is not None and _c_kernel_fits(matrix, dense, out):
        csr_matvecs(
            stop - start,
            matrix.shape[1],
            dense.shape[1],
            matrix.indptr[start : stop + 1],
            matrix.indices,
            matrix.data,
            dense.ravel(),
            sub_out.ravel(),
        )
    else:  # pragma: no cover - exercised only on exotic scipy builds
        sub_out += matrix[start:stop] @ dense
    return out


def csr_rmatmul_rows(
    matrix: sparse.csr_matrix, dense: np.ndarray, out: np.ndarray,
    start: int, stop: int,
) -> np.ndarray:
    """``out += matrix[start:stop].T @ dense[start:stop]`` with no
    transpose: a CSR read as CSC is its transpose.  Each ``out`` row sums
    in matrix-row order (across calls too, when ranges come in order),
    the order of scipy's own ``dense.T @ matrix``."""
    dense = dense[start:stop]
    csc_matvecs = _matvecs()[1]
    if csc_matvecs is None or not _c_kernel_fits(matrix, dense, out):
        out += (dense.T @ matrix[start:stop]).T  # pragma: no cover
        return out
    csc_matvecs(
        matrix.shape[1], stop - start, dense.shape[1],
        matrix.indptr[start : stop + 1], matrix.indices, matrix.data,
        dense.ravel(), out.ravel(),
    )
    return out


# ----------------------------------------------------------------------
# block-partitioned execution
# ----------------------------------------------------------------------
# Target working-set bytes per block: the block's (rows, K) field plus a
# couple of same-shaped scratch buffers should sit in a per-core L2.
_BLOCK_TARGET_BYTES = 256 * 1024
_MIN_BLOCK_ROWS = 1024


def _cache_rows(row_width: int) -> int:
    """Rows per block keeping one block's float64 ``(rows, row_width)``
    field around :data:`_BLOCK_TARGET_BYTES`."""
    width = max(int(row_width), 1)
    return max(_MIN_BLOCK_ROWS, _BLOCK_TARGET_BYTES // (width * 8))


class BlockPlan:
    """Contiguous row blocks over an index space.

    The plan is a pure function of ``(num_rows, block_rows)``, so the
    block decomposition, and with it every block-ordered reduction, is
    fixed by the shapes alone.  Every kernel, trainer and serving scan
    gets its node-space plan from :meth:`for_shape`, which derives a
    cache-sized ``block_rows`` from the row width; an explicit plan is
    a test seam.  Nothing carries a plan from one problem to the next:
    the same ``(num_rows, row_width)`` always blocks the same way,
    whatever grew or shrank the index space before.
    """

    __slots__ = ("num_rows", "block_rows", "bounds")

    def __init__(self, num_rows: int, block_rows: int) -> None:
        if num_rows < 0:
            raise ValueError(f"num_rows must be >= 0, got {num_rows}")
        if block_rows < 1:
            raise ValueError(
                f"block_rows must be >= 1, got {block_rows}"
            )
        self.num_rows = int(num_rows)
        self.block_rows = int(block_rows)
        # ((start, stop), ...) in row order
        self.bounds: tuple[tuple[int, int], ...] = tuple(
            (start, min(start + self.block_rows, self.num_rows))
            for start in range(0, self.num_rows, self.block_rows)
        )

    @classmethod
    def for_shape(cls, num_rows: int, row_width: int) -> "BlockPlan":
        """A cache-sized plan for an ``(num_rows, row_width)`` field."""
        return cls(num_rows, _cache_rows(row_width))

    @property
    def num_blocks(self) -> int:
        return len(self.bounds)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.bounds)

    def __len__(self) -> int:
        return len(self.bounds)


def plan_for_observations(
    num_rows: int, row_width: int, num_items: int
) -> BlockPlan:
    """A plan over owner rows sized by their *item* working set.

    Attribute models block over observed-node rows, but the buffers the
    blocks stream are per-observation ``(items, K)`` fields; when each
    row owns several items the node block must shrink accordingly to
    keep one block's field cache-resident.  Like every plan, the result
    depends only on the shapes.
    """
    multiplicity = max(1.0, num_items / max(num_rows, 1))
    block_rows = int(_cache_rows(row_width) / multiplicity)
    return BlockPlan(num_rows, max(_MIN_BLOCK_ROWS // 4, block_rows, 1))


def run_bounds(bounds: Sequence[tuple[int, int]], fn) -> list:
    """Run ``fn(index, start, stop)`` for every half-open range, in order.

    The range-sequence twin of :func:`run_blocks` for callers whose
    scan is a *clipped* view of a plan (a shard's owned rows, an
    engine's extension tail) rather than the plan itself.  Results come
    back in bounds order.
    """
    return [
        fn(index, start, stop) for index, (start, stop) in enumerate(bounds)
    ]


def run_blocks(plan: BlockPlan, fn) -> list:
    """Run ``fn(block_index, start, stop)`` for every block of ``plan``.

    Blocks run inline in block order and the per-block results come
    back in that order; callers reduce over the list with
    :func:`ordered_block_sum` to get plan-determined sums.
    """
    return run_bounds(plan.bounds, fn)


def ordered_block_sum(partials: Sequence, out: np.ndarray) -> np.ndarray:
    """Accumulate per-block reduction partials in block order.

    The fixed left-to-right order is the determinism contract: the sum
    depends only on the plan, which depends only on the shapes.
    """
    out[...] = 0.0
    for partial in partials:
        out += partial
    return out


def _union_pattern(
    matrices: Sequence[sparse.csr_matrix],
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Union sparsity of canonical CSR matrices plus per-matrix slots.

    Returns ``(indices, indptr, slots)`` where ``slots[r][i]`` is the
    position of matrix ``r``'s ``i``-th stored entry inside the union's
    data array (entries in canonical CSR order).
    """
    from scipy import sparse

    n_rows, n_cols = shape
    union: sparse.csr_matrix | None = None
    for matrix in matrices:
        structure = sparse.csr_matrix(
            (
                np.ones(matrix.nnz),
                matrix.indices.copy(),
                matrix.indptr.copy(),
            ),
            shape=shape,
        )
        union = structure if union is None else union + structure
    union.sort_indices()
    # (row * n_cols + col) keys are globally sorted in a canonical
    # CSR, so per-relation slots come from one searchsorted each
    union_rows = np.repeat(
        np.arange(n_rows, dtype=np.int64), np.diff(union.indptr)
    )
    union_keys = union_rows * n_cols + union.indices
    slots = []
    for matrix in matrices:
        rows = np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(matrix.indptr)
        )
        keys = rows * n_cols + matrix.indices
        slots.append(np.searchsorted(union_keys, keys))
    return union.indices, union.indptr, tuple(slots)


class PropagationOperator:
    """Cached fused propagation ``X -> sum_r gamma_r (W_r @ X)``.

    Parameters
    ----------
    matrices:
        Per-relation sparse matrices of one common shape.  They are
        canonicalized to CSR with sorted, duplicate-free indices.
    shape:
        Required when ``matrices`` is empty (a links-free operator that
        propagates zeros); otherwise inferred.

    The union sparsity pattern of all relations is computed once.  Each
    relation's entries are mapped to slots of the union data array, so
    switching to a new gamma is a pure data rewrite -- the combined
    matrix object (and therefore anything holding a reference to it)
    stays valid.  ``propagate`` evaluates the combined matmul, writing
    into a caller-owned output when one is provided.

    The operator is intentionally not thread-safe: it reuses one data
    buffer across gamma values.
    """

    def __init__(
        self,
        matrices: Sequence[sparse.spmatrix],
        shape: tuple[int, int] | None = None,
    ) -> None:
        from scipy import sparse

        canonical: list[sparse.csr_matrix] = []
        for matrix in matrices:
            csr = sparse.csr_matrix(matrix, dtype=np.float64, copy=False)
            csr.sum_duplicates()
            csr.sort_indices()
            canonical.append(csr)
        if canonical:
            shape = canonical[0].shape
            for matrix in canonical[1:]:
                if matrix.shape != shape:
                    raise ValueError(
                        f"all relation matrices must share one shape; "
                        f"got {shape} and {matrix.shape}"
                    )
        elif shape is None:
            raise ValueError(
                "shape is required when no matrices are given"
            )
        self.matrices: tuple[sparse.csr_matrix, ...] = tuple(canonical)
        self.shape: tuple[int, int] = (int(shape[0]), int(shape[1]))
        self._gamma_key: bytes | None = None
        # union sparsity pattern + per-relation slot maps, built once
        if not self.matrices:
            self._union_data = np.zeros(0)
            self._combined = sparse.csr_matrix(self.shape, dtype=np.float64)
            self._slots: tuple[np.ndarray, ...] = ()
            return
        indices, indptr, slots = _union_pattern(self.matrices, self.shape)
        self._slots = slots
        self._union_data = np.zeros(indices.size)
        # the data buffer is rewritten in place on gamma change; the
        # matrix object itself never changes identity
        self._combined = sparse.csr_matrix(
            (self._union_data, indices, indptr),
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    @property
    def num_relations(self) -> int:
        return len(self.matrices)

    @property
    def num_nodes(self) -> int:
        """Row count (node count for the square training operator)."""
        return self.shape[0]

    @property
    def nnz(self) -> int:
        """Size of the union pattern (combined matrix nonzeros)."""
        return int(self._combined.nnz)

    @staticmethod
    def wrap(matrices) -> "PropagationOperator":
        """Adopt an existing operator, or the one cached on a
        :class:`~repro.hin.views.RelationMatrices`, else build fresh."""
        if isinstance(matrices, PropagationOperator):
            return matrices
        cached = getattr(matrices, "operator", None)
        if isinstance(cached, PropagationOperator):
            return cached
        return PropagationOperator(
            matrices.matrices,
            shape=(matrices.num_nodes, matrices.num_nodes),
        )

    # ------------------------------------------------------------------
    def combined(self, gamma: np.ndarray) -> sparse.csr_matrix:
        """The cached ``sum_r gamma_r W_r`` CSR at this gamma.

        Rewrites the shared data buffer only when gamma actually
        changed; inner EM (fixed gamma) hits the cache every iteration.
        """
        gamma = np.asarray(gamma, dtype=np.float64)
        if gamma.shape != (self.num_relations,):
            raise ValueError(
                f"gamma must have shape ({self.num_relations},), "
                f"got {gamma.shape}"
            )
        key = gamma.tobytes()
        if key != self._gamma_key:
            data = self._union_data
            data[:] = 0.0
            for g, slots, matrix in zip(gamma, self._slots, self.matrices):
                if g != 0.0:
                    # slots are unique within one relation, so fancy
                    # in-place add is a plain scatter
                    data[slots] += g * matrix.data
            self._gamma_key = key
        return self._combined

    def propagate(
        self,
        theta: np.ndarray,
        gamma: np.ndarray,
        out: np.ndarray | None = None,
        plan: BlockPlan | None = None,
    ) -> np.ndarray:
        """``sum_r gamma_r (W_r @ theta)`` as one fused matmul.

        With ``out`` given, the product is written into it (no
        allocation); otherwise a fresh array is returned.  With a
        ``plan``, the rows are evaluated in blocks -- each block is an
        independent row range of the same CSR matvec, so the result is
        bit-identical to the unblocked product.  The gamma rewrite of
        the shared data buffer happens once, before any block runs.
        """
        combined = self.combined(gamma)
        if plan is None:
            if out is None:
                return combined @ theta
            return csr_matmul(combined, theta, out)
        if out is None:
            out = np.empty((self.shape[0], theta.shape[1]))

        def block(_index: int, start: int, stop: int) -> None:
            csr_matmul_rows(combined, theta, out, start, stop)

        run_blocks(plan, block)
        return out


class EMWorkspace:
    """Caller-owned scratch for the inner EM loop.

    One workspace serves every iteration of a ``run_em`` call: the
    ``(n, K)`` accumulator the neighbour term and attribute models write
    responsibility sums into, and the ``(n,)`` row-sum buffer used for
    normalization.  Nothing in here survives a call as output --
    results land in the caller's ``out`` array.
    """

    __slots__ = ("update", "row_sums")

    def __init__(self, num_nodes: int, n_clusters: int) -> None:
        self.update = np.empty((num_nodes, n_clusters))
        self.row_sums = np.empty(num_nodes)


def trigamma_ge1(
    x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``psi'(x)`` for arrays with ``x >= 1``, much faster than scipy.

    scipy routes ``polygamma(1, x)`` through the generic Hurwitz
    ``zeta(2, x)``, which dominates the strength-learning Hessian
    (Eq. 17).  For the alpha fields of Eq. 15 every argument satisfies
    ``x >= 1``, so the classical recurrence
    ``psi'(x) = psi'(x + 1) + 1/x^2`` lifts all arguments to ``z >= 8``
    where the asymptotic Bernoulli series converges to full double
    precision (max relative error ~3e-13 vs scipy, verified in tests;
    the equivalence budget is 1e-10).  Falls back to scipy when the
    domain assumption does not hold.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and float(np.min(x)) < 1.0:  # pragma: no cover - guard
        from scipy.special import zeta

        return zeta(2.0, x, out=out)
    if out is None:
        out = np.empty_like(x)
    z = x.copy()
    out[...] = 0.0
    for _ in range(7):  # worst case lifts x = 1 to z = 8
        mask = z < 8.0
        if not mask.any():
            break
        out += mask / (z * z)
        z += mask
    inv = 1.0 / z
    inv2 = inv * inv
    # 1/z + 1/(2 z^2) + B2/z^3 + B4/z^5 + ... (Bernoulli numbers)
    out += inv * (
        1.0
        + inv * (
            0.5
            + inv * (
                1.0 / 6.0
                + inv2 * (
                    -1.0 / 30.0
                    + inv2 * (
                        1.0 / 42.0
                        + inv2 * (
                            -1.0 / 30.0
                            + inv2 * (
                                5.0 / 66.0 + inv2 * (-691.0 / 2730.0)
                            )
                        )
                    )
                )
            )
        )
    )
    return out


# Above this column count the ndarray axis-1 reduction wins; below it,
# K-1 strided column ops beat numpy's per-row reduce loop handily.
_SMALL_K = 8


def row_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` into ``out``, fast for small column counts.

    numpy's reduction over a short innermost axis pays per-row
    dispatch; for the ``(n, K)`` fields of this code base (K = a few
    clusters) summing K strided columns is several times faster (the
    summation order differs from numpy's pairwise reduce only in the
    last bits of rounding).
    """
    k = a.shape[1]
    if k > _SMALL_K:
        return a.sum(axis=1, out=out)
    if k == 1:
        out[...] = a[:, 0]
        return out
    np.add(a[:, 0], a[:, 1], out=out)
    for col in range(2, k):
        out += a[:, col]
    return out


def row_max(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` into ``out``, fast for small column counts."""
    k = a.shape[1]
    if k > _SMALL_K:
        return a.max(axis=1, out=out)
    if k == 1:
        out[...] = a[:, 0]
        return out
    np.maximum(a[:, 0], a[:, 1], out=out)
    for col in range(2, k):
        np.maximum(out, a[:, col], out=out)
    return out


def floor_normalize_inplace(
    theta: np.ndarray, floor: float, row_sums: np.ndarray
) -> np.ndarray:
    """In-place clamp-away-from-zero + row renormalization.

    The allocation-free twin of
    :func:`repro.core.feature.floor_distribution` for ``(n, K)``
    matrices; ``row_sums`` is an ``(n,)`` scratch buffer.
    """
    np.clip(theta, floor, None, out=theta)
    row_sum(theta, row_sums)
    theta /= row_sums[:, None]
    return theta


def normalize_update_block(
    update: np.ndarray,
    theta: np.ndarray,
    out: np.ndarray,
    row_sums: np.ndarray,
    floor: float,
    start: int,
    stop: int,
) -> None:
    """One block of the theta-update normalization shared by training
    EM and serving fold-in (Eqs. 10-12's closing step).

    ``out[start:stop]`` receives the row-normalized, floored update;
    rows whose update summed to zero (no out-links, no observations)
    keep their previous ``theta`` row.  Dead-row detection is per-row,
    so blocks are independent of each other, and training and serving
    cannot drift apart on these semantics.
    """
    update_slice = update[start:stop]
    sums = row_sums[start:stop]
    row_sum(update_slice, sums)
    if update_slice.shape[0] and float(np.min(sums)) <= 0.0:
        # re-sum only the replaced rows (the same per-row arithmetic)
        dead = np.flatnonzero(sums <= 0.0)
        update_slice[dead] = theta[start:stop][dead]
        sums[dead] = row_sum(update_slice[dead], np.empty(dead.size))
    out_slice = out[start:stop]
    np.divide(update_slice, sums[:, None], out=out_slice)
    floor_normalize_inplace(out_slice, floor, sums)
