"""Blocked partial-selection kernels: theta as a product surface.

The fitted membership matrix is an embedding table, and the paper's own
link-prediction protocol (Section 5.2.2) ranks candidates by a
similarity on membership vectors.  This module is the **one** scoring
implementation behind both halves of that protocol:

* offline -- :mod:`repro.eval.similarity` / :mod:`repro.eval.linkpred`
  build their dense ``(Q, C)`` score matrices through
  :func:`pairwise_scores` (same arithmetic as always, byte-for-byte);
* online -- ``InferenceEngine.similar`` / ``suggest_links`` answer
  top-k queries through :func:`topk_bounds` without ever materializing
  a ``(Q, C)`` matrix or running a full sort: the query batch is
  scored against each contiguous row block of the served theta as one
  matmul, each block keeps its best ``k`` rows via
  ``np.argpartition`` (``O(rows)``, not ``O(rows log rows)``), and the
  per-block shortlists merge under a total order.

**Determinism contract** (extends the block-plan and shard
contracts): ranking order is ``(score desc, row index asc)``
everywhere.  The block decomposition is a pure function of the
problem shape, per-block selection breaks score ties by ascending row
index, and every cross-block (and cross-shard) merge re-sorts by the
same total order -- so top-k lists are bit-identical at every block
size and every shard count, and equal to the offline reference
ranking ``np.argsort(-scores, kind="stable")``.

Three metrics, named as in the paper's tables (``cosine`` /
``neg_euclidean`` / ``neg_cross_entropy``), each split into a
candidate-side *precompute* (cacheable against a model version: row L2
norms, squared norms) and a per-block *score* kernel.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.kernels import run_bounds

EPS = 1e-12
"""Floor protecting norms and logs of degenerate membership rows."""

METRICS = ("cosine", "neg_euclidean", "neg_cross_entropy")
"""Metric names in the order the paper's tables report them."""

# user-facing aliases (the CLI spells the sign convention implicitly)
METRIC_ALIASES = {
    "cosine": "cosine",
    "euclidean": "neg_euclidean",
    "neg_euclidean": "neg_euclidean",
    "cross_entropy": "neg_cross_entropy",
    "neg_cross_entropy": "neg_cross_entropy",
}


def resolve_metric(name: str) -> str:
    """Canonical metric name for ``name`` (accepts CLI aliases)."""
    try:
        return METRIC_ALIASES[name]
    except KeyError:
        raise ValueError(
            f"unknown similarity metric {name!r}; available: "
            f"{sorted(METRIC_ALIASES)}"
        ) from None


# ----------------------------------------------------------------------
# candidate-side precomputes (version-stamped caches hold these)
# ----------------------------------------------------------------------
def precompute(metric: str, theta: np.ndarray) -> dict[str, np.ndarray]:
    """Candidate-side arrays a serving cache keeps per model version.

    ``cosine`` needs the row L2 norms and ``neg_euclidean`` the
    squared row norms, both derived *from* the (possibly
    memory-mapped) theta without mutating or copying it;
    ``neg_cross_entropy`` needs nothing (the log is query-side).
    """
    theta = np.asarray(theta)
    if metric == "cosine":
        return {"norms": np.linalg.norm(theta, axis=1)}
    if metric == "neg_euclidean":
        return {"sq": np.sum(theta**2, axis=1)}
    if metric == "neg_cross_entropy":
        return {}
    raise ValueError(f"unknown similarity metric {metric!r}")


def precompute_nbytes(pre: dict[str, np.ndarray]) -> int:
    """Bytes held by one metric's precompute arrays."""
    return int(sum(array.nbytes for array in pre.values()))


def prepare_queries(metric: str, rows: np.ndarray):
    """Query-side transform for a ``(m, K)`` batch of membership rows.

    Returns whatever :func:`score_block` expects for the metric.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if metric == "cosine":
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        return rows / np.maximum(norms, EPS)
    if metric == "neg_euclidean":
        return rows, np.sum(rows**2, axis=1)
    if metric == "neg_cross_entropy":
        return np.log(np.maximum(rows, EPS))
    raise ValueError(f"unknown similarity metric {metric!r}")


def score_block(
    metric: str,
    prepared,
    theta: np.ndarray,
    start: int,
    stop: int,
    pre: dict[str, np.ndarray],
) -> np.ndarray:
    """Score prepared queries against candidate rows ``[start, stop)``.

    One matmul per block; returns the dense ``(m, stop - start)`` score
    panel (larger = more similar).  Scoring the whole row space as one
    block reproduces the offline pairwise matrices byte-for-byte --
    that is what makes this the single scoring implementation.
    """
    block = theta[start:stop]
    if metric == "cosine":
        norms = pre["norms"][start:stop]
        candidates = block / np.maximum(norms[:, None], EPS)
        return prepared @ candidates.T
    if metric == "neg_euclidean":
        rows, rows_sq = prepared
        sq = (
            rows_sq[:, None]
            + pre["sq"][None, start:stop]
            - 2.0 * (rows @ block.T)
        )
        return -np.sqrt(np.maximum(sq, 0.0))
    if metric == "neg_cross_entropy":
        # the *query* supplies the coding distribution (inside the
        # log), matching the paper's feature orientation for <v_i, v_j>
        return prepared @ block.T
    raise ValueError(f"unknown similarity metric {metric!r}")


def pairwise_scores(
    metric: str, queries: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Dense ``(Q, C)`` similarity matrix (the offline protocol shape).

    ``prepare + precompute + score`` over the full candidate range as a
    single block: exactly the arithmetic
    :mod:`repro.eval.similarity` always used, now shared with the
    online blocked top-k path.
    """
    metric = resolve_metric(metric)
    queries = np.asarray(queries, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    pre = precompute(metric, candidates)
    prepared = prepare_queries(metric, queries)
    return score_block(
        metric, prepared, candidates, 0, candidates.shape[0], pre
    )


# ----------------------------------------------------------------------
# blocked partial selection
# ----------------------------------------------------------------------
def block_topk(
    scores: np.ndarray, k: int, start: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-query top-k of one score panel under the total order.

    ``np.argpartition`` pulls the ``k`` best scores of each query row
    in ``O(rows)``; ties at the selection boundary are then widened to
    every row matching the threshold score and resolved by the
    deterministic tie-break (score desc, then row index asc) -- the
    same order the offline ``argsort(..., kind="stable")`` reference
    produces.  Entries masked to ``-inf`` are excluded.  Returns one
    ``(scores, rows)`` pair per query, rows offset by ``start``.
    """
    m, width = scores.shape
    kk = min(k, width)
    out = []
    for i in range(m):
        row = scores[i]
        if kk < width:
            part = np.argpartition(row, width - kk)[width - kk :]
            threshold = row[part].min()
            candidates = np.flatnonzero(row >= threshold)
        else:
            candidates = np.arange(width)
        candidates = candidates[row[candidates] != -np.inf]
        order = np.argsort(-row[candidates], kind="stable")[:kk]
        picked = candidates[order]
        out.append((row[picked], picked + start))
    return out


def select_topk(
    scores: np.ndarray, rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global top-k of gathered partials under (score desc, row asc).

    ``np.lexsort`` keys are least-significant first, so ``rows`` breaks
    score ties ascending -- the one total order every merge in the
    stack (cross-block, cross-shard) resolves to.
    """
    order = np.lexsort((rows, -scores))[:k]
    return scores[order], rows[order]


def merge_topk(
    parts: Sequence[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-block (or per-shard) ``(scores, rows)`` shortlists."""
    if not parts:
        return (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    scores = np.concatenate([part[0] for part in parts])
    rows = np.concatenate(
        [np.asarray(part[1], dtype=np.int64) for part in parts]
    )
    return select_topk(scores, rows, k)


def topk_bounds(
    metric: str,
    prepared,
    theta: np.ndarray,
    k: int,
    bounds: Sequence[tuple[int, int]],
    pre: dict[str, np.ndarray],
    masks: Sequence[np.ndarray | None] | None = None,
    exclude: Sequence[np.ndarray | None] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocked top-k of a query batch over contiguous row ranges.

    ``bounds`` is the ascending list of half-open row ranges to scan
    (a :class:`~repro.core.kernels.BlockPlan`'s blocks, clipped to the
    rows a caller owns); blocks run in order via
    :func:`~repro.core.kernels.run_bounds` and reduce in bounds order.
    ``masks`` holds one optional boolean candidate mask per query over
    the *full* row space (share one array across queries of the same
    candidate type); ``exclude`` one optional **sorted** int array of
    rows to drop per query (the query itself, already-linked targets).
    Returns one globally merged ``(scores, rows)`` per query --
    ``O(rows·K + rows)`` per batch, no ``(Q, C)`` materialization, no
    full sort.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def scan(index: int, start: int, stop: int):
        scores = score_block(metric, prepared, theta, start, stop, pre)
        if masks is not None:
            # queries of one candidate type share a mask object;
            # group by identity so each mask slices the block once
            grouped: dict[int, tuple[np.ndarray, list[int]]] = {}
            for position, mask in enumerate(masks):
                if mask is None:
                    continue
                entry = grouped.setdefault(id(mask), (mask, []))
                entry[1].append(position)
            for mask, positions in grouped.values():
                blocked = np.flatnonzero(~mask[start:stop])
                if blocked.size:
                    scores[np.ix_(positions, blocked)] = -np.inf
        if exclude is not None:
            for position, rows in enumerate(exclude):
                if rows is None or not len(rows):
                    continue
                lo = np.searchsorted(rows, start)
                hi = np.searchsorted(rows, stop)
                if hi > lo:
                    scores[position, rows[lo:hi] - start] = -np.inf
        return block_topk(scores, k, start=start)

    per_block = run_bounds(bounds, scan)
    merged = []
    for position in range(_num_queries(prepared)):
        parts = [block[position] for block in per_block]
        merged.append(merge_topk(parts, k))
    return merged


def _num_queries(prepared) -> int:
    if isinstance(prepared, tuple):
        return prepared[0].shape[0]
    return prepared.shape[0]
