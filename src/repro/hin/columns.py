"""Append-only columns summed per key: the storage of links and bags.

A relation's links ``(source row, target row, weight)`` and a text
attribute's bags ``(node row, term id, count)`` are both logs of keyed
triples whose values add up per key.  :class:`SummedLog` keeps such a
log as columns that only grow, and sums repeated keys when it is read:
the distinct keys in first-insertion order, each value summed in
insertion order by ``bincount``.  That is the order and the float sums
that accumulating into a ``{(row, col): value}`` dict gives, with no
per-entry Python.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Summed(NamedTuple):
    """A log read out: one entry per distinct ``(row, col)`` key.

    ``rows``, ``cols`` and ``values`` list the keys in first-insertion
    order (read-only arrays).  ``keys`` holds ``row * span + col``
    ascending, and ``rank[i]`` is the first-insertion position of
    ``keys[i]``; together they find a row's keys
    (:meth:`row_positions`).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    keys: np.ndarray
    rank: np.ndarray
    span: int

    def row_positions(self, row: int) -> np.ndarray:
        """First-insertion positions of one row's keys, ascending."""
        lo, hi = np.searchsorted(
            self.keys, (row * self.span, (row + 1) * self.span)
        )
        return np.sort(self.rank[lo:hi])


def _sum(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> Summed:
    span = int(cols.max()) + 1 if cols.size else 1
    raw = rows * span + cols
    # a stable sort keeps each key's entries in insertion order, so
    # bincount adds each group up in insertion order
    perm = np.argsort(raw, kind="stable")
    ordered = raw[perm]
    head = np.ones(raw.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    sums = np.bincount(  # float even when empty, as the dict's sums
        np.cumsum(head) - 1, weights=values[perm]
    ).astype(np.float64, copy=False)
    first = perm[head]  # each key's first entry, in key order
    # rank keys by first entry: a scatter, the entries being distinct
    # log positions
    slot = np.full(raw.size, -1)
    slot[first] = np.arange(first.size)
    order = slot[slot >= 0]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    firsts = first[order]
    summed = Summed(
        rows[firsts], cols[firsts], sums[order], ordered[head], rank, span
    )
    for column in summed[:3]:
        column.flags.writeable = False
    return summed


class SummedLog:
    """Append-only ``(row, col, value)`` columns, summed per key on read.

    Appends collect in Python lists (rows as ``(row, length)`` runs) and
    array batches in chunks; :meth:`summed` concatenates both in append
    order, sums, caches the result until the next append, and compacts
    the log to it.  Later appends sum onto the compacted values exactly
    as they would onto a dict's.
    """

    __slots__ = ("_rows", "_lengths", "_cols", "_values", "_chunks",
                 "_summed")

    def __init__(self) -> None:
        self._rows: list[int] = []
        self._lengths: list[int] = []
        self._cols: list[int] = []
        self._values: list[float] = []
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._summed: Summed | None = None

    def append_row(self, row: int, cols, values) -> None:
        """Append ``(row, cols[i], values[i])`` for every ``i``."""
        self._rows.append(row)
        self._lengths.append(len(cols))
        self._cols.extend(cols)
        self._values.extend(values)
        self._summed = None

    def extend(self, rows, cols, values) -> None:
        """Append aligned columns as one chunk (copied)."""
        self._flush()
        self._chunks.append((
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(values, dtype=np.float64),
        ))
        self._summed = None

    def _flush(self) -> None:
        if self._rows:
            self._chunks.append((
                np.repeat(np.array(self._rows, dtype=np.int64),
                          self._lengths),
                np.array(self._cols, dtype=np.int64),
                np.array(self._values, dtype=np.float64),
            ))
            self._rows, self._lengths = [], []
            self._cols, self._values = [], []

    def summed(self) -> Summed:
        """The distinct keys with their sums (see :class:`Summed`)."""
        if self._summed is None:
            self._flush()
            chunks = self._chunks or [
                (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
            ]
            summed = self._summed = _sum(
                *(np.concatenate(parts) for parts in zip(*chunks))
            )
            self._chunks = [summed[:3]]
        return self._summed

    def __len__(self) -> int:
        """Number of distinct keys."""
        return int(self.summed().rows.size)

    def copy(self) -> SummedLog:
        """An independent log sharing this one's chunks (no chunk is
        ever written after it is appended)."""
        self._flush()
        clone = SummedLog()
        clone._chunks = list(self._chunks)
        clone._summed = self._summed
        return clone
