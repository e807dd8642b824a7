"""Incomplete attribute observation tables.

Section 2.1 of the paper models attributes as a network-level collection
``X = {X_1, ..., X_T}`` where each object ``v`` carries a (possibly empty)
*multiset* of observations ``v[X]``.  Incompleteness is therefore a
first-class state here: an object simply has no row in the table.  Two
attribute kinds are supported, matching Section 3.2:

* **text** -- a bag of terms over a vocabulary, modeled downstream by a
  categorical (PLSA-style) mixture (Eq. 3);
* **numeric** -- a list of real values, modeled downstream by a Gaussian
  mixture (Eq. 4).

The ``compile`` methods freeze a table into dense/sparse numpy structures
aligned with a node-index mapping so the solvers can run vectorized.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import AttributeSpecError
from repro.hin.columns import SummedLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse


class AttributeKind(enum.Enum):
    """The two attribute families handled by the model (Section 3.2)."""

    TEXT = "text"
    NUMERIC = "numeric"


@dataclass(frozen=True, slots=True)
class AttributeSpec:
    """Declaration of one attribute: a name plus its kind."""

    name: str
    kind: AttributeKind

    def __post_init__(self) -> None:
        if not self.name:
            raise AttributeSpecError("attribute name must be non-empty")
        if not isinstance(self.kind, AttributeKind):
            raise AttributeSpecError(
                f"attribute {self.name!r}: kind must be an AttributeKind, "
                f"got {self.kind!r}"
            )


@dataclass(frozen=True, slots=True)
class CompiledTextAttribute:
    """A text attribute frozen to arrays for the solvers.

    Attributes
    ----------
    node_indices:
        ``(n_obs_nodes,)`` int array -- network indices of the objects in
        ``V_X`` (those with at least one observation).
    counts:
        ``(n_obs_nodes, vocab_size)`` CSR matrix of term counts ``c_{v,l}``.
    vocabulary:
        Tuple of terms; column ``l`` of ``counts`` is ``vocabulary[l]``.
    """

    node_indices: np.ndarray
    counts: sparse.csr_matrix
    vocabulary: tuple[str, ...]

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True, slots=True)
class CompiledNumericAttribute:
    """A numeric attribute frozen to arrays for the solvers.

    Attributes
    ----------
    node_indices:
        ``(n_obs_nodes,)`` int array -- network indices of objects in
        ``V_X``.
    values:
        ``(n_obs,)`` float array -- every observation, flattened.
    owners:
        ``(n_obs,)`` int array -- for each observation, its position in
        ``node_indices`` (NOT the network index; use
        ``node_indices[owners]`` for that).
    """

    node_indices: np.ndarray
    values: np.ndarray
    owners: np.ndarray


class TextAttribute:
    """A bag-of-terms attribute table with an explicit vocabulary.

    The vocabulary grows as observations are added, unless the table was
    constructed with ``frozen_vocabulary`` (useful when aligning a test
    network to a training vocabulary).

    Examples
    --------
    >>> attr = TextAttribute("title")
    >>> attr.add_tokens("paper-1", ["query", "optimization", "query"])
    >>> attr.bag_of("paper-1")["query"]
    2.0
    >>> attr.has_observations("paper-2")
    False
    """

    def __init__(
        self,
        name: str,
        frozen_vocabulary: Sequence[str] | None = None,
    ) -> None:
        self.spec = AttributeSpec(name, AttributeKind.TEXT)
        self._term_index: dict[str, int] = {}
        self._frozen = frozen_vocabulary is not None
        if frozen_vocabulary is not None:
            for term in frozen_vocabulary:
                if term in self._term_index:
                    raise AttributeSpecError(
                        f"duplicate term {term!r} in frozen vocabulary"
                    )
                self._term_index[term] = len(self._term_index)
        # bags as an append-only (node row, term id, count) log; rows
        # number the nodes in first-seen order
        self._node_row: dict[object, int] = {}
        self._log = SummedLog()

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return tuple(self._term_index)

    @property
    def vocab_size(self) -> int:
        return len(self._term_index)

    def _intern(self, term: str) -> int:
        index = self._term_index.get(term)
        if index is None:
            if self._frozen:
                raise AttributeSpecError(
                    f"term {term!r} not in frozen vocabulary of attribute "
                    f"{self.name!r}"
                )
            index = len(self._term_index)
            self._term_index[term] = index
        return index

    # ------------------------------------------------------------------
    # observation entry
    # ------------------------------------------------------------------
    def add_tokens(self, node: object, tokens: Iterable[str]) -> None:
        """Append a token sequence to the node's bag (counts accumulate)."""
        row = self._node_row.setdefault(node, len(self._node_row))
        terms = [self._intern(token) for token in tokens]
        self._log.append_row(row, terms, [1.0] * len(terms))

    def add_counts(self, node: object, counts: Mapping[str, float]) -> None:
        """Merge explicit ``term -> count`` observations for a node."""
        row = self._node_row.setdefault(node, len(self._node_row))
        terms, values = [], []
        for term, count in counts.items():
            if count < 0:
                raise AttributeSpecError(
                    f"negative count for term {term!r} on node {node!r}"
                )
            terms.append(self._intern(term))
            values.append(float(count))
        self._log.append_row(row, terms, values)

    def add_count_rows(self, nodes: Sequence, counts) -> None:
        """Merge row ``i`` of the sparse ``counts`` (columns are this
        table's term ids) into ``nodes[i]``'s bag as :meth:`add_counts`
        would; a rejected batch merges nothing."""
        from scipy import sparse

        counts = sparse.csr_matrix(counts, dtype=np.float64)
        if counts.shape != (len(nodes), self.vocab_size) or np.any(
            counts.data < 0
        ):
            raise AttributeSpecError(
                f"attribute {self.name!r}: counts must be a non-negative "
                f"({len(nodes)}, {self.vocab_size}) matrix"
            )
        index = self._node_row
        rows = [index.setdefault(node, len(index)) for node in nodes]
        self._log.extend(
            np.repeat(rows, np.diff(counts.indptr)),
            counts.indices,
            counts.data,
        )

    def freeze(self) -> None:
        """Fix the vocabulary: an unknown term is rejected from now on."""
        self._frozen = True

    def copy(self) -> "TextAttribute":
        """An independent copy: vocabulary, freezing and every bag."""
        clone = TextAttribute(self.name)
        clone._term_index = dict(self._term_index)
        clone._frozen = self._frozen
        clone._node_row = dict(self._node_row)
        clone._log = self._log.copy()
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _bag(self, node: object) -> tuple[list[int], list[float]]:
        """The node's ``(term ids, counts)`` in first-seen term order."""
        row = self._node_row.get(node)
        if row is None:
            return [], []
        summed = self._log.summed()
        at = summed.row_positions(row)
        return summed.cols[at].tolist(), summed.values[at].tolist()

    def has_observations(self, node: object) -> bool:
        return self.observation_total(node) > 0

    def nodes_with_observations(self) -> tuple[object, ...]:
        nodes = list(self._node_row)
        summed = self._log.summed()
        observed = np.unique(summed.rows[summed.values > 0])
        return tuple(nodes[row] for row in observed.tolist())

    def bag_of(self, node: object) -> dict[str, float]:
        """Return the node's bag as a ``term -> count`` dict (a copy)."""
        terms = self.vocabulary
        return {
            terms[idx]: cnt for idx, cnt in zip(*self._bag(node)) if cnt > 0
        }

    def observation_total(self, node: object) -> float:
        """Total number of term observations carried by the node."""
        return float(sum(self._bag(node)[1]))

    # ------------------------------------------------------------------
    def compile(self, node_index: Mapping[object, int]) -> CompiledTextAttribute:
        """Freeze to a :class:`CompiledTextAttribute`.

        Parameters
        ----------
        node_index:
            Mapping from node id to network index; nodes carrying
            observations but absent from the mapping raise
            :class:`AttributeSpecError` (they indicate a network/attribute
            mismatch).
        """
        summed = self._log.summed()
        # ascending keys are (row, term) order: canonical CSR order
        values = summed.values[summed.rank]
        positive = values > 0
        keys = summed.keys[positive]
        rows = keys // summed.span
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        nodes = list(self._node_row)
        indices: list[int] = []
        for row in rows[starts].tolist():
            node = nodes[row]
            if node not in node_index:
                raise AttributeSpecError(
                    f"attribute {self.name!r} has observations for node "
                    f"{node!r} which is not in the network"
                )
            indices.append(node_index[node])
        from scipy import sparse

        counts = sparse.csr_matrix(
            (
                values[positive],
                keys % summed.span,
                np.append(starts, keys.size),
            ),
            shape=(starts.size, self.vocab_size),
        )
        return CompiledTextAttribute(
            node_indices=np.asarray(indices, dtype=np.int64),
            counts=counts,
            vocabulary=self.vocabulary,
        )


class NumericAttribute:
    """A real-valued attribute table; each node holds a list of values.

    Matches the weather-sensor scenario (Example 2): a sensor "may
    sometimes register none or multiple observations".

    Examples
    --------
    >>> attr = NumericAttribute("temperature")
    >>> attr.add_value("sensor-1", 21.5)
    >>> attr.add_values("sensor-1", [20.9, 22.0])
    >>> attr.observation_total("sensor-1")
    3
    """

    def __init__(self, name: str) -> None:
        self.spec = AttributeSpec(name, AttributeKind.NUMERIC)
        self._values: dict[object, list[float]] = {}

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    def add_value(self, node: object, value: float) -> None:
        """Append a single observation for a node."""
        value = float(value)
        if not np.isfinite(value):
            raise AttributeSpecError(
                f"non-finite observation {value!r} for node {node!r} on "
                f"attribute {self.name!r}"
            )
        self._values.setdefault(node, []).append(value)

    def add_values(self, node: object, values: Iterable[float]) -> None:
        """Append several observations for a node."""
        for value in values:
            self.add_value(node, value)

    def add_value_rows(self, nodes: Sequence, values, owners) -> None:
        """Append ``values[i]`` to ``nodes[owners[i]]``, in order, checked
        as :meth:`add_value` would; a rejected batch appends nothing."""
        values = np.asarray(values, dtype=np.float64)
        owners = np.asarray(owners, dtype=np.int64)
        if not (
            values.shape == owners.shape == (values.size,)
            and np.isfinite(values).all()
            and np.all((owners >= 0) & (owners < len(nodes)))
        ):
            raise AttributeSpecError(
                f"attribute {self.name!r}: values must be finite, each "
                f"owned by one of the {len(nodes)} nodes"
            )
        for owner, value in zip(owners.tolist(), values.tolist()):
            self._values.setdefault(nodes[owner], []).append(value)

    def copy(self) -> "NumericAttribute":
        """An independent copy of every node's observation list."""
        clone = NumericAttribute(self.name)
        clone._values = {node: list(v) for node, v in self._values.items()}
        return clone

    # ------------------------------------------------------------------
    def nodes_with_observations(self) -> tuple[object, ...]:
        return tuple(node for node, vals in self._values.items() if vals)

    def values_of(self, node: object) -> tuple[float, ...]:
        return tuple(self._values.get(node, ()))

    # ------------------------------------------------------------------
    def compile(
        self, node_index: Mapping[object, int]
    ) -> CompiledNumericAttribute:
        """Freeze to a :class:`CompiledNumericAttribute` (see class doc)."""
        indices: list[int] = []
        values: list[float] = []
        owners: list[int] = []
        row = 0
        for node, vals in self._values.items():
            if not vals:
                continue
            if node not in node_index:
                raise AttributeSpecError(
                    f"attribute {self.name!r} has observations for node "
                    f"{node!r} which is not in the network"
                )
            indices.append(node_index[node])
            owners.extend([row] * len(vals))
            values.extend(vals)
            row += 1
        return CompiledNumericAttribute(
            node_indices=np.asarray(indices, dtype=np.int64),
            values=np.asarray(values, dtype=np.float64),
            owners=np.asarray(owners, dtype=np.int64),
        )


Attribute = TextAttribute | NumericAttribute
"""Union of the two concrete attribute table types."""
