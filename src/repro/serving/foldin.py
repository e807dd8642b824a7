"""Online fold-in: posterior cluster assignment for unseen nodes.

The EM theta update of Eqs. 10-12 reads, for one object ``v``,

    theta_vk  propto  sum_{e=<v,u>} gamma(phi(e)) w(e) theta_uk
              + sum_X sum_{x in v[X]} p(z_vx = k | theta_v, params_X)

With the fitted parameters **frozen** -- gamma, the attribute components
(beta / mu, sigma^2), and every fitted node's membership row -- this
becomes a cheap fixed point over only the *new* nodes' rows: the same
query fold-in trick NetPLSA-style topic models use, generalized to the
heterogeneous-link + incomplete-attribute setting.  A new node needs
neither attributes (links alone drive it, the paper's incomplete case)
nor links (attributes alone drive it); with neither it stays uniform.

**Columnar batches.**  Fold-in consumes a :class:`QueryBatch`: one
object-type code per row plus three row-grouped CSRs -- links as
(relation code, target code, weight), numeric observations as
(attribute code, value), and text as (attribute code, term code,
count) -- whose codes index the batch's own short name tables.  A
batch is compiled once from caller mappings
(:func:`compile_queries`), from one query (:func:`compile_query`) or
from durable :class:`NewNode` specs (:meth:`QueryBatch.from_specs`),
ships between processes as raw array planes, and is resolved against a
model once (:func:`bind_batch`: name tables to model codes, link
targets to global rows, terms to vocabulary columns, every check that
can fail).  The bound batch also yields each row's cache key: the bytes
of its sorted record slices.

**Fused link assembly.**  The whole batch is folded in at once: the
``m`` new rows of the delta-extended index space are the only ones
ever multiplied (frozen base rows never re-read their neighbours), so
the link operator is built straight from the bound triplets
(:func:`fused_link_operator`) as plain ``(indptr, columns, data)``
arrays: one stable lexsort by (row, column, relation), sequential
per-cell duplicate sums, ``gamma_r * w`` added into each cell in
relation order -- bit-identical to assembling one canonical CSR per
relation and accumulating them into their union pattern, without
building a single sparse matrix object.  Base columns give a constant
term computed once; in-batch columns give the per-sweep operator.

**One numpy row product.**  Every product of a fixed-point sweep -- the
link operator times theta and the categorical ``ratio @ beta.T`` of
:func:`~repro.core.attribute_models.categorical_theta_term` -- runs
through :func:`~repro.core.kernels.csr_rows_product`: a flat
``bincount`` over ``row * K + k`` slots that sums each slot in scipy's
``csr_matvecs`` order, so memberships match the sparse product bit for
bit while fold-in (and the serving processes around it) never imports
scipy.  A sweep is that product plus one frozen-parameter
responsibility pass per attribute -- ``O(K (|E_new| + |obs_new|))``
per iteration regardless of the fitted network's size.
"""

from __future__ import annotations

import math
import time
import zlib
from collections import Counter
from itertools import accumulate
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.attribute_models import (
    CountsPattern,
    categorical_theta_term,
    gaussian_theta_term,
)
from repro.core.kernels import (
    BlockPlan,
    EMWorkspace,
    csr_rows_product,
    normalize_update_block,
    row_max,
    run_blocks,
)
from repro.exceptions import ServingError


@dataclass(frozen=True)
class NewNode:
    """One unseen node to fold into a fitted model.

    Attributes
    ----------
    node:
        Hashable id; must not collide with a fitted node.
    object_type:
        The node's type, checked against relation declarations.
    links:
        Out-links ``(relation, target, weight)``; 2-tuples get weight
        1.0.  Targets may be fitted nodes or other nodes of the same
        batch.
    text:
        ``{attribute: bag}`` where a bag is either ``{term: count}`` or
        an iterable of tokens.  Terms outside the fitted vocabulary are
        dropped (counted in :attr:`FoldInOutcome.oov_terms`).
    numeric:
        ``{attribute: values}`` -- finite observation lists.
    """

    node: object
    object_type: str
    links: tuple[tuple[str, object, float], ...] = ()
    text: Mapping[str, Any] = field(default_factory=dict)
    numeric: Mapping[str, Sequence[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        label = f"node {self.node!r}"
        object.__setattr__(
            self,
            "links",
            tuple(
                _link_triplet(link, label)
                for link in _link_entries(self.links, label)
            ),
        )
        # materialize observation containers: callers may hand in
        # one-pass iterables, and the spec is read more than once
        # (re-folds after link deltas, promotion)
        object.__setattr__(
            self,
            "text",
            {
                attribute: _checked_bag(bag, attribute, label)
                for attribute, bag in dict(self.text).items()
            },
        )
        object.__setattr__(
            self,
            "numeric",
            {
                attribute: tuple(_checked_values(values, attribute, label))
                for attribute, values in dict(self.numeric).items()
            },
        )


def _link_entries(links, label: str) -> Iterable:
    """A node's ``links`` argument, checked to be a collection of
    link entries (a bare number or string is not)."""
    if isinstance(links, (str, bytes, Mapping)) or not isinstance(
        links, Iterable
    ):
        raise ServingError(
            f"{label}: links must be a list of (relation, target[, "
            f"weight]) entries, got {type(links).__name__}"
        )
    return links


def _link_triplet(link, label: str) -> tuple[object, object, float]:
    """``(relation, target[, weight])`` as a checked triplet."""
    if not isinstance(link, (list, tuple)) or len(link) not in (2, 3):
        raise ServingError(
            f"{label}: link {link!r} must be (relation, target[, weight])"
        )
    if len(link) == 2:
        relation, target = link
        weight = 1.0
    else:
        relation, target, weight = link
    try:
        weight = float(weight)
    except (TypeError, ValueError):
        raise ServingError(
            f"{label}: link weight {weight!r} is not a number"
        ) from None
    if not math.isfinite(weight) or weight < 0:
        raise ServingError(
            f"{label}: link weight {weight!r} must be finite and "
            f"non-negative"
        )
    return relation, target, weight


def _checked_bag(bag, attribute, label: str) -> dict[str, float] | tuple:
    """A text bag as ``{term: count}`` (a mapping) or a token tuple."""
    if type(bag) is list or type(bag) is tuple:
        return tuple(bag)
    if isinstance(bag, (dict, Mapping)):
        counts = {}
        for term, count in bag.items():
            try:
                value = float(count)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value) or value < 0:
                raise ServingError(
                    f"{label}: bad count {count!r} for term {term!r} on "
                    f"attribute {attribute!r}"
                )
            counts[str(term)] = value
        return counts
    if isinstance(bag, Iterable) and not isinstance(bag, (str, bytes)):
        return tuple(bag)
    raise ServingError(
        f"{label}: text for {attribute!r} must be a term->count "
        f"mapping or a token iterable, got {type(bag).__name__}"
    )


def _checked_values(values, attribute, label: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ServingError(
            f"{label}: values for {attribute!r} must be numbers"
        ) from None


@dataclass(frozen=True)
class FrozenModel:
    """The read-only view of a fitted model that fold-in scores against.

    Built from a :class:`~repro.serving.artifact.ModelArtifact` (or
    grown incrementally by the engine); everything here is treated as
    immutable by :func:`fold_in`.
    """

    theta: np.ndarray
    gamma: np.ndarray
    relation_names: tuple[str, ...]
    relation_types: dict[str, tuple[str, str]]
    object_types: tuple[str, ...]
    # node_index/node_types may be engine-owned growable containers
    # (mutated in place as deltas append nodes); fold_in only reads them
    node_index: Mapping[object, int]
    node_types: Sequence[str]
    attribute_params: dict[str, dict]

    @property
    def num_nodes(self) -> int:
        return int(self.theta.shape[0])

    @property
    def n_clusters(self) -> int:
        return int(self.theta.shape[1])

    @cached_property
    def type_index(self) -> dict[str, int]:
        """``{object type: position in object_types}``."""
        return {name: i for i, name in enumerate(self.object_types)}

    @cached_property
    def relation_index(self) -> dict[str, int]:
        """``{relation: gamma slot}`` over the fitted relations."""
        return {name: i for i, name in enumerate(self.relation_names)}

    @cached_property
    def attribute_index(self) -> dict[str, int]:
        """``{attribute: position in attribute_params}``."""
        return {name: i for i, name in enumerate(self.attribute_params)}

    @cached_property
    def vocabulary_index(self) -> dict[str, dict[str, int]]:
        """``{attribute: {term: column}}`` per text attribute, built
        once per model so repeated queries do not pay ``O(vocab)``."""
        return {
            name: {
                term: col
                for col, term in enumerate(params["vocabulary"])
            }
            for name, params in self.attribute_params.items()
            if params["kind"] == "categorical"
        }

    def without(self, nodes: Iterable[object]) -> FrozenModel:
        """A view of this model with some served nodes *hidden*.

        Used to re-fold a subset of already-served extension nodes: the
        subset must look unseen to :func:`fold_in` (it re-enters as the
        batch), while every other served row stays a valid link target.
        Theta rows of hidden nodes are never read -- their ids resolve
        through the batch index instead.
        """
        masked = FrozenModel(
            theta=self.theta,
            gamma=self.gamma,
            relation_names=self.relation_names,
            relation_types=self.relation_types,
            object_types=self.object_types,
            node_index=_MaskedIndex(self.node_index, frozenset(nodes)),
            node_types=self.node_types,
            attribute_params=self.attribute_params,
        )
        masked.__dict__["vocabulary_index"] = self.vocabulary_index
        return masked

    @classmethod
    def from_artifact(cls, artifact) -> FrozenModel:
        """Freeze an artifact for serving (arrays shared, not copied)."""
        return cls(
            theta=np.asarray(artifact.theta, dtype=np.float64),
            gamma=np.asarray(artifact.gamma, dtype=np.float64),
            relation_names=artifact.relation_names,
            relation_types=dict(artifact.relation_types),
            object_types=artifact.object_types,
            node_index=artifact.node_index(),
            node_types=artifact.node_types,
            attribute_params=artifact.attribute_params,
        )


class _MaskedIndex(Mapping):
    """A live node-index mapping with a set of ids hidden.

    O(1) per lookup and O(|hidden|) to build -- no copy of the
    underlying (possibly very large) index.  ``hidden`` must be a
    subset of the base mapping's keys.
    """

    __slots__ = ("_base", "_hidden")

    def __init__(
        self, base: Mapping[object, int], hidden: frozenset
    ) -> None:
        self._base = base
        self._hidden = hidden

    def __getitem__(self, key: object) -> int:
        if key in self._hidden:
            raise KeyError(key)
        return self._base[key]

    def __contains__(self, key: object) -> bool:
        return key not in self._hidden and key in self._base

    def __iter__(self):
        return (key for key in self._base if key not in self._hidden)

    def __len__(self) -> int:
        return len(self._base) - len(self._hidden)


@dataclass(frozen=True)
class FoldInOutcome:
    """Batch fold-in result.

    Attributes
    ----------
    nodes:
        The folded node ids, fixing the row order of ``theta``.
    theta:
        ``(m, K)`` posterior memberships (rows on the simplex).
    iterations:
        Fixed-point sweeps actually run.
    converged:
        Whether the sweep change dropped below the tolerance.
    oov_terms:
        Total text-term observations dropped for falling outside the
        fitted vocabulary.
    """

    nodes: tuple[object, ...]
    theta: np.ndarray
    iterations: int
    converged: bool
    oov_terms: int

    def membership_of(self, node: object) -> np.ndarray:
        """Posterior membership of one folded node (a copy)."""
        try:
            row = self.nodes.index(node)
        except ValueError:
            raise ServingError(
                f"node {node!r} was not part of this fold-in batch"
            ) from None
        return self.theta[row].copy()

    def hard_labels(self) -> np.ndarray:
        """Arg-max cluster per folded node, aligned with ``nodes``."""
        return np.argmax(self.theta, axis=1)

    def hard_label_of(self, node: object) -> int:
        return int(np.argmax(self.membership_of(node)))


# ----------------------------------------------------------------------
# columnar query batches
# ----------------------------------------------------------------------
_QUERY_ARGS = frozenset({"object_type", "links", "text", "numeric"})


@dataclass(frozen=True)
class RowGroups:
    """Variable-length per-row entries as one CSR: row ``i`` owns
    entries ``indptr[i]:indptr[i + 1]`` of every array in ``columns``."""

    indptr: np.ndarray
    columns: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return int(self.indptr[-1])

    def owners(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(
            np.arange(self.indptr.size - 1), np.diff(self.indptr)
        )

    def take(self, rows: np.ndarray) -> RowGroups:
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = _indptr(lengths)
        index = np.repeat(starts - indptr[:-1], lengths) + np.arange(
            indptr[-1]
        )
        return RowGroups(indptr, tuple(c[index] for c in self.columns))

    def where(self, keep: np.ndarray) -> RowGroups:
        """Only the entries with ``keep`` set (rows stay)."""
        if keep.all():
            return self
        counts = np.bincount(
            self.owners()[keep], minlength=self.indptr.size - 1
        )
        return RowGroups(
            _indptr(counts), tuple(c[keep] for c in self.columns)
        )

    @staticmethod
    def concat(parts: Sequence[RowGroups]) -> RowGroups:
        offsets = accumulate((part.size for part in parts), initial=0)
        return RowGroups(
            np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [
                    part.indptr[1:] + offset
                    for part, offset in zip(parts, offsets)
                ]
            ),
            tuple(
                np.concatenate(columns)
                for columns in zip(*(part.columns for part in parts))
            ),
        )


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """A batch of fold-in rows as columns (see the module docstring).

    Row ``i`` is one unseen node: ``type_codes[i]`` plus its slices of
    ``links`` (relation code, target code, weight), ``numeric``
    (attribute code, value) and ``text`` (attribute code, term code,
    count).  Codes index the name tables ``types``, ``relations``,
    ``targets``, ``attributes`` and ``terms``.  An attribute given an
    empty bag or value list keeps one *mention* entry with attribute
    code ``-1 - a`` (term ``-1``), so it is still checked against the
    fit.

    ``positions`` are the caller's query numbers (errors read ``query
    #i``; ``None`` marks a lone query, whose errors read ``query``).
    ``nodes`` holds the ids of a durable batch built from
    :class:`NewNode` specs; only such rows may link to each other.
    """

    type_codes: np.ndarray
    links: RowGroups
    numeric: RowGroups
    text: RowGroups
    types: tuple
    relations: tuple
    targets: tuple
    attributes: tuple
    terms: tuple
    positions: np.ndarray | None = None
    nodes: tuple | None = None

    TABLES = ("types", "relations", "targets", "attributes", "terms")

    def __len__(self) -> int:
        return int(self.type_codes.size)

    def label(self, row: int) -> str:
        """How errors name row ``row``."""
        if self.nodes is not None:
            return f"node {self.nodes[row]!r}"
        if self.positions is None:
            return "query"
        return f"query #{int(self.positions[row])}"

    # ------------------------------------------------------------------
    @classmethod
    def from_specs(cls, specs: Sequence[NewNode]) -> QueryBatch:
        """A durable batch from :class:`NewNode` specs (already
        checked, so no row label is ever needed)."""
        builder = _Builder()
        for spec in specs:
            builder.add(
                "", spec.object_type, spec.links, spec.text, spec.numeric
            )
        return builder.build(nodes=tuple(spec.node for spec in specs))

    def take(self, rows: Sequence[int]) -> QueryBatch:
        """The sub-batch of ``rows`` (tables shared, labels kept)."""
        rows = np.asarray(rows, dtype=np.int64)
        return replace(
            self,
            type_codes=self.type_codes[rows],
            links=self.links.take(rows),
            numeric=self.numeric.take(rows),
            text=self.text.take(rows),
            positions=(
                None if self.positions is None else self.positions[rows]
            ),
            nodes=(
                None
                if self.nodes is None
                else tuple(self.nodes[row] for row in rows.tolist())
            ),
        )

    @classmethod
    def concat(cls, parts: Sequence[QueryBatch]) -> QueryBatch:
        """One transient batch from several, numbered ``0..m-1`` in
        order.  Name tables are concatenated, not re-interned: a name
        may then hold several codes, which every consumer resolves
        alike (all lookups go by name)."""
        if len(parts) == 1:
            (part,) = parts
            return replace(part, positions=np.arange(len(part)), nodes=None)
        offset = {
            name: list(accumulate(len(getattr(p, name)) for p in parts))
            for name in cls.TABLES
        }

        def shift(codes, name, i, missing=0):
            # attribute mentions are -1 - a (missing=-1: shift away
            # from zero); a missing term stays -1 (missing=0)
            step = offset[name][i - 1] if i else 0
            if not codes.size or codes.min() >= 0:
                return codes + step
            return np.where(codes >= 0, codes + step, codes + missing * step)

        type_codes, links, numeric, text = [], [], [], []
        for i, part in enumerate(parts):
            type_codes.append(shift(part.type_codes, "types", i))
            relation, target, weight = part.links.columns
            links.append(
                RowGroups(
                    part.links.indptr,
                    (
                        shift(relation, "relations", i),
                        shift(target, "targets", i),
                        weight,
                    ),
                )
            )
            attribute, value = part.numeric.columns
            numeric.append(
                RowGroups(
                    part.numeric.indptr,
                    (shift(attribute, "attributes", i, -1), value),
                )
            )
            attribute, term, count = part.text.columns
            text.append(
                RowGroups(
                    part.text.indptr,
                    (
                        shift(attribute, "attributes", i, -1),
                        shift(term, "terms", i),
                        count,
                    ),
                )
            )
        m = sum(len(part) for part in parts)
        return cls(
            type_codes=np.concatenate(type_codes),
            links=RowGroups.concat(links),
            numeric=RowGroups.concat(numeric),
            text=RowGroups.concat(text),
            positions=np.arange(m, dtype=np.int64),
            **{
                name: sum((getattr(part, name) for part in parts), ())
                for name in cls.TABLES
            },
        )

    # ------------------------------------------------------------------
    def spec(self, row: int) -> NewNode:
        """Row ``row`` as a :class:`NewNode` (id: the node id of a
        durable batch, else the query position)."""
        if self.nodes is not None:
            node = self.nodes[row]
        else:
            node = 0 if self.positions is None else int(self.positions[row])
        lo, hi = self.links.indptr[row : row + 2]
        relation, target, weight = (c[lo:hi] for c in self.links.columns)
        links = tuple(
            (self.relations[r], self.targets[t], w)
            for r, t, w in zip(
                relation.tolist(), target.tolist(), weight.tolist()
            )
        )
        text: dict[Any, dict[str, float]] = {}
        lo, hi = self.text.indptr[row : row + 2]
        attribute, term, count = (c[lo:hi] for c in self.text.columns)
        for a, t, c in zip(attribute.tolist(), term.tolist(), count.tolist()):
            bag = text.setdefault(self.attributes[a if a >= 0 else -1 - a], {})
            if a >= 0:
                bag[self.terms[t]] = c
        numeric: dict[Any, list[float]] = {}
        lo, hi = self.numeric.indptr[row : row + 2]
        attribute, value = (c[lo:hi] for c in self.numeric.columns)
        for a, v in zip(attribute.tolist(), value.tolist()):
            values = numeric.setdefault(
                self.attributes[a if a >= 0 else -1 - a], []
            )
            if a >= 0:
                values.append(v)
        return NewNode(
            node,
            self.types[int(self.type_codes[row])],
            links=links,
            text=text,
            numeric=numeric,
        )

    def __iter__(self):
        """The rows as :class:`NewNode` specs (see :meth:`spec`)."""
        return (self.spec(row) for row in range(len(self)))

    def targets_by_row(self, tracked) -> Iterable[tuple[int, list]]:
        """``(row, ids)`` for each row, in order, that links to ids
        ``tracked(id)`` accepts (link order; the LRU-touch and
        owner-routing walk)."""
        hits = []
        for target in self.targets:
            try:
                hits.append(bool(tracked(target)))
            except TypeError:  # unhashable: never a served node
                hits.append(False)
        if not any(hits):
            return
        codes = self.links.columns[1].tolist()
        bounds = self.links.indptr.tolist()
        for row in range(len(self)):
            touched = [
                self.targets[code]
                for code in codes[bounds[row] : bounds[row + 1]]
                if hits[code]
            ]
            if touched:
                yield row, touched

    def affinity(self) -> list[int]:
        """A stable 32-bit digest of each row's content (order-free).

        Equal rows always digest equally, across batches and
        processes; distinct rows rarely collide -- digests route
        repeated queries to the same cache, never decide an answer.
        """
        ids = {
            name: np.asarray(
                [zlib.crc32(repr(v).encode()) for v in getattr(self, name)],
                dtype=np.float64,
            )
            for name in self.TABLES
        }
        relation, target, weight = self.links.columns
        numeric = self.numeric.where(self.numeric.columns[0] >= 0)
        text = self.text.where(self.text.columns[0] >= 0)
        keys = record_keys(
            len(self),
            [
                (np.arange(len(self)), 0, ids["types"][self.type_codes], 0, 0.0),
                (
                    self.links.owners(),
                    1,
                    ids["relations"][relation],
                    ids["targets"][target],
                    weight,
                ),
                (
                    numeric.owners(),
                    2,
                    ids["attributes"][numeric.columns[0]],
                    0,
                    numeric.columns[1],
                ),
                (
                    text.owners(),
                    3,
                    ids["attributes"][text.columns[0]],
                    ids["terms"][text.columns[1]],
                    text.columns[2],
                ),
            ],
        )
        return [zlib.crc32(key) for key in keys]


class _Table:
    """Value -> code interning in first-seen order.  Unhashable values
    (a malformed request) intern under their ``repr`` so compilation
    never fails on them -- the model check rejects them by name."""

    __slots__ = ("codes", "values")

    def __init__(self) -> None:
        self.codes: dict = {}
        self.values: list = []

    def code(self, value: object) -> int:
        try:
            code = self.codes.get(value)
            key = value
        except TypeError:
            key = (_Table, repr(value))
            code = self.codes.get(key)
        if code is None:
            code = self.codes[key] = len(self.values)
            self.values.append(value)
        return code


class _Builder:
    """Accumulates rows into the columns of a :class:`QueryBatch`,
    applying the same shape checks (and error texts) as
    :class:`NewNode`.  ``decode_target`` decodes link targets that
    arrive as JSON ``[relation, target(, weight)]`` arrays (once per
    distinct target, when the batch is built)."""

    def __init__(self, decode_target=None) -> None:
        self.decode_target = decode_target
        self.tables = {name: _Table() for name in QueryBatch.TABLES}
        self.type_codes: list[int] = []
        self.link_ends: list[int] = []
        self.link_columns: tuple[list, list, list] = ([], [], [])
        self.numeric_ends: list[int] = []
        self.numeric_columns: tuple[list, list] = ([], [])
        self.text_ends: list[int] = []
        self.text_columns: tuple[list, list, list] = ([], [], [])

    def add(
        self,
        label: str,
        object_type: object,
        links: Iterable,
        text: Mapping[Any, Any],
        numeric: Mapping[Any, Any],
    ) -> None:
        """Append one row; ``label`` names it in shape errors."""
        tables = self.tables
        self.type_codes.append(tables["types"].code(object_type))
        relations, targets = tables["relations"], tables["targets"]
        relation_code, target_code = relations.codes.get, targets.codes.get
        link_relation, link_target, link_weight = self.link_columns
        for link in _link_entries(links, label):
            if (
                isinstance(link, (tuple, list))
                and len(link) == 3
                and type(link[2]) is float
                and 0.0 <= link[2] < math.inf
            ):
                relation, target, weight = link
            else:
                relation, target, weight = _link_triplet(link, label)
            try:  # the common case: both names already interned
                r, t = relation_code(relation), target_code(target)
            except TypeError:
                r = t = None
            link_relation.append(relations.code(relation) if r is None else r)
            link_target.append(targets.code(target) if t is None else t)
            link_weight.append(weight)
        self.link_ends.append(len(link_weight))

        attributes, terms = tables["attributes"], tables["terms"]
        term_codes = terms.codes.get  # terms are always str
        text_attribute, text_term, text_count = self.text_columns
        for attribute, bag in text.items():
            counts = _checked_bag(bag, attribute, label)
            if type(counts) is tuple:
                counts = Counter(map(str, counts))
            code = attributes.code(attribute)
            if not counts:
                text_attribute.append(-1 - code)
                text_term.append(-1)
                text_count.append(0.0)
            for term, value in counts.items():
                term_code = term_codes(term)
                text_attribute.append(code)
                text_term.append(
                    terms.code(term) if term_code is None else term_code
                )
                text_count.append(value)  # Counter ints: exact as float64
        self.text_ends.append(len(text_count))

        numeric_attribute, numeric_value = self.numeric_columns
        for attribute, values in numeric.items():
            cleaned = _checked_values(values, attribute, label)
            code = attributes.code(attribute)
            if not cleaned:
                numeric_attribute.append(-1 - code)
                numeric_value.append(0.0)
            numeric_attribute.extend([code] * len(cleaned))
            numeric_value.extend(cleaned)
        self.numeric_ends.append(len(numeric_value))

    def build(self, positions=None, nodes=None) -> QueryBatch:
        def groups(ends, columns, dtypes) -> RowGroups:
            indptr = np.zeros(len(ends) + 1, dtype=np.int64)
            indptr[1:] = ends
            return RowGroups(
                indptr,
                tuple(
                    np.asarray(column, dtype=dtype)
                    for column, dtype in zip(columns, dtypes)
                ),
            )

        code, value = np.int32, np.float64
        batch = QueryBatch(
            type_codes=np.asarray(self.type_codes, dtype=code),
            links=groups(self.link_ends, self.link_columns, (code, code, value)),
            numeric=groups(self.numeric_ends, self.numeric_columns, (code, value)),
            text=groups(self.text_ends, self.text_columns, (code, code, value)),
            positions=positions,
            nodes=nodes,
            **{
                name: tuple(table.values)
                for name, table in self.tables.items()
            },
        )
        if self.decode_target is not None:
            batch = replace(
                batch,
                targets=tuple(map(self.decode_target, batch.targets)),
            )
        return batch


def compile_queries(
    queries: Sequence[Mapping[str, Any]], decode_target=None
) -> QueryBatch:
    """Compile ``score_many`` query mappings into one batch.

    Each query carries ``object_type`` (required) and optional
    ``links`` / ``text`` / ``numeric``; shape errors name the query's
    position (``query #i``).  ``decode_target`` decodes link targets
    of JSON-array links (the HTTP gateway's wire form).  An already
    compiled :class:`QueryBatch` passes through unchanged.
    """
    if isinstance(queries, QueryBatch):
        return queries
    builder = _Builder(decode_target)
    for position, query in enumerate(queries):
        if not isinstance(query, Mapping):
            raise ServingError(
                f"query #{position}: expected a mapping of query "
                f"arguments, got {type(query).__name__}"
            )
        if not _QUERY_ARGS.issuperset(query):
            unknown = set(query) - _QUERY_ARGS
            raise ServingError(
                f"query #{position}: unknown arguments "
                f"{sorted(map(str, unknown))} (allowed: "
                f"{sorted(_QUERY_ARGS)})"
            )
        if "object_type" not in query:
            raise ServingError(
                f"query #{position}: object_type is required"
            )
        fields = []
        for field in ("text", "numeric"):
            value = query.get(field)
            if value is None:
                value = {}
            elif not isinstance(value, Mapping):
                raise ServingError(
                    f"query #{position}: {field} must be a mapping of "
                    f"attribute names, got {type(value).__name__}"
                )
            fields.append(value if type(value) is dict else dict(value))
        links = query.get("links")
        builder.add(
            f"query #{position}",
            query["object_type"],
            () if links is None else links,
            *fields,
        )
    count = len(builder.type_codes)
    return builder.build(positions=np.arange(count, dtype=np.int64))


def compile_query(
    object_type: str,
    links: Iterable = (),
    text: Mapping[str, Any] | None = None,
    numeric: Mapping[str, Sequence[float]] | None = None,
) -> QueryBatch:
    """A one-row batch for a lone query (errors read ``query: ...``)."""
    builder = _Builder()
    builder.add(
        "query", object_type, links, dict(text or {}), dict(numeric or {})
    )
    return builder.build()


# ----------------------------------------------------------------------
# resolving a batch against a model
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class BoundBatch:
    """A :class:`QueryBatch` resolved against one model.

    Codes are the model's own: ``type_codes`` index
    ``model.object_types``; links are (relation index into
    ``model.relation_names``, global column, weight) where columns
    ``>= n`` are rows of this batch; numeric entries are (attribute
    index, value) and text entries (attribute index, vocabulary column
    or ``-1`` when out of vocabulary, count).  Mentions are gone.
    """

    type_codes: np.ndarray
    links: RowGroups
    numeric: RowGroups
    text: RowGroups

    def __len__(self) -> int:
        return int(self.type_codes.size)

    def take(self, rows: Sequence[int]) -> BoundBatch:
        rows = np.asarray(rows, dtype=np.int64)
        return BoundBatch(
            self.type_codes[rows],
            self.links.take(rows),
            self.numeric.take(rows),
            self.text.take(rows),
        )

    def row_keys(self) -> list[bytes]:
        """Order-insensitive cache key per row: the bytes of its sorted
        (type, link, observation) records.  Keys compare rows of one
        model state only (codes are model rows and columns)."""
        m = len(self)
        relation, column, weight = self.links.columns
        attribute, value = self.numeric.columns
        text = self.text.where(self.text.columns[1] >= 0)
        return record_keys(
            m,
            [
                (np.arange(m), 0, self.type_codes, 0, 0.0),
                (self.links.owners(), 1, relation, column, weight),
                (self.numeric.owners(), 2, attribute, 0, value),
                (text.owners(), 3, *text.columns),
            ],
        )


def record_keys(m: int, parts) -> list[bytes]:
    """One bytes key per row from ``(owners, tag, a, b, value)`` record
    parts: the row's ``(tag, a, b, value)`` float64 records, sorted."""
    owners = np.concatenate([part[0] for part in parts])
    records = np.empty((owners.size, 4))
    start = 0
    for rows, *fields in parts:
        stop = start + rows.size
        for col, values in enumerate(fields):
            records[start:stop, col] = values
        start = stop
    order = np.lexsort(
        (records[:, 3], records[:, 2], records[:, 1], records[:, 0], owners)
    )
    raw = records[order].tobytes()
    bounds = (_indptr(np.bincount(owners, minlength=m)) * 32).tolist()
    return [raw[bounds[row] : bounds[row + 1]] for row in range(m)]


def _lookup(mapping: Mapping, key: object, default=None):
    try:
        return mapping.get(key, default)
    except TypeError:  # unhashable: never a model name or node id
        return default


def model_type_codes(model: FrozenModel, batch: QueryBatch) -> np.ndarray:
    """Each row's index into ``model.object_types`` (``-1``: unknown)."""
    type_index = model.type_index
    lut = np.asarray(
        [_lookup(type_index, t, -1) for t in batch.types], dtype=np.int64
    )
    return lut[batch.type_codes]


def resolve_links(
    model: FrozenModel,
    batch: QueryBatch,
    type_codes: np.ndarray,
    place_target,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every link entry of ``batch`` against ``model``.

    ``type_codes`` are :func:`model_type_codes`; ``place_target``
    places a target that is not a fitted node as ``(column, type
    code)`` -- type code ``-2`` matches any expected type -- or
    returns ``None`` when the target is unknown.  Returns per entry
    the model relation index (``-1``: none), the column (``-1``:
    unknown target), and whether the link is valid: a declared
    relation with a learned strength, the declared source type, and a
    known target of the declared target type.
    """
    type_index = model.type_index
    relation_lut = np.asarray(
        [_lookup(model.relation_index, name, -1) for name in batch.relations],
        dtype=np.int64,
    )
    expected = np.asarray(
        [
            (type_index[d[0]], type_index[d[1]]) if d else (-3, -3)
            for d in (
                _lookup(model.relation_types, name)
                for name in batch.relations
            )
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    node_index, node_types = model.node_index, model.node_types
    places = np.empty((len(batch.targets), 2), dtype=np.int64)
    for code, target in enumerate(batch.targets):
        row = _lookup(node_index, target)
        if row is not None:
            places[code] = row, type_index[node_types[row]]
        else:
            places[code] = place_target(target) or (-1, -1)
    relation, target, _ = batch.links.columns
    want = expected[relation]
    columns, target_types = places[target].T
    valid = (
        (relation_lut[relation] >= 0)
        & (want[:, 0] == type_codes[batch.links.owners()])
        & (columns != -1)
        & ((target_types == want[:, 1]) | (target_types == -2))
    )
    return relation_lut[relation], columns, valid


def bind_batch(model: FrozenModel, batch: QueryBatch) -> BoundBatch:
    """Resolve ``batch`` against ``model``, raising
    :class:`~repro.exceptions.ServingError` on the first invalid row.

    Checks run in stages over the whole batch, as fold-in always has:
    node ids and object types, then links (declared relation, learned
    strength, source type, known target, target type), then text
    attributes, then numeric attributes and values.  Rows of a durable
    batch may link to each other (column ``n + row``).
    """
    n = model.num_nodes
    type_codes = model_type_codes(model, batch)
    batch_index: dict[object, int] = {}
    for row, node in enumerate(batch.nodes or ()):
        if node in model.node_index:
            raise ServingError(
                f"node {node!r} is already part of the fitted "
                f"model; fold-in only accepts unseen nodes"
            )
        if node in batch_index:
            raise ServingError(f"duplicate node {node!r} in fold-in batch")
        check_type(model, batch, type_codes, row)
        batch_index[node] = row
    if (type_codes < 0).any():
        check_type(model, batch, type_codes, int(np.argmax(type_codes < 0)))

    def in_batch(target):
        row = _lookup(batch_index, target)
        return None if row is None else (n + row, type_codes[row])

    relation, columns, valid = resolve_links(
        model, batch, type_codes, in_batch
    )
    if not valid.all():
        entry = int(np.argmax(~valid))
        raise link_error(
            model, batch, entry, columns, "node", "part of this batch"
        )

    # --- observations ---------------------------------------------------
    attribute_lut = np.asarray(
        [
            _lookup(model.attribute_index, name, -1)
            for name in batch.attributes
        ],
        dtype=np.int64,
    )
    check_observations(model, batch)
    text_attribute, text_term, text_count = batch.text.columns
    numeric_attribute = batch.numeric.columns[0]
    vocabulary_columns = np.full(text_term.size, -1, dtype=np.int64)
    for code in np.unique(text_attribute[text_attribute >= 0]).tolist():
        vocabulary = model.vocabulary_index[batch.attributes[code]]
        lut = np.asarray(
            [vocabulary.get(term, -1) for term in batch.terms],
            dtype=np.int64,
        )
        selected = text_attribute == code
        vocabulary_columns[selected] = lut[text_term[selected]]
    numeric = batch.numeric.where(numeric_attribute >= 0)
    text = batch.text.where(text_attribute >= 0)
    keep = text_attribute >= 0
    return BoundBatch(
        type_codes=type_codes,
        links=RowGroups(
            batch.links.indptr, (relation, columns, batch.links.columns[2])
        ),
        numeric=RowGroups(
            numeric.indptr,
            (attribute_lut[numeric.columns[0]], numeric.columns[1]),
        ),
        text=RowGroups(
            text.indptr,
            (
                attribute_lut[text.columns[0]],
                vocabulary_columns[keep],
                text_count[keep],
            ),
        ),
    )


def check_type(model, batch, type_codes, row) -> None:
    """Raise if row ``row`` has an object type the model lacks."""
    if type_codes[row] < 0:
        object_type = batch.types[int(batch.type_codes[row])]
        raise ServingError(
            f"{batch.label(row)} has unknown object type "
            f"{object_type!r} (declared: {list(model.object_types)})"
        )


def link_error(
    model, batch, entry, columns, subject, elsewhere
) -> ServingError:
    """The error for invalid link ``entry`` (see :func:`resolve_links`):
    ``subject`` names the row's kind ("node has type ..."),
    ``elsewhere`` where else a target may live."""
    relation_code, target_code, _ = (
        int(column[entry]) for column in batch.links.columns
    )
    row = int(batch.links.owners()[entry])
    label = batch.label(row)
    relation = batch.relations[relation_code]
    target = batch.targets[target_code]
    declaration = _lookup(model.relation_types, relation)
    if declaration is None:
        return ServingError(f"{label}: unknown relation {relation!r}")
    if relation not in model.relation_names:
        return ServingError(
            f"{label}: relation {relation!r} carried no links in the "
            f"fit, so it has no learned strength to weight fold-in "
            f"links with"
        )
    expected_source, expected_target = declaration
    object_type = batch.types[int(batch.type_codes[row])]
    if object_type != expected_source:
        return ServingError(
            f"{label}: relation {relation!r} expects source type "
            f"{expected_source!r}, {subject} has type {object_type!r}"
        )
    column = int(columns[entry])
    if column == -1:
        return ServingError(
            f"{label}: link target {target!r} is neither a fitted node "
            f"nor {elsewhere}"
        )
    if column < model.num_nodes:
        target_type = model.node_types[column]
    else:
        target_row = column - model.num_nodes
        target_type = batch.types[int(batch.type_codes[target_row])]
    return ServingError(
        f"{label}: relation {relation!r} expects target type "
        f"{expected_target!r}, node {target!r} has type {target_type!r}"
    )


def check_observations(model: FrozenModel, batch: QueryBatch) -> None:
    """Raise the first error among ``batch``'s text observations, then
    among its numeric ones (see :func:`_check_attributes`)."""
    _check_attributes(
        model, batch, batch.text, batch.text.columns[0], "categorical", None
    )
    attribute, values = batch.numeric.columns
    _check_attributes(
        model, batch, batch.numeric, attribute, "gaussian", values
    )


def _check_attributes(
    model, batch, groups, attribute, kind, values
) -> None:
    """First attribute or value error in entry order.

    A numeric value is rejected when it is non-finite, or when it lies
    so far out that every fitted component gives it zero density (a
    log density of ``-inf`` everywhere, which fold-in would turn into
    NaN memberships).  A component's log density is ``-inf`` exactly
    when the squared standardized distance ``(x - mean)**2 / variance``
    overflows, so a value is kept when that distance is finite for some
    component.
    """
    if not attribute.size:
        return
    named = np.where(attribute >= 0, attribute, -1 - attribute)
    status = np.asarray(
        [
            (_lookup(model.attribute_params, name) or {}).get("kind")
            == kind
            for name in batch.attributes
        ],
        dtype=bool,
    )
    valid = status[named]
    if values is not None:
        valid &= np.isfinite(values) | (attribute < 0)
        for code in np.flatnonzero(status).tolist():
            params = model.attribute_params[batch.attributes[code]]
            rows = valid & (attribute == code)
            with np.errstate(over="ignore"):
                distance = (
                    (values[rows, None] - params["means"]) ** 2
                    / params["variances"]
                )
            valid[rows] = np.isfinite(distance.min(axis=1))
    if valid.all():
        return
    entry = int(np.argmax(~valid))
    label = batch.label(int(groups.owners()[entry]))
    name = batch.attributes[int(named[entry])]
    params = _lookup(model.attribute_params, name)
    if params is None:
        raise ServingError(
            f"{label}: attribute {name!r} was not part of the fit "
            f"(fitted: {list(model.attribute_params)})"
        )
    if params["kind"] != kind:
        raise ServingError(
            f"{label}: attribute {name!r} is {params['kind']}, but "
            f"observations were given as "
            f"{'text' if kind == 'categorical' else 'numeric'}"
        )
    value = float(values[entry])
    if math.isfinite(value):
        raise ServingError(
            f"{label}: observation {value!r} for attribute {name!r} has "
            f"zero density under every fitted component"
        )
    raise ServingError(
        f"{label}: non-finite observation {value!r} for attribute {name!r}"
    )


# ----------------------------------------------------------------------
# the fused link operator
# ----------------------------------------------------------------------
def fused_link_operator(
    rows: np.ndarray,
    relations: np.ndarray,
    columns: np.ndarray,
    weights: np.ndarray,
    gamma: np.ndarray,
    num_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sum_r gamma_r W_r`` over ``num_rows`` rows as one canonical
    CSR's ``(indptr, columns, data)`` arrays, straight from ``(row,
    relation, column, weight)`` link triplets.

    Bit-identical to building one canonical CSR per relation and
    accumulating ``gamma_r * data_r`` into their union pattern in
    relation order (what the trainer's ``PropagationOperator`` does):
    one stable lexsort by (row, column, relation) puts each cell's
    entries in relation order with a relation's duplicates in input
    order; ``bincount`` sums each relation's duplicates sequentially,
    scales them by ``gamma_r`` (a zero strength contributes an exact
    zero, keeping the cell in the pattern), and sums the scaled
    contributions per cell, again sequentially.  (scipy sums a row's
    duplicates in input order only while the row holds at most 16
    entries -- its row sort is unstable beyond that; here the order is
    always the input order.)  The column count is implicit: the
    product reads columns as rows of the dense operand.
    """
    if not rows.size:
        return np.zeros(num_rows + 1, np.int64), columns[:0], np.zeros(0)
    order = np.lexsort((relations, columns, rows))
    rows, columns = rows[order], columns[order]
    relations = relations[order]
    starts = np.ones(rows.size, dtype=bool)
    starts[1:] = (
        (rows[1:] != rows[:-1])
        | (columns[1:] != columns[:-1])
        | (relations[1:] != relations[:-1])
    )
    summed = np.bincount(np.cumsum(starts) - 1, weights=weights[order])
    first = np.flatnonzero(starts)
    rows, columns = rows[first], columns[first]
    scale = gamma[relations[first]]
    contribution = np.zeros(first.size)
    strong = scale != 0.0
    contribution[strong] = scale[strong] * summed[strong]
    cells = np.ones(first.size, dtype=bool)
    cells[1:] = (rows[1:] != rows[:-1]) | (columns[1:] != columns[:-1])
    data = np.bincount(np.cumsum(cells) - 1, weights=contribution)
    rows, columns = rows[cells], columns[cells]
    return _indptr(np.bincount(rows, minlength=num_rows)), columns, data


# ----------------------------------------------------------------------
# the fixed point
# ----------------------------------------------------------------------
def fold_in(
    model: FrozenModel,
    nodes: Sequence[NewNode] | QueryBatch,
    max_iterations: int = 100,
    tol: float = 1e-6,
    floor: float = 1e-12,
    obs=None,
) -> FoldInOutcome:
    """Assign posterior memberships to a batch of unseen nodes.

    ``nodes`` is a sequence of :class:`NewNode` specs or a compiled
    :class:`QueryBatch`.  Iterates the frozen-parameter theta update to
    a fixed point, vectorized over the whole batch.  Raises
    :class:`~repro.exceptions.ServingError` on structurally invalid
    input (duplicate/known ids, unknown relations or targets, type
    mismatches, observations for unfitted attributes).

    ``obs`` (an optional :class:`~repro.obs.Observability`) records the
    per-sweep and whole-call latency histograms
    (``repro_foldin_sweep_seconds`` / ``repro_foldin_seconds``); all
    *counting* stays with the owning engine so shard aggregation never
    double-counts.  Timing reads clocks only -- memberships are
    bit-identical with or without it.

    The fixed-point sweeps run block-by-block, in block order, over
    cache-sized blocks of batch rows: the propagation and normalization
    stages write disjoint row slices, so the memberships do not depend
    on the blocking.  Small batches fit one block.

    **Convergence is per row.**  After each sweep the rows that moved
    at least ``tol`` are the *moving* set; every row that can reach a
    moving row through in-batch links (it reads a moving row, directly
    or transitively) stays live, and all other rows **freeze**, keeping
    their current value verbatim while batchmates keep iterating.  (A
    row whose in-batch link target is still drifting must not stop
    early: its own update can be transiently stationary while its
    input is still in motion.)  The batch converges when every row has
    frozen.  Because a row's trajectory depends only on its own
    observations, its out-link targets, and its in-batch link
    component, freezing makes fold-in **row-decomposable**: rows that
    share no in-batch link path evolve and stop identically no matter
    how the batch is composed, so folding them together, one at a
    time, or split across the shards of a serving cluster produces
    bit-identical memberships.  (Rows connected by in-batch links must
    stay in one batch -- their trajectories read each other.)
    """
    if isinstance(nodes, QueryBatch):
        batch = nodes
    else:
        for spec in nodes:
            if not isinstance(spec, NewNode):
                raise ServingError(
                    f"fold-in expects NewNode specs, got "
                    f"{type(spec).__name__}"
                )
        batch = QueryBatch.from_specs(nodes)
    if not len(batch):
        return FoldInOutcome(
            nodes=(),
            theta=np.zeros((0, model.n_clusters)),
            iterations=0,
            converged=True,
            oov_terms=0,
        )
    call_start = time.perf_counter()
    bound = bind_batch(model, batch)
    ids = (
        batch.nodes
        if batch.nodes is not None
        else tuple(range(len(batch)))
        if batch.positions is None
        else tuple(batch.positions.tolist())
    )
    return fold_bound(
        model,
        bound,
        ids,
        max_iterations=max_iterations,
        tol=tol,
        floor=floor,
        obs=obs,
        call_start=call_start,
    )


def fold_bound(
    model: FrozenModel,
    bound: BoundBatch,
    nodes: tuple,
    max_iterations: int = 100,
    tol: float = 1e-6,
    floor: float = 1e-12,
    obs=None,
    call_start: float | None = None,
) -> FoldInOutcome:
    """The fixed point of :func:`fold_in` over an already bound batch
    (``nodes`` names its rows in the outcome)."""
    n = model.num_nodes
    k = model.n_clusters
    m = len(bound)
    recording = obs is not None and obs.recording
    if recording:
        sweep_hist = obs.metrics.histogram(
            "repro_foldin_sweep_seconds",
            "Wall-clock seconds per fold-in fixed-point sweep",
        )
        call_hist = obs.metrics.histogram(
            "repro_foldin_seconds",
            "Wall-clock seconds per fold-in call (all sweeps)",
        )
        if call_start is None:
            call_start = time.perf_counter()

    # Only the m new rows of the delta-extended views are ever
    # multiplied, so the link operator holds just those rows, split into
    # frozen-base columns (a constant term) and in-batch columns; gamma
    # is frozen for the whole fixed point, so each half is one fused
    # operator built straight from the link triplets.
    relation, column, weight = bound.links.columns
    sources = bound.links.owners()
    if not (weight > 0.0).all():
        live = weight > 0.0
        sources, relation = sources[live], relation[live]
        column, weight = column[live], weight[live]
    internal = column >= n
    has_batch_links = bool(internal.any())
    if has_batch_links:
        external = ~internal
        base = fused_link_operator(
            sources[external],
            relation[external],
            column[external],
            weight[external],
            model.gamma,
            m,
        )
        batch_sources = sources[internal]
        batch_targets = column[internal] - n
        combined = fused_link_operator(
            batch_sources,
            relation[internal],
            batch_targets,
            weight[internal],
            model.gamma,
            m,
        )
    else:
        base = fused_link_operator(
            sources, relation, column, weight, model.gamma, m
        )
        combined = None
    plan = BlockPlan.for_shape(m, k)
    constant = np.empty((m, k))

    def base_block(_index: int, start: int, stop: int) -> None:
        constant[start:stop] = csr_rows_product(
            *base, model.theta, start, stop
        )

    run_blocks(plan, base_block)

    text_obs, oov_terms = _group_text(model, bound)
    numeric_obs = _group_numeric(model, bound)

    # reverse in-batch link map for the per-row convergence rule:
    # dependants[t] = batch rows holding a link to batch row t (the
    # rows whose updates read t's current value)
    dependants: list[list[int]] = [[] for _ in range(m)]
    if has_batch_links:
        for source, target in zip(
            batch_sources.tolist(), batch_targets.tolist()
        ):
            dependants[target].append(source)

    theta = np.full((m, k), 1.0 / k)
    spare = np.empty((m, k))
    workspace = EMWorkspace(m, k)
    update = workspace.update
    row_sums = workspace.row_sums
    row_delta = np.empty(m)
    active = np.ones(m, dtype=bool)
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        if recording:
            sweep_start = time.perf_counter()
        # frozen rows keep their value verbatim, so blocks (and
        # observation groups) with no live row skip the sweep entirely:
        # a straggler component pays for its own rows, not the batch's
        if active.all():
            block_live = None
        else:
            block_live = [
                bool(active[start:stop].any())
                for start, stop in plan.bounds
            ]

        def propagate_block(index: int, start: int, stop: int) -> None:
            if block_live is not None and not block_live[index]:
                return
            if combined is None:
                # exactly 0.0 + constant: a CSR product accumulated
                # from +0.0 never holds -0.0
                update[start:stop] = constant[start:stop]
                return
            update[start:stop] = csr_rows_product(
                *combined, theta, start, stop
            )
            update[start:stop] += constant[start:stop]

        run_blocks(plan, propagate_block)
        for rows, pattern, beta in text_obs:
            if block_live is None or active[rows].any():
                update[rows] += categorical_theta_term(
                    theta[rows], None, beta, pattern=pattern
                )
        for rows, values, owners, means, variances in numeric_obs:
            if block_live is None or active[rows].any():
                update[rows] += gaussian_theta_term(
                    theta[rows], values, owners, means, variances
                )

        # the closing normalize/floor step is the SAME shared kernel
        # training's em_update runs (dead rows stay at the prior, rows
        # re-normalize after flooring) -- one implementation, so
        # training and serving cannot drift apart on these semantics
        def normalize_block(index: int, start: int, stop: int) -> None:
            if block_live is not None and not block_live[index]:
                return
            normalize_update_block(
                update, theta, spare, row_sums, floor, start, stop
            )

        run_blocks(plan, normalize_block)
        theta_next = spare
        if not active.all():
            # frozen rows keep their converged value verbatim: the
            # update map at a fixed point is not exactly the identity,
            # so re-applying it would drift a row that already stopped
            # (and would couple its final bits to its batchmates) --
            # this also repairs the rows of skipped blocks, whose
            # `spare` slots still hold the previous sweep's buffer
            frozen = ~active
            theta_next[frozen] = theta[frozen]
        np.subtract(theta_next, theta, out=update)
        np.abs(update, out=update)
        row_max(update, row_delta)
        if has_batch_links:
            # a row stays live while anything it (transitively) reads
            # through in-batch links is still moving: reverse-reachable
            # closure of the moving rows (frozen rows have delta 0 and
            # never re-seed, so freezing is permanent)
            closure = {int(r) for r in np.flatnonzero(row_delta >= tol)}
            stack = list(closure)
            while stack:
                row = stack.pop()
                for dependant in dependants[row]:
                    if active[dependant] and dependant not in closure:
                        closure.add(dependant)
                        stack.append(dependant)
            active[:] = False
            if closure:
                active[list(closure)] = True
        else:
            active &= row_delta >= tol
        theta, spare = theta_next, theta
        if recording:
            sweep_hist.observe(time.perf_counter() - sweep_start)
        if not active.any():
            converged = True
            break
    if recording:
        call_hist.observe(time.perf_counter() - call_start)
    return FoldInOutcome(
        nodes=nodes,
        theta=theta,
        iterations=iterations,
        converged=converged,
        oov_terms=oov_terms,
    )


def _first_seen(codes: np.ndarray) -> list[int]:
    """Distinct codes in order of first appearance."""
    distinct, first = np.unique(codes, return_index=True)
    return distinct[np.argsort(first)].tolist()


def _group_text(
    model: FrozenModel, bound: BoundBatch
) -> tuple[list[tuple[np.ndarray, CountsPattern, np.ndarray]], int]:
    """Per text attribute (in first-seen order): the observed rows, the
    decomposed counts pattern, and beta; plus the dropped out-of-
    vocabulary term count.  A row with a non-empty bag is observed even
    when every term is out of vocabulary or zero."""
    attribute, column, count = bound.text.columns
    owners = bound.text.owners()
    names = tuple(model.attribute_params)
    compiled = []
    oov_terms = 0
    for code in _first_seen(attribute):
        selected = attribute == code
        rows, local = np.unique(owners[selected], return_inverse=True)
        columns, counts = column[selected], count[selected]
        positive = counts > 0
        oov = positive & (columns < 0)
        if oov.any():
            oov_terms += sum(
                max(int(round(c)), 1) for c in counts[oov].tolist()
            )
        keep = positive & (columns >= 0)
        if not keep.any():
            continue
        local, columns, counts = local[keep], columns[keep], counts[keep]
        order = np.lexsort((columns, local))
        local, columns = local[order], columns[order]
        params = model.attribute_params[names[code]]
        compiled.append(
            (
                rows,
                CountsPattern(
                    rows=local,
                    cols=columns,
                    vals=counts[order],
                    indptr=_indptr(np.bincount(local, minlength=rows.size)),
                    shape=(
                        int(rows.size),
                        len(model.vocabulary_index[names[code]]),
                    ),
                ),
                np.asarray(params["beta"], dtype=np.float64),
            )
        )
    return compiled, oov_terms


def _group_numeric(
    model: FrozenModel, bound: BoundBatch
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per numeric attribute (in first-seen order): (rows, values,
    owners, mu, var)."""
    attribute, value = bound.numeric.columns
    entry_rows = bound.numeric.owners()
    names = tuple(model.attribute_params)
    compiled = []
    for code in _first_seen(attribute):
        selected = attribute == code
        rows, owners = np.unique(entry_rows[selected], return_inverse=True)
        params = model.attribute_params[names[code]]
        compiled.append(
            (
                rows,
                value[selected],
                owners,
                np.asarray(params["means"], dtype=np.float64),
                np.asarray(params["variances"], dtype=np.float64),
            )
        )
    return compiled
