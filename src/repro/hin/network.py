"""The heterogeneous information network container.

Implements ``G = (V, E, W)`` of Section 2.1: a directed graph with typed
nodes (``tau: V -> A``), typed weighted links (``phi: E -> R``), and a set
of attribute tables attached to the network.  Nodes are identified by
arbitrary hashable ids (strings in all shipped examples); internally every
node gets a stable contiguous index in insertion order, which is the row
index used by all solver matrices.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.exceptions import AttributeSpecError, NetworkError, ReproError
from repro.hin.attributes import Attribute, NumericAttribute, TextAttribute
from repro.hin.columns import Summed, SummedLog
from repro.hin.schema import NetworkSchema, RelationType


class _SequenceView(Sequence):
    """Immutable live window onto a list (the sequence twin of
    :class:`types.MappingProxyType`)."""

    __slots__ = ("_data",)

    def __init__(self, data: list) -> None:
        self._data = data

    def __getitem__(self, index):
        return self._data[index]

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True, slots=True)
class Edge:
    """One directed link: source id, target id, relation name, weight."""

    source: object
    target: object
    relation: str
    weight: float


class HeterogeneousNetwork:
    """A directed, typed, weighted multigraph with attribute tables.

    Parameters
    ----------
    schema:
        The :class:`~repro.hin.schema.NetworkSchema` declaring object types
        and relations.  The network validates every node and edge against
        it at insertion time.

    Notes
    -----
    Parallel edges within one relation are merged by *summing weights*
    (the DBLP AC network weights links by paper counts, which is exactly
    this accumulation).  Each relation stores its links as append-only
    ``(source, target, weight)`` index columns
    (:class:`~repro.hin.columns.SummedLog`): inserting only appends, and
    a read sums repeated links once -- distinct links in first-insertion
    order, weights summed in insertion order -- and caches the result
    until the next insert.

    Examples
    --------
    >>> schema = NetworkSchema()
    >>> schema.add_object_type("author")
    >>> schema.add_object_type("conf")
    >>> schema.add_relation("publish_in", "author", "conf")
    >>> net = HeterogeneousNetwork(schema)
    >>> net.add_node("alice", "author")
    0
    >>> net.add_node("SIGMOD", "conf")
    1
    >>> net.add_edge("alice", "SIGMOD", "publish_in", weight=3.0)
    >>> net.out_neighbors("alice")
    [('SIGMOD', 'publish_in', 3.0)]
    """

    def __init__(self, schema: NetworkSchema) -> None:
        self.schema = schema
        self._node_ids: list[object] = []
        self._node_index: dict[object, int] = {}
        self._node_types: list[str] = []
        self._links: dict[str, SummedLog] = {
            r.name: SummedLog() for r in schema.relations
        }
        self._attributes: dict[str, Attribute] = {}

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, node: object, object_type: str) -> int:
        """Insert a node and return its index.

        Re-inserting an existing node with the same type is a no-op that
        returns the existing index; with a different type it is an error.
        """
        if not self.schema.has_object_type(object_type):
            raise NetworkError(
                f"cannot add node {node!r}: unknown object type "
                f"{object_type!r}"
            )
        existing = self._node_index.get(node)
        if existing is not None:
            if self._node_types[existing] != object_type:
                raise NetworkError(
                    f"node {node!r} already exists with type "
                    f"{self._node_types[existing]!r}, not {object_type!r}"
                )
            return existing
        index = len(self._node_ids)
        self._node_ids.append(node)
        self._node_index[node] = index
        self._node_types.append(object_type)
        return index

    def add_node_columns(
        self,
        node_ids: Iterable[object],
        node_types: Iterable[str],
    ) -> None:
        """Bulk-insert aligned id/type columns, preserving order.

        Semantically identical to calling :meth:`add_node` per pair,
        but validated with ``O(n)`` set operations instead of per-node
        dict probes -- the fast path for artifact loads and network
        builds.  Inputs with an unknown type, duplicates or ids already
        present take the per-node path, so re-insertion and errors keep
        their exact semantics.
        """
        ids = list(node_ids)
        types = list(node_types)
        if len(ids) != len(types):
            raise NetworkError(
                f"node id/type columns differ in length: "
                f"{len(ids)} vs {len(types)}"
            )
        start = len(self._node_ids)
        index = dict(zip(ids, range(start, start + len(ids))))
        if (
            len(index) != len(ids)
            or self._node_index.keys() & index.keys()
            or not all(map(self.schema.has_object_type, set(types)))
        ):
            for node, object_type in zip(ids, types):
                self.add_node(node, object_type)
            return
        self._node_ids.extend(ids)
        self._node_types.extend(types)
        self._node_index.update(index)

    @property
    def num_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def node_ids(self) -> tuple[object, ...]:
        """All node ids in index order."""
        return tuple(self._node_ids)

    def has_node(self, node: object) -> bool:
        return node in self._node_index

    def index_of(self, node: object) -> int:
        """Index of a node id; raises :class:`NetworkError` if unknown."""
        try:
            return self._node_index[node]
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    def node_at(self, index: int) -> object:
        """Node id at a given index."""
        try:
            return self._node_ids[index]
        except IndexError:
            raise NetworkError(f"node index {index} out of range") from None

    def type_of(self, node: object) -> str:
        """Object type name of a node (the paper's ``tau(v)``)."""
        return self._node_types[self.index_of(node)]

    @property
    def node_index(self) -> dict[object, int]:
        """A copy of the id -> index mapping."""
        return dict(self._node_index)

    @property
    def node_index_view(self) -> Mapping[object, int]:
        """A read-only *live* view of the id -> index mapping (no copy).

        Serving-state code holds this for O(1) lookups over large
        networks; it reflects later ``add_node`` calls.
        """
        return MappingProxyType(self._node_index)

    @property
    def node_types_view(self) -> Sequence[str]:
        """Read-only live view of per-index object types (no copy)."""
        return _SequenceView(self._node_types)

    def nodes_of_type(self, object_type: str) -> tuple[object, ...]:
        """All node ids of one type, in index order."""
        self.schema.object_type(object_type)
        return tuple(
            node
            for node, typ in zip(self._node_ids, self._node_types)
            if typ == object_type
        )

    def indices_of_type(self, object_type: str) -> list[int]:
        """All node indices of one type, ascending."""
        self.schema.object_type(object_type)
        return [
            i for i, typ in enumerate(self._node_types) if typ == object_type
        ]

    def copy(self) -> "HeterogeneousNetwork":
        """Structural copy: nodes, types, and edges (attributes are
        *not* copied -- attach fresh tables to the copy as needed).

        ``O(n)`` list/dict copies with no per-edge re-validation: the
        copy shares each relation's link columns (never written once
        appended) and appends its own links after them.  The schema
        object is shared (schemas are append-only declarations).
        """
        clone = HeterogeneousNetwork(self.schema)
        clone._node_ids = list(self._node_ids)
        clone._node_index = dict(self._node_index)
        clone._node_types = list(self._node_types)
        clone._links = {
            name: links.copy() for name, links in self._links.items()
        }
        return clone

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        source: object,
        target: object,
        relation: str,
        weight: float = 1.0,
    ) -> None:
        """Insert a directed link of the given relation.

        Endpoint types must match the relation declaration; weights of
        repeated insertions accumulate.
        """
        rel = self.schema.relation(relation)
        src_idx = self.index_of(source)
        dst_idx = self.index_of(target)
        if self._node_types[src_idx] != rel.source:
            raise NetworkError(
                f"edge {source!r} -> {target!r}: relation {relation!r} "
                f"expects source type {rel.source!r}, node has type "
                f"{self._node_types[src_idx]!r}"
            )
        if self._node_types[dst_idx] != rel.target:
            raise NetworkError(
                f"edge {source!r} -> {target!r}: relation {relation!r} "
                f"expects target type {rel.target!r}, node has type "
                f"{self._node_types[dst_idx]!r}"
            )
        if weight < 0:
            raise NetworkError(
                f"edge {source!r} -> {target!r}: negative weight {weight}"
            )
        if weight == 0:
            return
        self._links[relation].append_row(
            src_idx, (dst_idx,), (float(weight),)
        )

    def add_edge_arrays(
        self, relation: str, sources, targets, weights
    ) -> None:
        """Bulk :meth:`add_edge` from node-index columns, the inverse of
        :meth:`edge_arrays`: the same type and weight checks, zero
        weights skipped, repeated links summed in row order.  The checks
        are vectorized and run first: a rejected batch inserts nothing.
        """
        columns = self._checked_links(relation, sources, targets, weights)
        self._links[relation].extend(*columns)

    def add_edge_columns(
        self, links: Mapping[str, tuple[Sequence, Sequence, Sequence]]
    ) -> None:
        """Bulk :meth:`add_edge` by node id: ``links[relation]`` holds
        the relation's aligned ``(sources, targets, weights)`` columns.

        Ids resolve once and every check runs vectorized before anything
        is inserted.  A batch holding a bad link inserts nothing and
        raises what calling :meth:`add_edge` link by link, relation by
        relation, raises: the error of the first bad link.
        """
        get = self._node_index.__getitem__
        staged: list | None = []
        try:
            for relation, (sources, targets, weights) in links.items():
                src, dst = (
                    np.fromiter(map(get, ids), np.int64, len(ids))
                    for ids in (sources, targets)
                )
                staged.append((relation, self._checked_links(
                    relation, src, dst, weights
                )))
        except (ReproError, LookupError, TypeError, ValueError):
            staged = None
        if staged is None:
            # replay link by link on a scratch copy: it raises add_edge's
            # own error, or inserts a batch only the per-link checks
            # accept (weights numpy holds as objects, say)
            trial = self.copy()
            for relation, (sources, targets, weights) in links.items():
                for source, target, weight in zip(sources, targets, weights):
                    trial.add_edge(source, target, relation, weight)
            self._links = trial._links
            return
        for relation, columns in staged:
            self._links[relation].extend(*columns)

    def _checked_links(
        self, relation: str, sources, targets, weights
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated index columns of one relation, zero weights
        dropped; raises :class:`NetworkError` on any bad link."""
        rel = self.schema.relation(relation)
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        weight = np.asarray(weights)
        if (
            src.ndim != 1
            or not src.shape == dst.shape == weight.shape
            or weight.dtype.kind not in "biuf"
            or np.any(weight < 0)
        ):
            raise NetworkError(
                f"relation {relation!r}: edge columns must be 1-d, equally "
                f"long, with non-negative weights"
            )
        types = np.array(self._node_types, dtype=object)
        for role, index, expected in (
            ("source", src, rel.source), ("target", dst, rel.target)
        ):
            if index.size and not (
                0 <= index.min() and index.max() < types.size
                and np.all(types[index] == expected)
            ):
                raise NetworkError(
                    f"relation {relation!r} needs {role} nodes of type "
                    f"{expected!r}"
                )
        keep = weight != 0
        return src[keep], dst[keep], weight[keep]

    def _summed(self, relation: str) -> Summed:
        self.schema.relation(relation)
        return self._links[relation].summed()

    def num_edges(self, relation: str | None = None) -> int:
        """Number of distinct links, overall or within one relation."""
        if relation is not None:
            return self._summed(relation).rows.size
        return sum(len(links) for links in self._links.values())

    def edges(self, relation: str | None = None) -> Iterator[Edge]:
        """Iterate links as :class:`Edge` records (one relation or all)."""
        ids = self._node_ids
        for name in [relation] if relation is not None else self._links:
            summed = self._summed(name)
            for src, dst, weight in zip(
                summed.rows.tolist(), summed.cols.tolist(),
                summed.values.tolist(),
            ):
                yield Edge(ids[src], ids[dst], name, weight)

    def edge_arrays(
        self, relation: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Links of one relation as read-only ``(src, dst, weight)``
        index columns, in first-insertion order with repeats summed."""
        summed = self._summed(relation)
        return summed.rows, summed.cols, summed.values

    def out_neighbors(
        self, node: object, relation: str | None = None
    ) -> list[tuple[object, str, float]]:
        """``(target, relation, weight)`` for every out-link of a node."""
        src_idx = self.index_of(node)
        result: list[tuple[object, str, float]] = []
        for name in [relation] if relation is not None else self._links:
            summed = self._summed(name)
            at = summed.row_positions(src_idx)
            result.extend(
                (self._node_ids[dst], name, weight)
                for dst, weight in zip(
                    summed.cols[at].tolist(), summed.values[at].tolist()
                )
            )
        return result

    def relation_declaration(self, relation: str) -> RelationType:
        return self.schema.relation(relation)

    # ------------------------------------------------------------------
    # attributes
    # ------------------------------------------------------------------
    def add_attribute(self, attribute: Attribute) -> None:
        """Attach an attribute table; names must be unique per network."""
        if attribute.name in self._attributes:
            raise AttributeSpecError(
                f"attribute {attribute.name!r} already attached"
            )
        self._attributes[attribute.name] = attribute

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[name]
        except KeyError:
            raise AttributeSpecError(f"unknown attribute {name!r}") from None

    def text_attribute(self, name: str) -> TextAttribute:
        """Fetch an attribute known to be text; raises if numeric."""
        attr = self.attribute(name)
        if not isinstance(attr, TextAttribute):
            raise AttributeSpecError(f"attribute {name!r} is not text")
        return attr

    def numeric_attribute(self, name: str) -> NumericAttribute:
        """Fetch an attribute known to be numeric; raises if text."""
        attr = self.attribute(name)
        if not isinstance(attr, NumericAttribute):
            raise AttributeSpecError(f"attribute {name!r} is not numeric")
        return attr

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._attributes)

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeterogeneousNetwork(nodes={self.num_nodes}, "
            f"edges={self.num_edges()}, "
            f"relations={list(self.schema.relation_names)!r}, "
            f"attributes={list(self._attributes)!r})"
        )
