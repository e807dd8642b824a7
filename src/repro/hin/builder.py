"""Fluent construction of heterogeneous networks.

:class:`NetworkBuilder` removes the boilerplate of declaring schemas and
inserting nodes/edges separately, and -- most importantly -- supports
*paired relations*: the paper's networks always contain each semantic link
in both directions as two distinct relation types with independently
learned strengths (``write``/``written_by``, ``publish_in``/
``published_by``).  :meth:`NetworkBuilder.add_paired_relation` declares
both directions and :meth:`NetworkBuilder.link_paired` inserts both edges
at once.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.network import HeterogeneousNetwork
from repro.hin.schema import NetworkSchema


class NetworkBuilder:
    """Builds a :class:`~repro.hin.network.HeterogeneousNetwork` fluently.

    Examples
    --------
    >>> builder = NetworkBuilder()
    >>> _ = builder.object_type("author").object_type("paper")
    >>> _ = builder.add_paired_relation(
    ...     "write", "author", "paper", inverse="written_by")
    >>> _ = builder.node("alice", "author").node("p1", "paper")
    >>> _ = builder.link_paired("alice", "p1", "write")
    >>> net = builder.build()
    >>> net.out_neighbors("p1")
    [('alice', 'written_by', 1.0)]
    """

    def __init__(self) -> None:
        self._schema = NetworkSchema()
        self._node_ids: list[object] = []
        self._node_types: list[str] = []
        # relation -> queued (source ids, target ids, weights) columns
        self._links: dict[str, tuple[list, list, list]] = {}
        self._pairs: dict[str, str] = {}
        self._attributes: list[TextAttribute | NumericAttribute] = []

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def object_type(self, name: str, description: str = "") -> NetworkBuilder:
        """Declare an object type."""
        self._schema.add_object_type(name, description)
        return self

    def relation(
        self,
        name: str,
        source: str,
        target: str,
        inverse: str | None = None,
        description: str = "",
    ) -> NetworkBuilder:
        """Declare a single (one-direction) relation."""
        self._schema.add_relation(name, source, target, inverse, description)
        return self

    def add_paired_relation(
        self,
        name: str,
        source: str,
        target: str,
        inverse: str,
        description: str = "",
    ) -> NetworkBuilder:
        """Declare a relation and its inverse in one call.

        After this, :meth:`link_paired` on ``name`` also inserts the
        reversed edge on ``inverse`` with the same weight.
        """
        self._schema.add_relation(
            name, source, target, inverse=inverse, description=description
        )
        self._schema.add_relation(
            inverse, target, source, inverse=name, description=description
        )
        self._pairs[name] = inverse
        return self

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    def node(self, node: object, object_type: str) -> NetworkBuilder:
        self._node_ids.append(node)
        self._node_types.append(object_type)
        return self

    def nodes(
        self, nodes: Iterable[object], object_type: str
    ) -> NetworkBuilder:
        for node in nodes:
            self.node(node, object_type)
        return self

    def link(
        self,
        source: object,
        target: object,
        relation: str,
        weight: float = 1.0,
    ) -> NetworkBuilder:
        """Queue a single directed edge."""
        sources, targets, weights = self._queue(relation)
        sources.append(source)
        targets.append(target)
        weights.append(weight)
        return self

    def link_paired(
        self,
        source: object,
        target: object,
        relation: str,
        weight: float = 1.0,
    ) -> NetworkBuilder:
        """Queue an edge plus its inverse (relation must be paired)."""
        if relation not in self._pairs:
            raise KeyError(
                f"relation {relation!r} was not declared with "
                f"add_paired_relation"
            )
        sources, targets, weights = self._queue(relation)
        sources.append(source)
        targets.append(target)
        weights.append(weight)
        sources, targets, weights = self._queue(self._pairs[relation])
        sources.append(target)
        targets.append(source)
        weights.append(weight)
        return self

    def _queue(self, relation: str) -> tuple[list, list, list]:
        queue = self._links.get(relation)
        if queue is None:
            queue = self._links[relation] = ([], [], [])
        return queue

    def attribute(
        self, attribute: TextAttribute | NumericAttribute
    ) -> NetworkBuilder:
        """Queue an attribute table to attach to the built network."""
        self._attributes.append(attribute)
        return self

    # ------------------------------------------------------------------
    def build(self) -> HeterogeneousNetwork:
        """Materialize the network; validates inverse consistency first.

        Nodes and links go in as columns (see
        :meth:`~repro.hin.network.HeterogeneousNetwork.add_edge_columns`):
        a bad node raises what ``add_node`` raises for the first one
        queued, a bad link what ``add_edge`` raises for the first one
        of the first relation holding one.
        """
        self._schema.check_inverse_consistency()
        network = HeterogeneousNetwork(self._schema)
        network.add_node_columns(self._node_ids, self._node_types)
        network.add_edge_columns(self._links)
        for attribute in self._attributes:
            network.add_attribute(attribute)
        return network
