"""Summary statistics for heterogeneous networks.

Used by the experiment harness to print workload descriptions (the paper
reports its data sets in these terms: object counts per type, link counts
per relation, attribute coverage) and by tests to assert generator
properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.network import HeterogeneousNetwork


@dataclass(frozen=True, slots=True)
class RelationStats:
    """Link statistics of one relation."""

    name: str
    num_links: int
    total_weight: float
    mean_out_degree: float
    max_out_degree: int


@dataclass(frozen=True, slots=True)
class AttributeStats:
    """Coverage statistics of one attribute."""

    name: str
    kind: str
    num_observed_nodes: int
    total_observations: float
    coverage: float
    """Fraction of all network nodes carrying at least one observation."""


@dataclass(frozen=True, slots=True)
class NetworkStats:
    """Full summary: nodes per type, per-relation and per-attribute stats."""

    num_nodes: int
    num_edges: int
    nodes_per_type: dict[str, int] = field(default_factory=dict)
    relations: tuple[RelationStats, ...] = ()
    attributes: tuple[AttributeStats, ...] = ()

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"nodes: {self.num_nodes}   edges: {self.num_edges}"]
        for type_name, count in sorted(self.nodes_per_type.items()):
            lines.append(f"  type {type_name:<16} {count:>8}")
        for rel in self.relations:
            lines.append(
                f"  rel  {rel.name:<16} links={rel.num_links:<8} "
                f"weight={rel.total_weight:<10.1f} "
                f"mean-out-deg={rel.mean_out_degree:.2f}"
            )
        for attr in self.attributes:
            lines.append(
                f"  attr {attr.name:<16} kind={attr.kind:<8} "
                f"observed={attr.num_observed_nodes:<8} "
                f"coverage={attr.coverage:.1%}"
            )
        return "\n".join(lines)


def network_stats(network: HeterogeneousNetwork) -> NetworkStats:
    """Compute a :class:`NetworkStats` summary for a network."""
    nodes_per_type: dict[str, int] = {}
    for type_name in network.schema.object_type_names:
        nodes_per_type[type_name] = len(network.nodes_of_type(type_name))

    relations: list[RelationStats] = []
    for relation in network.schema.relation_names:
        sources, _targets, weights = network.edge_arrays(relation)
        if not sources.size:
            continue
        source_type = network.relation_declaration(relation).source
        num_sources = max(1, nodes_per_type.get(source_type, 0))
        out_degree = np.bincount(sources, minlength=network.num_nodes)
        relations.append(
            RelationStats(
                name=relation,
                num_links=len(sources),
                total_weight=float(np.sum(weights)),
                mean_out_degree=len(sources) / num_sources,
                max_out_degree=int(out_degree.max()),
            )
        )

    attributes: list[AttributeStats] = []
    for name in network.attribute_names:
        attribute = network.attribute(name)
        observed = attribute.nodes_with_observations()
        if isinstance(attribute, TextAttribute):
            kind = "text"
            total = float(
                sum(attribute.observation_total(node) for node in observed)
            )
        elif isinstance(attribute, NumericAttribute):
            kind = "numeric"
            total = float(
                sum(attribute.observation_total(node) for node in observed)
            )
        else:  # pragma: no cover - defensive
            continue
        attributes.append(
            AttributeStats(
                name=name,
                kind=kind,
                num_observed_nodes=len(observed),
                total_observations=total,
                coverage=(
                    len(observed) / network.num_nodes
                    if network.num_nodes
                    else 0.0
                ),
            )
        )

    return NetworkStats(
        num_nodes=network.num_nodes,
        num_edges=network.num_edges(),
        nodes_per_type=nodes_per_type,
        relations=tuple(relations),
        attributes=tuple(attributes),
    )
