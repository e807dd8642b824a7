"""Structural validation and diagnostics for heterogeneous networks.

:func:`validate_network` performs checks that are legal-but-suspicious
rather than outright errors (outright errors are rejected at insertion
time by :class:`~repro.hin.network.HeterogeneousNetwork`).  Each finding is
returned as a :class:`ValidationIssue`; an empty list means the network is
clean for clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.network import HeterogeneousNetwork

SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One diagnostic finding: a severity, a check code and a message."""

    severity: str
    code: str
    message: str


def validate_network(
    network: HeterogeneousNetwork,
) -> list[ValidationIssue]:
    """Run all diagnostics; returns findings ordered by check.

    Checks
    ------
    * ``no-out-links`` -- objects whose membership can only come from their
      own attribute observations (the EM theta update has no neighbour
      term for them); *warning* when they also carry no observations,
      since such objects keep their initial random membership.
    * ``empty-relation`` -- declared relations with zero links (they get no
      gamma entry).
    * ``missing-inverse-links`` -- a paired relation where some edge's
      reverse is absent, which usually indicates a construction bug.
    * ``isolated-node`` -- nodes with neither in- nor out-links.
    * ``unobserved-attribute`` -- attached attributes with no observations.
    """
    issues: list[ValidationIssue] = []
    issues.extend(_check_out_links_and_attributes(network))
    issues.extend(_check_empty_relations(network))
    issues.extend(_check_missing_inverse_links(network))
    issues.extend(_check_isolated_nodes(network))
    issues.extend(_check_unobserved_attributes(network))
    return issues


def _has_any_observation(network: HeterogeneousNetwork, node: object) -> bool:
    for name in network.attribute_names:
        attribute = network.attribute(name)
        if isinstance(attribute, (TextAttribute, NumericAttribute)):
            if attribute.has_observations(node):
                return True
    return False


def _linked(network: HeterogeneousNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Per-node flags: has an out-link, takes part in any link."""
    out, touched = np.zeros((2, network.num_nodes), dtype=bool)
    for relation in network.schema.relation_names:
        sources, targets, _ = network.edge_arrays(relation)
        out[sources] = touched[sources] = touched[targets] = True
    return out, touched


def _check_out_links_and_attributes(
    network: HeterogeneousNetwork,
) -> list[ValidationIssue]:
    orphans = np.flatnonzero(~_linked(network)[0]).tolist()
    issues: list[ValidationIssue] = []
    orphan_count = len(orphans)
    no_info_count = sum(
        not _has_any_observation(network, network.node_at(index))
        for index in orphans
    )
    if orphan_count:
        issues.append(
            ValidationIssue(
                SEVERITY_INFO,
                "no-out-links",
                f"{orphan_count} node(s) have no out-links; their "
                f"membership update uses only attribute observations",
            )
        )
    if no_info_count:
        issues.append(
            ValidationIssue(
                SEVERITY_WARNING,
                "no-out-links",
                f"{no_info_count} node(s) have neither out-links nor "
                f"attribute observations and will keep their initial "
                f"membership",
            )
        )
    return issues


def _check_empty_relations(
    network: HeterogeneousNetwork,
) -> list[ValidationIssue]:
    present = set(network.relation_types_present())
    issues: list[ValidationIssue] = []
    for relation in network.schema.relation_names:
        if relation not in present:
            issues.append(
                ValidationIssue(
                    SEVERITY_INFO,
                    "empty-relation",
                    f"relation {relation!r} is declared but has no links",
                )
            )
    return issues


def _check_missing_inverse_links(
    network: HeterogeneousNetwork,
) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for relation in network.schema.relations:
        if relation.inverse is None:
            continue
        if not network.schema.has_relation(relation.inverse):
            continue  # schema-level problem reported by the schema itself
        n = network.num_nodes
        sources, targets, _ = network.edge_arrays(relation.name)
        back_sources, back_targets, _ = network.edge_arrays(relation.inverse)
        missing = np.count_nonzero(~np.isin(
            sources * n + targets, back_targets * n + back_sources
        ))
        if missing:
            issues.append(
                ValidationIssue(
                    SEVERITY_WARNING,
                    "missing-inverse-links",
                    f"{missing} link(s) of {relation.name!r} have no "
                    f"reverse link in {relation.inverse!r}",
                )
            )
    return issues


def _check_isolated_nodes(
    network: HeterogeneousNetwork,
) -> list[ValidationIssue]:
    isolated = int(np.count_nonzero(~_linked(network)[1]))
    if isolated:
        return [
            ValidationIssue(
                SEVERITY_WARNING,
                "isolated-node",
                f"{isolated} node(s) participate in no links at all",
            )
        ]
    return []


def _check_unobserved_attributes(
    network: HeterogeneousNetwork,
) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for name in network.attribute_names:
        attribute = network.attribute(name)
        if not attribute.nodes_with_observations():
            issues.append(
                ValidationIssue(
                    SEVERITY_WARNING,
                    "unobserved-attribute",
                    f"attribute {name!r} is attached but has no "
                    f"observations",
                )
            )
    return issues
