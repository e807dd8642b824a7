"""Heterogeneous information network (HIN) substrate.

This package implements the data structure of Section 2.1 of the paper: a
directed graph ``G = (V, E, W)`` with a type mapping for objects
(``tau: V -> A``) and links (``phi: E -> R``), weighted links, and
attribute observations that may be *incomplete* -- any object may carry
zero observations for any attribute.

Public entry points:

* :class:`~repro.hin.schema.NetworkSchema` -- declares object types and
  typed relations (with optional inverses).
* :class:`~repro.hin.network.HeterogeneousNetwork` -- the network itself.
* :class:`~repro.hin.builder.NetworkBuilder` -- fluent construction helper
  that auto-materializes inverse links.
* :class:`~repro.hin.attributes.TextAttribute` /
  :class:`~repro.hin.attributes.NumericAttribute` -- incomplete attribute
  observation tables.
* :func:`~repro.hin.io.network_to_dict` / :func:`~repro.hin.io.network_from_dict`
  and the JSON file helpers -- serialization.
"""

from repro.hin.attributes import (
    AttributeKind,
    AttributeSpec,
    CompiledNumericAttribute,
    CompiledTextAttribute,
    NumericAttribute,
    TextAttribute,
)
from repro.hin.builder import NetworkBuilder
from repro.hin.network import HeterogeneousNetwork
from repro.hin.schema import NetworkSchema, ObjectType, RelationType
from repro.hin.stats import NetworkStats, network_stats
from repro.hin.validation import ValidationIssue, validate_network
from repro.hin.views import RelationMatrices, build_relation_matrices

__all__ = [
    "AttributeKind",
    "AttributeSpec",
    "CompiledNumericAttribute",
    "CompiledTextAttribute",
    "HeterogeneousNetwork",
    "NetworkBuilder",
    "NetworkSchema",
    "NetworkStats",
    "NumericAttribute",
    "ObjectType",
    "RelationMatrices",
    "RelationType",
    "TextAttribute",
    "ValidationIssue",
    "build_relation_matrices",
    "network_stats",
    "validate_network",
]
