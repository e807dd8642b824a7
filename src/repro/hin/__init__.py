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

from repro._lazy import lazy_exports

# name -> defining module, imported on first access: importing
# ``repro.hin`` (as every ``repro.hin.*`` import does) loads nothing
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "AttributeKind": "repro.hin.attributes",
        "AttributeSpec": "repro.hin.attributes",
        "CompiledNumericAttribute": "repro.hin.attributes",
        "CompiledTextAttribute": "repro.hin.attributes",
        "NumericAttribute": "repro.hin.attributes",
        "TextAttribute": "repro.hin.attributes",
        "NetworkBuilder": "repro.hin.builder",
        "HeterogeneousNetwork": "repro.hin.network",
        "NetworkSchema": "repro.hin.schema",
        "ObjectType": "repro.hin.schema",
        "RelationType": "repro.hin.schema",
        "NetworkStats": "repro.hin.stats",
        "network_stats": "repro.hin.stats",
        "ValidationIssue": "repro.hin.validation",
        "validate_network": "repro.hin.validation",
        "RelationMatrices": "repro.hin.views",
        "build_relation_matrices": "repro.hin.views",
    },
)

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
