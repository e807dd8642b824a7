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
  and the JSON file helpers :func:`~repro.hin.io.save_network` /
  :func:`~repro.hin.io.load_network` -- serialization.
* :class:`~repro.hin.views.RelationMatrices` /
  :func:`~repro.hin.views.build_relation_matrices` -- per-relation
  sparse link views for the solvers.
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
    "NumericAttribute",
    "ObjectType",
    "RelationMatrices",
    "RelationType",
    "TextAttribute",
    "build_relation_matrices",
]
