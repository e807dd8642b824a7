"""Serialization of heterogeneous networks to plain JSON documents.

The format is a single self-describing dict with four sections (schema,
nodes, edges, attributes) so a saved experiment network can be reloaded
byte-for-byte and re-clustered.  Node ids are restricted to JSON scalars
(str/int/float/bool); the shipped generators use strings throughout.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.exceptions import SerializationError
from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.network import HeterogeneousNetwork
from repro.hin.schema import NetworkSchema

_FORMAT = "repro.hin/1"
_SCALARS = (str, int, float, bool)


def network_to_dict(network: HeterogeneousNetwork) -> dict[str, Any]:
    """Encode a network (schema, nodes, edges, attributes) as a dict."""
    schema = network.schema
    for node in network.node_ids:
        if not isinstance(node, _SCALARS):
            raise SerializationError(
                f"node id {node!r} is not a JSON scalar; only str/int/"
                f"float/bool ids can be serialized"
            )
    payload: dict[str, Any] = {
        "format": _FORMAT,
        "schema": {
            "object_types": [
                {"name": t.name, "description": t.description}
                for t in schema.object_types
            ],
            "relations": [
                {
                    "name": r.name,
                    "source": r.source,
                    "target": r.target,
                    "inverse": r.inverse,
                    "description": r.description,
                }
                for r in schema.relations
            ],
        },
        "nodes": [
            {"id": node, "type": network.type_of(node)}
            for node in network.node_ids
        ],
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "relation": edge.relation,
                "weight": edge.weight,
            }
            for edge in network.edges()
        ],
        "attributes": [],
    }
    for name in network.attribute_names:
        attribute = network.attribute(name)
        if isinstance(attribute, TextAttribute):
            payload["attributes"].append(
                {
                    "name": name,
                    "kind": "text",
                    "vocabulary": list(attribute.vocabulary),
                    "bags": {
                        _key(node): attribute.bag_of(node)
                        for node in attribute.nodes_with_observations()
                    },
                }
            )
        elif isinstance(attribute, NumericAttribute):
            payload["attributes"].append(
                {
                    "name": name,
                    "kind": "numeric",
                    "values": {
                        _key(node): list(attribute.values_of(node))
                        for node in attribute.nodes_with_observations()
                    },
                }
            )
        else:  # pragma: no cover - defensive
            raise SerializationError(
                f"attribute {name!r} has unsupported type "
                f"{type(attribute).__name__}"
            )
    return payload


def network_from_dict(payload: dict[str, Any]) -> HeterogeneousNetwork:
    """Decode a network from a dict produced by :func:`network_to_dict`."""
    if not isinstance(payload, dict):
        raise SerializationError("payload must be a dict")
    if payload.get("format") != _FORMAT:
        raise SerializationError(
            f"unsupported format marker {payload.get('format')!r}; "
            f"expected {_FORMAT!r}"
        )
    try:
        schema = NetworkSchema()
        for entry in payload["schema"]["object_types"]:
            schema.add_object_type(entry["name"], entry.get("description", ""))
        for entry in payload["schema"]["relations"]:
            schema.add_relation(
                entry["name"],
                entry["source"],
                entry["target"],
                entry.get("inverse"),
                entry.get("description", ""),
            )
        network = HeterogeneousNetwork(schema)
        nodes = [(entry["id"], entry["type"]) for entry in payload["nodes"]]
        network.add_node_columns(
            [node for node, _ in nodes], [typ for _, typ in nodes]
        )
        id_by_key = {_key(node): node for node, _ in nodes}
        # per-relation id columns, inserted (and checked) in one batch
        links: dict[str, tuple[list, list, list]] = {}
        for entry in payload["edges"]:
            source, target = entry["source"], entry["target"]
            queue = links.setdefault(entry["relation"], ([], [], []))
            queue[0].append(source)
            queue[1].append(target)
            queue[2].append(entry.get("weight", 1.0))
        network.add_edge_columns(links)
        for entry in payload["attributes"]:
            if entry["kind"] == "text":
                attribute = TextAttribute(
                    entry["name"], frozen_vocabulary=entry["vocabulary"]
                )
                for key, bag in entry["bags"].items():
                    attribute.add_counts(id_by_key[key], bag)
                network.add_attribute(attribute)
            elif entry["kind"] == "numeric":
                numeric = NumericAttribute(entry["name"])
                for key, values in entry["values"].items():
                    numeric.add_values(id_by_key[key], values)
                network.add_attribute(numeric)
            else:
                raise SerializationError(
                    f"unknown attribute kind {entry['kind']!r}"
                )
    except SerializationError:
        raise
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed network payload: {exc}") from exc
    return network


def save_network(network: HeterogeneousNetwork, path: str | Path) -> None:
    """Write a network as JSON to ``path``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(network_to_dict(network), handle)


def load_network(path: str | Path) -> HeterogeneousNetwork:
    """Read a network from a JSON file written by :func:`save_network`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SerializationError(
                f"{path} is not valid JSON: {exc}"
            ) from exc
    return network_from_dict(payload)


def _key(node: object) -> str:
    """JSON object keys must be strings; encode type+value to stay unique."""
    return f"{type(node).__name__}:{node}"
