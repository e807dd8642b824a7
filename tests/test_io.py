"""Tests for repro.hin.io (serialization round-trips)."""

import json

import pytest

from repro.exceptions import SerializationError
from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.builder import NetworkBuilder
from repro.hin.io import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)


def make_network():
    title = TextAttribute("title")
    title.add_tokens("p1", ["query", "join", "query"])
    temp = NumericAttribute("temp")
    temp.add_values("a1", [20.5, 21.0])
    builder = NetworkBuilder()
    builder.object_type("author", "researchers").object_type("paper")
    builder.add_paired_relation(
        "write", "author", "paper", inverse="written_by"
    )
    builder.nodes(["a1", "a2"], "author").nodes(["p1"], "paper")
    builder.link_paired("a1", "p1", "write", weight=2.0)
    builder.attribute(title).attribute(temp)
    return builder.build()


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        original = make_network()
        restored = network_from_dict(network_to_dict(original))
        assert restored.num_nodes == original.num_nodes
        assert restored.node_ids == original.node_ids
        assert restored.type_of("a1") == "author"
        assert ("p1", "write", 2.0) in restored.out_neighbors("a1")
        assert ("a1", "written_by", 2.0) in restored.out_neighbors("p1")
        assert restored.schema.relation("write").inverse == "written_by"
        title = restored.text_attribute("title")
        assert title.bag_of("p1")["query"] == 2.0
        assert title.vocabulary == original.text_attribute("title").vocabulary
        temp = restored.numeric_attribute("temp")
        assert temp.values_of("a1") == (20.5, 21.0)

    def test_file_round_trip(self, tmp_path):
        original = make_network()
        path = tmp_path / "net.json"
        save_network(original, path)
        restored = load_network(path)
        assert restored.num_nodes == original.num_nodes
        assert ("p1", "write", 2.0) in restored.out_neighbors("a1")

    def test_payload_is_json_serializable(self):
        payload = network_to_dict(make_network())
        text = json.dumps(payload)
        assert "write" in text


class TestErrors:
    def test_bad_format_marker(self):
        with pytest.raises(SerializationError, match="unsupported format"):
            network_from_dict({"format": "other/1"})

    def test_non_dict_payload(self):
        with pytest.raises(SerializationError, match="must be a dict"):
            network_from_dict([1, 2, 3])

    def test_missing_section(self):
        payload = network_to_dict(make_network())
        del payload["nodes"]
        with pytest.raises(SerializationError, match="malformed"):
            network_from_dict(payload)

    def test_unknown_attribute_kind(self):
        payload = network_to_dict(make_network())
        payload["attributes"][0]["kind"] = "audio"
        with pytest.raises(SerializationError, match="unknown attribute kind"):
            network_from_dict(payload)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_network(path)

    def test_non_scalar_node_id_rejected(self):
        builder = NetworkBuilder()
        builder.object_type("t")
        builder.node(("tuple", "id"), "t")
        net = builder.build()
        with pytest.raises(SerializationError, match="JSON scalar"):
            network_to_dict(net)
