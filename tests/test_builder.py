"""Tests for repro.hin.builder."""

import pytest

from repro.exceptions import SchemaError
from repro.hin.attributes import TextAttribute
from repro.hin.builder import NetworkBuilder


class TestNetworkBuilder:
    def test_fluent_chain_builds_network(self):
        net = (
            NetworkBuilder()
            .object_type("user")
            .relation("friend", "user", "user")
            .node("u1", "user")
            .node("u2", "user")
            .link("u1", "u2", "friend")
            .build()
        )
        assert net.num_nodes == 2
        assert ("u2", "friend", 1.0) in net.out_neighbors("u1")

    def test_paired_relation_declares_both_directions(self):
        builder = NetworkBuilder()
        builder.object_type("a").object_type("p")
        builder.add_paired_relation("write", "a", "p", inverse="written_by")
        net = builder.node("x", "a").node("y", "p").build()
        assert net.schema.relation("write").inverse == "written_by"
        assert net.schema.relation("written_by").inverse == "write"
        rel = net.schema.relation("written_by")
        assert (rel.source, rel.target) == ("p", "a")

    def test_link_paired_inserts_both_edges(self):
        builder = NetworkBuilder()
        builder.object_type("a").object_type("p")
        builder.add_paired_relation("write", "a", "p", inverse="written_by")
        builder.node("x", "a").node("y", "p")
        builder.link_paired("x", "y", "write", weight=2.5)
        net = builder.build()
        assert ("y", "write", 2.5) in net.out_neighbors("x")
        assert ("x", "written_by", 2.5) in net.out_neighbors("y")

    def test_link_paired_on_unpaired_relation_raises(self):
        builder = NetworkBuilder()
        builder.object_type("u")
        builder.relation("friend", "u", "u")
        builder.node("u1", "u").node("u2", "u")
        with pytest.raises(KeyError, match="add_paired_relation"):
            builder.link_paired("u1", "u2", "friend")

    def test_build_checks_inverse_consistency(self):
        builder = NetworkBuilder()
        builder.object_type("a").object_type("p")
        builder.relation("write", "a", "p", inverse="missing")
        with pytest.raises(SchemaError, match="undeclared inverse"):
            builder.build()

    def test_nodes_bulk_and_attribute(self):
        attr = TextAttribute("title")
        attr.add_tokens("p1", ["db"])
        net = (
            NetworkBuilder()
            .object_type("p")
            .nodes(["p1", "p2"], "p")
            .attribute(attr)
            .build()
        )
        assert net.num_nodes == 2
        assert net.text_attribute("title").has_observations("p1")

    def test_self_relation(self):
        net = (
            NetworkBuilder()
            .object_type("sensor")
            .relation("near", "sensor", "sensor")
            .nodes(["s1", "s2", "s3"], "sensor")
            .link("s1", "s2", "near")
            .link("s2", "s3", "near")
            .build()
        )
        assert net.num_edges("near") == 2
