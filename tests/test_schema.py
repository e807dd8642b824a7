"""Tests for repro.hin.schema."""

import pytest

from repro.exceptions import SchemaError
from repro.hin.schema import NetworkSchema, ObjectType, RelationType


def make_bibliographic_schema() -> NetworkSchema:
    schema = NetworkSchema()
    schema.add_object_type("author")
    schema.add_object_type("paper")
    schema.add_object_type("venue")
    schema.add_relation("write", "author", "paper", inverse="written_by")
    schema.add_relation("written_by", "paper", "author", inverse="write")
    schema.add_relation("publish", "venue", "paper", inverse="published_by")
    schema.add_relation("published_by", "paper", "venue", inverse="publish")
    return schema


class TestObjectType:
    def test_holds_name_and_description(self):
        obj = ObjectType("author", "a researcher")
        assert obj.name == "author"
        assert obj.description == "a researcher"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            ObjectType("")

    def test_is_hashable_and_frozen(self):
        obj = ObjectType("author")
        assert hash(obj) == hash(ObjectType("author"))
        with pytest.raises(AttributeError):
            obj.name = "other"


class TestRelationType:
    def test_holds_endpoints(self):
        rel = RelationType("write", "author", "paper")
        assert rel.source == "author"
        assert rel.target == "paper"
        assert rel.inverse is None

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationType("", "a", "b")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(SchemaError):
            RelationType("write", "", "paper")
        with pytest.raises(SchemaError):
            RelationType("write", "author", "")


class TestNetworkSchema:
    def test_declaration_order_preserved(self):
        schema = make_bibliographic_schema()
        assert tuple(t.name for t in schema.object_types) == (
            "author",
            "paper",
            "venue",
        )
        assert schema.relation_names == (
            "write",
            "written_by",
            "publish",
            "published_by",
        )

    def test_duplicate_object_type_rejected(self):
        schema = NetworkSchema()
        schema.add_object_type("author")
        with pytest.raises(SchemaError):
            schema.add_object_type("author")

    def test_duplicate_relation_rejected(self):
        schema = make_bibliographic_schema()
        with pytest.raises(SchemaError):
            schema.add_relation("write", "author", "paper")

    def test_relation_with_undeclared_type_rejected(self):
        schema = NetworkSchema()
        schema.add_object_type("author")
        with pytest.raises(SchemaError):
            schema.add_relation("write", "author", "paper")

    def test_lookup_unknown_raises(self):
        schema = make_bibliographic_schema()
        with pytest.raises(SchemaError):
            schema.object_type("nope")
        with pytest.raises(SchemaError):
            schema.relation("nope")

    def test_inverse_of(self):
        schema = make_bibliographic_schema()
        assert schema.relation("write").inverse == "written_by"
        assert schema.relation("written_by").inverse == "write"

    def test_has_helpers(self):
        schema = make_bibliographic_schema()
        assert schema.has_object_type("author")
        assert not schema.has_object_type("blog")


class TestInverseConsistency:
    def test_consistent_schema_passes(self):
        schema = make_bibliographic_schema()
        schema.check_inverse_consistency()  # should not raise

    def test_undeclared_inverse_fails(self):
        schema = NetworkSchema()
        schema.add_object_type("a")
        schema.add_object_type("b")
        schema.add_relation("r", "a", "b", inverse="r_inv")
        with pytest.raises(SchemaError, match="undeclared inverse"):
            schema.check_inverse_consistency()

    def test_non_mutual_inverse_fails(self):
        schema = NetworkSchema()
        schema.add_object_type("a")
        schema.add_object_type("b")
        schema.add_relation("r", "a", "b", inverse="r_inv")
        schema.add_relation("r_inv", "b", "a", inverse="other")
        schema.add_relation("other", "a", "b")
        with pytest.raises(SchemaError, match="declares inverse"):
            schema.check_inverse_consistency()

    def test_type_mismatched_inverse_fails(self):
        schema = NetworkSchema()
        schema.add_object_type("a")
        schema.add_object_type("b")
        schema.add_object_type("c")
        schema.add_relation("r", "a", "b", inverse="r_inv")
        schema.add_relation("r_inv", "c", "a", inverse="r")
        with pytest.raises(SchemaError, match="do not swap"):
            schema.check_inverse_consistency()

    def test_relation_without_inverse_is_fine(self):
        schema = NetworkSchema()
        schema.add_object_type("user")
        schema.add_relation("friend", "user", "user")
        schema.check_inverse_consistency()  # should not raise
