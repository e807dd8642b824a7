"""Tests for repro.hin.network."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import AttributeSpecError, NetworkError
from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.network import HeterogeneousNetwork
from repro.hin.schema import NetworkSchema


@pytest.fixture
def schema() -> NetworkSchema:
    s = NetworkSchema()
    s.add_object_type("author")
    s.add_object_type("conf")
    s.add_relation("publish_in", "author", "conf", inverse="published_by")
    s.add_relation("published_by", "conf", "author", inverse="publish_in")
    s.add_relation("coauthor", "author", "author")
    return s


@pytest.fixture
def network(schema) -> HeterogeneousNetwork:
    net = HeterogeneousNetwork(schema)
    net.add_node("alice", "author")
    net.add_node("bob", "author")
    net.add_node("SIGMOD", "conf")
    net.add_node("KDD", "conf")
    net.add_edge("alice", "SIGMOD", "publish_in", weight=3.0)
    net.add_edge("SIGMOD", "alice", "published_by", weight=3.0)
    net.add_edge("alice", "bob", "coauthor", weight=2.0)
    net.add_edge("bob", "alice", "coauthor", weight=2.0)
    return net


class TestNodes:
    def test_indices_are_insertion_order(self, network):
        assert network.index_of("alice") == 0
        assert network.index_of("bob") == 1
        assert network.index_of("SIGMOD") == 2
        assert network.node_at(3) == "KDD"

    def test_reinsert_same_type_is_noop(self, network):
        assert network.add_node("alice", "author") == 0
        assert network.num_nodes == 4

    def test_reinsert_different_type_raises(self, network):
        with pytest.raises(NetworkError, match="already exists"):
            network.add_node("alice", "conf")

    def test_unknown_type_raises(self, network):
        with pytest.raises(NetworkError, match="unknown object type"):
            network.add_node("x", "venue")

    def test_type_of(self, network):
        assert network.type_of("alice") == "author"
        assert network.type_of("KDD") == "conf"

    def test_unknown_node_raises(self, network):
        with pytest.raises(NetworkError, match="unknown node"):
            network.index_of("carol")

    def test_node_at_out_of_range(self, network):
        with pytest.raises(NetworkError, match="out of range"):
            network.node_at(99)

    def test_nodes_of_type(self, network):
        assert network.nodes_of_type("author") == ("alice", "bob")
        assert network.nodes_of_type("conf") == ("SIGMOD", "KDD")

    def test_indices_of_type(self, network):
        assert network.indices_of_type("conf") == [2, 3]

    def test_node_index_is_copy(self, network):
        mapping = network.node_index
        mapping["intruder"] = 99
        assert not network.has_node("intruder")


class TestEdges:
    def test_edge_weight(self, network):
        assert network.out_neighbors("alice", "publish_in") == [
            ("SIGMOD", "publish_in", 3.0)
        ]
        assert network.out_neighbors("bob", "publish_in") == []

    def test_weights_accumulate(self, network):
        network.add_edge("alice", "SIGMOD", "publish_in", weight=2.0)
        assert network.out_neighbors("alice", "publish_in") == [
            ("SIGMOD", "publish_in", 5.0)
        ]
        # accumulation merges parallel edges: count unchanged
        assert network.num_edges("publish_in") == 1

    def test_zero_weight_ignored(self, network):
        network.add_edge("bob", "KDD", "publish_in", weight=0.0)
        assert network.num_edges("publish_in") == 1

    def test_negative_weight_rejected(self, network):
        with pytest.raises(NetworkError, match="negative weight"):
            network.add_edge("bob", "KDD", "publish_in", weight=-1.0)

    def test_type_mismatch_source(self, network):
        with pytest.raises(NetworkError, match="expects source type"):
            network.add_edge("SIGMOD", "KDD", "publish_in")

    def test_type_mismatch_target(self, network):
        with pytest.raises(NetworkError, match="expects target type"):
            network.add_edge("alice", "bob", "publish_in")

    def test_unknown_relation(self, network):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError, match="unknown relation"):
            network.add_edge("alice", "SIGMOD", "cites")

    def test_num_edges_total(self, network):
        assert network.num_edges() == 4

    def test_edges_iteration_single_relation(self, network):
        edges = list(network.edges("coauthor"))
        assert len(edges) == 2
        assert {(e.source, e.target) for e in edges} == {
            ("alice", "bob"),
            ("bob", "alice"),
        }
        assert all(e.weight == 2.0 for e in edges)

    def test_edge_arrays(self, network):
        sources, targets, weights = network.edge_arrays("publish_in")
        assert sources == [0]
        assert targets == [2]
        assert weights == [3.0]

    def test_out_neighbors(self, network):
        out = network.out_neighbors("alice")
        assert ("SIGMOD", "publish_in", 3.0) in out
        assert ("bob", "coauthor", 2.0) in out
        assert len(out) == 2

    def test_out_neighbors_filtered(self, network):
        out = network.out_neighbors("alice", relation="coauthor")
        assert out == [("bob", "coauthor", 2.0)]


class TestAttributes:
    def test_attach_and_fetch(self, network):
        text = TextAttribute("title")
        text.add_tokens("alice", ["database", "query"])
        network.add_attribute(text)
        assert network.attribute_names == ("title",)
        assert network.text_attribute("title") is text

    def test_duplicate_attribute_rejected(self, network):
        network.add_attribute(TextAttribute("title"))
        with pytest.raises(AttributeSpecError, match="already attached"):
            network.add_attribute(TextAttribute("title"))

    def test_kind_mismatch_raises(self, network):
        network.add_attribute(TextAttribute("title"))
        network.add_attribute(NumericAttribute("temp"))
        with pytest.raises(AttributeSpecError, match="is not numeric"):
            network.numeric_attribute("title")
        with pytest.raises(AttributeSpecError, match="is not text"):
            network.text_attribute("temp")

    def test_unknown_attribute_raises(self, network):
        with pytest.raises(AttributeSpecError, match="unknown attribute"):
            network.attribute("nope")

    def test_has_attribute(self, network):
        assert not network.has_attribute("title")
        network.add_attribute(TextAttribute("title"))
        assert network.has_attribute("title")


class TestAddNodeColumns:
    """Bulk column insertion must match per-node add_node semantics."""

    def test_matches_per_node_insertion(self, schema):
        bulk = HeterogeneousNetwork(schema)
        bulk.add_node_columns(
            ["a", "b", "c"], ["author", "author", "conf"]
        )
        serial = HeterogeneousNetwork(schema)
        for node, typ in zip(
            ["a", "b", "c"], ["author", "author", "conf"]
        ):
            serial.add_node(node, typ)
        assert bulk.node_ids == serial.node_ids
        assert [bulk.type_of(n) for n in bulk.node_ids] == [
            serial.type_of(n) for n in serial.node_ids
        ]
        assert bulk.index_of("c") == 2

    def test_appends_after_existing_nodes(self, network):
        start = network.num_nodes
        network.add_node_columns(["carol", "VLDB"], ["author", "conf"])
        assert network.index_of("carol") == start
        assert network.index_of("VLDB") == start + 1

    def test_duplicate_reinsertion_keeps_add_node_semantics(
        self, network
    ):
        before = network.num_nodes
        # same-type re-insert is a no-op; order of the fresh node holds
        network.add_node_columns(
            ["alice", "dave"], ["author", "author"]
        )
        assert network.num_nodes == before + 1
        with pytest.raises(NetworkError, match="already exists"):
            network.add_node_columns(["SIGMOD"], ["author"])

    def test_unknown_type_and_ragged_columns_raise(self, schema):
        net = HeterogeneousNetwork(schema)
        with pytest.raises(NetworkError, match="unknown object type"):
            net.add_node_columns(["x"], ["nope"])
        with pytest.raises(NetworkError, match="differ in length"):
            net.add_node_columns(["x", "y"], ["author"])


def _random_payload(seed):
    """Node columns, edge columns per relation (with repeats and zero
    weights), text rows over a frozen vocabulary (with empty rows and a
    repeated node) and numeric observations."""
    rng = np.random.default_rng(seed)
    authors = [f"a{i}" for i in range(12)]
    confs = [f"c{i}" for i in range(5)]
    ids = authors + confs
    types = ["author"] * 12 + ["conf"] * 5
    order = rng.permutation(len(ids))
    ids = [ids[i] for i in order]
    types = [types[i] for i in order]
    author_idx = np.flatnonzero(np.array(types) == "author")
    conf_idx = np.flatnonzero(np.array(types) == "conf")
    edges = {}
    for relation, sources, targets in (
        ("publish_in", author_idx, conf_idx),
        ("published_by", conf_idx, author_idx),
        ("coauthor", author_idx, author_idx),
    ):
        size = 40
        weights = rng.integers(0, 4, size).astype(np.float64)
        edges[relation] = (
            rng.choice(sources, size),
            rng.choice(targets, size),
            weights,
        )
    vocabulary = tuple(f"t{i}" for i in range(7))
    text_nodes = [ids[i] for i in author_idx[:8]] + [ids[author_idx[0]]]
    counts = sparse.random(
        len(text_nodes), len(vocabulary), density=0.4, format="csr",
        random_state=seed,
    )
    counts.data = np.ceil(counts.data * 4)
    counts = sparse.csr_matrix(
        sparse.diags((np.arange(len(text_nodes)) % 4 != 1).astype(float))
        @ counts
    )
    counts.eliminate_zeros()
    numeric_nodes = [ids[i] for i in conf_idx]
    owners = rng.integers(0, len(numeric_nodes), 15)
    values = rng.normal(size=15)
    return ids, types, edges, vocabulary, text_nodes, counts, (
        numeric_nodes, values, owners,
    )


def _per_row_network(schema, payload):
    ids, types, edges, vocabulary, text_nodes, counts, numeric = payload
    net = HeterogeneousNetwork(schema)
    for node, typ in zip(ids, types):
        net.add_node(node, typ)
    for relation, (sources, targets, weights) in edges.items():
        for src, dst, weight in zip(sources, targets, weights):
            net.add_edge(
                net.node_at(int(src)), net.node_at(int(dst)), relation,
                float(weight),
            )
    text = TextAttribute("title", frozen_vocabulary=vocabulary)
    for row, node in enumerate(text_nodes):
        start, stop = counts.indptr[row], counts.indptr[row + 1]
        text.add_counts(node, {
            vocabulary[int(col)]: float(val)
            for col, val in zip(
                counts.indices[start:stop], counts.data[start:stop]
            )
        })
    net.add_attribute(text)
    numeric_nodes, values, owners = numeric
    rating = NumericAttribute("rating")
    for value, owner in zip(values, owners):
        rating.add_value(numeric_nodes[int(owner)], float(value))
    net.add_attribute(rating)
    return net


def _bulk_network(schema, payload):
    ids, types, edges, vocabulary, text_nodes, counts, numeric = payload
    net = HeterogeneousNetwork(schema)
    net.add_node_columns(ids, types)
    for relation, (sources, targets, weights) in edges.items():
        net.add_edge_arrays(relation, sources, targets, weights)
    text = TextAttribute("title", frozen_vocabulary=vocabulary)
    text.add_count_rows(text_nodes, counts)
    net.add_attribute(text)
    rating = NumericAttribute("rating")
    rating.add_value_rows(*numeric)
    net.add_attribute(rating)
    return net


def _assert_same_network(left, right):
    assert left.node_ids == right.node_ids
    assert list(left.node_types_view) == list(right.node_types_view)
    for relation in left.schema.relation_names:
        # insertion order and summed weights, exactly
        assert list(left.edges(relation)) == list(right.edges(relation))
    text_l, text_r = left.attribute("title"), right.attribute("title")
    assert text_l.vocabulary == text_r.vocabulary
    observed = text_l.nodes_with_observations()
    assert observed == text_r.nodes_with_observations()
    assert [list(text_l.bag_of(node).items()) for node in observed] == [
        list(text_r.bag_of(node).items()) for node in observed
    ]
    rating_l, rating_r = left.attribute("rating"), right.attribute("rating")
    assert list(rating_l._values.items()) == list(rating_r._values.items())


class TestBulkInserts:
    """Edge, text-row and numeric-row bulk inserts build exactly the
    network the per-row calls build, and reject the same inputs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_row_build(self, schema, seed):
        from repro.core.problem import compile_problem

        payload = _random_payload(seed)
        serial = _per_row_network(schema, payload)
        bulk = _bulk_network(schema, payload)
        _assert_same_network(bulk, serial)
        problems = [
            compile_problem(net, ["title", "rating"], 2)
            for net in (serial, bulk)
        ]
        for a, b in zip(*(p.matrices.matrices for p in problems)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
        text_a, rating_a = (m.compiled for m in problems[0].attribute_models)
        text_b, rating_b = (m.compiled for m in problems[1].attribute_models)
        assert np.array_equal(text_a.node_indices, text_b.node_indices)
        assert (text_a.counts != text_b.counts).nnz == 0
        for field in ("node_indices", "values", "owners"):
            assert np.array_equal(
                getattr(rating_a, field), getattr(rating_b, field)
            )

    def test_accumulates_onto_existing_links_in_row_order(self, network):
        serial = network.copy()
        for weight in (1.0, 0.5, 0.25):
            serial.add_edge("bob", "KDD", "publish_in", weight)
            serial.add_edge("alice", "SIGMOD", "publish_in", weight)
        bob, alice = network.index_of("bob"), network.index_of("alice")
        kdd, sigmod = network.index_of("KDD"), network.index_of("SIGMOD")
        network.add_edge_arrays(
            "publish_in",
            [bob, alice] * 3,
            [kdd, sigmod] * 3,
            [1.0, 1.0, 0.5, 0.5, 0.25, 0.25],
        )
        assert list(network.edges("publish_in")) == list(
            serial.edges("publish_in")
        )

    @pytest.mark.parametrize(
        "relation, source, target, weight",
        [
            ("publish_in", "alice", "SIGMOD", -1.0),  # negative weight
            ("publish_in", "SIGMOD", "KDD", 1.0),  # wrong source type
            ("publish_in", "alice", "bob", 1.0),  # wrong target type
            ("no_such_relation", "alice", "SIGMOD", 1.0),
        ],
    )
    def test_edge_rejections_match_per_row(
        self, network, relation, source, target, weight
    ):
        with pytest.raises(Exception) as serial:
            network.copy().add_edge(source, target, relation, weight)
        before = list(network.edges())
        with pytest.raises(serial.type):
            network.add_edge_arrays(
                relation,
                [network.index_of("bob"), network.index_of(source)],
                [network.index_of("KDD"), network.index_of(target)],
                [1.0, weight],
            )
        assert list(network.edges()) == before  # all or nothing

    def test_edge_index_out_of_range(self, network):
        with pytest.raises(NetworkError):
            network.add_edge(network.node_at(99), "KDD", "publish_in")
        with pytest.raises(NetworkError):
            network.add_edge_arrays("publish_in", [99], [3], [1.0])
        with pytest.raises(NetworkError):
            network.add_edge_arrays("publish_in", [0, 1], [3], [1.0])

    def test_text_row_rejections_match_per_row(self):
        vocabulary = ("x", "y")
        serial = TextAttribute("t", frozen_vocabulary=vocabulary)
        bulk = TextAttribute("t", frozen_vocabulary=vocabulary)
        with pytest.raises(AttributeSpecError):
            serial.add_counts("n0", {"x": -1.0})
        with pytest.raises(AttributeSpecError):
            bulk.add_count_rows(["n0"], sparse.csr_matrix([[-1.0, 0.0]]))
        with pytest.raises(AttributeSpecError):
            serial.add_counts("n0", {"z": 1.0})  # outside the vocabulary
        with pytest.raises(AttributeSpecError):
            bulk.add_count_rows(["n0"], sparse.csr_matrix([[0.0, 0.0, 1.0]]))
        with pytest.raises(AttributeSpecError):
            bulk.add_count_rows(["n0", "n1"], sparse.csr_matrix([[1.0, 0.0]]))
        assert bulk.nodes_with_observations() == ()

    def test_numeric_row_rejections_match_per_row(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(AttributeSpecError):
                NumericAttribute("r").add_value("n0", bad)
            bulk = NumericAttribute("r")
            with pytest.raises(AttributeSpecError):
                bulk.add_value_rows(["n0", "n1"], [1.0, bad], [1, 0])
            assert bulk.nodes_with_observations() == ()
        with pytest.raises(AttributeSpecError):
            NumericAttribute("r").add_value_rows(["n0"], [1.0], [1])

    def test_attribute_copies_are_independent(self):
        text = TextAttribute("t")
        text.add_tokens("n0", ["x", "y", "x"])
        text.add_counts("n1", {"y": 2.5})
        clone = text.copy()
        observed = text.nodes_with_observations()
        assert clone.nodes_with_observations() == observed
        assert [list(clone.bag_of(node).items()) for node in observed] == [
            list(text.bag_of(node).items()) for node in observed
        ]
        assert clone.vocabulary == text.vocabulary
        clone.add_tokens("n0", ["z"])
        assert text.bag_of("n0") == {"x": 2.0, "y": 1.0}
        assert "z" not in text.vocabulary
        frozen = TextAttribute("f", frozen_vocabulary=("x",)).copy()
        with pytest.raises(AttributeSpecError):
            frozen.add_tokens("n0", ["y"])
        clone.freeze()
        with pytest.raises(AttributeSpecError):
            clone.add_counts("n1", {"w": 1.0})
        text.add_counts("n1", {"w": 1.0})  # the source stays open
        rating = NumericAttribute("r")
        rating.add_values("n0", [1.0, 2.0])
        copied = rating.copy()
        copied.add_value("n0", 3.0)
        assert rating.values_of("n0") == (1.0, 2.0)
        assert copied.values_of("n0") == (1.0, 2.0, 3.0)
