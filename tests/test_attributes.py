"""Tests for repro.hin.attributes."""

import numpy as np
import pytest

from repro.exceptions import AttributeSpecError
from repro.hin.attributes import (
    AttributeKind,
    AttributeSpec,
    NumericAttribute,
    TextAttribute,
)


class TestAttributeSpec:
    def test_valid(self):
        spec = AttributeSpec("title", AttributeKind.TEXT)
        assert spec.name == "title"
        assert spec.kind is AttributeKind.TEXT

    def test_empty_name_rejected(self):
        with pytest.raises(AttributeSpecError):
            AttributeSpec("", AttributeKind.TEXT)

    def test_bad_kind_rejected(self):
        with pytest.raises(AttributeSpecError):
            AttributeSpec("title", "text")


class TestTextAttribute:
    def test_tokens_accumulate(self):
        attr = TextAttribute("title")
        attr.add_tokens("p1", ["query", "optimization", "query"])
        attr.add_tokens("p1", ["query"])
        assert attr.term_count("p1", "query") == 3.0
        assert attr.term_count("p1", "optimization") == 1.0
        assert attr.observation_total("p1") == 4.0

    def test_vocabulary_grows_in_first_seen_order(self):
        attr = TextAttribute("title")
        attr.add_tokens("p1", ["b", "a", "b"])
        attr.add_tokens("p2", ["c", "a"])
        assert attr.vocabulary == ("b", "a", "c")
        assert attr.vocab_size == 3

    def test_add_counts(self):
        attr = TextAttribute("title")
        attr.add_counts("p1", {"query": 2.0, "join": 1.0})
        assert attr.term_count("p1", "query") == 2.0
        assert attr.bag_of("p1") == {"query": 2.0, "join": 1.0}

    def test_negative_count_rejected(self):
        attr = TextAttribute("title")
        with pytest.raises(AttributeSpecError, match="negative count"):
            attr.add_counts("p1", {"query": -1.0})

    def test_incompleteness_queries(self):
        attr = TextAttribute("title")
        attr.add_tokens("p1", ["query"])
        assert attr.has_observations("p1")
        assert not attr.has_observations("p2")
        assert attr.nodes_with_observations() == ("p1",)

    def test_zero_count_node_not_observed(self):
        attr = TextAttribute("title")
        attr.add_counts("p1", {"query": 0.0})
        assert not attr.has_observations("p1")
        assert attr.nodes_with_observations() == ()

    def test_missing_term_or_node_counts_zero(self):
        attr = TextAttribute("title")
        attr.add_tokens("p1", ["query"])
        assert attr.term_count("p1", "join") == 0.0
        assert attr.term_count("p9", "query") == 0.0

    def test_frozen_vocabulary_rejects_new_terms(self):
        attr = TextAttribute("title", frozen_vocabulary=["query", "join"])
        attr.add_tokens("p1", ["query"])
        with pytest.raises(AttributeSpecError, match="not in frozen"):
            attr.add_tokens("p1", ["sort"])

    def test_frozen_vocabulary_duplicate_rejected(self):
        with pytest.raises(AttributeSpecError, match="duplicate term"):
            TextAttribute("title", frozen_vocabulary=["a", "a"])

    def test_compile_shapes_and_counts(self):
        attr = TextAttribute("title")
        attr.add_tokens("p1", ["query", "join", "query"])
        attr.add_tokens("p3", ["sort"])
        node_index = {"p1": 0, "p2": 1, "p3": 2}
        compiled = attr.compile(node_index)
        assert compiled.node_indices.tolist() == [0, 2]
        assert compiled.counts.shape == (2, 3)
        dense = compiled.counts.toarray()
        vocab = list(compiled.vocabulary)
        assert dense[0, vocab.index("query")] == 2.0
        assert dense[0, vocab.index("join")] == 1.0
        assert dense[1, vocab.index("sort")] == 1.0
        assert compiled.total_observations == 4.0
        assert compiled.vocab_size == 3

    def test_compile_unknown_node_raises(self):
        attr = TextAttribute("title")
        attr.add_tokens("ghost", ["query"])
        with pytest.raises(AttributeSpecError, match="not in the network"):
            attr.compile({"p1": 0})

    def test_compile_empty_table(self):
        attr = TextAttribute("title")
        compiled = attr.compile({"p1": 0})
        assert compiled.node_indices.shape == (0,)
        assert compiled.counts.shape == (0, 0)

    def test_compile_matches_per_entry_loop(self):
        """The column-wise compile builds the same CSR as appending one
        (row, term, count) triplet per positive count, bag by bag."""
        from scipy import sparse

        rng = np.random.default_rng(3)
        terms = [f"t{i}" for i in range(9)]
        attr = TextAttribute("title")
        for i in range(40):
            counts = {
                terms[j]: float(rng.integers(0, 3))
                for j in rng.choice(9, size=int(rng.integers(0, 5)))
            }
            attr.add_counts(f"n{i}", counts)  # zero counts, empty bags
        node_index = {f"n{i}": 39 - i for i in range(40)}
        rows, cols, vals, indices = [], [], [], []
        vocabulary = attr.vocabulary
        for node in attr.nodes_with_observations():
            bag = attr.bag_of(node)
            if sum(bag.values()) <= 0:
                continue
            indices.append(node_index[node])
            for term, count in bag.items():
                if count > 0:
                    rows.append(len(indices) - 1)
                    cols.append(vocabulary.index(term))
                    vals.append(float(count))
        expected = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(indices), attr.vocab_size)
        )
        compiled = attr.compile(node_index)
        assert compiled.node_indices.tolist() == indices
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(compiled.counts, field), getattr(expected, field)
            )


class TestNumericAttribute:
    def test_values_accumulate(self):
        attr = NumericAttribute("temp")
        attr.add_value("s1", 21.5)
        attr.add_values("s1", [20.9, 22.0])
        assert attr.values_of("s1") == (21.5, 20.9, 22.0)
        assert attr.observation_total("s1") == 3

    def test_non_finite_rejected(self):
        attr = NumericAttribute("temp")
        with pytest.raises(AttributeSpecError, match="non-finite"):
            attr.add_value("s1", float("nan"))
        with pytest.raises(AttributeSpecError, match="non-finite"):
            attr.add_value("s1", float("inf"))

    def test_incompleteness_queries(self):
        attr = NumericAttribute("temp")
        attr.add_value("s1", 1.0)
        assert attr.has_observations("s1")
        assert not attr.has_observations("s2")
        assert attr.nodes_with_observations() == ("s1",)
        assert attr.values_of("missing") == ()

    def test_compile(self):
        attr = NumericAttribute("temp")
        attr.add_values("s1", [1.0, 2.0])
        attr.add_value("s3", 5.0)
        compiled = attr.compile({"s1": 0, "s2": 1, "s3": 2})
        assert compiled.node_indices.tolist() == [0, 2]
        assert compiled.values.tolist() == [1.0, 2.0, 5.0]
        # owners index into node_indices, not the network
        assert compiled.owners.tolist() == [0, 0, 1]
        np.testing.assert_array_equal(
            compiled.node_indices[compiled.owners], [0, 0, 2]
        )
        assert compiled.total_observations == 3

    def test_compile_unknown_node_raises(self):
        attr = NumericAttribute("temp")
        attr.add_value("ghost", 1.0)
        with pytest.raises(AttributeSpecError, match="not in the network"):
            attr.compile({"s1": 0})

    def test_compile_empty(self):
        attr = NumericAttribute("temp")
        compiled = attr.compile({"s1": 0})
        assert compiled.values.shape == (0,)
        assert compiled.total_observations == 0
