"""The columnar link and bag stores against dict oracles.

:class:`~repro.hin.network.HeterogeneousNetwork` keeps each relation's
links as append-only columns summed on read.  These property tests run
random insert sequences on a network and on :class:`DictLinks`, the
``{(source, target): weight}`` dict per relation the columns replace,
and require both to agree on every read: order, summed weights, counts
and neighbours -- and on every rejection, which must insert nothing.
Text bags get the same treatment against :class:`DictBags`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.exceptions import ReproError
from repro.hin.attributes import TextAttribute
from repro.hin.builder import NetworkBuilder
from repro.hin.network import Edge, HeterogeneousNetwork
from repro.hin.schema import NetworkSchema

NODES = (("a0", "a"), ("a1", "a"), ("a2", "a"), ("b0", "b"), ("b1", "b"))
RELATIONS = (("ab", "a", "b"), ("ba", "b", "a"), ("aa", "a", "a"))
IDS = [node for node, _ in NODES] + ["ghost"]
NAMES = [name for name, _, _ in RELATIONS] + ["nope"]
# zero, negative, and weights whose sums depend on the addition order
WEIGHTS = st.sampled_from([0.0, -1.0, 0.1, 0.2, 0.3, 1.0, 2.5, 1e-17])


def make_schema() -> NetworkSchema:
    schema = NetworkSchema()
    for object_type in ("a", "b"):
        schema.add_object_type(object_type)
    for name, source, target in RELATIONS:
        schema.add_relation(name, source, target)
    return schema


def make_network() -> HeterogeneousNetwork:
    network = HeterogeneousNetwork(make_schema())
    for node, object_type in NODES:
        network.add_node(node, object_type)
    return network


class DictLinks:
    """The oracle: one ``{(source, target): weight}`` dict per relation.

    A link-free network checks each link, so rejections carry the
    network's own error; accepted links accumulate in the dicts.
    """

    def __init__(self) -> None:
        self.checker = make_network()
        self.links = {name: {} for name, _, _ in RELATIONS}

    def copy(self) -> DictLinks:
        clone = DictLinks()
        clone.links = {
            name: dict(bucket) for name, bucket in self.links.items()
        }
        return clone

    def add_edge(self, source, target, relation, weight) -> None:
        self.checker.add_edge(source, target, relation, weight)
        if weight:
            index = self.checker.index_of
            key = (index(source), index(target))
            bucket = self.links[relation]
            bucket[key] = bucket.get(key, 0.0) + float(weight)

    def add_all(self, links) -> None:
        """``links`` as ``[(source, target, relation, weight)]``, all or
        nothing: the first bad link raises and nothing is inserted."""
        trial = self.copy()
        for link in links:
            trial.add_edge(*link)
        self.links = trial.links


def assert_same(network: HeterogeneousNetwork, oracle: DictLinks) -> None:
    ids = network.node_ids
    everything = []
    for name, bucket in oracle.links.items():
        rows = [(src, dst, weight) for (src, dst), weight in bucket.items()]
        sources, targets, weights = network.edge_arrays(name)
        assert list(
            zip(sources.tolist(), targets.tolist(), weights.tolist())
        ) == rows
        records = [Edge(ids[src], ids[dst], name, w) for src, dst, w in rows]
        assert list(network.edges(name)) == records
        everything += records
        assert network.num_edges(name) == len(rows)
    assert list(network.edges()) == everything
    assert network.num_edges() == len(everything)
    for node in ids:
        for relation in (None, *oracle.links):
            assert network.out_neighbors(node, relation) == [
                (edge.target, edge.relation, edge.weight)
                for edge in everything
                if edge.source == node and relation in (None, edge.relation)
            ]


def attempt(action, *args):
    """``action(*args)``'s error as ``(type, message)``, or ``None``."""
    try:
        action(*args)
    except (ReproError, TypeError) as exc:
        return type(exc), str(exc)
    return None


TYPED = {
    object_type: [node for node, typ in NODES if typ == object_type]
    for object_type in ("a", "b")
}
# mostly well-typed links, so that repeats and sums are common
link = st.one_of(
    st.sampled_from(RELATIONS).flatmap(
        lambda rel: st.tuples(
            st.sampled_from(TYPED[rel[1]]),
            st.sampled_from(TYPED[rel[2]]),
            st.just(rel[0]),
            st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.5, 1e-17]),
        )
    ),
    st.tuples(
        st.sampled_from(IDS), st.sampled_from(IDS), st.sampled_from(NAMES),
        WEIGHTS,
    ),
)
index_row = st.tuples(
    st.integers(-1, len(NODES)), st.integers(-1, len(NODES)), WEIGHTS
)
# each operation names the network it acts on: copies stay in play
operation = st.tuples(st.integers(0, 3), st.one_of(
    st.tuples(st.just("edge"), link),
    st.tuples(
        st.just("arrays"),
        st.sampled_from(NAMES),
        st.lists(index_row, max_size=6),
    ),
    st.tuples(st.just("columns"), st.lists(link, max_size=8)),
    st.tuples(st.just("copy")),
    st.tuples(st.just("check")),
))


def id_columns(links) -> dict[str, tuple[list, list, list]]:
    columns: dict[str, tuple[list, list, list]] = {}
    for source, target, relation, weight in links:
        queue = columns.setdefault(relation, ([], [], []))
        queue[0].append(source)
        queue[1].append(target)
        queue[2].append(weight)
    return columns


def in_relation_order(links):
    """Links grouped by relation in first-use order (the order bulk
    inserts check them in)."""
    return [
        (source, target, relation, weight)
        for relation, columns in id_columns(links).items()
        for source, target, weight in zip(*columns)
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, max_size=30))
def test_network_matches_dict_oracle(operations):
    pairs = [(make_network(), DictLinks())]
    for which, (op, *args) in operations:
        network, oracle = pairs[which % len(pairs)]
        if op == "edge":
            assert attempt(network.add_edge, *args[0]) == attempt(
                oracle.add_edge, *args[0]
            )
        elif op == "arrays":
            relation, rows = args
            links = [
                (IDS[src] if 0 <= src < len(NODES) else "ghost",
                 IDS[dst] if 0 <= dst < len(NODES) else "ghost",
                 relation, weight)
                for src, dst, weight in rows
            ]
            rejected = attempt(
                network.add_edge_arrays,
                relation,
                [row[0] for row in rows],
                [row[1] for row in rows],
                [row[2] for row in rows],
            )
            if relation == "nope":
                assert rejected is not None
                continue
            expected = attempt(oracle.add_all, links)
            # the bulk check words its own message; the outcome matches
            assert (rejected is None) == (expected is None)
        elif op == "columns":
            assert attempt(network.add_edge_columns, id_columns(args[0])) == (
                attempt(oracle.add_all, in_relation_order(args[0]))
            )
        elif op == "copy":
            pairs.append((network.copy(), oracle.copy()))
        else:
            assert_same(network, oracle)
    for network, oracle in pairs:  # copies are independent
        assert_same(network, oracle)


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(st.sampled_from(IDS), st.sampled_from(["a", "b", "c"])),
        max_size=8,
    ),
    links=st.lists(link, max_size=12),
    paired=st.lists(
        st.tuples(
            st.sampled_from(IDS), st.sampled_from(IDS), st.just("ab"), WEIGHTS
        ),
        max_size=4,
    ),
)
def test_builder_matches_one_by_one_build(nodes, links, paired):
    builder = NetworkBuilder()
    builder.object_type("a").object_type("b")
    builder.add_paired_relation("ab", "a", "b", inverse="ba")
    builder.relation("aa", "a", "a")
    for node, object_type in nodes:
        builder.node(node, object_type)
    queued = []
    for source, target, relation, weight in links:
        builder.link(source, target, relation, weight)
        queued.append((source, target, relation, weight))
    for source, target, relation, weight in paired:
        builder.link_paired(source, target, relation, weight)
        queued.append((source, target, "ab", weight))
        queued.append((target, source, "ba", weight))

    schema = NetworkSchema()
    schema.add_object_type("a")
    schema.add_object_type("b")
    schema.add_relation("ab", "a", "b", inverse="ba")
    schema.add_relation("ba", "b", "a", inverse="ab")
    schema.add_relation("aa", "a", "a")
    reference = HeterogeneousNetwork(schema)
    oracle = DictLinks()

    def one_by_one():
        for node, object_type in nodes:
            reference.add_node(node, object_type)
        oracle.checker = reference.copy()
        for queued_link in in_relation_order(queued):
            oracle.add_edge(*queued_link)

    expected = attempt(one_by_one)
    built = None

    def build():
        nonlocal built
        built = builder.build()

    assert attempt(build) == expected
    if expected is None:
        assert built.node_ids == reference.node_ids
        assert list(built.node_types_view) == list(reference.node_types_view)
        assert_same_links(built, oracle)


def assert_same_links(network, oracle) -> None:
    ids = network.node_ids
    for name, bucket in oracle.links.items():
        assert list(network.edges(name)) == [
            Edge(ids[src], ids[dst], name, weight)
            for (src, dst), weight in bucket.items()
        ]


def test_bulk_rejection_inserts_nothing():
    network = make_network()
    network.add_edge("a0", "b0", "ab", 1.0)
    before = list(network.edges())
    with pytest.raises(ReproError) as excinfo:
        network.add_edge_columns(
            {"ab": (["a1", "a2"], ["b1", "a0"], [1.0, 1.0])}
        )
    with pytest.raises(ReproError) as serial:
        network.copy().add_edge("a2", "a0", "ab", 1.0)
    assert str(excinfo.value) == str(serial.value)
    assert list(network.edges()) == before


# ----------------------------------------------------------------------
# text bags: the same log, keyed (node row, term id)
# ----------------------------------------------------------------------
class DictBags:
    """The oracle: one ``{term id: count}`` dict per node, terms and
    nodes in first-seen order."""

    def __init__(self, vocabulary) -> None:
        self.vocabulary = list(vocabulary)
        self.bags: dict[object, dict[int, float]] = {}

    def add(self, node, counts) -> None:
        bag = self.bags.setdefault(node, {})
        for term, count in counts:
            index = self.vocabulary.index(term)
            bag[index] = bag.get(index, 0) + count

    def compile(self, node_index):
        indices, rows, cols, values = [], [], [], []
        for node, bag in self.bags.items():
            if sum(bag.values()) <= 0:
                continue
            indices.append(node_index[node])
            for term, count in bag.items():
                if count > 0:
                    rows.append(len(indices) - 1)
                    cols.append(term)
                    values.append(float(count))
        return indices, sparse.csr_matrix(
            (values, (rows, cols)),
            shape=(len(indices), len(self.vocabulary)),
        )


TERMS = ["x", "y", "z", "w"]
BAG_NODES = ["n0", "n1", "n2", "n3"]
counts = st.lists(
    st.tuples(
        st.sampled_from(TERMS), st.sampled_from([0.0, 0.1, 0.2, 1.0, 3.0])
    ),
    max_size=4,
)
bag_operation = st.one_of(
    st.tuples(st.just("tokens"), st.sampled_from(BAG_NODES),
              st.lists(st.sampled_from(TERMS), max_size=5)),
    st.tuples(st.just("counts"), st.sampled_from(BAG_NODES), counts),
    st.tuples(st.just("rows"), st.lists(
        st.tuples(st.sampled_from(BAG_NODES), counts), max_size=3
    )),
    st.tuples(st.just("copy")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(bag_operation, max_size=20))
def test_text_bags_match_dict_oracle(operations):
    text, oracle = TextAttribute("t", frozen_vocabulary=TERMS), DictBags(TERMS)
    for op, *args in operations:
        if op == "tokens":
            text.add_tokens(*args)
            oracle.add(args[0], [(term, 1) for term in args[1]])
        elif op == "counts":
            node, pairs = args
            merged = {}  # a mapping holds each term once
            for term, count in pairs:
                merged[term] = count
            text.add_counts(node, merged)
            oracle.add(node, merged.items())
        elif op == "rows":
            entries = args[0]
            matrix = sparse.lil_matrix((len(entries), len(TERMS)))
            for row, (_, pairs) in enumerate(entries):
                for term, count in pairs:
                    matrix[row, TERMS.index(term)] = count
            matrix = matrix.tocsr()
            text.add_count_rows([node for node, _ in entries], matrix)
            for row, (node, _) in enumerate(entries):
                start, stop = matrix.indptr[row], matrix.indptr[row + 1]
                oracle.add(node, [
                    (TERMS[col], value) for col, value in zip(
                        matrix.indices[start:stop], matrix.data[start:stop]
                    )
                ])
        else:
            text = text.copy()
    observed = tuple(
        node for node, bag in oracle.bags.items() if sum(bag.values()) > 0
    )
    assert text.nodes_with_observations() == observed
    for node in BAG_NODES:
        bag = oracle.bags.get(node, {})
        assert list(text.bag_of(node).items()) == [
            (TERMS[index], float(count)) for index, count in bag.items()
            if count > 0
        ]
        assert text.observation_total(node) == float(sum(bag.values()))
    node_index = {node: 10 - i for i, node in enumerate(BAG_NODES)}
    compiled = text.compile(node_index)
    indices, expected = oracle.compile(node_index)
    assert compiled.node_indices.tolist() == indices
    for field in ("data", "indices", "indptr"):
        got, want = getattr(compiled.counts, field), getattr(expected, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
