"""Property tests for columnar fold-in batches and the frame codec.

* The fused fold-in link operator is pinned bit for bit to the
  per-relation scipy assembly it replaced (kept here as the oracle):
  one canonical CSR per relation over the ``(m, n + m)`` new rows,
  split into base and in-batch columns, accumulated into their union
  pattern in relation order by ``PropagationOperator``.
* A :class:`QueryBatch` survives the frame codec unchanged, whole, as
  a sub-batch with scattered positions, and as a lone query.
* ``decode_payload`` turns every malformed payload -- truncated, bad
  dtypes, bad shapes, random bytes -- into a ``TransportError``, and a
  worker that reads such a frame answers with a typed error and keeps
  serving.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.kernels import PropagationOperator
from repro.serving import ShardedEngine
from repro.serving.foldin import (
    QueryBatch,
    compile_queries,
    compile_query,
    fused_link_operator,
)
from repro.serving.transport import (
    TransportError,
    decode_batch,
    decode_payload,
    encode_batch,
    encode_frame,
    recv_message,
)


# ----------------------------------------------------------------------
# the fused link operator against the per-relation scipy oracle
# ----------------------------------------------------------------------
def per_relation_reference(sources, relations, targets, weights, gamma, m, n):
    """The historical assembly: per relation a COO -> CSR of the new
    rows over ``n + m`` columns (duplicates summed), sliced into base
    and in-batch column blocks, each fused by PropagationOperator."""
    base_blocks, batch_blocks = [], []
    for r in range(len(gamma)):
        mine = relations == r
        new_rows = sparse.csr_matrix(
            (weights[mine], (sources[mine], targets[mine])),
            shape=(m, n + m),
        )
        base_blocks.append(new_rows[:, :n].tocsr())
        batch_blocks.append(new_rows[:, n:].tocsr())
    base = PropagationOperator(base_blocks, shape=(m, n)).combined(gamma)
    batch = PropagationOperator(batch_blocks, shape=(m, m)).combined(gamma)
    return base, batch


def fused(sources, relations, targets, weights, gamma, m, n):
    internal = targets >= n
    external = ~internal
    base = fused_link_operator(
        sources[external], relations[external], targets[external],
        weights[external], gamma, m,
    )
    batch = fused_link_operator(
        sources[internal], relations[internal], targets[internal] - n,
        weights[internal], gamma, m,
    )
    return base, batch


def assert_same_csr(got, want):
    """``got`` is the fused ``(indptr, columns, data)``; ``want`` the
    oracle's CSR."""
    indptr, columns, data = got
    # the shape: one indptr slot per row, every column inside the oracle's
    assert indptr.size == want.shape[0] + 1
    assert not columns.size or 0 <= columns.min() <= columns.max() < want.shape[1]
    assert np.array_equal(indptr, want.indptr)
    assert np.array_equal(columns, want.indices)
    assert data.dtype == want.data.dtype == np.float64
    # bit for bit: equal values are not enough (-0.0, rounding)
    assert np.array_equal(data.view(np.uint64), want.data.view(np.uint64))


WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0, 0.1, 1e16, 7.25])


@st.composite
def link_triplets(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 4))
    gamma = np.asarray(
        draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5, 1e-3]), min_size=r, max_size=r))
    )
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1),
                st.integers(0, r - 1),
                st.integers(0, n + m - 1),
                WEIGHTS,
            ),
            max_size=40,
        )
    )
    # scipy sorts each CSR row with an unstable std::sort, which is
    # insertion-stable only up to 16 stored entries: beyond that the
    # oracle's own duplicate-summation order is unspecified, so the
    # oracle is only defined for rows of at most 16 links per relation
    per_row = {}
    for source, relation, _, _ in entries:
        per_row[source, relation] = per_row.get((source, relation), 0) + 1
    assume(all(count <= 16 for count in per_row.values()))
    columns = [np.asarray(c) for c in zip(*entries)] if entries else [
        np.zeros(0, dtype=np.int64)] * 3 + [np.zeros(0)]
    sources, relations, targets, weights = columns
    return (
        sources.astype(np.int64),
        relations.astype(np.int64),
        targets.astype(np.int64),
        weights.astype(np.float64),
        gamma,
        m,
        n,
    )


class TestFusedLinkOperator:
    @settings(max_examples=300, deadline=None)
    @given(link_triplets())
    def test_matches_per_relation_assembly(self, case):
        got = fused(*case)
        want = per_relation_reference(*case)
        for g, w in zip(got, want):
            assert_same_csr(g, w)

    def test_three_duplicates_sum_in_input_order(self):
        # (1e16 + 1) + 1 != 1e16 + (1 + 1): the order is observable
        sources = np.zeros(4, dtype=np.int64)
        relations = np.asarray([1, 0, 1, 1])
        targets = np.asarray([2, 2, 2, 2])
        weights = np.asarray([1e16, 5.0, 1.0, 1.0])
        gamma = np.asarray([0.5, 1.0])
        case = (sources, relations, targets, weights, gamma, 1, 3)
        got, want = fused(*case)[0], per_relation_reference(*case)[0]
        assert_same_csr(got, want)
        assert got[2][0] == 0.5 * 5.0 + 1e16

    def test_zero_gamma_keeps_the_cell(self):
        case = (
            np.asarray([0, 1]), np.asarray([0, 1]), np.asarray([0, 0]),
            np.asarray([2.0, 1e308]), np.asarray([0.0, 1.0]), 2, 1,
        )
        for got, want in zip(fused(*case), per_relation_reference(*case)):
            assert_same_csr(got, want)
        assert fused(*case)[0][2].size == 2

    def test_in_batch_links_and_empty_relations(self):
        case = (
            np.asarray([0, 0, 1, 2]), np.asarray([2, 2, 0, 2]),
            np.asarray([4, 1, 3, 3]), np.asarray([1.0, 2.0, 0.0, 4.0]),
            np.asarray([1.0, 3.0, 0.5]), 3, 2,
        )
        for got, want in zip(fused(*case), per_relation_reference(*case)):
            assert_same_csr(got, want)


# ----------------------------------------------------------------------
# QueryBatch through the frame codec
# ----------------------------------------------------------------------
NAMES = st.sampled_from(["user", "blog", "book", "tt", "x y", "é"])
NODE_IDS = st.one_of(
    st.text(max_size=6),
    st.integers(-5, 10**6),
    st.tuples(st.text(max_size=3), st.integers(0, 9)),
)
FLOATS = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def query_mappings(draw):
    query = {"object_type": draw(NAMES)}
    if draw(st.booleans()):
        query["links"] = draw(
            st.lists(
                st.one_of(
                    st.tuples(NAMES, NODE_IDS),
                    st.tuples(NAMES, NODE_IDS, FLOATS),
                ),
                max_size=6,
            )
        )
    if draw(st.booleans()):
        query["text"] = draw(
            st.dictionaries(
                NAMES,
                st.one_of(
                    st.lists(st.text(max_size=4), max_size=5),
                    st.dictionaries(st.text(max_size=4), FLOATS, max_size=4),
                ),
                max_size=2,
            )
        )
    if draw(st.booleans()):
        query["numeric"] = draw(
            st.dictionaries(
                NAMES,
                st.lists(st.floats(allow_nan=False, width=64), max_size=4),
                max_size=2,
            )
        )
    return query


def round_trip(batch: QueryBatch) -> QueryBatch:
    meta, planes = encode_batch(batch)
    header, arrays = decode_payload(encode_frame(meta, planes)[8:])
    return decode_batch(header, arrays)


def assert_same_batch(got: QueryBatch, want: QueryBatch):
    for name in QueryBatch.TABLES:
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.type_codes, want.type_codes)
    if want.positions is None:
        assert got.positions is None
    else:
        assert np.array_equal(got.positions, want.positions)
    for section in ("links", "numeric", "text"):
        g, w = getattr(got, section), getattr(want, section)
        assert np.array_equal(g.indptr, w.indptr)
        for a, b in zip(g.columns, w.columns):
            assert a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    assert [spec for spec in got] == [spec for spec in want]


class TestQueryBatchCodec:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(query_mappings(), max_size=8))
    def test_round_trip(self, queries):
        batch = compile_queries(queries)
        assert_same_batch(round_trip(batch), batch)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(query_mappings(), min_size=1, max_size=8), st.data())
    def test_sub_batch_round_trip(self, queries, data):
        batch = compile_queries(queries)
        rows = data.draw(
            st.lists(st.integers(0, len(queries) - 1), unique=True)
        )
        sub = batch.take(sorted(rows))
        assert_same_batch(round_trip(sub), sub)
        assert [int(p) for p in sub.positions] == sorted(rows)

    @settings(max_examples=60, deadline=None)
    @given(query_mappings())
    def test_lone_query_round_trip(self, query):
        batch = compile_query(
            query["object_type"],
            query.get("links", ()),
            query.get("text"),
            query.get("numeric"),
        )
        got = round_trip(batch)
        assert_same_batch(got, batch)
        assert got.label(0) == "query"

    @settings(max_examples=80, deadline=None)
    @given(st.lists(query_mappings(), min_size=1, max_size=8), st.data())
    def test_concat_of_chunks_is_the_batch(self, queries, data):
        cut = data.draw(st.integers(0, len(queries)))
        whole = compile_queries(queries)
        merged = QueryBatch.concat(
            [compile_queries(queries[:cut]), compile_queries(queries[cut:])]
        )
        assert [s for s in merged] == [s for s in whole]
        assert np.array_equal(merged.positions, whole.positions)


# ----------------------------------------------------------------------
# fuzzing the frame decoder
# ----------------------------------------------------------------------
def payload(header, blob=b""):
    head = json.dumps(header).encode("ascii")
    return struct.pack("!I", len(head)) + head + blob


GOOD = encode_frame(
    {"op": "score_batch", "x": [1, 2]},
    [np.arange(6, dtype=np.int64).reshape(2, 3), np.ones(4)],
)[8:]


class TestDecodeFuzz:
    def test_good_frame_decodes(self):
        header, arrays = decode_payload(GOOD)
        assert header == {"op": "score_batch", "x": [1, 2]}
        assert arrays[0].shape == (2, 3) and arrays[1].shape == (4,)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(GOOD) - 1))
    def test_truncated_frames(self, cut):
        with pytest.raises(TransportError):
            decode_payload(GOOD[:cut])

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(
                ["|O", "O", "<U4", "V8", "bogus", "<c16", ">f8", "|b1",
                 "<M8[s]", "f", "", "<f8 ", "int64"]
            ),
            st.integers(),
            st.none(),
            st.lists(st.integers(), max_size=2),
            st.text(max_size=6),
        ),
        st.binary(max_size=64),
    )
    def test_bad_dtypes(self, dtype, blob):
        assume(dtype not in ("<f8", "<i8", "<i4"))
        frame = payload({"op": "ping", "arrays": [{"dtype": dtype, "shape": [1]}]}, blob)
        with pytest.raises(TransportError):
            decode_payload(frame)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-(2**40), 2**40), max_size=3),
            st.lists(st.floats(allow_nan=True), min_size=1, max_size=2),
            st.lists(st.booleans(), min_size=1, max_size=2),
            st.integers(),
            st.text(max_size=4),
            st.none(),
            st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=2),
        ),
        st.binary(max_size=40),
    )
    @example(shape=[-1], blob=b"")
    @example(shape=[2, -2], blob=b"\0" * 32)
    @example(shape=[2**40, 2**40], blob=b"")
    @example(shape="", blob=b"\0" * 8)  # tuple("") would read as ()
    def test_bad_shapes(self, shape, blob):
        valid = (
            isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
            and 8 * int(np.prod(shape, dtype=object)) == len(blob)
        )
        assume(not valid)
        frame = payload({"op": "ping", "arrays": [{"dtype": "<f8", "shape": shape}]}, blob)
        with pytest.raises(TransportError):
            decode_payload(frame)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=80))
    def test_random_bytes(self, blob):
        try:
            header, _ = decode_payload(blob)
        except TransportError:
            return
        assert isinstance(header, dict)

    @pytest.mark.parametrize(
        "header",
        [[1, 2], "text", 3, {"arrays": {"dtype": "<f8"}}, {"arrays": [3]}],
    )
    def test_bad_headers(self, header):
        with pytest.raises(TransportError):
            decode_payload(payload(header))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(TransportError):
            decode_payload(GOOD + b"\0")

    # planes: 0 type codes, 1 positions, 2-5 links (indptr, relation,
    # target, weight), 6-8 numeric, 9-12 text (.., attribute, term, ..)
    @pytest.mark.parametrize(
        "plane, corrupt",
        [
            (0, lambda p: p - 5),  # negative type code
            (0, lambda p: p.astype(np.float64)),  # float code plane
            (1, lambda p: p[:-1]),  # one position short
            (3, lambda p: p - 3),  # negative relation code
            (4, lambda p: p + 100),  # target beyond its table
            (5, lambda p: p.astype(np.int64)),  # integer weights
            (7, lambda p: p - 100),  # attribute below the mentions
            (11, lambda p: np.full_like(p, -1)),  # counted term missing
        ],
    )
    def test_bad_code_planes(self, plane, corrupt):
        batch = compile_queries(
            [
                {
                    "object_type": "user",
                    "links": [("writes", "b1", 1.0), ("likes", "k2", 2.0)],
                    "text": {"text": ["a", "b"]},
                    "numeric": {"age": [3.0]},
                },
                {
                    "object_type": "blog",
                    "links": [("cites", "b1")],
                    "text": {"text": []},
                },
            ]
        )
        meta, planes = encode_batch(batch)
        assert_same_batch(decode_batch(meta, planes), batch)
        planes[plane] = corrupt(planes[plane])
        with pytest.raises(TransportError):
            decode_batch(meta, planes)


# ----------------------------------------------------------------------
# a worker survives frames it cannot parse
# ----------------------------------------------------------------------
def test_worker_answers_malformed_frames_and_keeps_serving(tmp_path):
    from repro import GenClus, GenClusConfig
    from repro.datagen.toy import political_forum_network

    result = GenClus(
        GenClusConfig(n_clusters=2, outer_iterations=3, seed=0, n_init=2)
    ).fit(political_forum_network(), attributes=["text"])
    result.save(tmp_path / "forum")
    query = dict(object_type="user", links=[("writes", "blog0_1", 1.0)])
    with ShardedEngine.load(
        tmp_path / "forum", n_shards=1, transport="process"
    ) as engine:
        want = engine.score_many([query])
        handle = engine.shards[0]
        # a dtype outside the protocol, sent as a well-framed message:
        # the client maps the worker's typed reply to TransportError
        with pytest.raises(TransportError, match="not part of the protocol"):
            handle._call("ping", arrays=[np.zeros(2, dtype=bool)])
        # a header that is not JSON at all, straight onto the socket
        with handle._lock:
            garbage = b"\xff\xfe not json"
            handle._sock.sendall(
                struct.pack("!Q", 4 + len(garbage))
                + struct.pack("!I", len(garbage))
                + garbage
            )
            reply, _ = recv_message(handle._sock)
        assert reply["error"]["type"] == "TransportError"
        assert handle.ping()["pong"] is True
        assert handle.is_alive()
        got = engine.score_many([query])
        assert np.array_equal(got[0], want[0])
