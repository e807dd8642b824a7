"""Link views and block plans each have one derivation.

A refit problem's link views are ``build_relation_matrices`` over its
materialized network, and every block plan is
``BlockPlan.for_shape(num_rows, K)`` -- whatever sequence of extends,
link deltas, evictions and promotes led to that network.  The tests
run under 5-row blocks: the 32-node forum base is not a whole number
of blocks, so a plan that kept the base's boundaries while the row
space grew (a short ``(30, 32)`` block) would show.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import GenClusConfig, InferenceEngine, ModelState, NewNode
from repro.core.kernels import BlockPlan
from repro.faults import FaultPlan, InjectedFault
from repro.hin.views import build_relation_matrices

FIT = dict(outer_iterations=5, seed=0, n_init=3)
PROMOTE = GenClusConfig(n_clusters=2, outer_iterations=3, seed=0)
FIVE_ROW_BLOCKS = pytest.mark.parametrize(
    "small_blocks", [5], indirect=True
)

TARGETS = {
    "writes": [f"blog{camp}_{i}" for camp in range(2) for i in range(4)],
    "likes": [f"book{camp}_{i}" for camp in range(2) for i in range(4)],
    "friend": [f"user{camp}_{i}" for camp in range(2) for i in range(8)],
}


CAMP_TEXT = (["climate", "green"], ["market", "tax"])


def new_user(name, camp, blog):
    return NewNode(
        name,
        "user",
        links=[
            ("writes", f"blog{camp}_{blog}", 1.0),
            ("likes", f"book{camp}_1", 2.0),
            ("likes", f"book{camp}_1", 0.5),  # a duplicate: weights sum
            ("friend", f"user{camp}_0", 0.0),  # zero weight: no link
        ],
        text={"text": CAMP_TEXT[camp]},
    )


FIRST = [new_user(f"first{i}", i % 2, i) for i in range(4)]
SECOND = [new_user(f"second{i}", (i + 1) % 2, i) for i in range(3)]


def execution(engine):
    info = engine.info()["execution"]
    return {key: info[key] for key in ("block_rows", "block_count", "num_rows")}


def shape_plan(engine):
    plan = BlockPlan.for_shape(engine.num_nodes, engine.state.n_clusters)
    return {
        "block_rows": plan.block_rows,
        "block_count": plan.num_blocks,
        "num_rows": plan.num_rows,
    }


@FIVE_ROW_BLOCKS
@pytest.mark.parametrize("source", ["state", "artifact"])
def test_execution_telemetry_does_not_depend_on_history(
    small_blocks, source
):
    result = small_blocks(**FIT)
    faults = FaultPlan().fail("promote.refit")
    if source == "state":
        engine = InferenceEngine.from_state(
            ModelState.from_result(result), faults=faults
        )
    else:  # artifact-backed: the training views hydrate on promote
        engine = InferenceEngine.from_result(result, faults=faults)
    engine.extend(FIRST[:3])
    before = execution(engine)
    assert before == shape_plan(engine)
    assert before["num_rows"] == 35
    with pytest.raises(InjectedFault):
        engine.promote(PROMOTE)
    assert engine.num_extension_nodes == 3
    assert execution(engine) == before


def assert_views_identical(got, want):
    assert got.relation_names == want.relation_names
    assert got.num_nodes == want.num_nodes
    for a, b in zip(got.matrices, want.matrices):
        for part in ("data", "indices", "indptr"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes(), part


LINK = st.tuples(
    st.sampled_from(sorted(TARGETS)),
    st.integers(0, 63),
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    st.booleans(),  # repeat the link verbatim
)
OPERATION = st.one_of(
    st.tuples(
        st.just("extend"),
        st.lists(
            st.tuples(
                st.lists(LINK, max_size=4),
                st.sampled_from([(), ("climate", "green"), ("tax", "oov")]),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    st.tuples(
        st.just("add_links"),
        st.tuples(st.integers(0, 63), st.lists(LINK, min_size=1, max_size=3)),
    ),
    st.tuples(st.just("evict"), st.integers(0, 4)),
)


def expand(links, friends):
    """Drawn ``(relation, pick, weight, twice)`` links as link tuples;
    friend links may also target extension users."""
    out = []
    for relation, pick, weight, twice in links:
        choices = TARGETS[relation] + (friends if relation == "friend" else [])
        link = (relation, choices[pick % len(choices)], weight)
        out.extend([link, link] if twice else [link])
    return out


def apply(engine, operations):
    created = 0
    for kind, payload in operations:
        live = list(engine.state.extension_nodes())
        if kind == "extend":
            nodes = []
            for links, text in payload:
                nodes.append(
                    NewNode(
                        f"x{created}",
                        "user",
                        links=expand(links, live),
                        text={"text": list(text)} if text else {},
                    )
                )
                created += 1
            engine.extend(nodes)
        elif kind == "add_links" and live:
            pick, links = payload
            source = live[pick % len(live)]
            engine.add_links(
                [(source, *link) for link in expand(links, live)]
            )
        elif kind == "evict":
            engine.evict(payload)


@FIVE_ROW_BLOCKS
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    operations=st.lists(OPERATION, min_size=1, max_size=6),
    from_artifact=st.booleans(),
)
def test_refit_problem_is_derived_from_network_and_shape(
    small_blocks, operations, from_artifact
):
    result = small_blocks(**FIT)
    engine = (
        InferenceEngine.from_result(result)
        if from_artifact
        else InferenceEngine.from_state(ModelState.from_result(result))
    )
    apply(engine, operations)
    state = engine.state
    problem = state.to_problem()
    assert_views_identical(
        problem.matrices, build_relation_matrices(state.materialize_network())
    )
    assert problem.matrices.relation_names == state.relation_names
    assert problem.num_nodes == state.num_nodes
    assert state.block_plan().bounds == BlockPlan.for_shape(
        problem.num_nodes, problem.n_clusters
    ).bounds
    assert execution(engine) == shape_plan(engine)


@FIVE_ROW_BLOCKS
def test_promote_in_place_matches_reloaded_bundle(small_blocks, tmp_path):
    """Promote in place, extend and refit: the same steps after a save
    and load of the promoted bundle learn the same bits."""
    engine = InferenceEngine.from_result(small_blocks(**FIT))
    engine.extend(FIRST)
    promoted = engine.promote(PROMOTE)
    assert promoted.theta.shape[0] == 36
    promoted.save(tmp_path / "promoted")
    reloaded = InferenceEngine.load(tmp_path / "promoted")
    runs = []
    for served in (engine, reloaded):
        served.extend(SECOND)
        runs.append(served.promote(PROMOTE))
    in_place, from_bundle = runs
    assert in_place.theta.shape[0] == 39
    np.testing.assert_array_equal(in_place.theta, from_bundle.theta)
    np.testing.assert_array_equal(in_place.gamma, from_bundle.gamma)
    np.testing.assert_array_equal(
        in_place.history.g1_series(), from_bundle.history.g1_series()
    )
    assert execution(engine) == execution(reloaded) == shape_plan(engine)
