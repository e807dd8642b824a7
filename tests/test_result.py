"""Tests for repro.core.result and repro.core.diagnostics."""

import numpy as np
import pytest

from repro.core.diagnostics import IterationRecord, RunHistory
from repro.core.result import GenClusResult
from repro.exceptions import NetworkError
from repro.hin.builder import NetworkBuilder


def make_result():
    builder = NetworkBuilder()
    builder.object_type("author").object_type("conf")
    builder.relation("publish_in", "author", "conf")
    builder.nodes(["a1", "a2", "a3"], "author").nodes(["c1"], "conf")
    builder.link("a1", "c1", "publish_in")
    network = builder.build()
    theta = np.array(
        [
            [0.9, 0.1],
            [0.2, 0.8],
            [0.6, 0.4],
            [0.5, 0.5],
        ]
    )
    history = RunHistory(relation_names=("publish_in",))
    history.append(
        IterationRecord(0, np.array([1.0]), -10.0, float("nan"))
    )
    history.append(
        IterationRecord(
            1, np.array([2.5]), -8.0, -3.0,
            em_iterations=4, newton_iterations=2,
            em_seconds=0.2, newton_seconds=0.1,
        )
    )
    beta = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    return GenClusResult(
        theta=theta,
        gamma=np.array([2.5]),
        relation_names=("publish_in",),
        attribute_params={
            "title": {
                "kind": "categorical",
                "beta": beta,
                "vocabulary": ("query", "data", "learning"),
            }
        },
        history=history,
        network=network,
    )


class TestGenClusResult:
    def test_membership_of(self):
        result = make_result()
        np.testing.assert_allclose(result.membership_of("a1"), [0.9, 0.1])

    def test_membership_is_copy(self):
        result = make_result()
        vec = result.membership_of("a1")
        vec[0] = 0.0
        assert result.theta[0, 0] == 0.9

    def test_strengths(self):
        result = make_result()
        assert result.strengths() == {"publish_in": 2.5}

    def test_hard_labels(self):
        result = make_result()
        np.testing.assert_array_equal(
            result.hard_labels(), [0, 1, 0, 0]
        )

    def test_summary_mentions_strengths(self):
        text = make_result().summary()
        assert "publish_in" in text
        assert "K=2" in text

    # -- edge cases ----------------------------------------------------
    def test_membership_of_unknown_node_raises(self):
        result = make_result()
        with pytest.raises(NetworkError, match="unknown node"):
            result.membership_of("nobody")

    def test_single_cluster_fit(self):
        """K=1: every membership is the point mass, every label 0."""
        builder = NetworkBuilder()
        builder.object_type("author")
        builder.nodes(["a1", "a2"], "author")
        network = builder.build()
        result = GenClusResult(
            theta=np.ones((2, 1)),
            gamma=np.zeros(0),
            relation_names=(),
            attribute_params={},
            history=RunHistory(relation_names=()),
            network=network,
        )
        assert result.n_clusters == 1
        np.testing.assert_array_equal(result.membership_of("a1"), [1.0])
        np.testing.assert_array_equal(result.hard_labels(), [0, 0])

    def test_save_load_score_roundtrip(self, tmp_path):
        """Satellite acceptance: save -> load -> identical scores."""
        result = make_result()
        path = result.save(tmp_path / "result.npz")
        loaded = GenClusResult.load(path)
        for node in ("a1", "a2", "a3", "c1"):
            np.testing.assert_array_equal(
                loaded.membership_of(node), result.membership_of(node)
            )
        np.testing.assert_array_equal(
            loaded.hard_labels(), result.hard_labels()
        )
        assert loaded.strengths() == result.strengths()
        for key in ("beta", "vocabulary"):
            np.testing.assert_array_equal(
                loaded.attribute_params["title"][key],
                result.attribute_params["title"][key],
            )


class TestRunHistory:
    def test_gamma_trajectory(self):
        history = make_result().history
        trajectory = history.gamma_trajectory()
        assert trajectory.shape == (2, 1)
        np.testing.assert_allclose(trajectory[:, 0], [1.0, 2.5])

    def test_g1_series(self):
        history = make_result().history
        np.testing.assert_allclose(history.g1_series(), [-10.0, -8.0])
