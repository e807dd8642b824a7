"""Tests for repro.eval.nmi."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.nmi import nmi


class TestNMI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert nmi(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert nmi(truth, permuted) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(0)
        truth = np.repeat([0, 1], 5000)
        random_pred = rng.integers(0, 2, size=10000)
        assert nmi(truth, random_pred) < 0.01

    def test_known_half_agreement_value(self):
        # contingency [[2, 0], [1, 1]]
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 0, 1])
        # H(truth) = H(pred) via counts (2,2) and (3,1)
        h_t = -(0.5 * np.log(0.5)) * 2
        h_p = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        joint = np.array([[0.5, 0.0], [0.25, 0.25]])
        outer = np.outer([0.5, 0.5], [0.75, 0.25])
        mask = joint > 0
        mutual = np.sum(joint[mask] * np.log(joint[mask] / outer[mask]))
        assert nmi(truth, pred) == pytest.approx(
            mutual / np.sqrt(h_t * h_p)
        )

    def test_single_cluster_vs_split_is_zero(self):
        truth = np.array([0, 0, 0, 0])
        pred = np.array([0, 1, 0, 1])
        assert nmi(truth, pred) == 0.0

    def test_both_single_cluster_is_one(self):
        labels = np.zeros(5, dtype=int)
        assert nmi(labels, labels) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 4, size=50)
        assert nmi(a, b) == pytest.approx(nmi(b, a))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            nmi(np.array([0, 1]), np.array([0, 1, 2]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            nmi(np.array([]), np.array([]))

    def test_string_labels_accepted(self):
        truth = np.array(["db", "db", "ml", "ml"])
        pred = np.array([1, 1, 0, 0])
        assert nmi(truth, pred) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_bounded_between_zero_and_one(self, labels):
        truth = np.array([a for a, _ in labels])
        pred = np.array([b for _, b in labels])
        value = nmi(truth, pred)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        labels=st.lists(
            st.integers(min_value=0, max_value=4), min_size=2, max_size=40
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_invariant_under_relabeling(self, labels, seed):
        truth = np.array(labels)
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(5)
        relabeled = permutation[truth]
        assert nmi(truth, relabeled) == pytest.approx(1.0)
