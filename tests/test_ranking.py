"""Tests for repro.eval.ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.ranking import (
    average_precision,
    mean_average_precision,
)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.1, 0.05])
        relevant = np.array([True, True, False, False])
        assert average_precision(scores, relevant) == pytest.approx(1.0)

    def test_worst_ranking(self):
        scores = np.array([0.9, 0.8, 0.1, 0.05])
        relevant = np.array([False, False, True, True])
        # relevant at ranks 3 and 4: AP = (1/3 + 2/4) / 2
        assert average_precision(scores, relevant) == pytest.approx(
            (1 / 3 + 2 / 4) / 2
        )

    def test_textbook_example(self):
        # ranked relevance pattern: R N R N R
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        relevant = np.array([True, False, True, False, True])
        expected = (1 / 1 + 2 / 3 + 3 / 5) / 3
        assert average_precision(scores, relevant) == pytest.approx(
            expected
        )

    def test_no_relevant_returns_nan(self):
        value = average_precision(
            np.array([1.0, 0.5]), np.array([False, False])
        )
        assert np.isnan(value)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            average_precision(np.ones(3), np.ones(2, dtype=bool))

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(
                    min_value=-10, max_value=10, allow_nan=False
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_bounded_zero_one(self, data):
        scores = np.array([s for s, _ in data])
        relevant = np.array([r for _, r in data])
        if not relevant.any():
            return
        value = average_precision(scores, relevant)
        assert 0.0 < value <= 1.0


class TestMeanAveragePrecision:
    def test_averages_over_queries(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        relevance = np.array([[True, False], [True, False]])
        # query 1: AP=1.0; query 2: AP=0.5
        assert mean_average_precision(scores, relevance) == pytest.approx(
            0.75
        )

    def test_skips_queries_without_relevants(self):
        scores = np.array([[0.9, 0.1], [0.5, 0.5]])
        relevance = np.array([[True, False], [False, False]])
        assert mean_average_precision(scores, relevance) == pytest.approx(
            1.0
        )

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="no query"):
            mean_average_precision(
                np.ones((2, 2)), np.zeros((2, 2), dtype=bool)
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mean_average_precision(
                np.ones((2, 2)), np.zeros((2, 3), dtype=bool)
            )

    def test_better_clustering_scores_higher(self):
        """Sanity: scores correlated with relevance beat random scores."""
        rng = np.random.default_rng(0)
        relevance = rng.random((20, 30)) < 0.2
        relevance[:, 0] = True  # ensure every query has one relevant
        good_scores = relevance.astype(float) + rng.normal(
            0, 0.1, size=relevance.shape
        )
        bad_scores = rng.normal(0, 1, size=relevance.shape)
        assert mean_average_precision(
            good_scores, relevance
        ) > mean_average_precision(bad_scores, relevance)
