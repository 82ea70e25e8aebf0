"""Measure values, pinned by hand-computed oracles."""

import numpy as np
import pytest

from bloomemb.metrics import EvaluationResult, average_precision


def brute_force_ap(ranked, relevant):
    """Exhaustive oracle: precision@K at every hit, averaged over |relevant|."""
    total = 0.0
    for pos in range(1, len(ranked) + 1):
        if ranked[pos - 1] in relevant:
            top = ranked[:pos]
            total += sum(1 for x in top if x in relevant) / pos
    return total / len(relevant)


class TestAveragePrecision:
    def test_worked_example(self):
        assert average_precision([1, 9, 2, 8], {1, 2}) == pytest.approx(
            (1 / 1 + 2 / 3) / 2)
        assert average_precision([1, 9, 2, 8], {1, 2}) == pytest.approx(
            0.8333, abs=5e-5)

    def test_perfect_ranking(self):
        assert average_precision([3, 1, 7, 2, 9], {3, 1, 7}) == 1.0

    def test_missing_relevant_items_contribute_zero(self):
        assert average_precision([5, 6], {5, 99}) == pytest.approx(0.5)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            d = int(rng.integers(2, 15))
            ranked = list(rng.permutation(d) + 1)[:int(rng.integers(1, d + 1))]
            relevant = set(rng.choice(d, size=rng.integers(1, d + 1),
                                      replace=False) + 1)
            assert average_precision(ranked, relevant) == pytest.approx(
                brute_force_ap(ranked, relevant))

    def test_invariant_to_tail_below_last_relevant(self):
        base = average_precision([4, 1, 3, 2, 5], {4, 3})
        swapped = average_precision([4, 1, 3, 5, 2], {4, 3})
        assert base == swapped

    # one relevant item scores its reciprocal rank (RR)
    def test_single_item_rank_four(self):
        assert average_precision([7, 3, 9, 5], {5}) == 0.25

    def test_single_item_rank_one(self):
        assert average_precision([5, 3], {5}) == 1.0

    def test_single_item_absent_is_zero(self):
        assert average_precision([1, 2, 3], {9}) == 0.0

    def test_single_item_depends_only_on_rank(self):
        assert average_precision([10, 20, 30], {20}) == \
            average_precision([3, 2, 1], {2})

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision([1, 2], set())


class TestEvaluationResult:
    def test_result_validation(self):
        with pytest.raises(ValueError):
            EvaluationResult(score=1.5, measure="MAP", n_evaluated=1,
                             wall_time=0.0)
