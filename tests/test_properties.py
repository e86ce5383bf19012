"""Property tests: ranks and rank cuts under tied scores, the calibration rank cutoff and the conformal quantile."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from kgconformal.conformal import quantile, rank_threshold
from kgconformal.kg import candidate_ranks, rank_cuts, rank_of


@st.composite
def tied_scores_and_mask(draw):
    """Small integer scores, so ties are common, and a random mask of entity indices."""
    scores = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
    mask = draw(st.sets(st.integers(0, len(scores) - 1)))
    return np.array(scores, dtype=np.float64), mask


@given(tied_scores_and_mask())
def test_candidate_ranks_match_rank_of_and_brute_force_under_ties(case):
    scores, mask = case
    ranks = candidate_ranks(scores, mask)
    kept = [e for e in range(scores.size) if e not in mask]
    for e in range(scores.size):
        if e in mask:
            assert ranks[e] == 0
        else:
            assert ranks[e] == rank_of(scores, e, mask) == sum(scores[c] >= scores[e] for c in kept)


@given(tied_scores_and_mask())
def test_rank_cut_selects_exactly_the_ranks_within_the_cutoff_under_ties(case):
    scores, mask = case
    ranks = candidate_ranks(scores, mask)
    masked = scores.copy()
    masked[list(mask)] = -np.inf
    n = scores.size
    cuts = rank_cuts(masked[None, :], np.arange(n + 2)[None, :])[0]
    for k in range(n + 2):
        within = {e for e in range(n) if e not in mask and ranks[e] <= k}
        assert {e for e in range(n) if masked[e] > cuts[k]} == within


@given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.integers(1, 999))
def test_rank_threshold_is_smallest_cutoff_below_epsilon(ranks, per_mille):
    epsilon = per_mille / 1000
    ranks = np.array(ranks)

    def miscoverage(k):
        return np.count_nonzero(ranks > k) / ranks.size

    k_hat, misc = rank_threshold(ranks, epsilon)
    assert k_hat == min(k for k in range(int(ranks.max()) + 1) if miscoverage(k) < epsilon)
    assert misc == miscoverage(k_hat)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=60), st.integers(0, 999))
@example([1, 2], 0)  # epsilon 0, the limit an adjusted rate reaches when gamma * miscoverage = epsilon
@example(list(range(9)), 700)  # in floats (n+1)(1-eps) = 10 * 0.30000000000000004, just above 3
def test_quantile_matches_exact_order_statistic(values, per_mille):
    epsilon = per_mille / 1000
    n = len(values)
    k = math.ceil((n + 1) * (1 - Fraction(per_mille, 1000)))
    expected = math.inf if k > n else sorted(values)[k - 1]
    assert quantile(np.array(values, dtype=np.float64), epsilon) == expected
