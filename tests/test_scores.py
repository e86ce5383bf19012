import math

import numpy as np
import pytest

from kgconformal.scores import (
    ScorerConfig,
    aps_scores,
    nonconformity,
    raps_scores,
    softmax_probs,
    softmax_scores,
    uniform_for_query,
)


class TestSoftmax:
    """softmax_scores is -log p: lse(raw) - raw."""

    def test_uniform_input(self):
        out = softmax_scores(np.full(4, 2.7))
        assert np.allclose(out, math.log(4.0))

    def test_hand_computed_ratio(self):
        out = softmax_scores(np.array([math.log(3.0), 0.0]))
        assert np.allclose(out, [-math.log(0.75), -math.log(0.25)])

    def test_large_magnitude_no_overflow(self):
        out = softmax_scores(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1000.0, abs=1e-12)  # p = exp(-1000), which 1 - p would round to 1.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.normal(scale=10, size=int(rng.integers(2, 50)))
            assert np.exp(-softmax_scores(raw)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_in_raw(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=30)
        s = softmax_scores(raw)
        order_raw = np.argsort(raw)
        assert np.all(np.diff(s[order_raw]) <= 0)
        assert np.argmin(s) == np.argmax(raw)


class TestAPS:
    def test_two_entities_u0(self):
        raw = np.log(np.array([0.75, 0.25]))
        assert np.allclose(aps_scores(raw, 0.0), [0.0, 0.75])

    def test_two_entities_u1(self):
        raw = np.log(np.array([0.75, 0.25]))
        assert np.allclose(aps_scores(raw, 1.0), [0.75, 1.0])

    def test_uniform_mass_cumulation(self):
        out = aps_scores(np.zeros(4), 0.0)
        # ties broken by entity index, so sorted order is 0,1,2,3
        assert np.allclose(out, [0.0, 0.25, 0.5, 0.75])

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = rng.normal(size=10)
            out = aps_scores(raw, float(rng.random()))
            assert np.all(out >= 0) and np.all(out <= 1 + 1e-12)

    def test_nondecreasing_in_sorted_position(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=15)
        out = aps_scores(raw, 0.4)
        order = np.argsort(-raw, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-12)

    def test_bad_u(self):
        with pytest.raises(ValueError):
            aps_scores(np.zeros(3), 1.5)


class TestRAPS:
    def test_lambda_zero_equals_aps(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=12)
        assert np.allclose(raps_scores(raw, 0.3, 0.0, 3), aps_scores(raw, 0.3))

    def test_uniform_penalty(self):
        out = raps_scores(np.zeros(3), 0.0, 0.1, 1)
        assert np.allclose(out, [0.0, 1 / 3 + 0.1, 2 / 3 + 0.2])

    def test_underflowed_scores_are_penalised_in_score_order(self):
        """Entities 3, 1 and 4 score -1001, -1000 and -999, and each p underflows to 0, so their APS is one value.
        They stand in the order by score, not by index: 4, 1, 3 at places 4, 5, 6 after entities 0, 5 and 2, so
        with k_reg 1 RAPS adds 3, 4 and 5 times lambda."""
        raw = np.array([5.0, -1000.0, 0.0, -1001.0, -999.0, 4.0])
        assert np.all(softmax_probs(raw)[[1, 3, 4]] == 0.0)
        aps = aps_scores(raw, 0.3)
        out = raps_scores(raw, 0.3, 0.2, 1)
        assert np.array_equal(out[[4, 1, 3]], aps[[4, 1, 3]] + 0.2 * np.array([3, 4, 5]))
        assert out[4] < out[1] < out[3]

    def test_kreg_beyond_size_no_penalty(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=6)
        assert np.allclose(raps_scores(raw, 0.7, 0.5, 6), aps_scores(raw, 0.7))


class TestConfigAndStream:
    def test_raps_config_validation(self):
        with pytest.raises(ValueError):
            ScorerConfig(kind="raps", raps_lambda=-1.0)
        with pytest.raises(ValueError):
            ScorerConfig(kind="raps", raps_k_reg=0)
        with pytest.raises(ValueError):
            ScorerConfig(kind="nope")

    def test_uniform_stream_reproducible_and_partitioned(self):
        a = uniform_for_query(7, 3)
        assert a == uniform_for_query(7, 3)
        assert a != uniform_for_query(7, 4)
        assert 0.0 <= a < 1.0

    def test_nonconformity_dispatch_deterministic(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=8)
        for kind in ("softmax", "aps", "raps"):
            cfg = ScorerConfig(kind=kind, rng_seed=11)
            assert np.array_equal(nonconformity(raw, cfg, 5), nonconformity(raw, cfg, 5))
