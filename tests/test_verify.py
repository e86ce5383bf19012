import numpy as np

from kgconformal import conformal
from kgconformal.verify import (
    CheckResult,
    conditional_coverage_check,
    marginal_coverage_check,
    run_all_checks,
    shrinkage_check,
)


def test_check_result_line_format():
    assert CheckResult("x", True, "ok").line() == "[PASS] x: ok"
    assert CheckResult("x", False, "bad").line() == "[FAIL] x: bad"


def test_marginal_check_detects_broken_band(monkeypatch):
    real = conformal.quantile
    # moving epsilon by 1/(n+1) moves the order statistic by one: up takes the one below the conformal one
    for shift in (0, 1, -1):
        monkeypatch.setattr(conformal, "quantile", lambda values, eps: real(values, eps + shift / (len(values) + 1)))
        result = marginal_coverage_check(n_cal=9, epsilon=0.5, seed=0)
        assert result.passed == (shift == 0), result.details
        assert result.stats == {"kgcp": {"covered": [25 - shift], "k": 25},
                                "mcp": {"covered": [5 - shift] * 5, "k": 5}}


SMALL_CONDITIONAL = dict(n_resamples=40, part_size=100, pool_size=1000)


def test_conditional_check_runs_the_pipeline_filters(monkeypatch):
    assert conditional_coverage_check(**SMALL_CONDITIONAL).passed
    real = conformal.query_filters
    # each predicate reads the next predicate's part
    monkeypatch.setattr(conformal, "query_filters", lambda model, predicates, n_entities: real(
        model, (np.asarray(predicates) + 1) % len(model.per_part), n_entities))
    assert not conditional_coverage_check(**SMALL_CONDITIONAL).passed


def test_conditional_check_runs_the_pipeline_fit(monkeypatch):
    def fit_with_negated_gamma(calib_predicates, nonconf_true, ranks_true, partition, epsilon, gamma):
        ranks_true = np.asarray(ranks_true)
        model = conformal._fit_parts("condkgcp", epsilon, nonconf_true, calib_predicates, partition,
                                     lambda in_g: conformal.rank_threshold(ranks_true[in_g], epsilon), -gamma)
        model.gamma = gamma
        return model

    monkeypatch.setattr(conformal, "fit_condkgcp", fit_with_negated_gamma)
    assert not conditional_coverage_check(**SMALL_CONDITIONAL).passed


def test_shrinkage_check_does_not_require_sigma_bar_sign_agreement():
    # at these seeds some resample has sigma_bar <= 1 with a positive AveSize gap
    for seed in (13, 28):
        result = shrinkage_check(seed=seed)
        assert result.passed, result.details


def test_run_all_checks_names():
    results = run_all_checks(seed=0)
    assert [r.name for r in results] == [
        "marginal-coverage",
        "conditional-coverage",
        "shrinkage-condition",
    ]
    assert all(r.passed for r in results)


def test_pool_checks_size_softmax_sets_from_each_rows_lse(monkeypatch):
    """The checks hand ``set_outcomes`` each row sorted and read through its log-sum-exp, the form every softmax run
    sizes sets from: at its answer's sorted position a pair's row reads its answer's nonconformity bit for bit, and
    down the row it never falls."""
    real, calls = conformal.set_outcomes, []

    def spy(ordered, nonconf_at, thresholds, cutoffs, rows, answer_nonconf, answer_raw, added):
        assert np.all(np.diff(ordered, axis=1) >= 0)
        every = nonconf_at(np.broadcast_to(np.arange(ordered.shape[1])[:, None], (ordered.shape[1], rows.size)))
        assert np.all(np.diff(every, axis=0) <= 0)
        answer_at = np.array([np.searchsorted(ordered[r], x) for r, x in zip(rows, answer_raw)])
        assert np.array_equal(nonconf_at(answer_at[None, :])[0], answer_nonconf)
        calls.append(rows.size)
        return real(ordered, nonconf_at, thresholds, cutoffs, rows, answer_nonconf, answer_raw, added)

    monkeypatch.setattr(conformal, "set_outcomes", spy)
    conditional_coverage_check(n_resamples=3, part_size=20, pool_size=100)
    shrinkage_check(n_resamples=3, part_size=20, pool_size=100, phi=10)
    assert calls == [100] * 6
