import numpy as np
import pytest

from kgconformal.metrics import (
    EF_FAILURE,
    aggregate_rows,
    covgap,
    efficiency_rate,
    evaluate_predictions,
    format_table,
)


def report(predicates, answers, sets, macro=False):
    return evaluate_predictions("kgcp", 0.1, 0, predicates, answers, sets, macro)


class TestCoverage:
    def test_hand_counts(self):
        preds = [0, 0, 0, 1]
        answers = [1, 2, 3, 4]
        sets = [{1, 5}, {9}, {3}, {4}]
        assert report(preds, answers, sets).coverage == {0: pytest.approx(2 / 3), 1: 1.0}

    def test_empty_sets_zero_coverage(self):
        assert report([0, 0], [1, 2], [set(), set()]).coverage == {0: 0.0}

    def test_numpy_array_inputs(self):
        rep = report(np.array([0, 1]), np.array([3, 4]), [np.array([3]), np.array([9])])
        assert rep.coverage == {0: 1.0, 1: 0.0}


class TestCovGap:
    def test_hand_value(self):
        # target 0.9; deviations 0.05 and 0.15 -> mean 0.10
        assert covgap({0: 0.85, 1: 0.75}, 0.1) == pytest.approx(0.10)

    def test_perfect_coverage_zero_gap(self):
        assert covgap({0: 0.9, 1: 0.9}, 0.1) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            covgap({}, 0.1)


class TestAveSize:
    def test_global_mean(self):
        assert report([0, 0, 1], [1, 1, 1], [{1, 2}, {1}, set()]).avesize == pytest.approx(1.0)

    def test_macro_mean(self):
        # predicate 0 sizes (2, 0) -> 1; predicate 1 size 4 -> macro mean 2.5
        sets = [{1, 2}, set(), {1, 2, 3, 4}]
        assert report([0, 0, 1], [1, 1, 1], sets, macro=True).avesize == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([], [], [])


class TestEfficiencyRate:
    def test_reference_values(self):
        # gap 0.096 -> 0.030, size 132.36 -> 19.56: -112.8 / 0.066 * 0.01
        ef = efficiency_rate(0.030, 19.56, 0.096, 132.36)
        assert ef == pytest.approx(-17.09, abs=0.01)

    def test_no_gap_reduction_fails(self):
        assert efficiency_rate(0.1, 5.0, 0.1, 10.0) == EF_FAILURE
        assert efficiency_rate(0.2, 5.0, 0.1, 10.0) == EF_FAILURE

    def test_unchanged_size_fails(self):
        assert efficiency_rate(0.05, 10.0, 0.1, 10.0) == EF_FAILURE

    def test_positive_when_size_grows(self):
        # 10 extra entities per 0.05 of gap closed -> 2 per 0.01
        assert efficiency_rate(0.05, 20.0, 0.1, 10.0) == pytest.approx(2.0)


class TestReporting:
    def make_report(self, seed, gap, size, ef=None):
        rep = evaluate_predictions("condkgcp", 0.1, seed, [0], [1], [{1}])
        rep.covgap, rep.avesize, rep.ef = gap, size, ef
        return rep

    def test_evaluate_predictions_wires_metrics(self):
        rep = evaluate_predictions("kgcp", 0.1, 0, [0, 0], [1, 2], [{1}, {1}])
        assert rep.covgap == pytest.approx(abs(0.5 - 0.9))
        assert rep.avesize == 1.0
        assert rep.row()["method"] == "kgcp"

    def test_aggregate_mean_std(self):
        reports = [self.make_report(s, g, z, ef)
                   for s, g, z, ef in [(0, 0.1, 10.0, -2.0), (1, 0.3, 20.0, -4.0)]]
        (row,) = aggregate_rows(reports)
        assert row["covgap_mean"] == pytest.approx(0.2)
        assert row["covgap_std"] == pytest.approx(0.1)
        assert row["avesize_mean"] == pytest.approx(15.0)
        assert row["ef_mean"] == pytest.approx(-3.0)

    def test_aggregate_all_failures_keeps_sentinel(self):
        reports = [self.make_report(s, 0.1, 5.0, EF_FAILURE) for s in range(3)]
        (row,) = aggregate_rows(reports)
        assert row["ef_mean"] == EF_FAILURE

    def test_aggregate_reference_without_ef_is_null_not_failure(self):
        """kgcp is the EF reference and has no EF: its summary holds null and its table cell stays blank."""
        reports = [evaluate_predictions("kgcp", 0.1, s, [0], [1], [{1}]) for s in range(2)]
        rows = aggregate_rows(reports + [self.make_report(0, 0.1, 10.0, EF_FAILURE)])
        assert [row["ef_mean"] for row in rows] == [None, EF_FAILURE]
        kgcp_line, condkgcp_line = format_table(rows).splitlines()[2:]
        assert kgcp_line.endswith("±0.00") and condkgcp_line.endswith("failure")

    def test_format_table_contains_methods(self):
        reports = [self.make_report(0, 0.1, 10.0, -2.0)]
        text = format_table(aggregate_rows(reports))
        assert "condkgcp" in text and "CovGap" in text and "±" in text

    def test_format_table_failure_sentinel(self):
        reports = [self.make_report(0, 0.1, 10.0, EF_FAILURE)]
        assert "failure" in format_table(aggregate_rows(reports))
