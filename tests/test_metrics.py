import json
import math
import re

import numpy as np
import pytest

from fedbias.exceptions import ConfigurationError, DataFormatError
from fedbias.metrics import (
    FairnessReport,
    PredictionRecord,
    full_report,
    load_prediction_log,
    mean_reports,
    stack_reports,
    tally,
)
from oracles import brute_metrics, log_arrays, random_records


def R(p, a, g) -> PredictionRecord:
    return PredictionRecord(p, a, g)


def counts_of(records, n=2, d=2) -> np.ndarray:
    return tally(*log_arrays(records), n, d)


def report_of(records, n=2, d=2) -> FairnessReport:
    return full_report(counts_of(records, n, d))


class TestTally:
    def test_empty_is_all_zero(self):
        t = tally([], [], [], 3, 2)
        assert t.shape == (2, 3, 3) and t.dtype == np.int64
        assert t.sum() == 0

    def test_single_record_placement(self):
        t = tally(np.array([1]), np.array([0]), np.array([2]), 2, 3)
        assert t[2, 0, 1] == 1
        assert t.sum() == 1

    def test_concatenation_is_additive(self):
        rng = np.random.default_rng(0)
        a = random_records(rng, 3, 2, 40)
        b = random_records(rng, 3, 2, 25)
        combined = counts_of(a + b, 3, 2)
        assert np.array_equal(combined, counts_of(a, 3, 2) + counts_of(b, 3, 2))

    def test_order_independent(self):
        rng = np.random.default_rng(1)
        p, y, g = log_arrays(random_records(rng, 4, 3, 60))
        order = rng.permutation(len(p))
        assert np.array_equal(tally(p, y, g, 4, 3), tally(p[order], y[order], g[order], 4, 3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="predicted index out of range"):
            tally([2], [0], [0], 2, 2)
        with pytest.raises(ValueError, match="actual index out of range"):
            tally([0], [-1], [0], 2, 2)
        with pytest.raises(ValueError, match="group index out of range"):
            tally([0], [0], [2], 2, 2)

    def test_mismatched_or_non_integer_columns_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            tally([0, 1], [0], [0, 0], 2, 2)
        with pytest.raises(ValueError, match="integers"):
            tally(np.array([0.5]), [0], [0], 2, 2)
        with pytest.raises(ValueError, match="one length"):
            tally(np.zeros((3, 2), dtype=np.int64), [0], [0], 2, 2)

    def test_stack_counts_each_client_on_the_shared_columns(self):
        rng = np.random.default_rng(5)
        predicted = rng.integers(0, 4, (6, 50))
        actual, group = rng.integers(0, 4, 50), rng.integers(0, 3, 50)
        stacked = tally(predicted, actual, group, 4, 3)
        assert stacked.shape == (6, 3, 4, 4) and stacked.dtype == np.int64
        for k, row in enumerate(predicted):
            assert np.array_equal(stacked[k], tally(row, actual, group, 4, 3))

    def test_count_array_beyond_numpy_rejected_before_anything_is_allocated(self):
        # 2**58 clients, a zero-stride view, of 2 * 2**2 cells each: 2**61
        # counts, more bytes than an intp can count. The guard runs before
        # the columns are checked, which would scan 2**58 entries.
        predicted = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**58, 1))
        message = (
            "288230376151711744 clients, num_classes 2 and num_groups 2 need "
            "2305843009213693952 counts, more than one NumPy array can hold "
            "(1152921504606846975)"
        )
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            tally(predicted, [0], [0], 2, 2)
        # The client factor alone tips it: one client's counts fit.
        assert tally(predicted[0], [0], [0], 2, 2).sum() == 1


class TestAccuracy:
    def test_all_correct(self):
        assert report_of([R(0, 0, 0), R(1, 1, 1)]).acc == 1.0

    def test_all_wrong(self):
        assert report_of([R(1, 0, 0), R(0, 1, 1)]).acc == 0.0

    def test_three_of_four(self):
        assert report_of([R(0, 0, 0), R(1, 1, 0), R(1, 1, 1), R(0, 1, 1)]).acc == 0.75


class TestSkewedErrorRatio:
    def test_direct_ratio(self):
        # Group 0: 3 right of 4 -> error 0.25. Group 1: 7 right of 8 ->
        # error 0.125. Both errors exact in binary, so the ratio is 2.0.
        records = [R(0, 0, 0)] * 3 + [R(1, 0, 0)]
        records += [R(0, 0, 1)] * 7 + [R(1, 0, 1)]
        assert report_of(records).ser == 2.0

    def test_equal_errors_give_one(self):
        records = [R(0, 0, 0), R(1, 0, 0), R(0, 0, 1), R(1, 0, 1)]
        assert report_of(records).ser == 1.0

    def test_all_perfect_gives_one(self):
        records = [R(0, 0, 0), R(1, 1, 1)]
        assert report_of(records).ser == 1.0

    def test_perfect_group_with_imperfect_other_is_infinite(self):
        records = [R(0, 0, 0), R(0, 0, 1), R(1, 0, 1)]
        assert report_of(records).ser == math.inf

    def test_empty_group_undefined(self):
        report = report_of([R(0, 0, 0)])
        assert report.ser is None and "ser" in report.absent


class TestEqualOpportunity:
    def test_identical_recalls_zero(self):
        records = [R(0, 0, 0), R(1, 0, 0), R(0, 0, 1), R(1, 0, 1), R(1, 1, 0), R(1, 1, 1)]
        assert report_of(records).eo == 0.0

    def test_opposite_recalls_quarter(self):
        # One class with ground truth in both groups: recalls 1.0 and 0.0,
        # population variance of {1, 0} is 0.25.
        records = [R(0, 0, 0), R(1, 0, 1)]
        assert report_of(records).eo == 0.25

    def test_single_group_undefined(self):
        report = report_of([R(0, 0, 0), R(1, 1, 0)], 2, 1)
        assert report.eo is None and "eo" in report.absent

    def test_classes_with_one_eligible_group_excluded(self):
        # Class 0 truth exists only in group 0, class 1 only in group 1:
        # no class has two eligible groups.
        report = report_of([R(0, 0, 0), R(1, 1, 1)])
        assert report.eo is None and "eo" in report.absent


class TestBiasAmplification:
    def test_uniform_spread_zero(self):
        records = [R(0, 0, 0), R(0, 0, 1), R(1, 1, 0), R(1, 1, 1)]
        assert report_of(records).ba == 0.0

    def test_single_source_group_maximal(self):
        # Every prediction comes from group 0: 1 - 1/D with D=2.
        records = [R(0, 0, 0), R(1, 1, 0)]
        assert report_of(records).ba == 0.5

    def test_three_one_split(self):
        # One class, predictions per group (3, 1): 3/4 - 1/2 = 0.25.
        records = [R(0, 0, 0)] * 3 + [R(0, 0, 1)]
        assert report_of(records).ba == 0.25


class TestDemographicParity:
    def test_identical_distributions_zero(self):
        records = [R(0, 1, 0), R(1, 0, 0), R(0, 0, 1), R(1, 1, 1)]
        assert report_of(records).dp == 0.0

    def test_opposite_rates_quarter(self):
        # Group 0 predicts class 0 always, group 1 never: each class's
        # rate variance is 0.25, and the mean over 2 classes is 0.25.
        records = [R(0, 0, 0), R(0, 1, 0), R(1, 0, 1), R(1, 1, 1)]
        assert report_of(records).dp == 0.25

    def test_single_group_is_zero(self):
        records = [R(0, 0, 0), R(1, 1, 0)]
        assert report_of(records, 2, 1).dp == 0.0

    def test_empty_group_undefined(self):
        report = report_of([R(0, 0, 0)])
        assert report.dp is None and "dp" in report.absent


BAD_SHAPE = "counts must have shape (num_groups, num_classes, num_classes)"


class TestFullReport:
    def test_perfect_classifier_balanced_data(self):
        records = [R(0, 0, 0), R(1, 1, 0), R(0, 0, 1), R(1, 1, 1)]
        report = report_of(records, 2, 2)
        assert report.acc == 1.0
        assert report.ser == 1.0
        assert report.eo == 0.0
        assert report.dp == 0.0
        assert report.absent == []

    def test_single_group_data(self):
        records = [R(0, 0, 0), R(1, 1, 0), R(1, 0, 0)]
        report = report_of(records, 2, 1)
        assert report.ser is None
        assert report.eo is None
        assert report.acc is not None
        assert report.ba is not None
        assert report.dp == 0.0
        assert set(report.absent) == {"ser", "eo"}

    def test_empty_records_undefined(self):
        message = "^cannot build a report from an empty prediction log$"
        with pytest.raises(ValueError, match=message):
            report_of([], 2, 2)

    @pytest.mark.parametrize(
        "counts,message",
        [
            (np.ones((2, 2), dtype=np.int64), BAD_SHAPE),
            (np.ones((2, 2, 3), dtype=np.int64), BAD_SHAPE),
            (np.array([[[1, -1], [0, 2]]]), "counts must be non-negative"),
        ],
        ids=["two_dimensional", "non_square_class_axes", "negative_count"],
    )
    def test_malformed_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            full_report(counts)

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            records = random_records(rng, n, d, int(rng.integers(1, 300)))
            report = report_of(records, n, d)
            expected = brute_metrics(records, n, d)
            for name, value in expected.items():
                got = report.metric(name)
                if name == "ser" and d < 2:
                    assert got is None
                    continue
                assert got == value, f"{name}: {got!r} != {value!r}"

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        records = random_records(rng, 3, 3, 150)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert report_of(records, 3, 3).to_dict() == report_of(shuffled, 3, 3).to_dict()

    def test_duplication_invariant(self):
        rng = np.random.default_rng(4)
        records = random_records(rng, 3, 2, 90)
        once = report_of(records, 3, 2)
        twice = report_of(records + records, 3, 2)
        for name in ("acc", "ser", "eo", "ba", "dp"):
            assert once.metric(name) == twice.metric(name)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            records = random_records(rng, n, d, int(rng.integers(1, 200)))
            report = report_of(records, n, d)
            assert 0.0 <= report.acc <= 1.0
            if report.ser is not None:
                assert report.ser >= 1.0
            if report.eo is not None:
                assert 0.0 <= report.eo <= 0.25
            if report.dp is not None:
                assert 0.0 <= report.dp <= 0.25
            if report.ba is not None:
                assert 0.0 <= report.ba <= 1.0 - 1.0 / d

    @pytest.mark.parametrize("name", ["xyz", "per_group_error"])
    def test_metric_refuses_a_name_outside_the_five(self, name):
        report = report_of([R(0, 0, 0), R(1, 1, 1)], 2, 2)
        with pytest.raises(KeyError):
            report.metric(name)

    def test_per_group_and_per_class_rates(self):
        records = [R(0, 0, 0)] * 3 + [R(1, 0, 0)] + [R(1, 1, 1), R(0, 1, 1)]
        report = report_of(records, 2, 2)
        assert report.per_group_error[0] == 0.25
        assert report.per_group_error[1] == 0.5
        assert report.recall_by_group_class[0][0] == 0.75
        assert report.recall_by_group_class[0][1] is None
        assert report.recall_by_group_class[1][1] == 0.5
        assert report.prediction_rate_by_group_class[0][0] == 0.75
        assert report.prediction_rate_by_group_class[1][0] == 0.5


class TestReportSerialization:
    def test_round_trip_with_inf_and_absent(self):
        records = [R(0, 0, 0), R(0, 0, 1), R(1, 0, 1)]
        report = report_of(records, 2, 2)
        assert report.ser == math.inf
        payload = json.dumps(report.to_dict(), sort_keys=True, allow_nan=False)
        assert json.loads(payload)["ser"] == "inf"
        back = FairnessReport.from_dict(json.loads(payload))
        assert back.ser == math.inf
        assert back.to_dict() == report.to_dict()

    def test_metrics_are_read_before_other_keys(self):
        payload = report_of([R(0, 0, 0), R(1, 1, 1)], 2, 2).to_dict()
        del payload["acc"], payload["total"]
        with pytest.raises(KeyError) as missing:
            FairnessReport.from_dict(payload)
        assert missing.value.args == ("acc",)
        payload["acc"] = "1.0"
        message = "^metric acc must be a number or null, got '1.0'$"
        with pytest.raises(TypeError, match=message):
            FairnessReport.from_dict(payload)

    def test_absent_list_in_payload(self):
        report = report_of([R(0, 0, 0), R(1, 1, 0)], 2, 1)
        payload = report.to_dict()
        assert payload["absent"] == ["ser", "eo"]
        assert payload["conventions"]["variance"] == "population"


class TestMeanReports:
    def test_identity_on_identical_reports(self):
        records = [R(0, 0, 0), R(1, 1, 1), R(0, 1, 1)]
        report = report_of(records, 2, 2)
        averaged = mean_reports([report, report, report])
        for name in ("acc", "ser", "eo", "ba", "dp"):
            if report.metric(name) is None:
                assert averaged.metric(name) is None
            else:
                assert averaged.metric(name) == pytest.approx(report.metric(name))

    def test_averages_scalars(self):
        a = report_of([R(0, 0, 0), R(1, 1, 1)], 2, 2)  # acc 1.0
        b = report_of([R(1, 0, 0), R(0, 1, 1)], 2, 2)  # acc 0.0
        assert mean_reports([a, b]).acc == 0.5

    def test_shape_mismatch_rejected(self):
        a = report_of([R(0, 0, 0)], 2, 1)
        b = report_of([R(0, 0, 0), R(0, 0, 0)], 2, 1)
        with pytest.raises(ValueError):
            mean_reports([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_reports([])


class TestStackedReport:
    def test_pow_trap(self):
        # DP's squared deviations go through Python's float power (libm
        # pow); multiplying each deviation by itself gives 0.05468750000000001.
        predicted = np.array([1, 1, 1, 2, 1, 0, 2, 1])
        actual = np.array([1, 3, 1, 3, 1, 2, 2, 3])
        group = np.array([2, 1, 3, 1, 2, 3, 1, 0])
        assert full_report(tally(predicted, actual, group, 4, 4)).dp == 0.0546875

    def test_mean_carries_infinity_and_absence(self):
        # Client 0 is perfect on group 1 only (SER inf); client 1 errs in
        # both groups. Class 1 has truth in group 0 alone, so EO rests on
        # class 0 for both clients.
        actual = np.array([0, 0, 0, 1])
        group = np.array([0, 1, 1, 0])
        predicted = np.array([[1, 0, 0, 1], [1, 1, 0, 0]])
        stacked = full_report(tally(predicted, actual, group, 2, 2))
        reports = [full_report(tally(row, actual, group, 2, 2)) for row in predicted]
        assert reports[0].ser == math.inf and stacked.ser == math.inf
        assert stacked.recall_by_group_class[1] == [0.75, None]
        assert repr(stacked.to_dict()) == repr(mean_reports(reports).to_dict())
        # An empty group makes SER and DP absent for every client, and so
        # for the mean.
        lone = full_report(tally(predicted, actual, np.zeros(4, dtype=np.int64), 2, 2))
        assert lone.absent == ["ser", "eo", "dp"]

    def test_one_client_stack_is_the_plain_report(self):
        rng = np.random.default_rng(6)
        p, y, g = log_arrays(random_records(rng, 3, 2, 80))
        once = full_report(tally(p, y, g, 3, 2))
        assert repr(full_report(tally(p[np.newaxis], y, g, 3, 2)).to_dict()) == repr(
            once.to_dict()
        )

    def test_stack_rejects_what_a_mean_of_reports_rejects(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, 0, 0, 0] = [1, 2]
        message = "^reports to average must describe the same test set$"
        with pytest.raises(ValueError, match=message):
            full_report(counts)
        with pytest.raises(ValueError, match="^need at least one report to average$"):
            full_report(np.zeros((0, 2, 2, 2), dtype=np.int64))
        counts[1] = 0
        message = "^cannot build a report from an empty prediction log$"
        with pytest.raises(ValueError, match=message):
            full_report(counts)

    def test_stacks_are_their_slices_reports(self):
        # Seven clients in stacks of 1, 4 and 2, scored at once: each
        # stack's report is full_report of its own slice, bit for bit.
        rng = np.random.default_rng(7)
        _, actual, group = log_arrays(random_records(rng, 3, 2, 60))
        predicted = rng.integers(0, 3, (7, 60))
        counts = tally(predicted, actual, group, 3, 2)
        reports = stack_reports(counts, [1, 4, 2])
        slices = [counts[:1], counts[1:5], counts[5:]]
        assert [repr(r.to_dict()) for r in reports] == [
            repr(full_report(part).to_dict()) for part in slices
        ]

    @pytest.mark.parametrize("sizes", [[], [3], [1, 2], [2, 0]])
    def test_stack_sizes_must_split_the_clients(self, sizes):
        counts = np.ones((2, 2, 2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match=r"^stack sizes .* do not split 2 clients$"):
            stack_reports(counts, sizes)


class TestPredictionLogCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("predicted,actual,group\n1,0,1\n0,0,0\n", encoding="utf-8")
        predicted, actual, group = load_prediction_log(path, 2, 2)
        assert predicted.tolist() == [1, 0]
        assert actual.tolist() == [0, 0]
        assert group.tolist() == [1, 0]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("a,b,c\n1,0,1\n", encoding="utf-8")
        message = f"{path}: line 1: header must be 'predicted,actual,group'"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_prediction_log(path, 2, 2)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("predicted,actual,group\n1,0,1\nx,0,1\n", encoding="utf-8")
        message = f"{path}: line 3: invalid literal for int() with base 10: 'x'"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_prediction_log(path, 2, 2)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("predicted,actual,group\n1,0\n", encoding="utf-8")
        message = f"{path}: line 2: expected 3 columns, found 2"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_prediction_log(path, 2, 2)
