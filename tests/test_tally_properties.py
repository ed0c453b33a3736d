"""Property tests of the array tally and the report built on it, against
the per-record oracles and the one-client-at-a-time report."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedbias.metrics import METRIC_NAMES, full_report, records_from_arrays, tally
from oracles import brute_counts, brute_metrics, scalar_full_report, scalar_mean_reports


@st.composite
def prediction_logs(draw):
    """(predicted, actual, group, num_classes, num_groups) with at least one
    record. Classes and groups are drawn from a sub-range at times, so logs
    with empty groups or unseen classes (absent metrics) come up too."""
    num_classes = draw(st.integers(1, 5))
    num_groups = draw(st.integers(1, 4))
    class_pool = draw(st.integers(1, num_classes))
    group_pool = draw(st.integers(1, num_groups))
    size = draw(st.integers(1, 300))

    def column(pool):
        return draw(hnp.arrays(np.int64, size, elements=st.integers(0, pool - 1)))

    return column(class_pool), column(class_pool), column(group_pool), num_classes, num_groups


def canonical(report) -> str:
    # repr-exact floats, so -0.0 and 0.0 or the last bit of a ratio differ.
    return json.dumps(report.to_dict(), sort_keys=True)


@settings(deadline=None)
@given(prediction_logs())
def test_tally_equals_per_record_recount(log):
    predicted, actual, group, n, d = log
    records = records_from_arrays(predicted, actual, group)
    assert np.array_equal(tally(predicted, actual, group, n, d), brute_counts(records, n, d))


@settings(deadline=None)
@given(prediction_logs())
def test_report_matches_brute_force_metrics_exactly(log):
    predicted, actual, group, n, d = log
    report = full_report(tally(predicted, actual, group, n, d))
    expected = brute_metrics(records_from_arrays(predicted, actual, group), n, d)
    assert {name: report.metric(name) for name in METRIC_NAMES} == expected


@settings(deadline=None)
@given(prediction_logs(), st.randoms(use_true_random=False))
def test_report_bitwise_invariant_under_permutation(log, random):
    predicted, actual, group, n, d = log
    order = np.array(random.sample(range(len(predicted)), len(predicted)))
    once = full_report(tally(predicted, actual, group, n, d))
    shuffled = full_report(tally(predicted[order], actual[order], group[order], n, d))
    assert canonical(once) == canonical(shuffled)


@settings(deadline=None)
@given(prediction_logs(), st.randoms(use_true_random=False))
def test_report_invariant_under_group_relabeling(log, random):
    # Counts and extremes over groups do not depend on group order, so
    # ACC, SER and BA keep every bit; EO and DP sum per-group variance
    # terms in the new group order, which moves only their last bits.
    predicted, actual, group, n, d = log
    relabel = np.array(random.sample(range(d), d))
    once = full_report(tally(predicted, actual, group, n, d))
    renamed = full_report(tally(predicted, actual, relabel[group], n, d))
    for name in ("acc", "ser", "ba"):
        assert repr(renamed.metric(name)) == repr(once.metric(name))
    for name in ("eo", "dp"):
        a, b = once.metric(name), renamed.metric(name)
        assert (a is None) == (b is None)
        if a is not None:
            assert math.isclose(a, b, rel_tol=1e-12)


@st.composite
def stacked_logs(draw):
    """(predicted (K, n), actual, group, num_classes, num_groups): K clients'
    predictions on one test set. Sub-range pools leave groups empty and
    classes without truth, and a client that copies the truth on a whole
    group leaves that group error-free, which can make SER infinite."""
    num_clients = draw(st.integers(1, 60))
    num_classes = draw(st.integers(2, 10))
    num_groups = draw(st.integers(1, 5))
    full = st.booleans()
    class_pool = num_classes if draw(full) else draw(st.integers(1, num_classes))
    group_pool = num_groups if draw(full) else draw(st.integers(1, num_groups))
    size = draw(st.integers(1, 40))

    def ints(shape, pool):
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, pool - 1)))

    actual, group = ints(size, class_pool), ints(size, group_pool)
    guesses = ints((num_clients, size), class_pool)
    right = draw(hnp.arrays(np.bool_, (num_clients, size)))
    right_groups = draw(hnp.arrays(np.bool_, (num_clients, num_groups)))
    right |= right_groups[:, group]
    return np.where(right, actual, guesses), actual, group, num_classes, num_groups


@settings(deadline=None)
@given(stacked_logs())
def test_stacked_report_equals_mean_of_scalar_reports(log):
    predicted, actual, group, n, d = log
    stacked = full_report(tally(predicted, actual, group, n, d))
    expected = scalar_mean_reports(
        [scalar_full_report(tally(row, actual, group, n, d)) for row in predicted]
    )
    assert repr(stacked.to_dict()) == repr(expected.to_dict())
