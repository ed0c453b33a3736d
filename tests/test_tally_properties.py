"""Property tests of the array tally and the report built on it, against
the per-record oracles."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedbias.metrics import METRIC_NAMES, full_report, records_from_arrays, tally
from oracles import brute_counts, brute_metrics


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
    assert np.array_equal(tally(predicted, actual, group, n, d).counts, brute_counts(records, n, d))


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
