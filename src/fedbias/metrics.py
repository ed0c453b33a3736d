"""Accuracy and group-fairness metrics over prediction logs.

A prediction log is three equal-length integer arrays (predicted
class, actual class, group); ``tally`` counts it into a (group, actual,
predicted) int64 array, and ``full_report`` scores that array. The
report carries five metrics as fields:

- ``acc``: overall fraction of correct predictions.
- ``ser`` (skewed error ratio): worst group error rate over best group
  error rate (>= 1; infinity when one group is perfect and another is
  not).
- ``eo`` (equal opportunity): mean over classes of the across-group
  variance of per-group recall.
- ``ba`` (bias amplification): mean over predicted classes of the
  dominant group's share of that class's predictions, minus the
  uniform share.
- ``dp`` (demographic parity): mean over classes of the across-group
  variance of prediction rates.

A metric that is undefined for the log is ``None`` and listed in the
report's ``absent``. Variances are population variances.

Several clients' logs over one test set stack: ``tally`` of a
(clients, n) ``predicted`` gives a (clients, group, actual, predicted)
array, and ``full_report`` of that scores all clients at once and
returns the mean of their reports, each field averaged in client order
(the local-only baseline's score); ``stack_reports`` scores the clients
of several such stacks at once and returns each stack's mean. Every float sum is added left to
right in one fixed order (groups, then classes, then clients), never
pairwise or compensated, and squared deviations go through Python's
``**`` (libm ``pow``), so every value is the same on every Python
version and equals, bit for bit, a per-record recount done that way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import check_ranges, int64_cell, read_lines
from .exceptions import ConfigurationError

CONVENTIONS = {
    "ser": "max_group_error / min_group_error",
    "variance": "population",
}

METRIC_NAMES = ("acc", "ser", "eo", "ba", "dp")

# Strict JSON has no infinity, so an infinite skewed error ratio (the
# only metric that can be infinite) is written as this string.
_INF_TEXT = "inf"
# The most int64 counts one NumPy array can hold: its size in bytes is an intp.
_MAX_COUNTS = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


@dataclass(frozen=True)
class PredictionRecord:
    """One scored example: predicted class, actual class, sensitive group."""

    predicted: int
    actual: int
    group: int


def tally(
    predicted: np.ndarray,
    actual: np.ndarray,
    group: np.ndarray,
    num_classes: int,
    num_groups: int,
) -> np.ndarray:
    """Exact, order-independent counting of a prediction log given as three
    equal-length integer arrays, one entry per record. Entry [g, y, p] of
    the (num_groups, num_classes, num_classes) int64 result counts the
    records of group g with actual class y predicted as p.

    A 2-D ``predicted`` holds one row per client, all scored on the one
    ``actual`` and ``group``, and gives a (clients, num_groups,
    num_classes, num_classes) result: one ``np.bincount`` counts every
    client, with client k's flat index offset by k * num_groups *
    num_classes**2. A count array NumPy cannot hold is rejected, naming
    the arguments, before anything is allocated; one that memory cannot
    hold is rejected the same way when its allocation fails."""
    predicted = np.asarray(predicted)
    clients = len(predicted) if predicted.ndim == 2 else 1
    cells = num_groups * num_classes * num_classes
    stack = f"{clients} clients, " if predicted.ndim == 2 else ""
    need = f"{stack}num_classes {num_classes} and num_groups {num_groups} need {clients * cells} counts"
    if clients * cells > _MAX_COUNTS:
        raise ConfigurationError(f"{need}, more than one NumPy array can hold ({_MAX_COUNTS})")
    columns = []
    for name, values, limit in (
        ("predicted", predicted, num_classes),
        ("actual", actual, num_classes),
        ("group", group, num_groups),
    ):
        arr = np.asarray(values)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        # One bound check: a negative index reads as a huge unsigned one.
        if arr.size and arr.view(np.uint64).max() >= limit:
            raise ValueError(f"{name} index out of range [0, {limit})")
        columns.append(arr)
    pred, actual, group = columns
    if not (pred.ndim in (1, 2) and actual.ndim == group.ndim == 1) or not (
        pred.shape[-1] == len(actual) == len(group)
    ):
        raise ValueError(
            "predicted (or each of its rows), actual and group must be 1-D arrays of one length"
        )
    flat = (group * num_classes + actual) * num_classes + pred
    if clients > 1:
        flat += np.arange(clients)[:, np.newaxis] * cells
    try:
        counts = np.bincount(flat.ravel(), minlength=clients * cells)
    except MemoryError:
        raise ConfigurationError(f"{need}, more than fit in memory") from None
    return counts.reshape(pred.shape[:-1] + (num_groups, num_classes, num_classes))


def records_from_arrays(
    predicted: np.ndarray, actual: np.ndarray, group: np.ndarray
) -> list[PredictionRecord]:
    """One record per entry, for record-based reference checks."""
    return [
        PredictionRecord(int(p), int(a), int(g))
        for p, a, g in zip(predicted, actual, group)
    ]


def _running_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis``, added left to right as Python's ``sum`` does
    before 3.12; ``np.sum`` adds pairwise, which moves last bits."""
    return np.add.accumulate(values, axis=axis).take(-1, axis=axis)


def _squares(values: np.ndarray) -> np.ndarray:
    """Elementwise ``v ** 2`` through Python's float power, which calls
    libm ``pow``: that result is not always ``v * v``, and neither is
    NumPy's array ``power``."""
    return np.array([v**2 for v in values.ravel().tolist()]).reshape(values.shape)


@dataclass
class FairnessReport:
    """The five metrics plus the per-group/per-class rates behind them.

    Metrics that are undefined for the log (for example the skewed error
    ratio with a single group) are ``None`` and listed in ``absent``.
    """

    num_classes: int
    num_groups: int
    total: int
    acc: float | None
    ser: float | None
    eo: float | None
    ba: float | None
    dp: float | None
    per_group_error: list[float | None]
    recall_by_group_class: list[list[float | None]]
    prediction_rate_by_group_class: list[list[float | None]]

    @property
    def absent(self) -> list[str]:
        return [name for name in METRIC_NAMES if getattr(self, name) is None]

    def metric(self, name: str) -> float | None:
        if name not in METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ser"] = _INF_TEXT if self.ser == math.inf else self.ser
        return {**out, "absent": self.absent, "conventions": dict(CONVENTIONS)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FairnessReport":
        """Inverse of ``to_dict``; also reads the bare ``Infinity`` token of
        older files, which ``json.loads`` already turns into a float. The
        metrics are read and checked first: one that is neither a number
        nor null raises ``TypeError``, and a non-finite one other than an
        infinite ``ser`` (``NaN``, ``-Infinity``) raises ``ValueError``."""
        values = {name: payload[name] for name in METRIC_NAMES}
        if values["ser"] == _INF_TEXT:
            values["ser"] = math.inf
        for name, value in values.items():
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise TypeError(f"metric {name} must be a number or null, got {value!r}")
            if isinstance(value, float) and not (
                math.isfinite(value) or (name == "ser" and value == math.inf)
            ):
                raise ValueError(f"metric {name} must be finite, got {value!r}")
        rest = [f.name for f in fields(cls) if f.name not in values]
        return cls(**values, **{name: payload[name] for name in rest})


def full_report(counts: np.ndarray) -> FairnessReport:
    """Compute all five metrics from a ``tally`` count array; degenerate
    ones come back absent, not as errors.

    A stacked (clients, num_groups, num_classes, num_classes) array gives
    the mean of the clients' reports: every field is averaged over the
    clients in client order, and a field absent for any client is absent.
    All clients are scored at once, with NaN marking an absent value.
    Each count, and so each sum of counts, is taken to be below 2**53,
    where an int64 / int64 division in float64 is correctly rounded.
    """
    fields, shape = _client_fields(counts)
    return _report(_client_mean(fields), *shape)


def stack_reports(counts: np.ndarray, sizes: Sequence[int]) -> list[FairnessReport]:
    """The reports of consecutive stacks of clients in one stacked
    (clients, num_groups, num_classes, num_classes) ``tally`` array, stack
    s holding the next ``sizes[s]`` clients. Every client is scored at
    once, and each stack's report is the mean of its own clients' rows,
    bit for bit ``full_report`` of its slice, since a client's row
    depends on its own counts alone."""
    fields, shape = _client_fields(counts)
    if any(size < 1 for size in sizes) or sum(sizes) != len(fields):
        raise ValueError(f"stack sizes {list(sizes)} do not split {len(fields)} clients")
    ends = itertools.accumulate(sizes)
    return [
        _report(_client_mean(fields[end - size : end]), *shape) for size, end in zip(sizes, ends)
    ]


def _client_fields(counts: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """``full_report``'s scoring: one row of report fields per client, in
    ``_report``'s order with NaN for an absent value, and the clients'
    (num_classes, num_groups, total)."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim == 3:
        counts = counts[np.newaxis]
    if counts.ndim != 4 or counts.shape[2] != counts.shape[3]:
        raise ValueError("counts must have shape (num_groups, num_classes, num_classes)")
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    clients, num_groups, n, _ = counts.shape
    if not clients:
        raise ValueError("need at least one report to average")
    add = np.add
    truth = add.reduce(counts, axis=3)  # [k, g, y]
    predicted = add.reduce(counts, axis=2)  # [k, g, p]
    diagonal = counts.diagonal(0, 2, 3)
    group_totals = add.reduce(truth, axis=2)
    total = add.reduce(group_totals, axis=1)
    totals = set(total.tolist())
    if 0 in totals:
        raise ValueError("cannot build a report from an empty prediction log")
    if len(totals) > 1:
        raise ValueError("reports to average must describe the same test set")
    correct = add.reduce(diagonal, axis=2)
    # One row of fields per client, in _report's order, filled in place.
    fields = np.empty((clients, 5 + num_groups * (2 * n + 1)))
    error = fields[:, 5 : 5 + num_groups]
    rates = fields[:, 5 + num_groups :].reshape(clients, num_groups, 2 * n)
    # The per-class terms of BA, EO and DP.
    terms = np.empty((clients, 3, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        # rates[k, g]: recall, then prediction rate, per class. An empty
        # group or class makes a rate 0 / 0 = NaN, and fmax(NaN, 0) = 0
        # drops it from the sums over groups and classes below.
        np.divide(diagonal, truth, out=rates[..., :n])
        np.divide(predicted, group_totals[..., np.newaxis], out=rates[..., n:])
        np.subtract(1.0, correct / group_totals, out=error)
        np.divide(add.reduce(correct, axis=1), total, out=fields[:, 0])
        count = add.reduce(rates == rates, axis=1)
        mean = _running_sum(np.fmax(rates, 0.0), axis=1) / count
        squares = _squares(rates - mean[:, np.newaxis])
        variances = terms.reshape(clients, 3 * n)[:, n:]
        np.divide(_running_sum(np.fmax(squares, 0.0), axis=1), count, out=variances)
        # BA runs over the predicted classes, EO over the classes with
        # truth in two or more groups, DP over all classes.
        dominant = np.maximum.reduce(predicted, axis=1)  # [k, p]: the top group's count
        np.divide(dominant, add.reduce(predicted, axis=1), out=terms[:, 0])
        terms[:, 1][count[:, :n] < 2] = np.nan
        kept = add.reduce(terms == terms, axis=2)
        np.divide(_running_sum(np.fmax(terms, 0.0), axis=2), kept, out=fields[:, 1:4])
        # SER is at least 1, and 0 / 0 = NaN when no group errs: fmax makes it 1.
        worst = np.maximum.reduce(error, axis=1)
        np.fmax(worst / np.minimum.reduce(error, axis=1), 1.0, out=fields[:, 4])
    fields[:, 1] -= 1.0 / num_groups
    # An empty group (a NaN error) leaves DP and SER undefined, and a lone
    # group has no cross-group ratio, though its raw max/min is 1.0.
    fields[:, 3:5][np.isnan(worst)] = np.nan
    if num_groups < 2:
        fields[:, 4] = np.nan
    return fields, (n, num_groups, int(total[0]))


def _client_mean(fields: np.ndarray) -> np.ndarray:
    """Each column's mean over the rows (clients), added in row order;
    NaN wherever some row is NaN."""
    return _running_sum(fields, axis=0) / len(fields)


def _report(fields: np.ndarray, num_classes: int, num_groups: int, total: int) -> FairnessReport:
    """The report whose fields are ``fields``, packed as ``full_report``
    packs a client's row: acc, ba, eo, dp, ser, the per-group errors, then
    per group its recall row and its prediction-rate row. NaN is absent."""
    values = [None if v != v else v for v in fields.tolist()]
    acc, ba, eo, dp, ser = values[:5]
    rows = [values[i : i + num_classes] for i in range(5 + num_groups, len(values), num_classes)]
    return FairnessReport(
        num_classes=num_classes,
        num_groups=num_groups,
        total=total,
        acc=acc,
        ser=ser,
        eo=eo,
        ba=ba,
        dp=dp,
        per_group_error=values[5 : 5 + num_groups],
        recall_by_group_class=rows[0::2],
        prediction_rate_by_group_class=rows[1::2],
    )


def mean_reports(reports: Sequence[FairnessReport]) -> FairnessReport:
    """Elementwise mean of reports sharing one test set, as ``full_report``
    averages a stacked count array. A metric is present in the mean only
    when present in every report."""
    if not reports:
        raise ValueError("need at least one report to average")
    first = reports[0]
    shape = (first.num_classes, first.num_groups, first.total)
    if any((r.num_classes, r.num_groups, r.total) != shape for r in reports):
        raise ValueError("reports to average must describe the same test set")
    rows = []
    for r in reports:
        pairs = zip(r.recall_by_group_class, r.prediction_rate_by_group_class)
        rates = [v for recall, rate in pairs for v in recall + rate]
        rows.append([r.acc, r.ba, r.eo, r.dp, r.ser, *r.per_group_error, *rates])
    return _report(_client_mean(np.array(rows, dtype=np.float64)), *shape)


_LOG_COLUMNS = ("predicted", "actual", "group")


def _log_header(cells: list[str]) -> int:
    if [c.strip() for c in cells] != list(_LOG_COLUMNS):
        raise ValueError("header must be 'predicted,actual,group'")
    return len(_LOG_COLUMNS)


def load_prediction_log(
    path: str | Path, num_classes: int, num_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``predicted,actual,group`` CSV into three int64 arrays, in the
    argument order of :func:`tally`, through ``data.read_lines``; malformed
    rows and cells past int64 (``data.int64_cell``) name their line. Every
    row is parsed before any range is checked: ``data.check_ranges`` then
    names the first line holding a cell outside ``[0, num_classes)`` or
    ``[0, num_groups)``."""
    path = Path(path)
    _, rows = read_lines(path, _log_header, lambda cells: [int64_cell(c) for c in cells])
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    check_ranges(path, table.T, _LOG_COLUMNS, (num_classes, num_classes, num_groups))
    predicted, actual, group = table.T
    return predicted, actual, group
