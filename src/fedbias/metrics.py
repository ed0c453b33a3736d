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
report's ``absent``. Variances are population variances. The count
array's integer marginals are read out once; all ratio arithmetic on
them uses plain Python floats in a fixed iteration order (groups, then
classes, ascending), so an independent per-record recount reproduces
every value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import DataFormatError, UndefinedMetricError

CONVENTIONS = {
    "ser": "max_group_error / min_group_error",
    "variance": "population",
}

METRIC_NAMES = ("acc", "ser", "eo", "ba", "dp")

# Strict JSON has no infinity, so an infinite skewed error ratio (the
# only metric that can be infinite) is written as this string.
_INF_TEXT = "inf"
_INT64 = np.iinfo(np.int64)


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
    records of group g with actual class y predicted as p."""
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
        if arr.size and (arr.min() < 0 or arr.max() >= limit):
            raise ValueError(f"{name} index out of range [0, {limit})")
        columns.append(arr)
    pred, actual, group = columns
    if not pred.ndim == actual.ndim == group.ndim == 1 or not (
        len(pred) == len(actual) == len(group)
    ):
        raise ValueError("predicted, actual and group must be 1-D arrays of one length")
    flat = (group * num_classes + actual) * num_classes + pred
    size = num_groups * num_classes * num_classes
    return np.bincount(flat, minlength=size).reshape(num_groups, num_classes, num_classes)


def records_from_arrays(
    predicted: np.ndarray, actual: np.ndarray, group: np.ndarray
) -> list[PredictionRecord]:
    """One record per entry, for record-based reference checks."""
    return [
        PredictionRecord(int(p), int(a), int(g))
        for p, a, g in zip(predicted, actual, group)
    ]


class _Marginals(NamedTuple):
    """The count array's integer marginals, read out once as Python ints,
    and the per-group rates built from them. Every metric reads these."""

    total: int
    correct: int
    group_totals: list[int]
    predicted: list[list[int]]  # [g][c]: records of group g predicted as c
    error: list[float | None]  # [g]: error rate; None for an empty group
    recall: list[list[float | None]]  # [g][c]: None without class-c truth
    rate: list[list[float | None]]  # [g][c]: share of group g predicted as c


def _marginals(counts: np.ndarray) -> _Marginals:
    truth = counts.sum(axis=2).tolist()
    predicted = counts.sum(axis=1).tolist()
    diagonal = np.diagonal(counts, axis1=1, axis2=2).tolist()
    group_totals = [sum(row) for row in truth]
    correct = [sum(row) for row in diagonal]
    return _Marginals(
        total=sum(group_totals),
        correct=sum(correct),
        group_totals=group_totals,
        predicted=predicted,
        error=[1.0 - k / n if n > 0 else None for k, n in zip(correct, group_totals)],
        recall=[
            [k / n if n > 0 else None for k, n in zip(diag_row, truth_row)]
            for diag_row, truth_row in zip(diagonal, truth)
        ],
        rate=[
            [k / n if n > 0 else None for k in pred_row]
            for pred_row, n in zip(predicted, group_totals)
        ],
    )


def _require_every_group(m: _Marginals) -> None:
    if 0 in m.group_totals:
        raise UndefinedMetricError(f"group {m.group_totals.index(0)} has no records")


def _skewed_error_ratio(m: _Marginals) -> float:
    _require_every_group(m)
    max_e, min_e = max(m.error), min(m.error)
    if max_e == 0.0:
        return 1.0
    if min_e == 0.0:
        return math.inf
    return max_e / min_e


def _population_variance(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def _equal_opportunity(m: _Marginals) -> float:
    variances = []
    for recalls in zip(*m.recall):
        present = [r for r in recalls if r is not None]
        if len(present) >= 2:
            variances.append(_population_variance(present))
    if not variances:
        raise UndefinedMetricError("no class has ground-truth samples in two or more groups")
    return sum(variances) / len(variances)


def _bias_amplification(m: _Marginals) -> float:
    # full_report rejects an empty log, so at least one class is predicted.
    shares = []
    for per_group in zip(*m.predicted):
        total_c = sum(per_group)
        if total_c > 0:
            shares.append(max(per_group) / total_c)
    return sum(shares) / len(shares) - 1.0 / len(m.predicted)


def _demographic_parity(m: _Marginals) -> float:
    _require_every_group(m)
    variances = [_population_variance(rates) for rates in zip(*m.rate)]
    return sum(variances) / len(variances)


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
    conventions: dict[str, str] = field(default_factory=lambda: dict(CONVENTIONS))

    @property
    def absent(self) -> list[str]:
        return [name for name in METRIC_NAMES if getattr(self, name) is None]

    def metric(self, name: str) -> float | None:
        if name not in METRIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "num_groups": self.num_groups,
            "total": self.total,
            "acc": self.acc,
            "ser": _INF_TEXT if self.ser == math.inf else self.ser,
            "eo": self.eo,
            "ba": self.ba,
            "dp": self.dp,
            "per_group_error": self.per_group_error,
            "recall_by_group_class": self.recall_by_group_class,
            "prediction_rate_by_group_class": self.prediction_rate_by_group_class,
            "absent": self.absent,
            "conventions": self.conventions,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FairnessReport":
        """Inverse of ``to_dict``; also reads the bare ``Infinity`` token of
        older files, which ``json.loads`` already turns into a float. A
        metric that is neither a number nor null raises ``TypeError``."""
        values = {name: payload[name] for name in METRIC_NAMES}
        if values["ser"] == _INF_TEXT:
            values["ser"] = math.inf
        for name, value in values.items():
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise TypeError(f"metric {name} must be a number or null, got {value!r}")
        return cls(
            num_classes=payload["num_classes"],
            num_groups=payload["num_groups"],
            total=payload["total"],
            **values,
            per_group_error=payload["per_group_error"],
            recall_by_group_class=payload["recall_by_group_class"],
            prediction_rate_by_group_class=payload["prediction_rate_by_group_class"],
            conventions=dict(payload.get("conventions", CONVENTIONS)),
        )


def full_report(counts: np.ndarray) -> FairnessReport:
    """Compute all five metrics from a ``tally`` count array; degenerate
    ones come back absent, not as errors."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 3 or counts.shape[1] != counts.shape[2]:
        raise ValueError("counts must have shape (num_groups, num_classes, num_classes)")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    num_groups, num_classes, _ = counts.shape
    m = _marginals(counts)
    if m.total == 0:
        raise UndefinedMetricError("cannot build a report from an empty prediction log")

    def attempt(fn):
        try:
            return fn(m)
        except UndefinedMetricError:
            return None

    # A lone group has no cross-group ratio to report, even though the
    # raw max/min collapses to 1.0 there.
    ser = attempt(_skewed_error_ratio) if num_groups >= 2 else None

    return FairnessReport(
        num_classes=num_classes,
        num_groups=num_groups,
        total=m.total,
        acc=m.correct / m.total,
        ser=ser,
        eo=attempt(_equal_opportunity),
        ba=_bias_amplification(m),
        dp=attempt(_demographic_parity),
        per_group_error=m.error,
        recall_by_group_class=m.recall,
        prediction_rate_by_group_class=m.rate,
    )


def mean_reports(reports: Sequence[FairnessReport]) -> FairnessReport:
    """Elementwise mean of reports sharing one test set (the local-only
    baseline averages each client's metrics). A metric is present in the
    mean only when present in every report."""
    if not reports:
        raise ValueError("need at least one report to average")
    first = reports[0]
    for r in reports[1:]:
        if (r.num_classes, r.num_groups, r.total) != (
            first.num_classes,
            first.num_groups,
            first.total,
        ):
            raise ValueError("reports to average must describe the same test set")

    def mean_scalar(values: list[float | None]) -> float | None:
        if any(v is None for v in values):
            return None
        return sum(values) / len(values)

    def mean_matrix(mats: list[list[list[float | None]]]) -> list[list[float | None]]:
        out = []
        for g in range(first.num_groups):
            row = []
            for c in range(first.num_classes):
                row.append(mean_scalar([m[g][c] for m in mats]))
            out.append(row)
        return out

    return FairnessReport(
        num_classes=first.num_classes,
        num_groups=first.num_groups,
        total=first.total,
        acc=mean_scalar([r.acc for r in reports]),
        ser=mean_scalar([r.ser for r in reports]),
        eo=mean_scalar([r.eo for r in reports]),
        ba=mean_scalar([r.ba for r in reports]),
        dp=mean_scalar([r.dp for r in reports]),
        per_group_error=[
            mean_scalar([r.per_group_error[g] for r in reports])
            for g in range(first.num_groups)
        ],
        recall_by_group_class=mean_matrix([r.recall_by_group_class for r in reports]),
        prediction_rate_by_group_class=mean_matrix(
            [r.prediction_rate_by_group_class for r in reports]
        ),
    )


_LOG_COLUMNS = ("predicted", "actual", "group")


def load_prediction_log(
    path: str | Path, num_classes: int, num_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``predicted,actual,group`` CSV into three int64 arrays, in the
    argument order of :func:`tally`; malformed rows and cells outside
    ``[0, num_classes)`` or ``[0, num_groups)`` name their line. Every row
    is parsed before any range is checked."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    if [c.strip() for c in lines[0].split(",")] != list(_LOG_COLUMNS):
        raise DataFormatError(f"{path}: line 1: header must be 'predicted,actual,group'")
    rows = []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        cells = line.split(",")
        if len(cells) != 3:
            raise DataFormatError(f"{path}: line {lineno}: expected 3 columns, found {len(cells)}")
        try:
            rows.append([int(c) for c in cells])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        lineno, value = next(
            (i + 2, v)
            for i, row in enumerate(rows)
            for v in row
            if not _INT64.min <= v <= _INT64.max
        )
        raise DataFormatError(
            f"{path}: line {lineno}: {value} does not fit in a 64-bit integer"
        ) from None
    limits = (num_classes, num_classes, num_groups)
    bad = np.array([(column < 0) | (column >= limit) for column, limit in zip(table.T, limits)])
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        c = int(bad[:, i].argmax())
        raise DataFormatError(
            f"{path}: line {i + 2}: {_LOG_COLUMNS[c]} {table[i, c]} out of range [0, {limits[c]})"
        )
    predicted, actual, group = table.T
    return predicted, actual, group
