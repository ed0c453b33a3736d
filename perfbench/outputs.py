"""Digest of a ``fedbias train`` results file, for checking outputs.

Every line is parsed back through ``FairnessReport.from_dict``, the path
``fedbias compare`` reads, and the digest covers the values a user compares:
mode, round, mean training loss, the five metrics and the per-group error
rates, each as the exact bits of the float. ``duration_sec`` is left out, as
is the JSON spelling of a number, so re-encoding a value (say, infinity)
keeps the digest while changing any bit of any result changes it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from fedbias.metrics import METRIC_NAMES, FairnessReport


class OutputError(ValueError):
    """A results file is malformed or holds a non-finite training loss."""


def _bits(value) -> str | None:
    return None if value is None else float(value).hex()


def _row(mode: str, round_index, loss, report: FairnessReport) -> str:
    return repr((
        mode,
        round_index,
        _bits(loss),
        [_bits(report.metric(name)) for name in METRIC_NAMES],
        [_bits(err) for err in report.per_group_error],
    ))


def results_digest(path: Path) -> str:
    """SHA-256 over the parsed results; raises OutputError on bad content."""
    digest = hashlib.sha256()
    summaries = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
                if obj["kind"] == "round":
                    loss = obj["mean_train_loss"]
                    if loss is not None and not math.isfinite(loss):
                        raise OutputError(f"{path}: line {lineno}: training loss is {loss}")
                    rows = [_row(obj["mode"], obj["round"], loss,
                                 FairnessReport.from_dict(obj["report"]))]
                elif obj["kind"] == "summary":
                    summaries += 1
                    rows = [_row(mode, "final", None, FairnessReport.from_dict(obj["reports"][mode]))
                            for mode in obj["modes"]]
                else:
                    raise OutputError(f"{path}: line {lineno}: unknown kind {obj['kind']!r}")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise OutputError(f"{path}: line {lineno}: {exc!r}") from None
            for row in rows:
                digest.update(row.encode("utf-8") + b"\n")
    if summaries != 1:
        raise OutputError(f"{path}: expected one summary line, found {summaries}")
    return digest.hexdigest()
