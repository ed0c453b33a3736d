"""Command-line experiment runner.

Subcommands: ``generate-data`` (synthetic dataset to CSV), ``train``
(run the configured modes and append JSON-lines results), ``metrics``
(score a prediction log), ``compare`` (metric table across results
files). Exit statuses: 0 success, 1 configuration error, 2 data or
parse error, 3 runtime or numeric error, or running out of memory.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import itertools
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .data import generate_synthetic, read_text, save_csv
from .exceptions import ConfigurationError, DataFormatError, bound, refusal
from .federation import Federation, Mode, run_lockstep
from .federation import run_federation  # noqa: F401  (a span target of perfbench/tracing.py)
from .metrics import (
    METRIC_NAMES,
    FairnessReport,
    full_report,
    load_prediction_log,
    tally,
)

# Lower is better for every metric except accuracy.
_HIGHER_BETTER = {"acc"}
# The bound of ``fedbias metrics``' class and group counts.
_COUNT = bound(1, int(np.iinfo(np.int64).max))


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_master_seed(args.seed)
    if getattr(args, "mode", None):
        config = replace(config, modes=(Mode(args.mode),))
    return config


def _format_value(value: float | None) -> str:
    if value is None:
        return "absent"
    return f"{value:.5g}"


def _summary_line(label: str, report: FairnessReport) -> str:
    cells = ", ".join(
        f"{name}={_format_value(report.metric(name))}" for name in METRIC_NAMES
    )
    return f"{label}: {cells}"


def _writable(out: str | None, *inputs: str | None) -> Path | None:
    """``out`` as a path, None if empty; refused before any work, with the
    error opening it would raise, if its directory is missing or it is one,
    and with a ``ConfigurationError`` if it is one of the command's
    ``inputs`` (None for an input not read), under any name or link."""
    if not out:
        return None
    path = Path(out)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for source in inputs:
        if source and path.exists() and os.path.exists(source) and path.samefile(source):
            raise ConfigurationError(f"output {out} would overwrite the input {source}")
    return path


def cmd_generate_data(args: argparse.Namespace) -> int:
    _writable(args.out, args.config)
    config = _effective_config(args)
    dataset = generate_synthetic(config.synthetic_spec())
    save_csv(dataset, args.out)
    print(
        f"wrote {args.out}: {len(dataset)} examples, "
        f"{dataset.num_classes} classes, {dataset.num_groups} groups"
    )
    for g in range(dataset.num_groups):
        mask = dataset.groups == g
        counts = np.bincount(dataset.labels[mask], minlength=dataset.num_classes)
        modal = int(np.argmax(counts))
        print(
            f"group {g}: {int(mask.sum())} examples, modal class {modal}, "
            f"class counts {counts.tolist()}"
        )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    out_path = args.out or config.output_path
    csv_path = config.csv_path if config.source == "csv" else None
    path = _writable(out_path, args.config, csv_path)
    if path is None:
        raise ConfigurationError("no results path: pass --out or set run.output")

    partitions, test_set = config.split_and_partition(config.load_dataset())

    # Every mode trains in one lockstep run over the shared partitions,
    # each on its own head.
    federations = [
        Federation(mode, config.master_seed, partitions, test_set) for mode in config.modes
    ]
    results = run_lockstep(config.federation_config(), federations)

    lines: list[dict] = []
    summary: dict[str, dict] = {}
    for mode, result in zip(config.modes, results):
        for snap in result.history:
            if snap.report is None:
                continue
            lines.append(
                {
                    "kind": "round",
                    "mode": mode.value,
                    "round": snap.round_index,
                    "mean_train_loss": snap.mean_train_loss,
                    "duration_sec": snap.duration_sec,
                    "report": snap.report.to_dict(),
                }
            )
        summary[mode.value] = result.final_report.to_dict()
        print(_summary_line(f"{mode.value} final", result.final_report))
    lines.append(
        {
            "kind": "summary",
            "modes": [m.value for m in config.modes],
            "reports": summary,
        }
    )

    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {out_path}: {len(lines)} lines")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    out = _writable(args.out, args.predictions)
    for name, value in (("num_classes", args.num_classes), ("num_groups", args.num_groups)):
        reason = refusal(_COUNT, value)
        if reason:
            raise ConfigurationError(f"{name} {reason}, got {value}")
    log = load_prediction_log(args.predictions, args.num_classes, args.num_groups)
    report = full_report(tally(*log, args.num_classes, args.num_groups))
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    print(payload)
    if out:
        out.write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_summaries(paths: list[str]) -> list[tuple[str, str, FairnessReport]]:
    """(file label, mode, report) triples from results files, in file order.
    A file's label is its stem, or the path as given when another file
    shares that stem. A path given twice, or two paths to one file (under
    any name or link), are refused before any file is read; a second
    summary line, or a summary of no modes or of one mode twice, once it is read."""
    for a, b in itertools.combinations(paths, 2):
        if a == b:
            raise ConfigurationError(f"results file {a} is given more than once")
        if os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b):
            raise ConfigurationError(f"results files {a} and {b} are one file")
    rows = []
    for path in paths:
        summary = None
        lines = io.StringIO(read_text(Path(path)), newline=None)
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise DataFormatError(f"{path}: line {lineno}: expected a JSON object")
            if obj.get("kind") != "summary":
                continue
            if summary is not None:
                raise DataFormatError(
                    f"{path}: line {lineno}: a second summary line (the first is line {first})"
                )
            first = lineno
            try:
                summary = [(m, FairnessReport.from_dict(obj["reports"][m])) for m in obj["modes"]]
                if not summary or len(dict(summary)) < len(summary):
                    raise ValueError(f"modes must be one or more distinct modes, got {obj['modes']}")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(
                    f"{path}: line {lineno}: malformed summary ({type(exc).__name__}: {exc})"
                ) from None
        if summary is None:
            raise DataFormatError(f"{path}: no summary line (is this a results file?)")
        rows.extend((path, mode, report) for mode, report in summary)
    # Two paths with one stem would otherwise label their rows alike.
    stems = Counter(Path(path).stem for path in paths)
    return [
        (path if stems[Path(path).stem] > 1 else Path(path).stem, mode, report)
        for path, mode, report in rows
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    out = _writable(args.out, *args.results)
    rows = _load_summaries(args.results)
    mode_counts = Counter(mode for _, mode, _ in rows)
    labeled = [
        (mode if mode_counts[mode] == 1 else f"{source}:{mode}", report)
        for source, mode, report in rows
    ]

    best: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [r.metric(name) for _, r in labeled if r.metric(name) is not None]
        pick = max if name in _HIGHER_BETTER else min
        best[name] = pick(values, default=None)

    def is_best(report: FairnessReport, name: str) -> bool:
        value = report.metric(name)
        return value is not None and value == best[name]

    def cell(report: FairnessReport, name: str) -> str:
        return _format_value(report.metric(name)) + (" *" if is_best(report, name) else "")

    header = ["mode"] + [name.upper() for name in METRIC_NAMES]
    table = [header] + [
        [label] + [cell(report, name) for name in METRIC_NAMES]
        for label, report in labeled
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for i, row in enumerate(table):
        print("  ".join(text.ljust(w) for text, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))
    print("* best per column (higher is better for ACC, lower for the rest)")

    if out:
        with out.open("w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["mode", *METRIC_NAMES, "best_metrics"])
            for label, report in labeled:
                cells = [
                    "" if report.metric(n) is None else repr(report.metric(n))
                    for n in METRIC_NAMES
                ]
                flags = ";".join(n for n in METRIC_NAMES if is_best(report, n))
                writer.writerow([label, *cells, flags])
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbias",
        description="Federated training with group-debiased classification heads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic dataset CSV")
    gen.add_argument("--config", required=True, help="experiment config file")
    gen.add_argument("--out", required=True, help="destination CSV path")
    gen.add_argument("--seed", type=int, help="override run.master_seed")
    gen.set_defaults(func=cmd_generate_data)

    train = sub.add_parser("train", help="run the configured training modes")
    train.add_argument("--config", required=True, help="experiment config file")
    train.add_argument("--out", help="results JSONL path (default: run.output)")
    train.add_argument("--seed", type=int, help="override run.master_seed")
    train.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        help="run a single mode instead of run.modes",
    )
    train.set_defaults(func=cmd_train)

    metrics = sub.add_parser("metrics", help="score a prediction log CSV")
    metrics.add_argument("predictions", help="CSV with predicted,actual,group columns")
    metrics.add_argument("num_classes", type=int)
    metrics.add_argument("num_groups", type=int)
    metrics.add_argument("--out", help="also write the report JSON here")
    metrics.set_defaults(func=cmd_metrics)

    compare = sub.add_parser("compare", help="tabulate metrics across results files")
    compare.add_argument("results", nargs="+", help="results JSONL files")
    compare.add_argument("--out", help="also write a CSV table here")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # NumPy names the allocation it could not make; a bare one says nothing.
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
