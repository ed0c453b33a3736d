"""Command-line experiment runner.

Subcommands: ``generate-data`` (synthetic dataset to CSV), ``train``
(run the configured modes and append JSON-lines results), ``metrics``
(score a prediction log), ``compare`` (metric table across results
files). Exit statuses: 0 success, 1 configuration error, 2 data or
parse error, 3 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .data import generate_synthetic, save_csv
from .exceptions import (
    ConfigurationError,
    DataFormatError,
    NumericError,
    ProtocolError,
    UndefinedMetricError,
)
from .federation import Federation, Mode, run_lockstep
from .federation import run_federation  # noqa: F401  (a span target of perfbench/tracing.py)
from .metrics import (
    METRIC_NAMES,
    FairnessReport,
    full_report,
    load_prediction_log,
    tally,
)
from .nn import ClassifierSpec

# Lower is better for every metric except accuracy.
_HIGHER_BETTER = {"acc"}
_INT64_MAX = int(np.iinfo(np.int64).max)


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_master_seed(args.seed)
    if getattr(args, "mode", None):
        config = config.with_modes((Mode(args.mode),))
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


def cmd_generate_data(args: argparse.Namespace) -> int:
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
    if out_path is None:
        raise ConfigurationError("no results path: pass --out or set run.output")

    dataset = config.load_dataset()
    partitions, test_set = config.split_and_partition(dataset)

    # Modes on an equal classifier spec (fedavg and local share the plain
    # head) train as one lockstep run over the shared partitions.
    groups: dict[ClassifierSpec, list[Mode]] = {}
    for mode in config.modes:
        spec = config.classifier_spec(mode, input_dim=dataset.feature_dim)
        groups.setdefault(spec, []).append(mode)
    results = {}
    for spec, modes in groups.items():
        federations = [
            Federation(config.federation_config(mode), partitions, test_set) for mode in modes
        ]
        results.update(zip(modes, run_lockstep(federations, spec, config.eval_every)))

    lines: list[dict] = []
    summary: dict[str, dict] = {}
    for mode in config.modes:
        result = results[mode]
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

    with Path(out_path).open("w", encoding="utf-8", newline="\n") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {out_path}: {len(lines)} lines")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    for name in ("num_classes", "num_groups"):
        value = getattr(args, name)
        if not 1 <= value <= _INT64_MAX:
            raise ConfigurationError(f"{name} must be in [1, {_INT64_MAX}], got {value}")
    log = load_prediction_log(args.predictions, args.num_classes, args.num_groups)
    report = full_report(tally(*log, args.num_classes, args.num_groups))
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_summaries(paths: list[str]) -> list[tuple[str, str, FairnessReport]]:
    """(file stem, mode, report) triples from results files, in file order."""
    rows = []
    for path in paths:
        summary = None
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
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
                try:
                    summary = [
                        (mode, FairnessReport.from_dict(obj["reports"][mode]))
                        for mode in obj["modes"]
                    ]
                except (KeyError, TypeError) as exc:
                    raise DataFormatError(
                        f"{path}: line {lineno}: malformed summary ({type(exc).__name__}: {exc})"
                    ) from None
        if summary is None:
            raise DataFormatError(f"{path}: no summary line (is this a results file?)")
        rows.extend((Path(path).stem, mode, report) for mode, report in summary)
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    rows = _load_summaries(args.results)
    mode_counts: dict[str, int] = {}
    for _, mode, _ in rows:
        mode_counts[mode] = mode_counts.get(mode, 0) + 1
    labeled = [
        (mode if mode_counts[mode] == 1 else f"{stem}:{mode}", report)
        for stem, mode, report in rows
    ]

    best: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        values = [r.metric(name) for _, r in labeled if r.metric(name) is not None]
        if not values:
            best[name] = None
        else:
            best[name] = max(values) if name in _HIGHER_BETTER else min(values)

    def cell(report: FairnessReport, name: str) -> str:
        value = report.metric(name)
        text = _format_value(value)
        if value is not None and value == best[name]:
            text += " *"
        return text

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

    if args.out:
        with Path(args.out).open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("mode,acc,ser,eo,ba,dp,best_metrics\n")
            for label, report in labeled:
                cells = [
                    "" if report.metric(n) is None else repr(report.metric(n))
                    for n in METRIC_NAMES
                ]
                flags = ";".join(
                    n
                    for n in METRIC_NAMES
                    if report.metric(n) is not None and report.metric(n) == best[n]
                )
                fh.write(",".join([label, *cells, flags]) + "\n")
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
    except (ProtocolError, UndefinedMetricError, NumericError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
