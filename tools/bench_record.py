#!/usr/bin/env python3
"""Record one point of the benchmark trajectory: every workload at several seeds.

    python3 tools/bench_record.py --label main --seeds 1,2,3 --seconds 8
    python3 tools/bench_record.py --label next --base main --seeds 1,2,3,4,5

For each seed, and for each workload ``BENCHMARK.json`` declares, it runs the
declared command (``python3 perfbench/run.py``) with ``--workload W --seed S
--seconds N`` in its own process, with ``OPENBLAS_NUM_THREADS=1`` unless that
variable is set. From each run it keeps the ``machine:`` record and the final
JSON line. It then writes ``bench/BENCH_<label>.json``: the measured working
tree's ``commit`` (its HEAD) and whether it is ``dirty`` (tracked files differ
from HEAD, so the runs measured uncommitted changes), and per workload and
metric the median, quartiles, sample count and unit, and every run's machine
record and final line. A run's ``machine.commit`` is perfbench's own reading
of ``git rev-parse HEAD`` where it ran: HEAD even in a dirty tree, and
``unknown`` in an export. If any run fails or reports ``correct: false`` it
writes nothing and exits with status 1.

With ``--base REV`` it also exports commit REV with ``git archive`` into a
temporary directory and runs it at each (workload, seed) next to the working
tree, the side that runs first alternating from one pair to the next. The
file then holds the base's summary under ``base``, whose ``commit`` names
the base, and, under ``paired``, per
workload and metric the change/base ratio of each pair, their median and
range, and how many pairs the change won, in the direction ``BENCHMARK.json``
declares for that metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE_PREFIX = "machine: "


def read_run(stdout: str) -> tuple[dict, dict]:
    """The machine record and the final JSON line of one run's output.
    Raises ``ValueError`` when either is missing or the run was not correct."""
    lines = stdout.splitlines()
    machines = [line[len(MACHINE_PREFIX):] for line in lines if line.startswith(MACHINE_PREFIX)]
    if len(machines) != 1:
        raise ValueError(f"expected one machine record, found {len(machines)}")
    try:
        machine, result = json.loads(machines[0]), json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"unreadable run output: {exc}") from None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise ValueError(f"run not correct: {lines[-1]}")
    return machine, result


def summarize(runs: list[tuple[str, int, dict, dict]]) -> dict:
    """Per workload, the median, quartiles, count and unit of each metric
    over its runs, given as ``(workload, seed, machine, result)``, and the
    runs themselves. Quartiles are ``statistics.quantiles``' cut points, as
    the harness prints them; one run is its own median and quartiles."""
    workloads: dict[str, dict] = {}
    for workload, seed, machine, result in runs:
        entry = workloads.setdefault(workload, {"metrics": {}, "runs": []})
        entry["runs"].append({"seed": seed, "machine": machine, "result": result})
    for entry in workloads.values():
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for run in entry["runs"]:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            entry["metrics"][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "n": len(series), "unit": units[name],
            }
    return workloads


def paired(pairs: list[tuple[str, dict, dict]], better: dict[str, str]) -> dict:
    """Per workload and metric, over pairs given as ``(workload, change
    result, base result)``: the change/base ratio of each pair, their
    median, minimum and maximum, and ``wins``, the pairs in which the
    change's value is better in the direction ``better`` names for the
    metric (``"lower"`` or ``"higher"``; None for a metric it does not
    name). A pair whose base value is 0 has no ratio but can still win."""
    out: dict[str, dict] = {}
    for workload, change, base in pairs:
        for name, metric in change["metrics"].items():
            new, old = metric["value"], base["metrics"][name]["value"]
            entry = out.setdefault(workload, {}).setdefault(
                name, {"ratios": [], "n": 0, "wins": 0 if name in better else None}
            )
            entry["n"] += 1
            if old != 0:
                entry["ratios"].append(new / old)
            if name in better and (new < old if better[name] == "lower" else new > old):
                entry["wins"] += 1
    for metrics in out.values():
        for entry in metrics.values():
            ratios = entry["ratios"]
            entry["median"] = statistics.median(ratios) if ratios else None
            entry["min"], entry["max"] = (min(ratios), max(ratios)) if ratios else (None, None)
    return out


def run_once(command: list[str], cwd: Path, env: dict) -> tuple[dict, dict]:
    """``read_run`` of one benchmark run in ``cwd``; a non-zero exit raises
    ``ValueError`` with the run's standard error."""
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"exit status {proc.returncode}\n{proc.stderr}")
    return read_run(proc.stdout)


def git(*args: str) -> str:
    """The standard output of one git command run in ``ROOT``, stripped."""
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Extracts commit ``rev``'s tree into ``dest`` and returns its hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names bench/BENCH_<label>.json")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=8.0, help="timed seconds per run")
    parser.add_argument("--base", help="also run this commit, paired with the working tree")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    tree = {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}

    with tempfile.TemporaryDirectory() as tmp:
        sides = [("change", ROOT)]
        if args.base:
            base_commit = export(args.base, Path(tmp))
            sides.append(("base", Path(tmp)))
        runs: dict[str, list] = {side: [] for side, _ in sides}
        pairs = []
        for seed in seeds:
            for workload in (w["name"] for w in benchmark["workloads"]):
                command = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{args.seconds:g}"]
                results = {}
                # The side that runs first alternates from one pair to the next.
                for side, cwd in sides[:: -1 if len(pairs) % 2 else 1]:
                    print(f"{workload} seed {seed} {side}", file=sys.stderr)
                    try:
                        machine, results[side] = run_once(command, cwd, env)
                    except ValueError as exc:
                        print(f"{workload} seed {seed} {side}: {exc}", file=sys.stderr)
                        return 1
                    runs[side].append((workload, seed, machine, results[side]))
                pairs.append((workload, results["change"], results.get("base")))

    record = {"label": args.label, "seeds": seeds, "seconds": args.seconds, **tree,
              "workloads": summarize(runs["change"])}
    if args.base:
        record["base"] = {"rev": args.base, "commit": base_commit,
                          "workloads": summarize(runs["base"])}
        record["paired"] = paired(pairs, better)
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
