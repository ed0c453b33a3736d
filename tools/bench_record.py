#!/usr/bin/env python3
"""Record one point of the benchmark trajectory: every workload at several seeds.

    python3 tools/bench_record.py --label main --seeds 1,2,3 --seconds 8

For each seed, and for each workload ``BENCHMARK.json`` declares, it runs the
declared command (``python3 perfbench/run.py``) with ``--workload W --seed S
--seconds N`` in its own process, with ``OPENBLAS_NUM_THREADS=1`` unless that
variable is set. From each run it keeps the ``machine:`` record, which holds
the commit, and the final JSON line. It then writes ``bench/BENCH_<label>.json``:
per workload and metric the median, quartiles, sample count and unit, and
every run's machine record and final line. If any run fails or reports
``correct: false`` it writes nothing and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names bench/BENCH_<label>.json")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=float, default=8.0, help="timed seconds per run")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")

    runs = []
    for seed in seeds:
        for workload in (w["name"] for w in benchmark["workloads"]):
            command = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", f"{args.seconds:g}"]
            print(f"{workload} seed {seed}", file=sys.stderr)
            proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
            try:
                if proc.returncode != 0:
                    raise ValueError(f"exit status {proc.returncode}\n{proc.stderr}")
                machine, result = read_run(proc.stdout)
            except ValueError as exc:
                print(f"{workload} seed {seed}: {exc}", file=sys.stderr)
                return 1
            runs.append((workload, seed, machine, result))

    record = {"label": args.label, "seeds": seeds, "seconds": args.seconds,
              "workloads": summarize(runs)}
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
