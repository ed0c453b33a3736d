#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny scale (about half a minute).

    python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced with ``--tiny`` and
checks that:

1. the run is correct and prints every metric BENCHMARK.json declares, with
   the declared unit;
2. in the traced run, module self times plus the unattributed remainder add
   up to the traced pass time, and a recount of the spans file in plain
   Python gives the printed self times;
3. a results file with one training loss changed in its last bit gets
   another digest, one with a non-finite loss is rejected, and re-encoding
   the same values keeps the digest.

Exits with status 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from outputs import OutputError, results_digest  # noqa: E402
from tracing import MODULES  # noqa: E402

TOLERANCE = 1e-9

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: run is correct ({result['failed']}/{result['attempted']} failed)")
    printed = result["metrics"]
    missing = [m["name"] for m in declared
               if printed.get(m["name"], {}).get("unit") != m["unit"]]
    check(not missing, f"{workload}: all {len(declared)} declared metrics printed with units"
          + (f"; missing or mislabelled: {missing}" if missing else ""))


def check_self_times(workload: str, metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    modules = sum(value[f"module.{m}.self_s"] for m in MODULES)
    total = value["trace.train_s"]
    check(abs(modules + value["trace.unattributed_s"] - total) <= TOLERANCE * total,
          f"{workload}: module self times + remainder = traced pass time ({total:.6f} s)")

    spans = np.load(ROOT / ".perfbench_out" / f"spans-{workload}.npz")
    names = [str(n) for n in spans["names"]]
    start, end = spans["start"].tolist(), spans["end"].tolist()
    parent = spans["parent"].tolist()
    span_pass = [int(spans["op_pass"][op]) for op in spans["op"]]
    passes = [i for i, kind in enumerate(spans["pass_kind"]) if kind == "train"]
    child = defaultdict(float)
    nested_ok = True
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
            nested_ok &= start[p] <= start[i] <= end[i] <= end[p]
    check(nested_ok, f"{workload}: every span lies inside its parent")
    self_s = defaultdict(float)
    for i, name in enumerate(names[k] for k in spans["name"]):
        if span_pass[i] in passes:
            self_s[name] += (end[i] - start[i] - child[i]) / len(passes)
    worst = max(abs(self_s[n] - value[f"{n}.self_s"]) for n in names)
    check(worst <= TOLERANCE * total, f"{workload}: span recount matches printed self times")


def check_digest() -> None:
    import fedbias.cli

    workload = wl.tiny(wl.WORKLOADS["demo_sweep"])
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        files = wl.write_configs(workload, Path(tmp))
        argv = wl.train_argvs(workload, files, seed=3)[0]
        with contextlib.redirect_stdout(io.StringIO()):
            status = fedbias.cli.main(argv)
        check(status == 0, "tiny train call for the digest check succeeds")
        path = files.results(0)
        original = results_digest(path)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

        def digest_with(loss) -> str:
            edited = [dict(obj) for obj in lines]
            target = next(o for o in edited if o.get("mean_train_loss") is not None)
            target["mean_train_loss"] = loss
            altered = Path(tmp) / "altered.jsonl"
            altered.write_text("".join(json.dumps(o) + "\n" for o in edited), encoding="utf-8")
            return results_digest(altered)

        loss = next(o["mean_train_loss"] for o in lines if o.get("mean_train_loss") is not None)
        check(digest_with(loss) == original, "re-encoding the same values keeps the digest")
        check(digest_with(math.nextafter(loss, math.inf)) != original,
              "one training loss changed in its last bit changes the digest")
        try:
            digest_with(math.nan)
            rejected = False
        except OutputError:
            rejected = True
        check(rejected, "a non-finite training loss is rejected")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in wl.WORKLOADS:
        check_metrics(workload, run(workload, 0), benchmark["end_to_end"])
        traced = run(workload, 1)
        check_metrics(workload, traced, benchmark["per_layer"])
        check_self_times(workload, traced["metrics"])
    check_digest()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
