#!/usr/bin/env python3
"""Benchmark of ``fedbias train`` through its public CLI entry point.

    python3 perfbench/run.py --workload demo_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run measures one workload in a fresh process. It first runs one pass at
the pinned seed and checks its outputs against pinned_digests.json, then
times set-up several times, then repeats timed passes of ``fedbias train``
calls at ``--seed`` for ``--seconds`` seconds, checking that every pass
gives the same outputs as the first. With ``--trace 1`` it alternates
untraced and traced passes and reports per-layer span times instead of the
end-to-end metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all`` runs
each workload in its own process and prints one table. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from itertools import cycle
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

import machine  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {
    "train_s": "s",
    "samples_per_s": "example-passes/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Set-up is timed in blocks, one before the timed passes and one after each
# of them, because the host's speed changes within seconds. A block runs
# set-ups until SETUP_BLOCK_SECONDS have passed or MAX_BLOCK_SETUPS are done.
SETUP_BLOCK_SECONDS = 0.2
MAX_BLOCK_SETUPS = 50

# Spans that the set-up calls reach; reported under "setup.".
SETUP_SPANS = (
    "cli.main",
    "config.load_config",
    "config.load_dataset",
    "config.split_and_partition",
    "data.generate_synthetic",
    "data.load_csv",
    "data.save_csv",
    "data.train_test_split",
    "data.partition",
)


def per_layer_units() -> dict[str, str]:
    # tracing, outputs and fedbias import NumPy, so they are imported only
    # after main() has fixed the BLAS thread count.
    from tracing import MODULES, SPAN_NAMES

    units = {}
    for span in SPAN_NAMES:
        units.update({f"{span}.calls": "count", f"{span}.self_s": "s",
                      f"{span}.total_s": "s", f"{span}.errors": "count"})
    units.update({f"module.{m}.self_s": "s" for m in MODULES})
    units.update({"trace.train_s": "s", "trace.untraced_train_s": "s",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s"})
    units.update({f"setup.{span}.self_s": "s" for span in SETUP_SPANS})
    units.update({"setup.traced_s": "s", "setup.unattributed_s": "s"})
    units.update({"nn.backward.gflop": "GFLOP", "nn.backward.gflop_per_s": "GFLOP/s",
                  "nn.optimizer_step.mbytes": "MB", "federation.fedavg_aggregate.mbytes": "MB"})
    return units


class Runner:
    """Makes the calls of a run and counts attempted and failed operations.

    An operation is one CLI call or one set-up. It fails on a non-zero exit
    status, an exception, or outputs that differ from the reference.
    """

    def __init__(self, workload: wl.Workload, files: wl.Files, tracer=None) -> None:
        self.workload = workload
        self.files = files
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def _begin(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.next_op()

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail.strip()}", file=sys.stderr)

    def cli(self, argv: list[str]) -> bool:
        import fedbias.cli

        self._begin()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = fedbias.cli.main(argv)
        except (Exception, SystemExit):
            self.fail(" ".join(argv[:1]), traceback.format_exc())
            return False
        if status != 0:
            self.fail(" ".join(argv[:1]), f"exit status {status}: {err.getvalue()}")
            return False
        return True

    def setup(self, seed: int) -> tuple[float, list[int], int] | None:
        """(seconds, client shard sizes, feature dim) for one set-up, made
        through the calls ``cmd_train`` makes, after ``generate-data`` when
        the workload reads a CSV."""
        import fedbias.config

        start = time.perf_counter()
        if self.workload.reads_csv and not self.cli(wl.generate_argv(self.files, seed)):
            return None
        self._begin()
        try:
            config = fedbias.config.load_config(self.files.train_config).with_master_seed(seed)
            dataset = config.load_dataset()
            partitions, _ = config.split_and_partition(dataset)
        except Exception:
            self.fail("setup", traceback.format_exc())
            return None
        return time.perf_counter() - start, [len(p) for p in partitions], dataset.feature_dim

    def train_pass(self, seed: int, host: HostSpeed | None = None):
        """Seconds for each of the pass's ``fedbias train`` calls, the host
        speed factor of each (1.0 without ``host``), and the digest of each
        call's results (None where the call failed)."""
        from outputs import OutputError, results_digest

        argvs = wl.train_argvs(self.workload, self.files, seed)
        for i in range(len(argvs)):
            self.files.results(i).unlink(missing_ok=True)
        ok, seconds, factors = [], [], []
        for argv in argvs:
            start = time.perf_counter()
            ok.append(self.cli(argv))
            seconds.append(time.perf_counter() - start)
            factors.append(host.factor() if host else 1.0)
        digests = []
        for i, good in enumerate(ok):
            digest = None
            if good:
                try:
                    digest = results_digest(self.files.results(i))
                except OutputError as exc:
                    self.fail(f"train call {i}", str(exc))
            digests.append(digest)
        return seconds, factors, digests

    def check(self, digests: list[str | None], reference: list[str | None] | None):
        """Compare a pass's digests with the reference; the first pass at a
        seed becomes the reference. Returns the reference."""
        if reference is None:
            return list(digests)
        for i, (got, want) in enumerate(zip(digests, reference)):
            if got is None:
                continue
            if want is None:
                reference[i] = got
            elif got != want:
                self.fail(f"train call {i}", f"output digest {got} differs from {want}")
        return reference


class HostSpeed:
    """Scales timings to the host speed at which ``machine.reference``
    takes ``machine.REFERENCE_S``.

    The reference task runs once at the start and once after each timed
    item. An item's factor is REFERENCE_S over the mean of the reference
    times just before and just after it. Other tenants of the host slow a
    run by up to half over minutes; scaled times follow the program's own
    speed through that.
    """

    def __init__(self) -> None:
        self.reference_s = [machine.reference()]

    def factor(self) -> float:
        """Factor for the item timed since the reference last ran."""
        before = self.reference_s[-1]
        self.reference_s.append(machine.reference())
        return machine.REFERENCE_S / ((before + self.reference_s[-1]) / 2)


def _pinned(workload: str, tiny: bool) -> list[str] | None:
    table = json.loads((HERE / "pinned_digests.json").read_text(encoding="utf-8"))
    return table["tiny" if tiny else "full"].get(workload)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_workload(args: argparse.Namespace) -> dict:
    workload = wl.WORKLOADS[args.workload]
    if args.tiny:
        workload = wl.tiny(workload)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        return _measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args: argparse.Namespace, workload: wl.Workload, workdir: Path) -> dict:
    files = wl.write_configs(workload, workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(workload, files, tracer)

    print("machine: " + json.dumps(machine.machine_record(ROOT), sort_keys=True))
    print("probe before: " + json.dumps(machine.probe(), sort_keys=True))

    # Warm-up pass at the pinned seed; its outputs must match the pins.
    if workload.reads_csv:
        runner.cli(wl.generate_argv(files, wl.PINNED_SEED))
    _, _, pinned_digests = runner.train_pass(wl.PINNED_SEED)
    print(f"digests at seed {wl.PINNED_SEED}: {json.dumps(pinned_digests)}")
    pinned = _pinned(workload.name, args.tiny)
    if pinned is None or len(pinned) != len(pinned_digests):
        runner.fail("pinned digests", f"none recorded for {len(pinned_digests)} calls")
    else:
        runner.check(pinned_digests, list(pinned))
    reference = list(pinned) if pinned is not None and args.seed == wl.PINNED_SEED else None

    # Untraced runs of a host-scaled workload scale every timing to the
    # reference host speed; traced runs report raw seconds.
    host = HostSpeed() if workload.host_scaled and not tracer else None
    setup_times, raw_setup_times = [], []
    shape = None
    setup_failed = False

    def setup_block() -> None:
        nonlocal shape, setup_failed
        block = []
        start = time.perf_counter()
        with tracer.active() if tracer else contextlib.nullcontext():
            for _ in range(MAX_BLOCK_SETUPS):
                with tracer.timed_pass("setup") if tracer else contextlib.nullcontext():
                    result = runner.setup(args.seed)
                if result is None:
                    setup_failed = True
                    break
                block.append(result[0])
                shape = result[1:]
                if time.perf_counter() - start >= SETUP_BLOCK_SECONDS:
                    break
        factor = host.factor() if host else 1.0
        raw_setup_times.extend(block)
        setup_times.extend(seconds * factor for seconds in block)

    setup_block()
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    raw_times: list[float] = []
    kinds = ("untraced", "traced") if tracer else ("untraced",)
    start = time.perf_counter()
    for kind in cycle(kinds):
        pass_start = time.perf_counter()
        if kind == "traced":
            with tracer.active(), tracer.timed_pass("train"):
                seconds, factors, digests = runner.train_pass(args.seed)
        else:
            seconds, factors, digests = runner.train_pass(args.seed, host)
        times[kind].append(sum(s * f for s, f in zip(seconds, factors)))
        raw_times.append(sum(seconds))
        reference = runner.check(digests, reference)
        print(f"pass {kind}: {times[kind][-1]:.6f} s ({sum(seconds):.6f} s unscaled)")
        if not setup_failed:
            setup_block()
        # Start another pass only if it should end within --seconds.
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds and all(times[k] for k in kinds):
            break

    print("probe after: " + json.dumps(machine.probe(), sort_keys=True))
    # Without a successful set-up the run is already failed; report no work.
    work = wl.computed_work(workload, *shape) if shape else wl.Work(0, 0.0, 0.0, 0.0)
    if tracer:
        tracer.save(OUT / f"spans-{workload.name}.npz")
        metrics = _per_layer(tracer, times, work)
    else:
        metrics = _end_to_end(times["untraced"], setup_times, work)
        print(f"train_s spread: {_spread(times['untraced'])}")
        print(f"setup_s spread: {_spread(setup_times)}")
        if host:
            print(f"unscaled: train {statistics.median(raw_times):.6g} s ({_spread(raw_times)}), "
                  f"setup {statistics.median(raw_setup_times):.6g} s; reference task "
                  f"{statistics.median(host.reference_s):.6g} s ({_spread(host.reference_s)}), "
                  f"scaled to {machine.REFERENCE_S} s")
    rate = runner.failed / runner.attempted
    print(f"error_rate: {rate:.6g} failed/attempted ({runner.failed}/{runner.attempted} ops)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _end_to_end(train_times: list[float], setup_times: list[float], work) -> dict:
    train_s = statistics.median(train_times)
    values = {
        "train_s": train_s,
        "samples_per_s": work.example_passes / train_s,
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in values.items():
        print(f"{name}: {value:.6g} {END_TO_END[name]}")
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def _per_layer(tracer, times: dict[str, list[float]], work) -> dict:
    from tracing import module_self_times

    train = tracer.summary("train")
    setup = tracer.summary("setup")
    values = {}
    for span, row in train["spans"].items():
        for field, value in row.items():
            values[f"{span}.{field}"] = value
    modules = module_self_times(train["spans"])
    values.update({f"module.{m}.self_s": s for m, s in modules.items()})
    untraced = statistics.mean(times["untraced"])
    values.update({
        "trace.train_s": train["pass_s"],
        "trace.untraced_train_s": untraced,
        "trace.overhead_s": train["pass_s"] - untraced,
        "trace.unattributed_s": train["unattributed_s"],
    })
    for span in SETUP_SPANS:
        values[f"setup.{span}.self_s"] = setup["spans"][span]["self_s"]
    values["setup.traced_s"] = setup["pass_s"]
    values["setup.unattributed_s"] = setup["unattributed_s"]
    backward_s = train["spans"]["nn.backward"]["total_s"]
    values.update({
        "nn.backward.gflop": work.backward_gflop,
        "nn.backward.gflop_per_s": work.backward_gflop / backward_s if backward_s else 0.0,
        "nn.optimizer_step.mbytes": work.optimizer_mbytes,
        "federation.fedavg_aggregate.mbytes": work.aggregate_mbytes,
    })

    total = train["pass_s"]
    print(f"traced train pass: {total:.6f} s, mean of {train['passes']}; "
          f"untraced {untraced:.6f} s; tracing overhead {total - untraced:+.6f} s")
    print("module self time (share of traced train pass):")
    for m, s in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {m:<12} {s:10.6f} s  {s / total:6.1%}")
    print("span self time:")
    rows = sorted(train["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, row in rows:
        if row["calls"]:
            print(f"  {span:<32} {row['self_s']:10.6f} s  {row['self_s'] / total:6.1%}"
                  f"  calls {row['calls']:.0f}")
    print(f"  {'(unattributed)':<32} {train['unattributed_s']:10.6f} s"
          f"  {train['unattributed_s'] / total:6.1%}")
    print("computed work per pass: " + json.dumps({
        k: values[k] for k in ("nn.backward.gflop", "nn.optimizer_step.mbytes",
                               "federation.fedavg_aggregate.mbytes")}))

    units = per_layer_units()
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one table of the end-to-end metrics."""
    names = list(END_TO_END) + ["error_rate"]
    units = dict(END_TO_END, error_rate="failed/attempted")
    print("workload".ljust(18) + "".join(f"{n} [{units[n]}]".rjust(35) for n in names))
    status = 0
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        cells = {k: v["value"] for k, v in result["metrics"].items()}
        cells["error_rate"] = result["failed"] / result["attempted"]
        print(name.ljust(18) + "".join(f"{cells[n]:.6g}".rjust(35) for n in names))
        if not result["correct"]:
            status = 1
    return status


def _import_fedbias() -> None:
    """Import fedbias from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fedbias.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fedbias from {src}: {exc}") from None
    if Path(fedbias.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: fedbias was imported from {fedbias.cli.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.PINNED_SEED,
                        help="master seed of the timed passes (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="time to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to about a second (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)

    # One BLAS thread: a second one spins on another core, and other
    # tenants slow that core on their own schedule.
    if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                         "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_fedbias()
    result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
