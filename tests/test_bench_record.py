"""The trajectory recorder's reading and summary of benchmark run output,
on canned output lines; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

MACHINE = {"commit": "abc123", "numpy": "2.4.6", "blas_threads": 1}


def run_output(train_s: float, correct: bool = True) -> str:
    final = {
        "attempted": 10,
        "correct": correct,
        "failed": 0 if correct else 1,
        "metrics": {
            "train_s": {"unit": "s", "value": train_s},
            "peak_rss_mb": {"unit": "MiB", "value": 40.0},
        },
    }
    return "\n".join([
        "machine: " + json.dumps(MACHINE, sort_keys=True),
        'probe before: {"gemm_s": 0.005}',
        f"train_s: {train_s} s",
        json.dumps(final, sort_keys=True),
    ]) + "\n"


def test_read_run_keeps_the_machine_record_and_the_final_line():
    machine, result = bench_record.read_run(run_output(0.5))
    assert machine == MACHINE
    assert result["metrics"]["train_s"] == {"unit": "s", "value": 0.5}


@pytest.mark.parametrize(
    "stdout, message",
    [
        (run_output(0.5, correct=False), "run not correct"),
        (run_output(0.5).replace("machine: ", "host: "), "expected one machine record, found 0"),
        (run_output(0.5) + "Traceback\n", "unreadable run output"),
    ],
    ids=["not_correct", "no_machine_record", "no_final_line"],
)
def test_read_run_refuses_a_failed_run(stdout, message):
    with pytest.raises(ValueError, match=message):
        bench_record.read_run(stdout)


def test_summary_per_workload_and_metric():
    runs = [
        ("wide", seed, *bench_record.read_run(run_output(train_s)))
        for seed, train_s in zip((1, 2, 3, 4, 5), (4.0, 3.0, 5.0, 1.0, 2.0))
    ]
    runs.append(("demo_sweep", 1, *bench_record.read_run(run_output(0.7))))
    summary = bench_record.summarize(runs)
    wide = summary["wide"]["metrics"]
    assert wide["train_s"] == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5, "unit": "s"}
    assert wide["peak_rss_mb"] == {"median": 40.0, "q1": 40.0, "q3": 40.0, "n": 5, "unit": "MiB"}
    assert [run["seed"] for run in summary["wide"]["runs"]] == [1, 2, 3, 4, 5]
    assert summary["wide"]["runs"][0]["machine"] == MACHINE
    # One run is its own median and quartiles.
    demo = summary["demo_sweep"]["metrics"]["train_s"]
    assert demo == {"median": 0.7, "q1": 0.7, "q3": 0.7, "n": 1, "unit": "s"}


def test_pairs_compare_each_change_run_with_its_base_run():
    # train_s is lower-better; peak_rss_mb is 40.0 on both sides, so its
    # ratios are 1 and no pair wins; samples_per_s is higher-better and
    # a zero base gives no ratio.
    def result(train_s, samples_per_s):
        _, result = bench_record.read_run(run_output(train_s))
        result["metrics"]["samples_per_s"] = {"unit": "1/s", "value": samples_per_s}
        return result

    pairs = [
        ("wide", result(3.0, 10.0), result(4.0, 0.0)),
        ("wide", result(5.0, 10.0), result(4.0, 5.0)),
        ("wide", result(2.0, 10.0), result(4.0, 20.0)),
        ("demo_sweep", result(0.7, 1.0), result(0.7, 1.0)),
    ]
    better = {"train_s": "lower", "samples_per_s": "higher"}
    summary = bench_record.paired(pairs, better)
    assert summary["wide"]["train_s"] == {
        "ratios": [0.75, 1.25, 0.5], "median": 0.75, "min": 0.5, "max": 1.25, "n": 3, "wins": 2,
    }
    assert summary["wide"]["samples_per_s"] == {
        "ratios": [2.0, 0.5], "median": 1.25, "min": 0.5, "max": 2.0, "n": 3, "wins": 2,
    }
    # A metric without a declared direction has ratios but no win count.
    rss = summary["wide"]["peak_rss_mb"]
    assert (rss["ratios"], rss["wins"]) == ([1.0, 1.0, 1.0], None)
    # A tie is no win.
    assert summary["demo_sweep"]["train_s"]["wins"] == 0
    assert summary["demo_sweep"]["train_s"]["median"] == 1.0


def test_base_and_change_alternate_which_runs_first(tmp_path, monkeypatch):
    # No benchmark runs: each run returns canned output, the base is not
    # exported, and the record is written under a scratch root.
    benchmark = json.loads((RECORDER.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    calls = []

    def run_once(command, cwd, env):
        side = "change" if cwd == tmp_path else "base"
        calls.append((command[command.index("--workload") + 1], side))
        return bench_record.read_run(run_output(1.0 if side == "change" else 2.0))

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "export", lambda rev, dest: "f" * 40)
    monkeypatch.setattr(bench_record, "git", lambda *args: "")
    assert bench_record.main(["--label", "x", "--base", "HEAD~1", "--seeds", "1,2"]) == 0
    workloads = [w["name"] for w in benchmark["workloads"]]
    sides = [("change", "base"), ("base", "change")] * len(workloads)
    assert calls == [(w, side) for w, pair in zip(workloads * 2, sides) for side in pair]
    record = json.loads((tmp_path / "bench" / "BENCH_x.json").read_text(encoding="utf-8"))
    assert record["base"]["commit"] == "f" * 40
    train_s = record["paired"][workloads[0]]["train_s"]
    assert (train_s["median"], train_s["n"], train_s["wins"]) == (0.5, 2, 2)


@pytest.mark.parametrize("status, dirty", [("", False), ("M src/fedbias/nn.py", True)])
def test_record_names_the_tree_it_measured(tmp_path, monkeypatch, status, dirty):
    # Every run, the export and git are faked, so no process starts.
    benchmark = json.loads((RECORDER.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    answers = {
        ("rev-parse", "HEAD"): "a" * 40,
        ("status", "--porcelain", "--untracked-files=no"): status,
    }

    def no_process(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(bench_record.subprocess, "run", no_process)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: answers[args])
    monkeypatch.setattr(bench_record, "run_once", lambda *args: bench_record.read_run(run_output(1.0)))
    monkeypatch.setattr(bench_record, "export", lambda rev, dest: "b" * 40)
    assert bench_record.main(["--label", "x", "--base", "HEAD~1", "--seeds", "1"]) == 0
    record = json.loads((tmp_path / "bench" / "BENCH_x.json").read_text(encoding="utf-8"))
    assert (record["commit"], record["dirty"]) == ("a" * 40, dirty)
    assert (record["base"]["rev"], record["base"]["commit"]) == ("HEAD~1", "b" * 40)
    # Each run keeps perfbench's own reading of the commit.
    runs = [run for workload in record["workloads"].values() for run in workload["runs"]]
    assert {run["machine"]["commit"] for run in runs} == {MACHINE["commit"]}
