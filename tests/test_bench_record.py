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
