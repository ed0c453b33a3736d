import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedbias.cli import main
from fedbias.data import load_csv
from fedbias.metrics import PredictionRecord, full_report, tally
from oracles import log_arrays

SRC = Path(__file__).resolve().parent.parent / "src"

BASE_CONFIG = """
data.num_classes = 2
data.num_groups = 2
data.feature_dim = 3
data.samples_per_group = 40
data.bias_strength = 0.6
data.group_shift = 1.0
model.hidden = 8
federation.rounds = 2
federation.clients = 2
federation.local_epochs = 1
federation.batch_size = 16
run.modes = fedavg,dbfed
run.master_seed = 3
"""


def write_config(tmp_path, text=BASE_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def strict_json(text):
    """json.loads that rejects the non-standard NaN/Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def strip_durations(rows):
    return [{k: v for k, v in row.items() if k != "duration_sec"} for row in rows]


def write_results_file(path, mode, records, num_classes, num_groups):
    """A results file shaped like cmd_train output, summary line only."""
    report = full_report(tally(*log_arrays(records), num_classes, num_groups))
    line = {"kind": "summary", "modes": [mode], "reports": {mode: report.to_dict()}}
    path.write_text(json.dumps(line, sort_keys=True) + "\n", encoding="utf-8")
    return report


R = PredictionRecord


class TestGenerateData:
    def test_pure_bias_gives_group_modal_classes(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "data.num_classes = 3\ndata.num_groups = 3\ndata.feature_dim = 2\n"
            "data.samples_per_group = 30\ndata.bias_strength = 1.0\n",
        )
        out = tmp_path / "data.csv"
        assert main(["generate-data", "--config", str(config), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for g in range(3):
            assert f"group {g}: 30 examples, modal class {g}" in stdout
        dataset = load_csv(out, num_classes=3, num_groups=3)
        assert len(dataset) == 90
        assert dataset.num_classes == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate-data", "--config", str(config), "--out", str(a)]) == 0
        assert main(["generate-data", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate-data", "--config", str(config), "--out", str(a)])
        main(["generate-data", "--config", str(config), "--out", str(b), "--seed", "9"])
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o.csv"
        args = ["generate-data", "--config", str(config), "--out", str(out), "--seed", "-1"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: run.master_seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_non_finite_config_value_exits_1_before_writing(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG + "data.noise_sigma = nan\n")
        out = tmp_path / "o.csv"
        assert main(["generate-data", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: line 15: data.noise_sigma: must be finite, got nan\n"
        assert not out.exists()

    def test_non_finite_draw_exits_1_before_writing(self, tmp_path, capsys):
        # A group shift near the float limit overflows some features at
        # seed 0, which the CSV format, and so ``fedbias train``, would refuse.
        config = write_config(tmp_path, BASE_CONFIG.replace("group_shift = 1.0", "group_shift = 1e308"))
        out = tmp_path / "o.csv"
        args = ["generate-data", "--config", str(config), "--out", str(out), "--seed", "0"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "the draw has non-finite features: group_shift or noise_sigma is too large"
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_csv_source_config_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "data.source = csv\ndata.num_classes = 2\ndata.num_groups = 2\n"
            f"data.csv_path = {tmp_path / 'in.csv'}\n",
        )
        status = main(["generate-data", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert status == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_results_file_shape(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results.jsonl"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        rows = read_jsonl(out)
        # Two modes x rounds {0, 1, 2}, then one summary.
        assert [r["kind"] for r in rows] == ["round"] * 6 + ["summary"]
        assert [r["round"] for r in rows[:3]] == [0, 1, 2]
        assert {r["mode"] for r in rows[:3]} == {"fedavg"}
        assert {r["mode"] for r in rows[3:6]} == {"dbfed"}
        assert rows[-1]["modes"] == ["fedavg", "dbfed"]
        assert set(rows[-1]["reports"]) == {"fedavg", "dbfed"}
        stdout = capsys.readouterr().out
        assert "fedavg final:" in stdout and "dbfed final:" in stdout

    def test_rerun_identical_apart_from_durations(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["train", "--config", str(config), "--out", str(a)]) == 0
        assert main(["train", "--config", str(config), "--out", str(b)]) == 0
        assert strip_durations(read_jsonl(a)) == strip_durations(read_jsonl(b))

    def test_zero_rounds_keeps_initial_evaluation_only(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG.replace("rounds = 2", "rounds = 0"))
        out = tmp_path / "results.jsonl"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert [r["kind"] for r in rows] == ["round", "round", "summary"]
        assert all(r["round"] == 0 for r in rows[:2])

    def test_rounds_between_evaluations_write_no_line(self, tmp_path):
        text = BASE_CONFIG.replace("rounds = 2", "rounds = 5")
        text = text.replace("fedavg,dbfed", "fedavg,local") + "run.eval_every = 2\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "results.jsonl"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert [(r["mode"], r["round"]) for r in rows[:-1]] == [
            (mode, i) for mode in ("fedavg", "local") for i in (0, 2, 4, 5)
        ]
        # The final round is always evaluated, and is the summary's report.
        for mode, last in (("fedavg", rows[3]), ("local", rows[7])):
            assert rows[-1]["reports"][mode] == last["report"]

    def test_mode_override_runs_single_mode(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "results.jsonl"
        assert main(["train", "--config", str(config), "--out", str(out), "--mode", "dbfed"]) == 0
        rows = read_jsonl(out)
        assert {r["mode"] for r in rows if r["kind"] == "round"} == {"dbfed"}
        assert rows[-1]["modes"] == ["dbfed"]

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["train", "--config", str(config), "--out", str(a)])
        main(["train", "--config", str(config), "--out", str(b), "--seed", "11"])
        assert strip_durations(read_jsonl(a)) != strip_durations(read_jsonl(b))

    def test_output_key_in_config(self, tmp_path):
        out = tmp_path / "from_config.jsonl"
        config = write_config(tmp_path, BASE_CONFIG + f"run.output = {out}\n")
        assert main(["train", "--config", str(config)]) == 0
        assert out.exists()

    def test_missing_output_path_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 1
        assert "run.output" in capsys.readouterr().err

    def test_lockstep_modes_match_each_mode_run_alone(self, tmp_path, capsys):
        # All three modes train in one lockstep run, on both heads; every
        # mode's lines must equal a run of that mode on its own.
        text = BASE_CONFIG.replace("fedavg,dbfed", "local,dbfed,fedavg")
        config = write_config(tmp_path, text)
        together = tmp_path / "together.jsonl"
        assert main(["train", "--config", str(config), "--out", str(together)]) == 0
        rows = strip_durations(read_jsonl(together))
        finals = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:3]]
        assert finals == ["local final", "dbfed final", "fedavg final"]
        assert [r["mode"] for r in rows[:-1]] == ["local"] * 3 + ["dbfed"] * 3 + ["fedavg"] * 3
        for mode in ("local", "dbfed", "fedavg"):
            alone = tmp_path / f"{mode}.jsonl"
            argv = ["train", "--config", str(config), "--out", str(alone), "--mode", mode]
            assert main(argv) == 0
            solo = strip_durations(read_jsonl(alone))
            assert [r for r in rows if r.get("mode") == mode] == solo[:-1]
            assert rows[-1]["reports"][mode] == solo[-1]["reports"][mode]

    def test_failure_in_second_lockstep_mode_exits_3(self, tmp_path, capsys, monkeypatch):
        # All three modes train in one lockstep run, on both heads. Give
        # dbfed and local their own copies of the shared shards and poison
        # their training; the error must name dbfed, the first failing
        # mode in run.modes order.
        import fedbias.cli as cli
        import fedbias.federation as federation

        run_lockstep, train_chunk = federation.run_lockstep, federation._train_chunk
        copies = []

        def split_shards(config, federations):
            assert [fed.mode.value for fed in federations] == ["fedavg", "dbfed", "local"]
            split = [federations[0]]
            for fed in federations[1:]:
                own = [p.subset(np.arange(len(p))) for p in fed.partitions]
                copies.extend(own)
                split.append(fed._replace(partitions=own))
            return run_lockstep(config, split)

        def poisoned(shards, *args, **kwargs):
            trained, losses = train_chunk(shards, *args, **kwargs)
            bad = [any(shard is c for c in copies) for shard in shards]
            return trained, np.where(bad, np.nan, losses)

        monkeypatch.setattr(cli, "run_lockstep", split_shards)
        monkeypatch.setattr(federation, "_train_chunk", poisoned)
        config = write_config(tmp_path, BASE_CONFIG.replace("fedavg,dbfed", "fedavg,dbfed,local"))
        status = main(["train", "--config", str(config), "--out", str(tmp_path / "o.jsonl")])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error: dbfed seed 3, round 1, client 0: "), err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "text, args, error",
        [
            # A config line is refused with its line number, the flag without.
            (
                BASE_CONFIG.replace("run.master_seed = 3", "run.master_seed = -3"),
                [],
                "line 14: run.master_seed: must be >= 0, got -3",
            ),
            (BASE_CONFIG, ["--seed", "-1"], "run.master_seed must be >= 0, got -1"),
        ],
        ids=["config", "flag"],
    )
    def test_negative_seed_exits_1(self, tmp_path, capsys, text, args, error):
        config = write_config(tmp_path, text)
        out = tmp_path / "o.jsonl"
        assert main(["train", "--config", str(config), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_missing_results_directory_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.jsonl"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no "final" summary: nothing was trained
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not out.parent.exists()

    def test_results_path_that_is_a_directory_exits_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "results"
        out.mkdir()
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no "final" summary: nothing was trained
        assert captured.err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert list(out.iterdir()) == []

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG + "federation.quorum = 3\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_results_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # Three modes on 128-wide layers, once with one BLAS thread and once
        # with two, each in its own process: BLAS reads the count when it loads.
        text = """
data.num_classes = 10
data.num_groups = 2
data.feature_dim = 64
data.samples_per_group = 150
model.hidden = 128,128
federation.rounds = 2
federation.clients = 3
federation.local_epochs = 1
federation.batch_size = 32
run.modes = fedavg,local,dbfed
"""
        config = write_config(tmp_path, text)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.jsonl"
            argv = ["train", "--config", str(config), "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "fedbias.cli", *argv],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(strip_durations(read_jsonl(out)))
        assert len(runs[0]) == 10
        assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["train", "generate-data"])
@pytest.mark.parametrize(
    "key, value, low",
    [
        ("federation.rounds", "-1", 0),
        ("federation.clients", "0", 1),
        ("federation.local_epochs", "0", 1),
        ("federation.batch_size", "0", 1),
        ("run.eval_every", "0", 1),
        ("run.master_seed", "-1", 0),
    ],
)
def test_run_shape_below_its_bound_exits_1_before_any_data(
    tmp_path, capsys, command, key, value, low
):
    # The data source is a CSV that does not exist, so only a value
    # rejected while the config is parsed gives this message.
    text = (
        "data.source = csv\n"
        f"data.csv_path = {tmp_path / 'missing.csv'}\n"
        "data.num_classes = 2\n"
        "data.num_groups = 2\n"
        f"{key} = {value}\n"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 5: {key}: must be >= {low}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "generate-data"])
@pytest.mark.parametrize(
    "key, value, bound",
    [
        ("data.bias_strength", "1.5", "in [0, 1], got 1.5"),
        ("data.noise_sigma", "0", "> 0, got 0.0"),
        ("data.group_shift", "-1", ">= 0, got -1.0"),
        ("data.test_fraction", "1.5", "in (0, 1), got 1.5"),
        ("optimizer.learning_rate", "-1", ">= 0, got -1.0"),
        ("optimizer.weight_decay", "-0.5", ">= 0, got -0.5"),
    ],
)
def test_float_key_out_of_bounds_exits_1_before_any_data(
    tmp_path, capsys, command, key, value, bound
):
    # As for the integer keys: the CSV does not exist, and the config
    # line, not the file or a library type, is what gets reported.
    text = (
        "data.source = csv\n"
        f"data.csv_path = {tmp_path / 'missing.csv'}\n"
        "data.num_classes = 2\n"
        "data.num_groups = 2\n"
        f"{key} = {value}\n"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 5: {key}: must be {bound}\n"
    assert not out.exists()


def test_unknown_optimizer_exits_1_before_any_data(tmp_path, capsys):
    text = (
        "data.source = csv\n"
        f"data.csv_path = {tmp_path / 'missing.csv'}\n"
        "data.num_classes = 2\n"
        "data.num_groups = 2\n"
        "optimizer.kind = rmsprop\n"
    )
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = "line 5: optimizer.kind: unknown optimizer 'rmsprop' (choose from sgd, adam)"
    assert captured.err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "generate-data"])
def test_zero_hidden_width_exits_1_before_any_data(tmp_path, capsys, command):
    text = (
        "data.source = csv\n"
        f"data.csv_path = {tmp_path / 'missing.csv'}\n"
        "data.num_classes = 2\n"
        "data.num_groups = 2\n"
        "model.hidden = 4,0\n"
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 5: model.hidden: hidden widths must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, target",
    [("train", "run_lockstep"), ("generate-data", "generate_synthetic")],
)
@pytest.mark.parametrize(
    "error, shown",
    [
        (
            MemoryError("Unable to allocate 745. GiB for an array"),
            "out of memory: Unable to allocate 745. GiB for an array",
        ),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_running_out_of_memory_exits_3_with_one_line(
    tmp_path, capsys, monkeypatch, command, target, error, shown
):
    # A real allocation past memory depends on the host's overcommit
    # setting, so the call that would make it raises instead.
    import fedbias.cli as cli

    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, target, exhausted)
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("via", ["name", "symlink"])
@pytest.mark.parametrize(
    "command", ["generate-data", "train-config", "train-csv", "metrics", "compare"]
)
def test_out_that_is_an_input_exits_1_before_any_work(tmp_path, capsys, command, via):
    # Writing the output would replace a file the command reads, so it is
    # refused before the input is read and the input keeps its bytes.
    config = write_config(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text("x0,label,group\n0.5,0,0\n-0.5,1,1\n", encoding="utf-8")
    csv_config = write_config(
        tmp_path,
        BASE_CONFIG + f"data.source = csv\ndata.csv_path = {data}\n",
        name="csv.cfg",
    )
    log = tmp_path / "preds.csv"
    log.write_text("predicted,actual,group\n0,0,0\n1,1,1\n", encoding="utf-8")
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_results_file(first, "dbfed", PERFECT, 2, 2)
    write_results_file(second, "fedavg", SKEWED, 2, 2)
    argv, source = {
        "generate-data": (["generate-data", "--config", str(config)], config),
        "train-config": (["train", "--config", str(config)], config),
        "train-csv": (["train", "--config", str(csv_config)], data),
        "metrics": (["metrics", str(log), "2", "2"], log),
        "compare": (["compare", str(first), str(second)], second),
    }[command]
    out = source
    if via == "symlink":
        out = tmp_path / "link"
        out.symlink_to(source)
    before = source.read_bytes()
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output {out} would overwrite the input {source}\n"
    assert source.read_bytes() == before


class TestMetrics:
    def test_perfect_log(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        log.write_text(
            "predicted,actual,group\n0,0,0\n1,1,0\n0,0,1\n1,1,1\n", encoding="utf-8"
        )
        assert main(["metrics", str(log), "2", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["acc"] == 1.0
        assert report["ser"] == 1.0
        assert report["eo"] == 0.0
        assert report["dp"] == 0.0

    def test_hand_counted_log(self, tmp_path, capsys):
        # 8 records, counted by hand:
        #   group 0: right, right, wrong, right -> error 1/4
        #   group 1: right, wrong, right, right -> error 1/4
        log = tmp_path / "preds.csv"
        log.write_text(
            "predicted,actual,group\n"
            "0,0,0\n0,0,0\n1,0,0\n1,1,0\n"
            "0,0,1\n1,0,1\n1,1,1\n1,1,1\n",
            encoding="utf-8",
        )
        assert main(["metrics", str(log), "2", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["acc"] == 0.75
        assert report["ser"] == 1.0
        # Class-0 recalls are 2/3 and 1/2, class-1 recalls are both 1.
        mean = (2 / 3 + 1 / 2) / 2
        var = ((2 / 3 - mean) ** 2 + (1 / 2 - mean) ** 2) / 2
        assert report["eo"] == pytest.approx((var + 0.0) / 2, rel=1e-12)
        # Class 0 drawn 2-of-3 from group 0; class 1 drawn 3-of-5 from group 1.
        assert report["ba"] == pytest.approx((2 / 3 + 3 / 5) / 2 - 1 / 2, rel=1e-12)
        # Prediction rates: group 0 (.5, .5), group 1 (.25, .75).
        assert report["dp"] == 0.015625

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n0,0,0\n1,1,0\n", encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["metrics", str(log), "2", "1", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_malformed_row_exits_2_and_names_line(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n0,0,0\n0,zero,0\n", encoding="utf-8")
        assert main(["metrics", str(log), "2", "1"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_overflowing_cell_exits_2_and_names_line(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        big = "99999999999999999999"
        log.write_text(f"predicted,actual,group\n0,0,0\n1,{big},0\n", encoding="utf-8")
        assert main(["metrics", str(log), "2", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {log}: line 3: {big} does not fit in a 64-bit integer\n"

    @pytest.mark.parametrize("target", ["missing/report.json", "adir"])
    def test_unwritable_out_exits_2_before_any_output(self, tmp_path, capsys, target):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n0,0,0\n1,1,0\n", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        assert_refused_like_opening(
            capsys, out, ["metrics", str(log), "2", "1", "--out", str(out)]
        )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.csv"), "2", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_label_exits_2_and_names_line(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n5,0,0\n", encoding="utf-8")
        assert main(["metrics", str(log), "2", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {log}: line 2: predicted 5 out of range [0, 2)\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,5,1", "actual 5 out of range [0, 2)"),
            ("1,1,-1", "group -1 out of range [0, 3)"),
            ("2,-3,7", "predicted 2 out of range [0, 2)"),
        ],
        ids=["actual", "group", "first_bad_column"],
    )
    def test_out_of_range_cell_names_line_and_column(self, tmp_path, capsys, row, message):
        log = tmp_path / "preds.csv"
        log.write_text(f"predicted,actual,group\n0,0,0\n{row}\n0,x,0\n", encoding="utf-8")
        # The whole log parses before ranges are checked, as a dataset CSV
        # does, so line 4 wins.
        assert main(["metrics", str(log), "2", "3"]) == 2
        assert "line 4: invalid literal" in capsys.readouterr().err
        log.write_text(f"predicted,actual,group\n0,0,0\n{row}\n", encoding="utf-8")
        assert main(["metrics", str(log), "2", "3"]) == 2
        assert capsys.readouterr().err == f"error: {log}: line 3: {message}\n"

    @pytest.mark.parametrize(
        "counts, name, value",
        [
            (["0", "1"], "num_classes", "0"),
            (["-1", "2"], "num_classes", "-1"),
            (["2", "99999999999999999999"], "num_groups", "99999999999999999999"),
        ],
        ids=["zero_classes", "negative_classes", "groups_beyond_int64"],
    )
    def test_count_argument_out_of_range_exits_1(self, tmp_path, capsys, counts, name, value):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n0,0,0\n1,1,0\n", encoding="utf-8")
        assert main(["metrics", str(log), *counts]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {name} must be in [1, 9223372036854775807], got {value}\n"

    @pytest.mark.parametrize(
        "num_classes, num_groups, size",
        [
            ("2", "9223372036854775807", "36893488147419103228"),
            ("3037000499", "2", "18446744061852498002"),
        ],
        ids=["groups", "classes"],
    )
    def test_count_array_beyond_numpy_exits_1(
        self, tmp_path, capsys, num_classes, num_groups, size
    ):
        # D * N**2 overflows int64 in both cases; the guard allocates nothing.
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n0,0,0\n1,1,1\n", encoding="utf-8")
        assert main(["metrics", str(log), num_classes, num_groups]) == 1
        assert capsys.readouterr().err == (
            f"error: num_classes {num_classes} and num_groups {num_groups} need {size} "
            "counts, more than one NumPy array can hold (1152921504606846975)\n"
        )

    def test_count_array_beyond_memory_exits_1(self, tmp_path, capsys):
        # 2 * 10**16 int64 counts (142 PiB) fit NumPy's index range but no
        # address space, so the allocation itself fails.
        log = tmp_path / "log.csv"
        log.write_text("predicted,actual,group\n0,0,0\n1,1,1\n", encoding="utf-8")
        assert main(["metrics", str(log), "100000000", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: num_classes 100000000 and num_groups 2 need 20000000000000000 "
            "counts, more than fit in memory\n"
        )

    def test_count_arguments_are_checked_before_the_log(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n1,5,1\nx\n", encoding="utf-8")
        assert main(["metrics", str(log), "0", "2"]) == 1
        assert "num_classes" in capsys.readouterr().err


PERFECT = [R(0, 0, 0), R(1, 1, 0), R(0, 0, 1), R(1, 1, 1)]
# Group 0 entirely wrong, group 1 entirely right: worst-case error skew.
SKEWED = [R(1, 0, 0), R(0, 1, 0), R(0, 0, 1), R(1, 1, 1)]


def assert_refused_like_opening(capsys, out: Path, argv: list[str]) -> None:
    """``main(argv)``, given ``out`` as its ``--out``, exits 2 with nothing on
    stdout and the error that opening ``out`` for writing gives."""
    with pytest.raises(OSError) as opening:
        out.open("w")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {opening.value}\n"


class TestCompare:
    @pytest.mark.parametrize("target", ["missing/table.csv", "adir"])
    def test_unwritable_out_exits_2_before_any_output(self, tmp_path, capsys, target):
        results = tmp_path / "run.jsonl"
        write_results_file(results, "dbfed", PERFECT, 2, 2)
        (tmp_path / "adir").mkdir()
        out = tmp_path / target
        assert_refused_like_opening(capsys, out, ["compare", str(results), "--out", str(out)])

    def test_single_file_single_row(self, tmp_path, capsys):
        results = tmp_path / "run.jsonl"
        write_results_file(results, "dbfed", PERFECT, 2, 2)
        assert main(["compare", str(results)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["mode", "ACC", "SER", "EO", "BA", "DP"]
        assert lines[2].startswith("dbfed")
        # The only row is best everywhere.
        assert lines[2].count("*") == 5

    def test_best_flags_and_infinite_ratio(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_results_file(a, "dbfed", PERFECT, 2, 2)
        write_results_file(b, "dbfed", SKEWED, 2, 2)
        out_csv = tmp_path / "table.csv"
        assert main(["compare", str(a), str(b), "--out", str(out_csv)]) == 0
        stdout = capsys.readouterr().out
        # Duplicate mode names get file-stem prefixes.
        assert "a:dbfed" in stdout and "b:dbfed" in stdout
        rows = out_csv.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "mode,acc,ser,eo,ba,dp,best_metrics"
        by_label = {row.split(",")[0]: row.split(",") for row in rows[1:]}
        assert by_label["a:dbfed"][1] == "1.0"
        assert by_label["b:dbfed"][1] == "0.5"
        assert by_label["b:dbfed"][2] == "inf"
        # Perfect run wins acc/ser/eo outright; ba and dp tie at 0, so both
        # rows carry those flags.
        assert by_label["a:dbfed"][6] == "acc;ser;eo;ba;dp"
        assert by_label["b:dbfed"][6] == "ba;dp"

    def test_comma_in_file_stem_keeps_seven_fields(self, tmp_path, capsys):
        a, b = tmp_path / "x,1.jsonl", tmp_path / "y.jsonl"
        write_results_file(a, "dbfed", PERFECT, 2, 2)
        write_results_file(b, "dbfed", SKEWED, 2, 2)
        out_csv = tmp_path / "table.csv"
        assert main(["compare", str(a), str(b), "--out", str(out_csv)]) == 0
        text = out_csv.read_text(encoding="utf-8")
        rows = list(csv.reader(text.splitlines()))
        assert [len(row) for row in rows] == [7, 7, 7]
        assert [row[0] for row in rows[1:]] == ["x,1:dbfed", "y:dbfed"]
        assert text.splitlines()[1].startswith('"x,1:dbfed",1.0,')

    def test_files_that_share_a_stem_are_labelled_by_path(self, tmp_path, capsys):
        # a/r.jsonl and b/r.jsonl would both give "r:dbfed"; c keeps its stem.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        paths = [str(tmp_path / "a" / "r.jsonl"), str(tmp_path / "b" / "r.jsonl")]
        paths.append(str(tmp_path / "c.jsonl"))
        for path, records in zip(paths, [PERFECT, SKEWED, PERFECT]):
            write_results_file(Path(path), "dbfed", records, 2, 2)
        out_csv = tmp_path / "table.csv"
        assert main(["compare", *paths, "--out", str(out_csv)]) == 0
        labels = [f"{paths[0]}:dbfed", f"{paths[1]}:dbfed", "c:dbfed"]
        table = capsys.readouterr().out.splitlines()[2:5]
        assert [line.split()[0] for line in table] == labels
        rows = list(csv.reader(out_csv.read_text(encoding="utf-8").splitlines()))
        assert [row[0] for row in rows[1:]] == labels

    def test_a_path_given_twice_exits_1_before_any_file_is_read(self, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        write_results_file(results, "dbfed", PERFECT, 2, 2)
        # Read first, the missing file would exit 2.
        missing = str(tmp_path / "missing.jsonl")
        assert main(["compare", missing, str(results), str(results)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: results file {results} is given more than once\n"

    @pytest.mark.parametrize("spelling", ["./r.jsonl", "link.jsonl"])
    def test_one_file_under_two_names_exits_1_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, spelling
    ):
        write_results_file(tmp_path / "r.jsonl", "dbfed", PERFECT, 2, 2)
        (tmp_path / "link.jsonl").symlink_to("r.jsonl")
        monkeypatch.chdir(tmp_path)
        # Read first, the missing file would exit 2.
        assert main(["compare", "missing.jsonl", "r.jsonl", spelling]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: results files r.jsonl and {spelling} are one file\n"
        assert main(["compare", "missing.jsonl", "r.jsonl"]) == 2

    def test_absent_metrics_render_as_absent(self, tmp_path, capsys):
        results = tmp_path / "solo.jsonl"
        write_results_file(results, "local", [R(0, 0, 0), R(1, 1, 0)], 2, 1)
        out_csv = tmp_path / "table.csv"
        assert main(["compare", str(results), "--out", str(out_csv)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("absent") == 2  # single-group runs have no ser/eo
        row = out_csv.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[2] == "" and row[3] == ""
        assert row[6] == "acc;ba;dp"

    def test_reads_legacy_infinity_token(self, tmp_path, capsys):
        # Older results files spelled an infinite SER as a bare Infinity.
        legacy = tmp_path / "legacy.jsonl"
        report = full_report(tally(*log_arrays(SKEWED), 2, 2)).to_dict()
        report["ser"] = math.inf
        line = {"kind": "summary", "modes": ["dbfed"], "reports": {"dbfed": report}}
        legacy.write_text(json.dumps(line, sort_keys=True) + "\n", encoding="utf-8")
        assert "Infinity" in legacy.read_text(encoding="utf-8")
        out_csv = tmp_path / "table.csv"
        assert main(["compare", str(legacy), "--out", str(out_csv)]) == 0
        row = out_csv.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[:3] == ["dbfed", "0.5", "inf"]

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
        write_results_file(plain, "dbfed", SKEWED, 2, 2)
        spaced.write_text("\n" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["compare", str(plain)]) == 0
        table = capsys.readouterr().out
        assert main(["compare", str(spaced)]) == 0
        assert capsys.readouterr().out == table

    def test_line_that_is_not_json_exits_2_and_names_line(self, tmp_path, capsys):
        results = tmp_path / "broken.jsonl"
        write_results_file(results, "dbfed", PERFECT, 2, 2)
        results.write_text(results.read_text(encoding="utf-8") + "not json\n", encoding="utf-8")
        assert main(["compare", str(results)]) == 2
        message = f"{results}: line 2: Expecting value: line 1 column 1 (char 0)"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_second_summary_line_exits_2_and_names_both_lines(self, tmp_path, capsys):
        # Two results files joined into one would otherwise show only the
        # second file's modes.
        a, b, joined = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "ab.jsonl"
        write_results_file(a, "dbfed", PERFECT, 2, 2)
        write_results_file(b, "fedavg", SKEWED, 2, 2)
        round_line = '{"kind": "round", "round": 0}\n'
        parts = [round_line, a.read_text(encoding="utf-8")]
        parts += [round_line, b.read_text(encoding="utf-8")]
        joined.write_text("".join(parts), encoding="utf-8")
        assert main(["compare", str(joined)]) == 2
        message = f"{joined}: line 4: a second summary line (the first is line 2)"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_file_without_summary_exits_2(self, tmp_path, capsys):
        results = tmp_path / "broken.jsonl"
        results.write_text('{"kind": "round", "round": 0}\n', encoding="utf-8")
        assert main(["compare", str(results)]) == 2
        assert "summary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "summary", "modes": ["dbfed"], "reports": {}}',
            '{"kind": "summary", "reports": {}}',
            "[1, 2]",
        ],
        ids=["mode_without_report", "no_modes", "not_an_object"],
    )
    def test_malformed_summary_exits_2_and_names_line(self, tmp_path, capsys, line):
        results = tmp_path / "broken.jsonl"
        results.write_text('{"kind": "round", "round": 0}\n' + line + "\n", encoding="utf-8")
        assert main(["compare", str(results)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {results}: line 2: ")

    @pytest.mark.parametrize("modes", [[], ["dbfed", "dbfed"]], ids=["no_modes", "repeated_mode"])
    def test_summary_of_no_modes_or_a_repeated_mode_exits_2(self, tmp_path, capsys, modes):
        # A train run names each of its modes once, and at least one, so
        # an empty table or two identical starred rows are refused.
        results = tmp_path / "modes.jsonl"
        write_results_file(results, "dbfed", PERFECT, 2, 2)
        line = json.loads(results.read_text(encoding="utf-8"))
        line["modes"] = modes
        text = '{"kind": "round", "round": 0}\n' + json.dumps(line) + "\n"
        results.write_text(text, encoding="utf-8")
        assert main(["compare", str(results)]) == 2
        reason = f"ValueError: modes must be one or more distinct modes, got {modes}"
        message = f"{results}: line 2: malformed summary ({reason})"
        assert capsys.readouterr() == ("", f"error: {message}\n")


    @pytest.mark.parametrize("value", ['"high"', "true", "[0.5]"])
    def test_non_numeric_metric_exits_2_and_names_line(self, tmp_path, capsys, value):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_results_file(good, "fedavg", PERFECT, 2, 2)
        write_results_file(bad, "dbfed", SKEWED, 2, 2)
        text = bad.read_text(encoding="utf-8")
        text = text.replace('"acc": 0.5', f'"acc": {value}')
        bad.write_text('{"kind": "round", "round": 0}\n' + text, encoding="utf-8")
        assert main(["compare", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: malformed summary"), err
        assert "metric acc must be a number or null" in err


    @pytest.mark.parametrize(
        "name,value,shown",
        [("acc", "NaN", "nan"), ("acc", "Infinity", "inf"), ("ser", "-Infinity", "-inf")],
        ids=["nan", "inf", "negative_inf_ser"],
    )
    def test_non_finite_metric_exits_2_and_names_line(self, tmp_path, capsys, name, value, shown):
        # Only ser may be +inf ("inf", or the bare Infinity of older files).
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_results_file(good, "fedavg", PERFECT, 2, 2)
        write_results_file(bad, "dbfed", SKEWED, 2, 2)
        original = {"acc": '"acc": 0.5', "ser": '"ser": "inf"'}[name]
        text = bad.read_text(encoding="utf-8").replace(original, f'"{name}": {value}')
        bad.write_text('{"kind": "round", "round": 0}\n' + text, encoding="utf-8")
        assert main(["compare", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: malformed summary"), err
        assert f"metric {name} must be finite, got {shown}" in err


class TestNonUtf8Input:
    """A byte that is not UTF-8 is malformed input: a data, log or results
    file exits 2 naming its line, a config file exits 1."""

    @pytest.mark.parametrize(
        "name,content,status,message",
        [
            ("data.csv", b"feature_0,target,group\n0.5,1,0\n\xff,0,1\n", 2, "{path}: line 3: "),
            ("preds.csv", b"predicted,actual,group\n0,0,0\n1,\xff,1\n", 2, "{path}: line 3: "),
            ("results.jsonl", b'{"kind": "round", "round": 0}\n\xff\n', 2, "{path}: line 2: "),
            ("bad.cfg", b"data.num_classes = 2\n\xff = 1\n", 1, "cannot read config file {path}: "),
        ],
        ids=["dataset", "prediction_log", "results", "config"],
    )
    def test_exit_status_names_the_file(self, tmp_path, capsys, name, content, status, message):
        path = tmp_path / name
        path.write_bytes(content)
        out = str(tmp_path / "out.jsonl")
        csv_config = (
            f"data.source = csv\ndata.csv_path = {path}\ndata.num_classes = 2\n"
            "data.num_groups = 2\n"
        )
        argv = {
            "data.csv": ["train", "--config", str(write_config(tmp_path, csv_config)), "--out", out],
            "preds.csv": ["metrics", str(path), "2", "2"],
            "results.jsonl": ["compare", str(path)],
            "bad.cfg": ["train", "--config", str(path), "--out", out],
        }[name]
        assert main(argv) == status
        err = capsys.readouterr().err
        expected = "error: " + message.format(path=path) + "'utf-8' codec can't decode byte 0xff"
        assert err.startswith(expected), err


class TestStrictJson:
    def test_writers_spell_infinity_as_a_string(self, tmp_path, capsys):
        # BASE_CONFIG's dbfed run ends with one error-free test group.
        results = tmp_path / "results.jsonl"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(results)]) == 0
        rows = [strict_json(line) for line in results.read_text(encoding="utf-8").splitlines()]
        assert rows[-1]["reports"]["dbfed"]["ser"] == "inf"

        log = tmp_path / "preds.csv"
        lines = [f"{r.predicted},{r.actual},{r.group}\n" for r in SKEWED]
        log.write_text("predicted,actual,group\n" + "".join(lines), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["metrics", str(log), "2", "2", "--out", str(report)]) == 0
        assert strict_json(report.read_text(encoding="utf-8"))["ser"] == "inf"
