import json
import math

import numpy as np
import pytest

from fedbias.cli import main
from fedbias.data import load_csv
from fedbias.metrics import PredictionRecord, full_report, tally
from oracles import log_arrays

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
        # fedavg and local share the plain head and train as one stack;
        # every mode's lines must equal a run of that mode on its own.
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
        # Give the local federation its own copies of the shared shards
        # and poison their training; the error must name local.
        import fedbias.cli as cli
        import fedbias.federation as federation

        run_lockstep, train_clients = federation.run_lockstep, federation.train_clients
        copies = []

        def split_shards(federations, *args):
            fedavg, local = federations
            copies.extend(p.subset(np.arange(len(p))) for p in local.partitions)
            return run_lockstep([fedavg, local._replace(partitions=copies)], *args)

        def poisoned(shards, *args):
            results = train_clients(shards, *args)
            return [
                (weights, float("nan") if any(shard is c for c in copies) else loss)
                for shard, (weights, loss) in zip(shards, results)
            ]

        monkeypatch.setattr(cli, "run_lockstep", split_shards)
        monkeypatch.setattr(federation, "train_clients", poisoned)
        config = write_config(tmp_path, BASE_CONFIG.replace("fedavg,dbfed", "fedavg,local"))
        status = main(["train", "--config", str(config), "--out", str(tmp_path / "o.jsonl")])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error: local seed 3, round 1, client 0: "), err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize(
        "text, args, seed",
        [
            (BASE_CONFIG.replace("run.master_seed = 3", "run.master_seed = -3"), [], -3),
            (BASE_CONFIG, ["--seed", "-1"], -1),
        ],
        ids=["config", "flag"],
    )
    def test_negative_seed_exits_1(self, tmp_path, capsys, text, args, seed):
        config = write_config(tmp_path, text)
        out = tmp_path / "o.jsonl"
        assert main(["train", "--config", str(config), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == f"error: run.master_seed must be >= 0, got {seed}\n"
        assert not out.exists()

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG + "federation.quorum = 3\n")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


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
        # The whole log parses before ranges are checked, so line 4 wins.
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

    def test_count_arguments_are_checked_before_the_log(self, tmp_path, capsys):
        log = tmp_path / "preds.csv"
        log.write_text("predicted,actual,group\n1,5,1\nx\n", encoding="utf-8")
        assert main(["metrics", str(log), "0", "2"]) == 1
        assert "num_classes" in capsys.readouterr().err


PERFECT = [R(0, 0, 0), R(1, 1, 0), R(0, 0, 1), R(1, 1, 1)]
# Group 0 entirely wrong, group 1 entirely right: worst-case error skew.
SKEWED = [R(1, 0, 0), R(0, 1, 0), R(0, 0, 1), R(1, 1, 1)]


class TestCompare:
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
