"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` line (run pytest with ``-s`` to
see them on success) and enforces the runtime budget stated in the line.
"""
import json
import statistics
import time

import numpy as np

from fedbias.cli import main
from fedbias.config import parse_config
from fedbias.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    partition,
    save_csv,
    train_test_split,
)
from fedbias.federation import (
    Federation,
    FederationConfig,
    Mode,
    fedavg_aggregate,
    predict_dataset,
    run_federation,
    run_lockstep,
)
from fedbias.nn import (
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerKind,
    num_params,
    weight_layout,
)
from oracles import (
    brute_metrics,
    engine_backward,
    fd_gradient,
    guarded_rel_error,
    log_arrays,
    random_gradcheck_instance,
    random_records,
    train_centralized,
    weighted_mean,
)
from fedbias.metrics import METRIC_NAMES, full_report, tally


def report(name: str, ok: bool, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_1_analytic_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for head_mode in (HeadMode.PLAIN, HeadMode.DOMAIN_INDEPENDENT):
        for _ in range(50):
            spec, weights, batch = random_gradcheck_instance(rng, head_mode)
            assert num_params(spec) <= 60
            analytic, _ = engine_backward(spec, weights.values, batch)
            numeric = fd_gradient(spec, weights, batch, step=1e-5)
            worst = max(worst, guarded_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 10.0
    report(
        "1 gradient check, both heads, 100 random nets",
        ok,
        started,
        f"max rel err {worst:.3e}",
    )


def test_2_aggregation_matches_weighted_mean_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    specs = [
        ClassifierSpec(2, (), 2, 1),
        ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT),
        ClassifierSpec(2, (3, 3), 3, 1),
    ]
    worst = 0.0
    bound_exact = True
    for trial in range(200):
        spec = specs[trial % len(specs)]
        layout = weight_layout(spec)
        k = int(rng.integers(1, 7))
        entries = [
            (i, ModelWeights(rng.normal(size=num_params(spec)), layout),
             int(rng.integers(1, 100)))
            for i in range(k)
        ]
        merged = fedavg_aggregate(entries)
        expected = weighted_mean(
            [w.values for _, w, _ in entries], [n for _, _, n in entries]
        )
        worst = max(worst, float(np.max(np.abs(merged.values - expected))))
        stacked = np.stack([w.values for _, w, _ in entries])
        bound_exact = bound_exact and bool(
            np.all(merged.values >= stacked.min(axis=0))
            and np.all(merged.values <= stacked.max(axis=0))
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and bound_exact and elapsed < 1.0
    report(
        "2 aggregation vs independent weighted mean, 200 lists",
        ok,
        started,
        f"max abs err {worst:.3e}, convex bound exact: {bound_exact}",
    )


def test_3_single_client_training_equals_centralized():
    started = time.perf_counter()
    data = generate_synthetic(
        SyntheticSpec(2, 2, 4, 80, bias_strength=0.7, group_shift=1.0, seed=5)
    )
    train, test = train_test_split(data, 0.2, seed=6)
    spec = ClassifierSpec(4, (8,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
    optimizer = OptimizerConfig(kind=OptimizerKind.ADAM, learning_rate=0.01)
    ok = True
    for rounds, epochs, batch in [(1, 1, 16), (2, 3, 8), (4, 2, 32)]:
        config = FederationConfig(rounds, epochs, batch, optimizer, (8,))
        fed = run_federation(config, Federation(Mode.DBFED, 55, [train], test))
        central_weights, central_history = train_centralized(
            train, spec, optimizer, rounds, epochs, batch, 55, test_set=test,
        )
        ok = ok and bool(np.array_equal(fed.final_weights.values, central_weights.values))
        ok = ok and len(fed.history) == len(central_history)
        ok = ok and all(
            sf.report.to_dict() == sc.report.to_dict()
            for sf, sc in zip(fed.history, central_history)
        )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report("3 one-client run equals centralized, bitwise", ok, started)


def test_4_metrics_match_per_record_recount():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    exact = True
    bounds = True
    for _ in range(500):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        size = int(rng.integers(1, 1001))
        records = random_records(rng, n, d, size)
        rep = full_report(tally(*log_arrays(records), n, d))
        expected = brute_metrics(records, n, d)
        exact = exact and all(
            rep.metric(name) == expected[name] for name in METRIC_NAMES
        )
        if rep.acc is not None:
            bounds = bounds and 0.0 <= rep.acc <= 1.0
        if rep.ser is not None:
            bounds = bounds and rep.ser >= 1.0
        for value in (rep.eo, rep.dp):
            if value is not None:
                bounds = bounds and 0.0 <= value <= 0.25
        if rep.ba is not None:
            bounds = bounds and 0.0 <= rep.ba <= 1.0 - 1.0 / d
    elapsed = time.perf_counter() - started
    ok = exact and bounds and elapsed < 10.0
    report(
        "4 five metrics vs brute-force recount, 500 logs",
        ok,
        started,
        f"exact: {exact}, bounds: {bounds}",
    )


def test_5_single_group_head_collapses_to_plain_classifier():
    started = time.perf_counter()
    data = generate_synthetic(
        SyntheticSpec(3, 1, 4, 120, bias_strength=0.5, group_shift=0.7, seed=9)
    )
    train, test = train_test_split(data, 0.25, seed=10)
    parts = partition(train, 2, seed=11)
    optimizer = OptimizerConfig(kind=OptimizerKind.ADAM, learning_rate=0.01)
    finals = {}
    for mode in (Mode.FEDAVG_PLAIN, Mode.DBFED):
        spec = ClassifierSpec(4, (6,), 3, 1, head_mode=(
            HeadMode.DOMAIN_INDEPENDENT if mode is Mode.DBFED else HeadMode.PLAIN
        ))
        config = FederationConfig(2, 2, 16, optimizer, (6,))
        result = run_federation(config, Federation(mode, 77, parts))
        finals[mode] = (spec, result.final_weights)
    # With one group the grouped head has exactly N outputs, so the induced
    # weight correspondence is the identity.
    plain_spec, plain_w = finals[Mode.FEDAVG_PLAIN]
    db_spec, db_w = finals[Mode.DBFED]
    same_weights = bool(np.array_equal(plain_w.values, db_w.values))
    preds_plain = predict_dataset(plain_spec, plain_w, test)
    preds_db = predict_dataset(db_spec, db_w, test)
    same_preds = bool(np.array_equal(preds_plain, preds_db))
    report(
        "5 one-group grouped head == plain classifier",
        same_weights and same_preds,
        started,
        f"weights identical: {same_weights}, predictions identical: {same_preds}",
    )


def test_6_grouped_head_reduces_parity_gaps_on_biased_data():
    started = time.perf_counter()
    medians = {}
    for mode in (Mode.FEDAVG_PLAIN, Mode.DBFED):
        # The 11 seeds of a mode train as one lockstep run: 55 clients.
        federations = []
        for master_seed in range(11):
            config = parse_config(
                f"""
data.num_classes = 2
data.num_groups = 2
data.feature_dim = 8
data.samples_per_group = 1000
data.bias_strength = 0.8
data.group_shift = 1.0
data.noise_sigma = 1.4
model.hidden = 16
federation.rounds = 30
federation.clients = 5
federation.local_epochs = 3
federation.batch_size = 64
optimizer.learning_rate = 0.005
run.master_seed = {master_seed}
run.eval_every = 30
"""
            )
            dataset = config.load_dataset()
            parts, test = config.split_and_partition(dataset)
            federations.append(Federation(mode, master_seed, parts, test))
        results = run_lockstep(config.federation_config(), federations)
        accs = [result.final_report.acc for result in results]
        dps = [result.final_report.dp for result in results]
        eos = [result.final_report.eo for result in results]
        medians[mode] = (
            statistics.median(accs),
            statistics.median(dps),
            statistics.median(eos),
        )
    p_acc, p_dp, p_eo = medians[Mode.FEDAVG_PLAIN]
    d_acc, d_dp, d_eo = medians[Mode.DBFED]
    elapsed = time.perf_counter() - started
    ok = d_dp < p_dp and d_eo < p_eo and abs(d_acc - p_acc) <= 0.05 and elapsed < 300.0
    report(
        "6 grouped head lowers median DP and EO at comparable ACC, 11 seeds",
        ok,
        started,
        f"plain acc={p_acc:.3f} dp={p_dp:.4f} eo={p_eo:.4f}; "
        f"grouped acc={d_acc:.3f} dp={d_dp:.4f} eo={d_eo:.4f}",
    )


def _train_to(tmp_path, config_text, name):
    config_path = tmp_path / f"{name}.cfg"
    config_path.write_text(config_text, encoding="utf-8")
    out = tmp_path / f"{name}.jsonl"
    status = main(["train", "--config", str(config_path), "--out", str(out)])
    assert status == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    return [{k: v for k, v in row.items() if k != "duration_sec"} for row in rows]


def test_7_training_cli_is_deterministic(tmp_path):
    started = time.perf_counter()
    base = """
data.num_classes = 2
data.num_groups = 2
data.feature_dim = 3
data.samples_per_group = 30
data.bias_strength = 0.6
data.group_shift = 1.0
model.hidden = 8
federation.rounds = 2
federation.clients = 3
federation.local_epochs = 1
federation.batch_size = 8
run.modes = fedavg,dbfed
run.master_seed = 13
"""
    first = _train_to(tmp_path, base, "first")
    second = _train_to(tmp_path, base, "second")
    report("7 training command deterministic", first == second, started)


def test_8_partition_split_and_csv_round_trip_invariants(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    csv_path = tmp_path / "roundtrip.csv"
    for case in range(1000):
        num_classes = int(rng.integers(2, 5))
        num_groups = int(rng.integers(1, 4))
        k = int(rng.integers(1, 8))
        size = int(rng.integers(k, 90))
        data = Dataset(
            rng.normal(size=(size, int(rng.integers(1, 4)))),
            rng.integers(0, num_classes, size),
            rng.integers(0, num_groups, size),
            num_classes,
            num_groups,
        )

        def rows(ds):
            return sorted(
                (tuple(ds.features[i]), int(ds.labels[i]), int(ds.groups[i]))
                for i in range(len(ds))
            )

        parts = partition(data, k, seed=case)
        sizes = sorted(len(p) for p in parts)
        ok = ok and sizes[-1] - sizes[0] <= 1 and sum(sizes) == size
        gathered = [row for p in parts for row in rows(p)]
        ok = ok and sorted(gathered) == rows(data)

        if size >= 2:
            train, test = train_test_split(data, 0.5, seed=case)
            ok = ok and sorted(rows(train) + rows(test)) == rows(data)
            ok = ok and len(train) + len(test) == size

        if case % 10 == 0:
            save_csv(data, csv_path)
            loaded = load_csv(csv_path, num_classes=num_classes, num_groups=num_groups)
            ok = ok and bool(
                np.array_equal(loaded.features, data.features)
                and np.array_equal(loaded.labels, data.labels)
                and np.array_equal(loaded.groups, data.groups)
            )
        ok = bool(ok)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report("8 partition, split, and CSV round-trip invariants, 1000 cases", ok, started)
