import numpy as np
import pytest

import fedbias.federation as federation
from fedbias.data import Dataset, SyntheticSpec, generate_synthetic, partition, train_test_split
from fedbias.exceptions import ConfigurationError, NumericError, ProtocolError
from fedbias.federation import (
    ClientState,
    FederationConfig,
    Mode,
    client_local_train,
    evaluate_weights,
    fedavg_aggregate,
    head_mode_for,
    loss_mode_for,
    predict_dataset,
    run_federation,
    train_centralized,
)
from fedbias.nn import (
    Batch,
    ClassifierSpec,
    HeadMode,
    LossMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerKind,
    OptimizerState,
    backward,
    init_weights,
    num_params,
    optimizer_step,
    weight_layout,
)
from fedbias.seeding import TAG_INIT, derive_seed
from oracles import weighted_mean


def toy_dataset(seed=0, size=40, num_classes=2, num_groups=2, dim=3) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(size, dim)),
        rng.integers(0, num_classes, size),
        rng.integers(0, num_groups, size),
        num_classes,
        num_groups,
    )


def adam(lr=0.01) -> OptimizerConfig:
    return OptimizerConfig(kind=OptimizerKind.ADAM, learning_rate=lr)


def sgd(lr=0.05, wd=0.0) -> OptimizerConfig:
    return OptimizerConfig(kind=OptimizerKind.SGD, learning_rate=lr, weight_decay=wd)


def random_weights(rng, spec) -> ModelWeights:
    return ModelWeights(rng.normal(size=num_params(spec)), weight_layout(spec))


class TestConfigAndState:
    def test_round_zero_allowed(self):
        FederationConfig(0, 1, 1, 8, adam(), Mode.FEDAVG_PLAIN, 0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            FederationConfig(-1, 1, 1, 8, adam(), Mode.DBFED, 0)
        with pytest.raises(ConfigurationError):
            FederationConfig(1, 0, 1, 8, adam(), Mode.DBFED, 0)
        with pytest.raises(ConfigurationError):
            FederationConfig(1, 1, 0, 8, adam(), Mode.DBFED, 0)
        with pytest.raises(ConfigurationError):
            FederationConfig(1, 1, 1, 0, adam(), Mode.DBFED, 0)

    def test_empty_client_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 2)), [], [], 2, 2)
        with pytest.raises(ConfigurationError):
            ClientState(0, empty)

    def test_mode_helpers(self):
        assert head_mode_for(Mode.DBFED) is HeadMode.DOMAIN_INDEPENDENT
        assert head_mode_for(Mode.FEDAVG_PLAIN) is HeadMode.PLAIN
        assert head_mode_for(Mode.LOCAL_ONLY) is HeadMode.PLAIN
        assert loss_mode_for(Mode.DBFED) is LossMode.DOMAIN_INDEPENDENT_CE
        assert loss_mode_for(Mode.LOCAL_ONLY) is LossMode.PLAIN_CE


class TestClientLocalTrain:
    def test_zero_learning_rate_is_identity(self):
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        client = ClientState(0, toy_dataset())
        incoming = init_weights(spec, 1)
        update = client_local_train(
            client,
            incoming,
            spec,
            LossMode.DOMAIN_INDEPENDENT_CE,
            sgd(lr=0.0),
            epochs=3,
            batch_size=8,
            seed=5,
        )
        assert np.array_equal(update.weights.values, incoming.values)

    def test_single_batch_sgd_matches_manual_step(self):
        # One epoch, batch covering the whole shard: exactly one SGD step.
        spec = ClassifierSpec(3, (), 2, 1)
        data = toy_dataset(seed=3, size=10, num_groups=1)
        client = ClientState(0, data)
        incoming = init_weights(spec, 2)
        seed = 77
        update = client_local_train(
            client, incoming, spec, LossMode.PLAIN_CE, sgd(lr=0.1), 1, 100, seed
        )
        order = np.random.default_rng(seed).permutation(len(data))
        batch = Batch(data.features[order], data.labels[order], data.groups[order])
        gradient, _ = backward(spec, incoming, batch, LossMode.PLAIN_CE)
        state = OptimizerState.fresh(sgd(lr=0.1), len(incoming))
        expected, _ = optimizer_step(state, incoming, gradient)
        assert np.array_equal(update.weights.values, expected.values)

    def test_identical_clients_identical_output(self):
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        data = toy_dataset(seed=4)
        incoming = init_weights(spec, 3)
        kwargs = dict(
            spec=spec,
            loss_mode=LossMode.DOMAIN_INDEPENDENT_CE,
            optimizer=adam(),
            epochs=2,
            batch_size=8,
            seed=9,
        )
        a = client_local_train(ClientState(0, data), incoming, **kwargs)
        b = client_local_train(ClientState(1, data), incoming, **kwargs)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert a.mean_loss == b.mean_loss

    def test_partial_batch_is_trained(self):
        # 10 samples, batch 8: the 2-sample remainder must still step the
        # optimizer, so the result differs from training on 8 alone.
        spec = ClassifierSpec(3, (), 2, 1)
        data = toy_dataset(seed=5, size=10, num_groups=1)
        incoming = init_weights(spec, 4)
        update = client_local_train(
            ClientState(0, data), incoming, spec, LossMode.PLAIN_CE, sgd(), 1, 8, 11
        )
        order = np.random.default_rng(11).permutation(10)
        head = Batch(data.features[order[:8]], data.labels[order[:8]], data.groups[order[:8]])
        gradient, _ = backward(spec, incoming, head, LossMode.PLAIN_CE)
        state = OptimizerState.fresh(sgd(), len(incoming))
        after_head, _ = optimizer_step(state, incoming, gradient)
        assert not np.array_equal(update.weights.values, after_head.values)


class TestFedavgAggregate:
    def test_single_client_identity(self):
        spec = ClassifierSpec(2, (3,), 2, 1)
        w = init_weights(spec, 0)
        out = fedavg_aggregate([(0, w, 17)])
        assert np.array_equal(out.values, w.values)

    def test_two_client_hand_computed(self):
        # Counts (1, 3) over values (0.0, 4.0): (1*0 + 3*4) / 4 = 3.0.
        layout = ((0, (1, 1)),)
        a = ModelWeights(np.array([0.0, 0.0]), layout)
        b = ModelWeights(np.array([4.0, 4.0]), layout)
        out = fedavg_aggregate([(0, a, 1), (1, b, 3)])
        assert np.array_equal(out.values, [3.0, 3.0])

    def test_identical_clients_exact_fixed_point(self):
        rng = np.random.default_rng(6)
        spec = ClassifierSpec(3, (5,), 3, 2, HeadMode.DOMAIN_INDEPENDENT)
        w = random_weights(rng, spec)
        out = fedavg_aggregate([(i, w, int(rng.integers(1, 50))) for i in range(5)])
        assert np.array_equal(out.values, w.values)

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(7)
        spec = ClassifierSpec(2, (4,), 2, 1)
        entries = [(i, random_weights(rng, spec), int(rng.integers(1, 20))) for i in range(4)]
        reference = fedavg_aggregate(entries)
        for _ in range(10):
            shuffled = [entries[i] for i in rng.permutation(4)]
            assert np.array_equal(fedavg_aggregate(shuffled).values, reference.values)

    def test_matches_independent_weighted_mean(self):
        rng = np.random.default_rng(8)
        spec = ClassifierSpec(2, (3,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            entries = [(i, random_weights(rng, spec), int(rng.integers(1, 100))) for i in range(k)]
            out = fedavg_aggregate(entries)
            expected = weighted_mean([w.values for _, w, _ in entries], [n for _, _, n in entries])
            assert np.max(np.abs(out.values - expected)) <= 1e-12

    def test_convex_envelope_exact(self):
        rng = np.random.default_rng(9)
        spec = ClassifierSpec(2, (), 3, 1)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            entries = [(i, random_weights(rng, spec), int(rng.integers(1, 9))) for i in range(k)]
            out = fedavg_aggregate(entries)
            stacked = np.stack([w.values for _, w, _ in entries])
            assert np.all(out.values >= stacked.min(axis=0))
            assert np.all(out.values <= stacked.max(axis=0))

    def test_protocol_errors(self):
        spec = ClassifierSpec(2, (), 2, 1)
        other = ClassifierSpec(3, (), 2, 1)
        w = init_weights(spec, 0)
        with pytest.raises(ProtocolError):
            fedavg_aggregate([])
        with pytest.raises(ProtocolError):
            fedavg_aggregate([(0, w, 5), (0, w, 5)])
        with pytest.raises(ProtocolError):
            fedavg_aggregate([(0, w, 5), (1, init_weights(other, 0), 5)])
        with pytest.raises(ProtocolError):
            fedavg_aggregate([(0, w, 0)])


def small_run_setup(mode: Mode, master_seed=21, num_clients=2):
    data = generate_synthetic(
        SyntheticSpec(2, 2, 3, 30, bias_strength=0.5, group_shift=0.5, seed=1)
    )
    train, test = train_test_split(data, 0.25, seed=2)
    parts = partition(train, num_clients, seed=3)
    spec = ClassifierSpec(3, (4,), 2, 2, head_mode_for(mode))
    config = FederationConfig(3, num_clients, 2, 8, adam(), mode, master_seed)
    return config, parts, spec, test


class TestRunFederation:
    def test_zero_rounds_returns_initialization(self):
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        config = FederationConfig(0, 2, 2, 8, adam(), Mode.DBFED, 21)
        result = run_federation(config, parts, spec, test_set=test)
        expected = init_weights(spec, derive_seed(21, TAG_INIT))
        assert np.array_equal(result.final.weights.values, expected.values)
        assert len(result.history) == 1
        assert result.history[0].round_index == 0
        assert result.history[0].report is not None

    def test_history_covers_all_rounds(self):
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        result = run_federation(config, parts, spec, test_set=test)
        assert [s.round_index for s in result.history] == [0, 1, 2, 3]
        assert all(s.report is not None for s in result.history)

    def test_eval_cadence(self):
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        result = run_federation(config, parts, spec, test_set=test, eval_every=2)
        evaluated = [s.round_index for s in result.history if s.report is not None]
        # Round 0, the cadence round, and the final round.
        assert evaluated == [0, 2, 3]

    def test_bitwise_deterministic(self):
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        a = run_federation(config, parts, spec, test_set=test)
        b = run_federation(config, parts, spec, test_set=test)
        assert np.array_equal(a.final.weights.values, b.final.weights.values)
        for sa, sb in zip(a.history, b.history):
            assert (sa.report is None) == (sb.report is None)
            if sa.report is not None:
                assert sa.report.to_dict() == sb.report.to_dict()

    def test_parallel_equals_sequential(self):
        for mode in (Mode.FEDAVG_PLAIN, Mode.DBFED, Mode.LOCAL_ONLY):
            config, parts, spec, test = small_run_setup(mode, num_clients=3)
            seq_cfg = FederationConfig(3, 3, 2, 8, adam(), mode, 21, parallel_clients=False)
            par_cfg = FederationConfig(3, 3, 2, 8, adam(), mode, 21, parallel_clients=True)
            seq = run_federation(seq_cfg, parts, spec, test_set=test)
            par = run_federation(par_cfg, parts, spec, test_set=test)
            if mode is Mode.LOCAL_ONLY:
                for cid in seq.client_weights:
                    assert np.array_equal(
                        seq.client_weights[cid].values, par.client_weights[cid].values
                    )
            else:
                assert np.array_equal(seq.final.weights.values, par.final.weights.values)
            for sa, sb in zip(seq.history, par.history):
                if sa.report is not None:
                    assert sa.report.to_dict() == sb.report.to_dict()

    def test_client_isolation(self):
        # Round-1 local weights of client 0 cannot depend on client 1's shard.
        config, parts, spec, _ = small_run_setup(Mode.DBFED)
        config = FederationConfig(1, 2, 2, 8, adam(), Mode.DBFED, 21)
        mutated = [parts[0], toy_dataset(seed=99)]
        a = run_federation(config, parts, spec)
        b = run_federation(config, mutated, spec)
        assert np.array_equal(a.client_weights[0].values, b.client_weights[0].values)

    def test_identical_partitions_aggregate_to_client_weights(self):
        # Same data and same incoming weights: forcing both clients onto
        # one shuffle seed makes their updates, and thus the convex
        # combination, equal to either one.
        config, parts, spec, _ = small_run_setup(Mode.DBFED)
        incoming = init_weights(spec, 5)
        update = client_local_train(
            ClientState(0, parts[0]), incoming, spec,
            LossMode.DOMAIN_INDEPENDENT_CE, adam(), 2, 8, seed=123,
        )
        twin = client_local_train(
            ClientState(1, parts[0]), incoming, spec,
            LossMode.DOMAIN_INDEPENDENT_CE, adam(), 2, 8, seed=123,
        )
        merged = fedavg_aggregate(
            [(0, update.weights, update.num_samples), (1, twin.weights, twin.num_samples)]
        )
        assert np.array_equal(merged.values, update.weights.values)

    def test_local_mode_has_no_global_weights(self):
        config, parts, spec, test = small_run_setup(Mode.LOCAL_ONLY)
        result = run_federation(config, parts, spec, test_set=test)
        assert result.final.weights is None
        assert set(result.client_weights) == {0, 1}
        assert not np.array_equal(
            result.client_weights[0].values, result.client_weights[1].values
        )
        assert result.final_report is not None

    def test_mode_head_mismatch_rejected(self):
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        plain_spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.PLAIN)
        with pytest.raises(ConfigurationError):
            run_federation(config, parts, plain_spec, test_set=test)

    def test_partition_count_mismatch_rejected(self):
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        with pytest.raises(ConfigurationError):
            run_federation(config, parts[:1], spec, test_set=test)

    def test_incompatible_test_set_rejected(self):
        config, parts, spec, _ = small_run_setup(Mode.DBFED)
        wrong = toy_dataset(seed=1, dim=5)
        with pytest.raises(ConfigurationError):
            run_federation(config, parts, spec, test_set=wrong)

    def test_client_errors_carry_round_and_client(self, monkeypatch):
        config, parts, spec, test = small_run_setup(Mode.DBFED)

        def boom(client, *args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(federation, "client_local_train", boom)
        with pytest.raises(ValueError, match=r"round 1, client 0"):
            run_federation(config, parts, spec, test_set=test)


class TestNonFiniteTraining:
    """SGD at lr=1e6 on the demo data overflows every mode within ten
    rounds; each mode must stop with the round in the message rather
    than finish on non-finite weights."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("parallel", [False, True])
    def test_divergence_stops_with_round_context(self, mode, parallel):
        data = generate_synthetic(
            SyntheticSpec(2, 2, 8, 1000, bias_strength=0.8, group_shift=1.0, noise_sigma=1.4, seed=1)
        )
        train, test = train_test_split(data, 0.2, seed=2)
        parts = partition(train, 5, seed=3)
        spec = ClassifierSpec(8, (16,), 2, 2, head_mode_for(mode))
        config = FederationConfig(10, 5, 1, 64, sgd(lr=1e6), mode, 5, parallel_clients=parallel)
        with pytest.raises(NumericError, match=r"^round \d+, "):
            run_federation(config, parts, spec, test_set=test)

    def test_non_finite_client_update_names_round_and_client(self, monkeypatch):
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN)
        real = federation.client_local_train

        def poisoned(client, *args):
            update = real(client, *args)
            if client.client_id == 1:
                return federation.ClientUpdate(
                    update.client_id, update.weights, update.num_samples, float("nan")
                )
            return update

        monkeypatch.setattr(federation, "client_local_train", poisoned)
        with pytest.raises(NumericError, match="round 1, client 1: .*non-finite"):
            run_federation(config, parts, spec, test_set=test)


class TestCentralizedEquivalence:
    @pytest.mark.parametrize("rounds,epochs,batch", [(1, 1, 8), (3, 2, 5)])
    def test_single_client_run_is_centralized(self, rounds, epochs, batch):
        data = generate_synthetic(
            SyntheticSpec(2, 2, 3, 40, bias_strength=0.6, group_shift=0.8, seed=7)
        )
        train, test = train_test_split(data, 0.2, seed=8)
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        config = FederationConfig(rounds, 1, epochs, batch, adam(), Mode.DBFED, 31)
        fed = run_federation(config, [train], spec, test_set=test)
        central_weights, central_history = train_centralized(
            train, spec, LossMode.DOMAIN_INDEPENDENT_CE, adam(), rounds, epochs, batch, 31,
            test_set=test,
        )
        assert np.array_equal(fed.final.weights.values, central_weights.values)
        assert len(fed.history) == len(central_history)
        for sf, sc in zip(fed.history, central_history):
            assert sf.report.to_dict() == sc.report.to_dict()


class TestEvaluationHelpers:
    def test_predictions_in_range_and_deterministic(self):
        spec = ClassifierSpec(3, (4,), 3, 2, HeadMode.DOMAIN_INDEPENDENT)
        w = init_weights(spec, 12)
        data = toy_dataset(seed=13, num_classes=3)
        preds = predict_dataset(spec, w, data)
        assert preds.shape == (len(data),)
        assert np.all((preds >= 0) & (preds < 3))
        assert np.array_equal(preds, predict_dataset(spec, w, data))

    def test_plain_head_rejects_non_finite_logits(self):
        spec = ClassifierSpec(3, (), 2, 2, HeadMode.PLAIN)
        w = init_weights(spec, 12)
        poisoned = w.with_values(np.full_like(w.values, np.nan))
        with pytest.raises(NumericError, match="non-finite"):
            predict_dataset(spec, poisoned, toy_dataset(seed=13))

    def test_report_shape(self):
        spec = ClassifierSpec(3, (), 2, 2, HeadMode.PLAIN)
        w = init_weights(spec, 14)
        data = toy_dataset(seed=15)
        report = evaluate_weights(spec, w, data)
        assert report.num_classes == 2
        assert report.num_groups == 2
        assert report.total == len(data)
