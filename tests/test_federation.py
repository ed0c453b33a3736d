import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedbias.federation as federation
from fedbias.data import Dataset, SyntheticSpec, generate_synthetic, partition, train_test_split
from fedbias.exceptions import ConfigurationError, NumericError, ProtocolError
from fedbias.federation import (
    STACK_VALUES,
    Federation,
    FederationConfig,
    Mode,
    client_chunks,
    client_local_train,
    evaluate_weights,
    fedavg_aggregate,
    head_mode_for,
    predict_dataset,
    run_federation,
    run_lockstep,
    train_clients,
    train_round,
)
from fedbias.nn import (
    Batch,
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerKind,
    Workspace,
    backward,
    init_weights,
    num_params,
    optimizer_step,
    weight_layout,
)
from fedbias.seeding import TAG_INIT, derive_seed, shuffle_seed
from oracles import (
    fresh_state,
    reference_client_train,
    reference_run_federation,
    train_centralized,
    weighted_mean,
)


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
        # run_federation names the client before round 1 starts; a direct
        # client_local_train call rejects the shard on its own.
        config, parts, spec, test = small_run_setup(Mode.DBFED)
        empty = Dataset(np.zeros((0, 3)), [], [], 2, 2)
        with pytest.raises(ConfigurationError, match=r"^dbfed seed 21: client 1 has an empty dataset"):
            run_federation(config, [parts[0], empty], spec, test_set=test)
        with pytest.raises(ConfigurationError, match="empty dataset"):
            client_local_train(empty, init_weights(spec, 0), spec, adam(), 1, 8, 0)

    def test_mode_helpers(self):
        assert head_mode_for(Mode.DBFED) is HeadMode.DOMAIN_INDEPENDENT
        assert head_mode_for(Mode.FEDAVG_PLAIN) is HeadMode.PLAIN
        assert head_mode_for(Mode.LOCAL_ONLY) is HeadMode.PLAIN


class TestClientLocalTrain:
    def test_zero_learning_rate_is_identity(self):
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        incoming = init_weights(spec, 1)
        weights, _ = client_local_train(
            toy_dataset(), incoming, spec, sgd(lr=0.0), epochs=3, batch_size=8, seed=5
        )
        assert np.array_equal(weights.values, incoming.values)

    def test_single_batch_sgd_matches_manual_step(self):
        # One epoch, batch covering the whole shard: exactly one SGD step.
        spec = ClassifierSpec(3, (), 2, 1)
        data = toy_dataset(seed=3, size=10, num_groups=1)
        incoming = init_weights(spec, 2)
        seed = 77
        weights, _ = client_local_train(data, incoming, spec, sgd(lr=0.1), 1, 100, seed)
        order = np.random.default_rng(seed).permutation(len(data))
        batch = Batch(data.features[order], data.labels[order], data.groups[order])
        gradient, _ = backward(spec, incoming, batch)
        state = fresh_state(sgd(lr=0.1), len(incoming))
        expected, _ = optimizer_step(state, incoming, gradient)
        assert np.array_equal(weights.values, expected.values)

    def test_identical_clients_identical_output(self):
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        data = toy_dataset(seed=4)
        incoming = init_weights(spec, 3)
        kwargs = dict(spec=spec, optimizer=adam(), epochs=2, batch_size=8, seed=9)
        weights_a, loss_a = client_local_train(data, incoming, **kwargs)
        copy = data.subset(np.arange(len(data)))
        weights_b, loss_b = client_local_train(copy, incoming, **kwargs)
        assert np.array_equal(weights_a.values, weights_b.values)
        assert loss_a == loss_b

    def test_partial_batch_is_trained(self):
        # 10 samples, batch 8: the 2-sample remainder must still step the
        # optimizer, so the result differs from training on 8 alone.
        spec = ClassifierSpec(3, (), 2, 1)
        data = toy_dataset(seed=5, size=10, num_groups=1)
        incoming = init_weights(spec, 4)
        weights, _ = client_local_train(data, incoming, spec, sgd(), 1, 8, 11)
        order = np.random.default_rng(11).permutation(10)
        head = Batch(data.features[order[:8]], data.labels[order[:8]], data.groups[order[:8]])
        gradient, _ = backward(spec, incoming, head)
        state = fresh_state(sgd(), len(incoming))
        after_head, _ = optimizer_step(state, incoming, gradient)
        assert not np.array_equal(weights.values, after_head.values)


@st.composite
def contributions(draw):
    """(client_id, weights, sample_count) for K clients sharing one random
    spec: distinct ids, finite weights, positive counts. Clients draw their
    weights from a small pool, so equal vectors (where the envelope is a
    single point) come up often."""
    spec = ClassifierSpec(
        draw(st.integers(1, 4)),
        tuple(draw(st.lists(st.integers(1, 5), max_size=2))),
        draw(st.integers(2, 4)),
        draw(st.integers(1, 3)),
        draw(st.sampled_from(HeadMode)),
    )
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=8, unique=True))
    values = hnp.arrays(np.float64, num_params(spec), elements=st.floats(-1e6, 1e6))
    pool = draw(st.lists(values, min_size=1, max_size=3))
    layout = weight_layout(spec)
    return [
        (cid, ModelWeights(draw(st.sampled_from(pool)), layout), draw(st.integers(1, 1000)))
        for cid in ids
    ]


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

    @settings(deadline=None)
    @given(contributions(), st.data())
    def test_permutation_invariant_bitwise(self, entries, data):
        shuffled = data.draw(st.permutations(entries))
        reference = fedavg_aggregate(entries).values
        assert fedavg_aggregate(shuffled).values.tobytes() == reference.tobytes()

    def test_matches_independent_weighted_mean(self):
        rng = np.random.default_rng(8)
        spec = ClassifierSpec(2, (3,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            entries = [(i, random_weights(rng, spec), int(rng.integers(1, 100))) for i in range(k)]
            out = fedavg_aggregate(entries)
            expected = weighted_mean([w.values for _, w, _ in entries], [n for _, _, n in entries])
            assert np.max(np.abs(out.values - expected)) <= 1e-12

    @settings(deadline=None)
    @given(contributions())
    def test_convex_envelope_exact(self, entries):
        out = fedavg_aggregate(entries).values
        stacked = np.stack([w.values for _, w, _ in entries])
        assert np.all(out >= stacked.min(axis=0))
        assert np.all(out <= stacked.max(axis=0))

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
        assert np.array_equal(result.final_weights.values, expected.values)
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
        for mode in Mode:
            config, parts, spec, test = small_run_setup(mode, num_clients=3)
            a = run_federation(config, parts, spec, test_set=test)
            b = run_federation(config, parts, spec, test_set=test)
            if mode is not Mode.LOCAL_ONLY:
                assert np.array_equal(a.final_weights.values, b.final_weights.values)
            for cid in a.client_weights:
                assert np.array_equal(a.client_weights[cid].values, b.client_weights[cid].values)
            for sa, sb in zip(a.history, b.history):
                assert (sa.report is None) == (sb.report is None)
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
        weights, _ = client_local_train(parts[0], incoming, spec, adam(), 2, 8, seed=123)
        twin, _ = client_local_train(parts[0], incoming, spec, adam(), 2, 8, seed=123)
        n = len(parts[0])
        merged = fedavg_aggregate([(0, weights, n), (1, twin, n)])
        assert np.array_equal(merged.values, weights.values)

    def test_local_mode_has_no_global_weights(self):
        config, parts, spec, test = small_run_setup(Mode.LOCAL_ONLY)
        result = run_federation(config, parts, spec, test_set=test)
        assert result.final_weights is None
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
        # The error surfaces from a stack of clients; the run retrains them
        # one at a time, so the message names the first client that fails.
        config, parts, spec, test = small_run_setup(Mode.DBFED, num_clients=3)
        real = federation.train_clients

        def boom(shards, *args):
            if any(shard is parts[1] for shard in shards):
                raise ValueError("synthetic failure")
            return real(shards, *args)

        monkeypatch.setattr(federation, "train_clients", boom)
        message = r"^dbfed seed 21, round 1, client 1: synthetic failure$"
        with pytest.raises(ValueError, match=message):
            run_federation(config, parts, spec, test_set=test)


@st.composite
def client_rounds(draw):
    """One round of K clients: (config, shards, spec, incoming). Shard
    sizes differ by at most one, so some clients take an extra step or a
    longer last batch. A wide hidden layer makes P large enough that the
    stack limit splits K clients into several chunks."""
    head = draw(st.sampled_from(HeadMode))
    n, d, m = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    hidden = draw(
        st.one_of(
            st.lists(st.integers(1, 6), max_size=2),
            st.lists(st.integers(1500, 3000), min_size=1, max_size=1),
        )
    )
    spec = ClassifierSpec(m, tuple(hidden), n, d, head)
    k = draw(st.integers(1, 7))
    base = draw(st.integers(1, 12))
    sizes = [base + draw(st.integers(0, 1)) for _ in range(k)]
    optimizer = OptimizerConfig(
        kind=draw(st.sampled_from(OptimizerKind)),
        learning_rate=0.05,
        weight_decay=draw(st.sampled_from([0.0, 0.01])),
    )
    config = FederationConfig(
        1, k, draw(st.integers(1, 3)), draw(st.integers(1, 8)), optimizer,
        Mode.LOCAL_ONLY, draw(st.integers(0, 1000)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shards = [
        Dataset(rng.normal(size=(s, m)), rng.integers(0, n, s), rng.integers(0, d, s), n, d)
        for s in sizes
    ]
    incoming = [init_weights(spec, int(rng.integers(0, 1000))) for _ in range(k)]
    return config, shards, spec, incoming


class TestStackedEngine:
    @settings(deadline=None, max_examples=100)
    @given(client_rounds(), st.integers(1, 50))
    def test_engine_equals_reference_loop_bitwise(self, case, round_index):
        config, shards, spec, incoming = case
        results = train_round([Federation(config, shards)], spec, [incoming], round_index)[0]
        for k, (shard, start, (weights, loss)) in enumerate(zip(shards, incoming, results)):
            expected, expected_loss = reference_client_train(
                shard, start, spec, config.optimizer, config.local_epochs,
                config.batch_size, shuffle_seed(config.master_seed, k, round_index),
            )
            assert weights.values.tobytes() == expected.values.tobytes()
            assert repr(loss) == repr(expected_loss)

    def test_chunks_follow_shard_size_and_stack_limit(self):
        # K=50 with at most 48 models a stack: two balanced chunks.
        assert client_chunks([160] * 50, 676) == [list(range(25)), list(range(25, 50))]
        # Unequal shard sizes never share a chunk; order within a size is kept.
        assert client_chunks([5, 6, 5, 6, 5], 100) == [[0, 2, 4], [1, 3]]
        assert client_chunks([5, 5, 5], STACK_VALUES) == [[0], [1], [2]]
        assert client_chunks([5, 5, 5], STACK_VALUES + 1) == [[0], [1], [2]]
        assert client_chunks([5] * 7, STACK_VALUES // 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_unequal_shards_rejected_in_one_stack(self):
        spec = ClassifierSpec(3, (), 2, 2)
        shards = [toy_dataset(size=5), toy_dataset(size=6)]
        w = init_weights(spec, 0)
        with pytest.raises(ConfigurationError, match="equal shard sizes"):
            train_clients(shards, [w, w], spec, adam(), 1, 4, [0, 1])

    def test_chunk_checked_before_training(self):
        spec = ClassifierSpec(3, (), 2, 2)
        other = ClassifierSpec(3, (2,), 2, 2)
        shards = [toy_dataset(size=6), toy_dataset(seed=1, size=6)]
        w = init_weights(spec, 0)
        for workspace in (Workspace(spec, 1, 4), Workspace(spec, 2, 3), Workspace(other, 2, 4)):
            with pytest.raises(ValueError, match="^workspace does not fit"):
                train_clients(shards, [w, w], spec, adam(), 1, 4, [0, 1], workspace)
        with pytest.raises(ValueError, match="^weight layout does not match"):
            train_clients(shards, [w, init_weights(other, 0)], spec, adam(), 1, 4, [0, 1])

    def test_one_workspace_serves_steps_of_every_shape(self):
        # Plans are cached per (models, batch) shape. A 3-client chunk with
        # a ragged last batch, a stacked backward on that ragged shape,
        # then a 2-client chunk must each equal the same call made on
        # fresh buffers.
        spec = ClassifierSpec(3, (5, 4), 3, 2, HeadMode.DOMAIN_INDEPENDENT)
        rng = np.random.default_rng(16)
        workspace = Workspace(spec, 3, 4)

        def trained(shards, ws):
            incoming = [init_weights(spec, k) for k in range(len(shards))]
            seeds = [5, 6, 7][: len(shards)]
            results = train_clients(shards, incoming, spec, adam(), 2, 4, seeds, ws)
            return [(w.values.tobytes(), repr(loss)) for w, loss in results]

        chunk = [toy_dataset(seed=s, size=10, num_classes=3) for s in range(3)]
        assert trained(chunk, workspace) == trained(chunk, None)

        stacked = random_weights(rng, spec).with_values(rng.normal(size=(3, num_params(spec))))
        batch = Batch(
            rng.normal(size=(3, 2, 3)), rng.integers(0, 3, (3, 2)), rng.integers(0, 2, (3, 2))
        )
        gradient, loss = backward(spec, stacked, batch, workspace)
        fresh_gradient, fresh_loss = backward(spec, stacked, batch)
        assert gradient.tobytes() == fresh_gradient.tobytes()
        assert loss.tobytes() == fresh_loss.tobytes()

        pair = [toy_dataset(seed=s, size=7, num_classes=3) for s in (3, 4)]
        assert trained(pair, workspace) == trained(pair, None)


class TestTargetRanges:
    """``train_clients`` checks its shards' targets once, before its first
    step, where ``backward`` checks every batch; the message is the same,
    and a federated run prefixes it with the client that holds the shard."""

    @pytest.mark.parametrize(
        "mode,field,value,message",
        [
            (Mode.FEDAVG_PLAIN, "labels", 7, "label 7 out of range for 2 classes"),
            (Mode.DBFED, "groups", 5, "group 5 out of range for 2 groups"),
        ],
    )
    def test_target_changed_after_the_dataset_was_built(self, mode, field, value, message):
        config, parts, spec, test = small_run_setup(mode, master_seed=3)
        getattr(parts[0], field)[3] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_clients([parts[0]], [init_weights(spec, 0)], spec, adam(), 1, 8, [0])
        where = f"{mode.value} seed 3, round 1, client 0"
        with pytest.raises(ValueError, match=f"^{where}: {message}$"):
            run_federation(config, parts, spec, test_set=test)


@st.composite
def lockstep_runs(draw):
    """(federations, spec, eval_every): up to three plain-head federations
    (fedavg or local, each with its own master seed, shards and optional
    test set) sharing one run shape. Shard sizes differ by at most one, so
    the flat client list splits into chunks by size; a wide hidden layer
    splits it further by the stack limit. A federation may reuse the
    previous one's shards, as ``fedbias train`` does."""
    n, d, m = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    hidden = draw(
        st.one_of(
            st.lists(st.integers(1, 6), max_size=2),
            st.lists(st.integers(1500, 3000), min_size=1, max_size=1),
        )
    )
    spec = ClassifierSpec(m, tuple(hidden), n, d, HeadMode.PLAIN)
    optimizer = OptimizerConfig(kind=draw(st.sampled_from(OptimizerKind)), learning_rate=0.05)
    rounds, epochs = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    batch = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(1, 10))

    def dataset(size):
        return Dataset(
            rng.normal(size=(size, m)), rng.integers(0, n, size), rng.integers(0, d, size), n, d
        )

    federations = []
    for _ in range(draw(st.integers(1, 3))):
        if federations and draw(st.booleans()):
            shards = federations[-1].partitions
        else:
            count = draw(st.integers(1, 4))
            shards = [dataset(base + draw(st.integers(0, 1))) for _ in range(count)]
        mode = draw(st.sampled_from([Mode.FEDAVG_PLAIN, Mode.LOCAL_ONLY]))
        config = FederationConfig(
            rounds, len(shards), epochs, batch, optimizer, mode, draw(st.integers(0, 1000))
        )
        test = dataset(draw(st.integers(4, 12))) if draw(st.booleans()) else None
        federations.append(Federation(config, shards, test))
    return federations, spec, draw(st.integers(1, 3))


def poison_losses(monkeypatch, poisoned):
    """Make ``train_clients`` report a NaN loss for every shard in ``poisoned``."""
    real = federation.train_clients

    def patched(shards, *args):
        results = real(shards, *args)
        return [
            (weights, float("nan") if any(shard is p for p in poisoned) else loss)
            for shard, (weights, loss) in zip(shards, results)
        ]

    monkeypatch.setattr(federation, "train_clients", patched)


class TestLockstep:
    @settings(deadline=None, max_examples=60)
    @given(lockstep_runs())
    def test_each_federation_equals_its_run_alone_bitwise(self, case):
        federations, spec, eval_every = case
        results = run_lockstep(federations, spec, eval_every)
        assert len(results) == len(federations)
        for fed, result in zip(federations, results):
            alone = reference_run_federation(
                fed.config, fed.partitions, spec, fed.test_set, eval_every
            )
            assert result.mode is fed.config.mode and result.config == fed.config
            assert [s.round_index for s in result.history] == [s.round_index for s in alone.history]
            assert [repr(s.mean_train_loss) for s in result.history] == [
                repr(s.mean_train_loss) for s in alone.history
            ]
            assert [repr(s.report and s.report.to_dict()) for s in result.history] == [
                repr(s.report and s.report.to_dict()) for s in alone.history
            ]
            if alone.final_weights is None:
                assert result.final_weights is None
            else:
                assert result.final_weights.values.tobytes() == alone.final_weights.values.tobytes()
            assert result.client_weights.keys() == alone.client_weights.keys()
            for k, weights in alone.client_weights.items():
                assert result.client_weights[k].values.tobytes() == weights.values.tobytes()

    def test_error_in_second_federation_names_it(self, monkeypatch):
        # fedavg and local train in one stack; only local's shards fail.
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        local_parts = [p.subset(np.arange(len(p))) for p in parts]
        local = FederationConfig(3, 3, 2, 8, adam(), Mode.LOCAL_ONLY, 22)
        poison_losses(monkeypatch, local_parts[1:])
        with pytest.raises(NumericError, match=r"^local seed 22, round 1, client 1: .*non-finite"):
            run_lockstep(
                [Federation(config, parts, test), Federation(local, local_parts, test)], spec
            )

    def test_first_failure_in_federation_then_client_order(self, monkeypatch):
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        other = [p.subset(np.arange(len(p))) for p in parts]
        second = FederationConfig(3, 3, 2, 8, adam(), Mode.FEDAVG_PLAIN, 22)
        poison_losses(monkeypatch, [parts[2], other[0]])
        with pytest.raises(NumericError, match=r"^fedavg seed 21, round 1, client 2: "):
            run_lockstep([Federation(config, parts), Federation(second, other)], spec)

    def test_raised_error_names_first_client_across_chunks(self, monkeypatch):
        # Sizes 5, 6, 5 train as chunks [0, 2] and [1]; clients 1 and 2
        # both raise, and client order, not chunk order, decides.
        spec = ClassifierSpec(3, (), 2, 2)
        parts = [toy_dataset(seed=s, size=n) for s, n in enumerate([5, 6, 5])]
        config = FederationConfig(1, 3, 1, 4, adam(), Mode.LOCAL_ONLY, 7)
        real = federation.train_clients

        def boom(shards, *args):
            if any(shard is parts[1] or shard is parts[2] for shard in shards):
                raise ValueError("synthetic failure")
            return real(shards, *args)

        monkeypatch.setattr(federation, "train_clients", boom)
        message = r"^local seed 7, round 1, client 1: synthetic failure$"
        with pytest.raises(ValueError, match=message):
            run_lockstep([Federation(config, parts)], spec)

    @pytest.mark.parametrize(
        "target,mode,message",
        [
            ("fedavg_aggregate", Mode.FEDAVG_PLAIN, r"^fedavg seed 21, round 1, aggregation: "),
            ("evaluate_weights", Mode.DBFED, r"^dbfed seed 21, round 0, evaluation: "),
            ("evaluate_weights", Mode.LOCAL_ONLY, r"^local seed 21, round 0, client 0, evaluation: "),
        ],
    )
    def test_aggregation_and_evaluation_contexts(self, monkeypatch, target, mode, message):
        config, parts, spec, test = small_run_setup(mode)

        def boom(*args):
            raise ProtocolError("boom")

        monkeypatch.setattr(federation, target, boom)
        with pytest.raises(ProtocolError, match=message + "boom$"):
            run_lockstep([Federation(config, parts, test)], spec)

    def test_unequal_run_shapes_rejected(self):
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN)
        local = FederationConfig(3, 2, 2, 8, adam(), Mode.LOCAL_ONLY, 21)
        with pytest.raises(ConfigurationError, match="at least one federation"):
            run_lockstep([], spec)
        for changed in [
            FederationConfig(4, 2, 2, 8, adam(), Mode.LOCAL_ONLY, 21),
            FederationConfig(3, 2, 1, 8, adam(), Mode.LOCAL_ONLY, 21),
            FederationConfig(3, 2, 2, 9, adam(), Mode.LOCAL_ONLY, 21),
            FederationConfig(3, 2, 2, 8, adam(lr=0.02), Mode.LOCAL_ONLY, 21),
        ]:
            message = "^local seed 21 differs from fedavg seed 21"
            with pytest.raises(ConfigurationError, match=message):
                run_lockstep([Federation(config, parts), Federation(changed, parts)], spec)
        # Different master seeds and client counts are fine.
        run_lockstep([Federation(config, parts), Federation(local, parts[:1] * 2, test)], spec)

    def test_pre_round_checks_name_the_federation(self):
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN)
        empty = Dataset(np.zeros((0, 3)), [], [], 2, 2)
        local = FederationConfig(3, 2, 2, 8, adam(), Mode.LOCAL_ONLY, 22)
        fedavg = Federation(config, parts, test)
        with pytest.raises(ConfigurationError, match="^local seed 22: client 1 has an empty dataset$"):
            run_lockstep([fedavg, Federation(local, [parts[0], empty], test)], spec)
        message = "^local seed 22: config expects 2 clients but got 3 partitions$"
        with pytest.raises(ConfigurationError, match=message):
            run_lockstep([fedavg, Federation(local, [*parts, parts[0]], test)], spec)

    def test_federation_on_the_other_head_rejected(self):
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN)
        dbfed = FederationConfig(3, 2, 2, 8, adam(), Mode.DBFED, 21)
        with pytest.raises(ConfigurationError, match="mode dbfed requires head_mode"):
            run_lockstep([Federation(config, parts), Federation(dbfed, parts)], spec)


class TestNonFiniteTraining:
    """SGD at lr=1e6 on the demo data overflows every mode within ten
    rounds; each mode must stop with the round in the message rather
    than finish on non-finite weights, whether or not a test set is
    evaluated along the way."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("with_test_set", [False, True])
    def test_divergence_stops_with_round_context(self, mode, with_test_set):
        data = generate_synthetic(
            SyntheticSpec(2, 2, 8, 1000, bias_strength=0.8, group_shift=1.0, noise_sigma=1.4, seed=1)
        )
        train, test = train_test_split(data, 0.2, seed=2)
        parts = partition(train, 5, seed=3)
        spec = ClassifierSpec(8, (16,), 2, 2, head_mode_for(mode))
        config = FederationConfig(10, 5, 1, 64, sgd(lr=1e6), mode, 5)
        with pytest.raises(NumericError, match=rf"^{mode.value} seed 5, round \d+, "):
            run_federation(config, parts, spec, test_set=test if with_test_set else None)

    def test_non_finite_client_update_names_round_and_client(self, monkeypatch):
        # Clients 1 and 2 both come back non-finite; client order decides.
        config, parts, spec, test = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        poison_losses(monkeypatch, parts[1:])
        with pytest.raises(NumericError, match="^fedavg seed 21, round 1, client 1: .*non-finite"):
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
            train, spec, adam(), rounds, epochs, batch, 31, test_set=test,
        )
        assert np.array_equal(fed.final_weights.values, central_weights.values)
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
