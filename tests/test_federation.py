import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedbias.federation as federation
from fedbias.data import Dataset, SyntheticSpec, generate_synthetic, partition, train_test_split
from fedbias.exceptions import ConfigurationError, NumericError
from fedbias.federation import (
    STACK_VALUES,
    Federation,
    FederationConfig,
    Mode,
    client_chunks,
    client_local_train,
    evaluate_weights,
    fedavg_aggregate,
    predict_dataset,
    run_federation,
    run_lockstep,
)
from fedbias.metrics import full_report, tally
from fedbias.nn import (
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerKind,
    forward_batch,
    init_weights,
    num_params,
)
from fedbias.seeding import TAG_INIT, derive_seed, shuffle_seed
from oracles import (
    Batch,
    engine_backward,
    lsum,
    optimizer_steps,
    reference_client_train,
    reference_run_federation,
    score_model,
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


# Each mode's row, written out: its head and whether the server aggregates.
MODE_ROWS = {
    Mode.FEDAVG_PLAIN: (HeadMode.PLAIN, True),
    Mode.LOCAL_ONLY: (HeadMode.PLAIN, False),
    Mode.DBFED: (HeadMode.DOMAIN_INDEPENDENT, True),
}


def random_weights(rng, spec) -> ModelWeights:
    return ModelWeights(rng.normal(size=num_params(spec)), spec.layer_dims)


class TestConfigAndState:
    def test_round_zero_allowed(self):
        FederationConfig(0, 1, 8, adam(), (4,))

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError, match="^rounds must be >= 0$"):
            FederationConfig(-1, 1, 8, adam(), (4,))
        with pytest.raises(ConfigurationError, match="^local_epochs must be >= 1$"):
            FederationConfig(1, 0, 8, adam(), (4,))
        with pytest.raises(ConfigurationError, match="^batch_size must be >= 1$"):
            FederationConfig(1, 1, 0, adam(), (4,))
        with pytest.raises(ConfigurationError, match="^eval_every must be >= 1$"):
            FederationConfig(1, 1, 8, adam(), (4,), eval_every=0)

    def test_empty_client_dataset_rejected(self):
        # A direct client_local_train call rejects the shard on its own
        # (a run names the client first: TestFailureParity).
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        empty = Dataset(np.zeros((0, 3)), [], [], 2, 2)
        with pytest.raises(ConfigurationError, match="^cannot train on an empty dataset$"):
            client_local_train(empty, init_weights(spec, 0), spec, adam(), 1, 8, 0)

    def test_mode_table(self):
        assert {mode: (mode.head, mode.aggregates) for mode in Mode} == MODE_ROWS
        assert [mode.value for mode in Mode] == ["fedavg", "local", "dbfed"]
        assert all(Mode(mode.value) is mode for mode in Mode)


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
        gradient, _ = engine_backward(spec, incoming.values, batch)
        expected, _, _ = optimizer_steps(sgd(lr=0.1), incoming.values, [gradient])
        assert np.array_equal(weights.values, expected)

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
        gradient, _ = engine_backward(spec, incoming.values, head)
        after_head, _, _ = optimizer_steps(sgd(), incoming.values, [gradient])
        assert not np.array_equal(weights.values, after_head)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            ({"epochs": 0}, ConfigurationError, "^epochs must be >= 1$"),
            ({"batch_size": 0}, ConfigurationError, "^batch_size must be >= 1$"),
            (
                {"data": Dataset(np.zeros((0, 3)), [], [], 2, 2)},
                ConfigurationError,
                "^cannot train on an empty dataset$",
            ),
            (
                {"incoming": init_weights(ClassifierSpec(3, (4,), 2, 2), 0)},
                ValueError,
                "^weight layout does not match the classifier spec$",
            ),
            (
                {"data": toy_dataset(size=1, dim=4)},
                ConfigurationError,
                "^shard 0 has 4 features, model expects 3$",
            ),
        ],
        ids=["epochs", "batch_size", "empty_shard", "weight_layout", "shard_width"],
    )
    def test_each_check_at_its_boundary(self, change, error, message):
        # The single-client entry point is the one that checks a client's
        # inputs: one epoch of batch 1 on a one-example shard in the
        # network's layout trains, and one step past each bound is refused.
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        args = dict(
            data=toy_dataset(size=1), incoming=init_weights(spec, 0), spec=spec,
            optimizer=adam(), epochs=1, batch_size=1, seed=0,
        )
        weights, loss = client_local_train(**args)
        assert weights.layout == spec.layer_dims and np.isfinite(loss)
        with pytest.raises(error, match=message) as caught:
            client_local_train(**{**args, **change})
        assert type(caught.value) is error


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
    layout = spec.layer_dims
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
        layout = (1, 1)
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
        with pytest.raises(ValueError, match=r"^no client contributions to aggregate$"):
            fedavg_aggregate([])
        with pytest.raises(ValueError, match=r"^duplicate client ids in aggregation: \[0, 0\]$"):
            fedavg_aggregate([(0, w, 5), (0, w, 5)])
        message = r"^client 1 weight layout disagrees with client 0$"
        with pytest.raises(ValueError, match=message):
            fedavg_aggregate([(0, w, 5), (1, init_weights(other, 0), 5)])
        with pytest.raises(ValueError, match=r"^client 0 reports a non-positive sample count$"):
            fedavg_aggregate([(0, w, 0)])


@pytest.mark.parametrize("swap", [False, True], ids=["2_4_2", "1_5_2"])
def test_equal_parameter_counts_with_other_dims_are_refused(swap):
    # Both networks have 22 parameters, so only the layer dims tell their
    # weight vectors apart: a length check alone would let either through.
    specs = [ClassifierSpec(2, (4,), 2, 1), ClassifierSpec(1, (5,), 2, 1)]
    spec, other = specs[::-1] if swap else specs
    assert num_params(spec) == num_params(other) == 22
    own, foreign = init_weights(spec, 0), init_weights(other, 0)
    data = toy_dataset(size=4, num_groups=1, dim=spec.input_dim)
    message = r"^weight layout does not match the classifier spec$"
    with pytest.raises(ValueError, match=message):
        forward_batch(spec, foreign, data.features)
    with pytest.raises(ValueError, match=message):
        client_local_train(data, foreign, spec, adam(), 1, 2, 0)
    with pytest.raises(ValueError, match=r"^client 1: weight layout does not match"):
        evaluate_weights([(spec, [(own, "client 0"), (foreign, "client 1")])], data)
    with pytest.raises(ValueError, match=r"^client 1 weight layout disagrees with client 0$"):
        fedavg_aggregate([(0, own, 5), (1, foreign, 5)])


def small_run_setup(mode: Mode, master_seed=21, num_clients=2):
    """(config, federation, spec): 3 rounds of 2 epochs, a federation of
    ``mode`` with its client shards and test set, and the network it trains."""
    data = generate_synthetic(
        SyntheticSpec(2, 2, 3, 30, bias_strength=0.5, group_shift=0.5, seed=1)
    )
    train, test = train_test_split(data, 0.25, seed=2)
    parts = partition(train, num_clients, seed=3)
    spec = ClassifierSpec(3, (4,), 2, 2, MODE_ROWS[mode][0])
    config = FederationConfig(3, 2, 8, adam(), (4,))
    return config, Federation(mode, master_seed, parts, test), spec


class TestRunFederation:
    def test_zero_rounds_returns_initialization(self):
        _, fed, spec = small_run_setup(Mode.DBFED)
        result = run_federation(FederationConfig(0, 2, 8, adam(), (4,)), fed)
        expected = init_weights(spec, derive_seed(21, TAG_INIT))
        assert np.array_equal(result.final_weights.values, expected.values)
        assert len(result.history) == 1
        assert result.history[0].round_index == 0
        assert result.history[0].report is not None

    def test_history_covers_all_rounds(self):
        config, fed, _ = small_run_setup(Mode.DBFED)
        result = run_federation(config, fed)
        assert [s.round_index for s in result.history] == [0, 1, 2, 3]
        assert all(s.report is not None for s in result.history)

    def test_eval_cadence(self):
        _, fed, _ = small_run_setup(Mode.DBFED)
        result = run_federation(FederationConfig(3, 2, 8, adam(), (4,), eval_every=2), fed)
        evaluated = [s.round_index for s in result.history if s.report is not None]
        # Round 0, the cadence round, and the final round.
        assert evaluated == [0, 2, 3]

    def test_bitwise_deterministic(self):
        for mode in Mode:
            config, fed, _ = small_run_setup(mode, num_clients=3)
            a = run_federation(config, fed)
            b = run_federation(config, fed)
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
        _, fed, _ = small_run_setup(Mode.DBFED)
        config = FederationConfig(1, 2, 8, adam(), (4,))
        mutated = [fed.partitions[0], toy_dataset(seed=99)]
        a = run_federation(config, Federation(Mode.DBFED, 21, fed.partitions))
        b = run_federation(config, Federation(Mode.DBFED, 21, mutated))
        assert np.array_equal(a.client_weights[0].values, b.client_weights[0].values)

    def test_identical_partitions_aggregate_to_client_weights(self):
        # Same data and same incoming weights: forcing both clients onto
        # one shuffle seed makes their updates, and thus the convex
        # combination, equal to either one.
        _, fed, spec = small_run_setup(Mode.DBFED)
        part = fed.partitions[0]
        incoming = init_weights(spec, 5)
        weights, _ = client_local_train(part, incoming, spec, adam(), 2, 8, seed=123)
        twin, _ = client_local_train(part, incoming, spec, adam(), 2, 8, seed=123)
        n = len(part)
        merged = fedavg_aggregate([(0, weights, n), (1, twin, n)])
        assert np.array_equal(merged.values, weights.values)

    def test_local_mode_has_no_global_weights(self):
        config, fed, _ = small_run_setup(Mode.LOCAL_ONLY)
        result = run_federation(config, fed)
        assert result.final_weights is None
        assert set(result.client_weights) == {0, 1}
        assert not np.array_equal(
            result.client_weights[0].values, result.client_weights[1].values
        )
        assert result.final_report is not None

    def test_empty_partition_list_rejected(self):
        config, fed, _ = small_run_setup(Mode.DBFED)
        message = "^dbfed seed 21: a federation needs at least one client$"
        with pytest.raises(ConfigurationError, match=message):
            run_federation(config, fed._replace(partitions=[]))

    def test_incompatible_test_set_rejected(self):
        config, fed, spec = small_run_setup(Mode.DBFED)
        wrong = toy_dataset(seed=1, dim=5)
        with pytest.raises(ConfigurationError):
            run_federation(config, fed._replace(test_set=wrong))


@st.composite
def client_rounds(draw):
    """One round of two or three federations: (config, federations, specs,
    incoming), each federation's mode on the head the mode table names,
    with the networks it trains and its clients' starting weights. One
    federation is on the plain head and one on the grouped head, in
    either order, so the round holds clients of both. Shards have one
    size or sizes that differ by at most one, so heads share chunks at
    equal and at ragged sizes, and some clients take an extra step or a
    longer last batch. A wide hidden layer makes P large enough that the
    stack limit splits the clients into several chunks."""
    n, d, m = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    hidden = tuple(
        draw(
            st.one_of(
                st.lists(st.integers(1, 6), max_size=2),
                st.lists(st.integers(1500, 3000), min_size=1, max_size=1),
            )
        )
    )
    base, ragged = draw(st.integers(1, 12)), draw(st.booleans())
    optimizer = OptimizerConfig(
        kind=draw(st.sampled_from(OptimizerKind)),
        learning_rate=0.05,
        weight_decay=draw(st.sampled_from([0.0, 0.01])),
    )
    epochs, batch = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    config = FederationConfig(1, epochs, batch, optimizer, hidden)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plain = draw(st.sampled_from([Mode.FEDAVG_PLAIN, Mode.LOCAL_ONLY]))
    modes = draw(st.permutations([plain, Mode.DBFED]))
    modes += draw(st.lists(st.sampled_from(Mode), max_size=1))
    federations, specs, incoming = [], [], []
    for mode in modes:
        count = draw(st.integers(1, 5))
        sizes = [base + (draw(st.integers(0, 1)) if ragged else 0) for _ in range(count)]
        shards = [
            Dataset(rng.normal(size=(s, m)), rng.integers(0, n, s), rng.integers(0, d, s), n, d)
            for s in sizes
        ]
        spec = ClassifierSpec(m, hidden, n, d, MODE_ROWS[mode][0])
        federations.append(Federation(mode, draw(st.integers(0, 1000)), shards))
        specs.append(spec)
        incoming.append([init_weights(spec, int(rng.integers(0, 1000))) for _ in sizes])
    return config, federations, specs, incoming


def chunk_values(specs, chunk):
    return sum(num_params(specs[k]) for k in chunk)


# Networks of 6 to 54004 parameters, so a stack holds 1 to 5461 of them.
NETWORKS = [
    ClassifierSpec(1, (width,), 2, 2, head) for width in (1, 2000, 9000) for head in HeadMode
]


class TestStackedEngine:
    @settings(deadline=None, max_examples=100)
    @given(client_rounds(), st.integers(1, 50))
    def test_engine_equals_reference_loop_bitwise(self, case, round_index):
        config, federations, specs, incoming = case
        results = federation._train_round(config, federations, specs, incoming, round_index)
        for fed, spec, starts, trained in zip(federations, specs, incoming, results):
            for k, (shard, start, (weights, loss)) in enumerate(
                zip(fed.partitions, starts, trained)
            ):
                expected, expected_loss = reference_client_train(
                    shard, start, spec, config.optimizer, config.local_epochs,
                    config.batch_size, shuffle_seed(fed.master_seed, k, round_index),
                )
                assert weights.values.tobytes() == expected.values.tobytes()
                assert repr(loss) == repr(expected_loss)

    def test_chunks_follow_shard_size_and_stack_limit(self):
        plain = ClassifierSpec(16, (32,), 4, 4)
        assert num_params(plain) == 676
        # K=50 with at most 48 models a stack: two balanced chunks.
        assert client_chunks([plain] * 50, [160] * 50) == [list(range(25)), list(range(25, 50))]
        # Unequal shard sizes never share a chunk; order within a size is kept.
        assert client_chunks([plain] * 5, [5, 6, 5, 6, 5]) == [[0, 2, 4], [1, 3]]
        exact = ClassifierSpec(3, (5461,), 2, 1)
        alone, three = (ClassifierSpec(1, (width,), 2, 1) for width in (8192, 2500))
        assert num_params(exact) == STACK_VALUES and num_params(alone) > STACK_VALUES
        assert STACK_VALUES // num_params(three) == 3
        assert client_chunks([exact] * 3, [5] * 3) == [[0], [1], [2]]
        assert client_chunks([alone] * 3, [5] * 3) == [[0], [1], [2]]
        assert client_chunks([three] * 7, [5] * 7) == [[0, 1, 2], [3, 4], [5, 6]]
        # A grouped chunk joins the first plain chunk of its size with room
        # for it; one of another hidden width does not.
        grouped = replace(plain, head_mode=HeadMode.DOMAIN_INDEPENDENT)
        other = ClassifierSpec(16, (33,), 4, 4, HeadMode.DOMAIN_INDEPENDENT)
        specs = [plain, plain, grouped, plain, grouped, other]
        assert client_chunks(specs, [5, 6, 5, 5, 6, 5]) == [[0, 3, 2], [1, 4], [5]]
        # Two plain clients of 8002 values, then three grouped ones of 12004
        # (two a chunk): the grouped part of one fits beside the plain pair,
        # the part of two does not, and the first grouped client goes first.
        pair = ClassifierSpec(1, (2000,), 2, 2)
        trio = replace(pair, head_mode=HeadMode.DOMAIN_INDEPENDENT)
        assert (num_params(pair), num_params(trio)) == (8002, 12004)
        assert client_chunks([pair] * 2 + [trio] * 3, [1] * 5) == [[0, 1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "m, hidden, n, d, plain, grouped, expected",
        [
            # demo_sweep: fedavg and local on the plain head, then dbfed.
            (8, (16,), 2, 2, 10, 5, [list(range(15))]),
            # many_clients_csv: 25 + 25 of the two heads would pass the limit.
            (16, (32,), 4, 4, 50, 50, [list(range(i, i + 25)) for i in range(0, 100, 25)]),
            # wide: every model is past the limit on its own.
            (64, (128, 128), 10, 4, 5, 5, [[k] for k in range(10)]),
        ],
        ids=["demo_sweep", "many_clients_csv", "wide"],
    )
    def test_chunks_of_the_benchmark_workloads(self, m, hidden, n, d, plain, grouped, expected):
        specs = [ClassifierSpec(m, hidden, n, d, HeadMode.PLAIN)] * plain
        specs += [ClassifierSpec(m, hidden, n, d, HeadMode.DOMAIN_INDEPENDENT)] * grouped
        assert client_chunks(specs, [160] * len(specs)) == expected

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NETWORKS), st.integers(1, 4)), max_size=80))
    def test_chunks_partition_each_size_class_evenly(self, clients):
        specs = [spec for spec, _ in clients]
        sizes = [size for _, size in clients]
        chunks = client_chunks(specs, sizes)
        assert sorted(k for chunk in chunks for k in chunk) == list(range(len(clients)))
        for chunk in chunks:
            assert len({sizes[k] for k in chunk}) == 1
            assert len({specs[k].hidden_widths for k in chunk}) == 1
            # Each network runs once in a chunk, and only a lone model may
            # pass the limit.
            runs = [spec for spec, _ in itertools.groupby(specs[k] for k in chunk)]
            assert len(runs) == len(set(runs))
            assert chunk_values(specs, chunk) <= STACK_VALUES or len(chunk) == 1
        for kind in set(clients):
            cap = max(1, STACK_VALUES // num_params(kind[0]))
            ids = [k for k, own in enumerate(clients) if own == kind]
            parts = [[k for k in chunk if clients[k] == kind] for chunk in chunks]
            parts = [part for part in parts if part]
            # In order, in the fewest chunks the cap allows, balanced to within one.
            assert [k for part in parts for k in part] == ids
            assert len(parts) == -(-len(ids) // cap)
            assert max(map(len, parts)) - min(map(len, parts)) <= 1
        # No two chunks that could share a step are left apart.
        for i, a in enumerate(chunks):
            for b in chunks[i + 1 :]:
                shared = [(sizes[c[0]], specs[c[0]].hidden_widths) for c in (a, b)]
                if shared[0] == shared[1]:
                    assert chunk_values(specs, a + b) > STACK_VALUES

    def test_each_run_of_one_network_is_a_head(self):
        # Plain, grouped, grouped, plain: three heads, one stack each, and
        # every client equals its training alone.
        plain = ClassifierSpec(3, (4,), 2, 2)
        grouped = replace(plain, head_mode=HeadMode.DOMAIN_INDEPENDENT)
        specs = [plain, grouped, grouped, plain]
        shards = [toy_dataset(seed=s, size=9) for s in range(4)]
        incoming = [init_weights(spec, s) for s, spec in enumerate(specs)]
        orders = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            orders.append([rng.permutation(9) for _ in range(2)])
        trained, losses = federation._train_chunk(shards, incoming, specs, adam(), 4, orders)
        p, q = num_params(plain), num_params(grouped)
        assert [stack.shape for stack in trained] == [(1, p), (2, q), (1, p)]
        rows = [row for stack in trained for row in stack]
        for seed, (shard, start, spec) in enumerate(zip(shards, incoming, specs)):
            expected, loss = reference_client_train(shard, start, spec, adam(), 2, 4, seed)
            assert rows[seed].tobytes() == expected.values.tobytes()
            assert repr(float(losses[seed])) == repr(loss)

class TestTargetRanges:
    """A dataset checks its labels and groups when it is built and keeps
    them read-only, so no run or ``client_local_train`` call scans them again:
    a target out of range can neither be built in nor written in later."""

    @pytest.mark.parametrize(
        "mode,field,value,message",
        [
            (Mode.FEDAVG_PLAIN, "labels", 7, "label 7 out of range for 2 classes"),
            (Mode.DBFED, "groups", 5, "group 5 out of range for 2 groups"),
        ],
    )
    def test_target_changed_after_the_dataset_was_built(self, mode, field, value, message):
        part = small_run_setup(mode, master_seed=3)[1].partitions[0]
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            getattr(part, field)[3] = value
        assert getattr(part, field)[3] != value
        changed = getattr(part, field).copy()
        changed[3] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(part, **{field: changed})


@st.composite
def lockstep_runs(draw):
    """(config, federations): up to three federations of any mode, so one
    run may mix heads (each with its own master seed, shards and optional
    test set), under one run shape.
    Shard sizes differ by at most one, so the flat client list splits
    into chunks by head and size; a wide hidden layer splits it further
    by the stack limit. A federation may reuse the previous one's shards,
    as ``fedbias train`` does."""
    n, d, m = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    hidden = draw(
        st.one_of(
            st.lists(st.integers(1, 6), max_size=2),
            st.lists(st.integers(1500, 3000), min_size=1, max_size=1),
        )
    )
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
        mode = draw(st.sampled_from(Mode))
        master_seed = draw(st.integers(0, 1000))
        test = dataset(draw(st.integers(4, 12))) if draw(st.booleans()) else None
        federations.append(Federation(mode, master_seed, shards, test))
    config = FederationConfig(rounds, epochs, batch, optimizer, tuple(hidden), draw(st.integers(1, 3)))
    return config, federations


def poison_losses(monkeypatch, poisoned):
    """Make the chunk step report a NaN loss for every shard in ``poisoned``."""
    real = federation._train_chunk

    def patched(shards, *args, **kwargs):
        trained, losses = real(shards, *args, **kwargs)
        bad = [any(shard is p for p in poisoned) for shard in shards]
        return trained, np.where(bad, np.nan, losses)

    monkeypatch.setattr(federation, "_train_chunk", patched)


class TestLockstep:
    @settings(deadline=None, max_examples=60)
    @given(lockstep_runs())
    def test_each_federation_equals_its_run_alone_bitwise(self, case):
        config, federations = case
        results = run_lockstep(config, federations)
        assert len(results) == len(federations)
        for fed, result in zip(federations, results):
            part = fed.partitions[0]
            own = ClassifierSpec(
                part.feature_dim, config.hidden_widths, part.num_classes, part.num_groups,
                MODE_ROWS[fed.mode][0],
            )
            alone = reference_run_federation(config, fed, own)
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
        config, fedavg, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        local_parts = [p.subset(np.arange(len(p))) for p in fedavg.partitions]
        local = Federation(Mode.LOCAL_ONLY, 22, local_parts, fedavg.test_set)
        poison_losses(monkeypatch, local_parts[1:])
        with pytest.raises(NumericError, match=r"^local seed 22, round 1, client 1: .*non-finite"):
            run_lockstep(config, [fedavg, local])

    def test_first_failure_in_federation_then_client_order(self, monkeypatch):
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        parts = fed.partitions
        other = [p.subset(np.arange(len(p))) for p in parts]
        second = Federation(Mode.FEDAVG_PLAIN, 22, other)
        poison_losses(monkeypatch, [parts[2], other[0]])
        with pytest.raises(NumericError, match=r"^fedavg seed 21, round 1, client 2: "):
            run_lockstep(config, [fed._replace(test_set=None), second])

    def test_raised_error_names_first_client_across_chunks(self, monkeypatch):
        # Sizes 5, 6, 5 train as chunks [0, 2] and [1]; clients 1 and 2
        # both come back non-finite, and client order, not chunk order, decides.
        spec = ClassifierSpec(3, (), 2, 2)
        parts = [toy_dataset(seed=s, size=n) for s, n in enumerate([5, 6, 5])]
        assert client_chunks([spec] * 3, [5, 6, 5]) == [[0, 2], [1]]
        config = FederationConfig(1, 1, 4, adam(), ())
        poison_losses(monkeypatch, parts[1:])
        message = (
            r"^local seed 7, round 1, client 1: "
            r"local training produced non-finite weights or loss$"
        )
        with pytest.raises(NumericError, match=message):
            run_lockstep(config, [Federation(Mode.LOCAL_ONLY, 7, parts)])

    @pytest.mark.parametrize(
        "target,mode,message",
        [
            ("fedavg_aggregate", Mode.FEDAVG_PLAIN, r"^fedavg seed 21, round 1, aggregation: "),
            # Every mode predicts its stack, then scores it: a scoring
            # error takes the first model's context. A lone model (and
            # round 0's shared initialization) is predicted by itself.
            ("predict_dataset", Mode.DBFED, r"^dbfed seed 21, round 0, evaluation: "),
            ("stack_reports", Mode.FEDAVG_PLAIN, r"^fedavg seed 21, round 0, evaluation: "),
            (
                "predict_dataset",
                Mode.LOCAL_ONLY,
                r"^local seed 21, round 0, client 0, evaluation: ",
            ),
            (
                "stack_reports",
                Mode.LOCAL_ONLY,
                r"^local seed 21, round 0, client 0, evaluation: ",
            ),
        ],
    )
    def test_aggregation_and_evaluation_contexts(self, monkeypatch, target, mode, message):
        config, fed, _ = small_run_setup(mode)

        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(federation, target, boom)
        with pytest.raises(ValueError, match=message + "boom$"):
            run_lockstep(config, [fed])

    def test_mean_train_loss_adds_left_to_right(self, monkeypatch):
        # sum() of these losses is 1.1735930735930735 on Python 3.12, which
        # compensates, and 1.1735930735930737 added left to right.
        losses = [1 / 3, 2 / 7, 5 / 11, 0.1]
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=4)

        def fixed(config, federations, specs, incoming, round_index):
            return [[(w, loss) for w, loss in zip(incoming[0], losses)]]

        monkeypatch.setattr(federation, "_train_round", fixed)
        result = run_lockstep(config, [fed._replace(test_set=None)])[0]
        assert [s.mean_train_loss for s in result.history[1:]] == [1.1735930735930737 / 4] * 3
        assert lsum(losses) == 1.1735930735930737

    def test_unequal_run_shapes_rejected(self):
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN)
        with pytest.raises(ConfigurationError, match="at least one federation"):
            run_lockstep(config, [])
        # Different modes, master seeds and client counts are fine.
        local = Federation(Mode.LOCAL_ONLY, 22, fed.partitions[:1] * 3, fed.test_set)
        run_lockstep(config, [fed._replace(test_set=None), local])

    def test_pre_round_checks_name_the_federation(self):
        config, fedavg, _ = small_run_setup(Mode.FEDAVG_PLAIN)
        empty = Dataset(np.zeros((0, 3)), [], [], 2, 2)
        local = Federation(Mode.LOCAL_ONLY, 22, [fedavg.partitions[0], empty], fedavg.test_set)
        with pytest.raises(ConfigurationError, match="^local seed 22: client 1 has an empty dataset$"):
            run_lockstep(config, [fedavg, local])
        message = r"^local seed -3: run\.master_seed must be >= 0, got -3$"
        with pytest.raises(ConfigurationError, match=message):
            run_lockstep(config, [fedavg, fedavg._replace(mode=Mode.LOCAL_ONLY, master_seed=-3)])

    def test_federations_on_both_heads_share_a_run(self, monkeypatch):
        # fedavg, local and dbfed over one set of equal shards: each round
        # trains all nine clients as one chunk, the six on the plain head
        # first, and each federation equals its run alone.
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        federations = [fed._replace(mode=mode) for mode in Mode]
        chunks = []
        real = federation._train_chunk

        def counted(shards, incoming, specs, *args, **kwargs):
            chunks.append([spec.head_mode for spec in specs])
            return real(shards, incoming, specs, *args, **kwargs)

        monkeypatch.setattr(federation, "_train_chunk", counted)
        results = run_lockstep(config, federations)
        both = [HeadMode.PLAIN] * 6 + [HeadMode.DOMAIN_INDEPENDENT] * 3
        assert chunks == [both] * config.rounds
        monkeypatch.setattr(federation, "_train_chunk", real)
        for one, result in zip(federations, results):
            alone = run_federation(config, one)
            assert [s.report.to_dict() for s in result.history] == [
                s.report.to_dict() for s in alone.history
            ]
            for k, weights in alone.client_weights.items():
                assert result.client_weights[k].values.tobytes() == weights.values.tobytes()

    def test_round_0_predicts_the_shared_initialization_once(self, monkeypatch):
        # Every local client starts from one weights object: round 0
        # forwards it once for all three; round 1 forwards each of the
        # three trained models once.
        config, fed, _ = small_run_setup(Mode.LOCAL_ONLY, num_clients=3)
        seen = []
        real_predict = federation.predict_dataset
        monkeypatch.setattr(
            federation, "predict_dataset", lambda *args: seen.append(args[1]) or real_predict(*args)
        )
        result = run_lockstep(replace(config, rounds=1), [fed])[0]
        own = ClassifierSpec(3, (4,), 2, 2)
        init = init_weights(own, derive_seed(fed.master_seed, TAG_INIT))
        trained = [result.client_weights[k] for k in range(3)]
        assert [w.values.tobytes() for w in seen] == [w.values.tobytes() for w in [init, *trained]]
        monkeypatch.setattr(federation, "predict_dataset", real_predict)
        reference = reference_run_federation(replace(config, rounds=1), fed, own)
        assert [s.report.to_dict() for s in result.history] == [
            s.report.to_dict() for s in reference.history
        ]

    def test_one_tally_and_one_scoring_per_round_and_test_set(self, monkeypatch):
        # Rounds 0, 2 and 3 are evaluated (3 is the last); round 1 is not.
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        config = replace(config, rounds=3, eval_every=2)
        calls = []
        for name in ("_evaluate_round", "tally", "stack_reports"):
            real = getattr(federation, name)

            def counted(*args, _name=name, _real=real):
                calls.append(args[2] if _name == "_evaluate_round" else _name)
                return _real(*args)

            monkeypatch.setattr(federation, name, counted)

        def per_round(federations):
            calls.clear()
            run_lockstep(config, federations)
            rounds = {}
            for call in calls:
                if isinstance(call, int):
                    rounds[call] = []
                else:
                    rounds[list(rounds)[-1]].append(call)
            return rounds

        one = ["tally", "stack_reports"]
        assert per_round([fed._replace(mode=mode) for mode in Mode]) == dict.fromkeys([0, 2, 3], one)
        # Two master seeds, each with a test set of its own.
        test = fed.test_set.subset(np.arange(len(fed.test_set)))
        other = fed._replace(master_seed=22, test_set=test)
        assert per_round([fed, other]) == dict.fromkeys([0, 2, 3], one * 2)
        assert per_round([fed._replace(test_set=None)]) == dict.fromkeys([0, 2, 3], [])

    def test_one_shuffle_draw_per_master_seed_and_client(self, monkeypatch):
        # Three modes share the master seed and the shards: 4 clients over
        # 2 rounds make 8 draws, not 24.
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=4)
        calls = []
        real = federation.shuffle_seed
        monkeypatch.setattr(
            federation, "shuffle_seed", lambda *args: calls.append(args) or real(*args)
        )
        run_lockstep(FederationConfig(2, 2, 8, adam(), (4,)), [fed._replace(mode=m) for m in Mode])
        assert sorted(calls) == [(21, k, r) for k in range(4) for r in (1, 2)]


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
        config = FederationConfig(10, 1, 64, sgd(lr=1e6), (16,))
        fed = Federation(mode, 5, parts, test if with_test_set else None)
        with pytest.raises(NumericError, match=rf"^{mode.value} seed 5, round \d+, "):
            run_federation(config, fed)

    def test_non_finite_client_update_names_round_and_client(self, monkeypatch):
        # Clients 1 and 2 both come back non-finite; client order decides.
        config, fed, _ = small_run_setup(Mode.FEDAVG_PLAIN, num_clients=3)
        poison_losses(monkeypatch, fed.partitions[1:])
        with pytest.raises(NumericError, match="^fedavg seed 21, round 1, client 1: .*non-finite"):
            run_federation(config, fed)


class TestFailureParity:
    """The same fault stops every mode with the same error type, and a
    message naming the mode, the master seed and where the run stopped."""

    @pytest.mark.parametrize("mode", [m.value for m in Mode])
    @pytest.mark.parametrize("fault", ["nan_feature", "empty_shard", "empty_test"])
    def test_same_error_in_every_mode(self, fault, mode):
        mode = Mode(mode)
        config, fed, _ = small_run_setup(mode, num_clients=3)
        parts = fed.partitions
        empty = Dataset(np.zeros((0, 3)), [], [], 2, 2)
        if fault == "nan_feature":
            # Clients 1 and 2 both diverge; client order decides.
            for k in (1, 2):
                features = parts[k].features.copy()
                features[0, 0] = np.nan
                parts[k] = replace(parts[k], features=features)
            error = NumericError
            where = ", round 1, client 1: local training produced non-finite weights or loss"
        elif fault == "empty_shard":
            parts[1] = empty
            error, where = ConfigurationError, ": client 1 has an empty dataset"
        else:
            fed = fed._replace(test_set=empty)
            # A local round scores its clients as one stack; client 0 is the first.
            client = "client 0, " if mode is Mode.LOCAL_ONLY else ""
            error = ValueError
            where = f", round 0, {client}evaluation: cannot build a report from an empty prediction log"
        message = f"^{mode.value} seed 21{re.escape(where)}$"
        with pytest.raises(error, match=message) as raised:
            run_federation(config, fed)
        assert raised.type is error


class TestCentralizedEquivalence:
    @pytest.mark.parametrize("rounds,epochs,batch", [(1, 1, 8), (3, 2, 5)])
    def test_single_client_run_is_centralized(self, rounds, epochs, batch):
        data = generate_synthetic(
            SyntheticSpec(2, 2, 3, 40, bias_strength=0.6, group_shift=0.8, seed=7)
        )
        train, test = train_test_split(data, 0.2, seed=8)
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        config = FederationConfig(rounds, epochs, batch, adam(), (4,))
        result = run_federation(config, Federation(Mode.DBFED, 31, [train], test))
        central_weights, central_history = train_centralized(
            train, spec, adam(), rounds, epochs, batch, 31, test_set=test,
        )
        assert np.array_equal(result.final_weights.values, central_weights.values)
        assert len(result.history) == len(central_history)
        for sf, sc in zip(result.history, central_history):
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
        [report] = evaluate_weights([(spec, [(w, "test")])], data)
        assert report.num_classes == 2
        assert report.num_groups == 2
        assert report.total == len(data)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(1, 5), max_size=2),
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from(HeadMode),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_of_one_is_the_models_own_report(self, m, hidden, n, d, head, size, seed):
        # The one-model path that scored a global model before every mode
        # went through the stack.
        spec = ClassifierSpec(m, tuple(hidden), n, d, head)
        w = random_weights(np.random.default_rng(seed), spec)
        test = toy_dataset(seed=seed, size=size, num_classes=n, num_groups=d, dim=m)
        [report] = evaluate_weights([(spec, [(w, "p")])], test)
        assert repr(report.to_dict()) == repr(score_model(spec, w, test).to_dict())

    def test_errors_take_the_context_of_their_model(self):
        # The two models are forwarded as one stack; the second one's
        # prediction fails and names it.
        spec = ClassifierSpec(3, (), 2, 2)
        w = init_weights(spec, 12)
        bad = w.with_values(np.full_like(w.values, np.nan))
        with pytest.raises(NumericError, match=r"^second: .*non-finite"):
            evaluate_weights([(spec, [(w, "first"), (bad, "second")])], toy_dataset(seed=13))
        # Scoring an empty test set fails for every model of every stack:
        # the first names it.
        empty = toy_dataset(seed=13, size=0)
        with pytest.raises(ValueError, match=r"^first: cannot build a report"):
            evaluate_weights([(spec, [(w, "first"), (w, "second")])], empty)
        with pytest.raises(ValueError, match=r"^first: cannot build a report"):
            evaluate_weights([(spec, [(w, "first"), (init_weights(spec, 2), "second")])], empty)
        grouped = ClassifierSpec(3, (), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        other = init_weights(grouped, 1)
        stacks = [(grouped, [(other, "first")]), (spec, [(w, "second"), (w, "third")])]
        with pytest.raises(ValueError, match=r"^first: cannot build a report"):
            evaluate_weights(stacks, empty)
        with pytest.raises(ValueError, match=r"^third: weight layout does not match"):
            evaluate_weights([(spec, [(w, "first"), (w, "second"), (other, "third")])], empty)

    @staticmethod
    def refuse_to_predict(monkeypatch):
        def predicted(*args):
            raise AssertionError("predicted before the stacks were checked")

        for name in ("predict_dataset", "predict_batch"):
            monkeypatch.setattr(federation, name, predicted)

    def test_empty_stack_is_refused_before_predicting(self, monkeypatch):
        spec = ClassifierSpec(3, (), 2, 2)
        w, test = init_weights(spec, 12), toy_dataset(seed=13)
        self.refuse_to_predict(monkeypatch)
        message = r"^need at least one stack and one model per stack, got sizes \[1, 0\]$"
        with pytest.raises(ValueError, match=message):
            evaluate_weights([(spec, [(w, "first")]), (spec, [])], test)
        message = r"^need at least one stack and one model per stack, got sizes \[\]$"
        with pytest.raises(ValueError, match=message):
            evaluate_weights([], test)

    def test_test_set_that_does_not_fit_a_network_is_refused_before_predicting(self, monkeypatch):
        # A test set of 3 classes and 4 groups fits the first network and
        # not the second, which a run would have refused before round 1.
        fits = ClassifierSpec(3, (), 3, 4, HeadMode.DOMAIN_INDEPENDENT)
        spec = ClassifierSpec(3, (), 2, 2)
        test = toy_dataset(seed=13, num_classes=3, num_groups=4)
        w = init_weights(spec, 12)
        stacks = [(fits, [(init_weights(fits, 1), "first")]), (spec, [(w, "second"), (w, "third")])]
        self.refuse_to_predict(monkeypatch)
        message = r"^second: test set has 3 classes / 4 groups, model expects 2 / 2$"
        with pytest.raises(ConfigurationError, match=message):
            evaluate_weights(stacks, test)
        wide = toy_dataset(seed=13, num_classes=3, num_groups=4, dim=4)
        message = r"^first: test set has 4 features, model expects 3$"
        with pytest.raises(ConfigurationError, match=message):
            evaluate_weights(stacks, wide)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(1, 5), max_size=2),
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from(HeadMode),
        st.integers(1, 30),
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_stacked_prediction_is_model_by_model(self, m, hidden, n, d, head, size, picks, seed):
        # Picks index a pool of three models: equal neighbours are one
        # weights object, predicted once and reused.
        spec = ClassifierSpec(m, tuple(hidden), n, d, head)
        rng = np.random.default_rng(seed)
        pool = [random_weights(rng, spec) for _ in range(3)]
        models = [pool[i] for i in picks]
        test = toy_dataset(seed=seed, size=size, num_classes=n, num_groups=d, dim=m)
        expected = np.array([predict_dataset(spec, w, test) for w in models], dtype=np.int64)
        expected = full_report(tally(expected, test.labels, test.groups, n, d))
        calls = []

        def counted(*args):
            calls.append(id(args[1]))
            return predict_dataset(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "predict_dataset", counted)
            [report] = evaluate_weights([(spec, [(w, str(k)) for w, k in zip(models, picks)])], test)
        assert repr(report.to_dict()) == repr(expected.to_dict())
        assert calls == [id(pool[k]) for k, _ in itertools.groupby(picks)]

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(1, 5), max_size=2),
        st.integers(2, 3),
        st.integers(1, 3),
        st.lists(
            st.tuples(st.sampled_from(HeadMode), st.lists(st.integers(0, 2), min_size=1, max_size=4)),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 30),
        st.integers(0, 15),
        st.integers(0, 2**32 - 1),
    )
    def test_stacks_scored_together_equal_each_stack_alone(
        self, m, hidden, n, d, drawn, size, poisoned, seed
    ):
        # Picks index a pool of three models per head, so a model may
        # repeat within a stack and across stacks.
        rng = np.random.default_rng(seed)
        specs = {head: ClassifierSpec(m, tuple(hidden), n, d, head) for head in HeadMode}
        pools = {head: [random_weights(rng, spec) for _ in range(3)] for head, spec in specs.items()}
        stacks = [
            (specs[head], [(pools[head][i], f"<{s}.{k}>") for k, i in enumerate(picks)])
            for s, (head, picks) in enumerate(drawn)
        ]
        test = toy_dataset(seed=seed, size=size, num_classes=n, num_groups=d, dim=m)
        together = evaluate_weights(stacks, test)
        alone = [evaluate_weights([stack], test)[0] for stack in stacks]
        assert [repr(r.to_dict()) for r in together] == [repr(r.to_dict()) for r in alone]
        # A NaN model fails in its own context, and names no other model.
        where = [(s, k) for s, (_, models) in enumerate(stacks) for k in range(len(models))]
        s, k = where[poisoned % len(where)]
        weights, context = stacks[s][1][k]
        stacks[s][1][k] = (weights.with_values(np.full_like(weights.values, np.nan)), context)
        with pytest.raises(NumericError, match="non-finite") as raised:
            evaluate_weights(stacks, test)
        named = [c for _, models in stacks for _, c in models if c in str(raised.value)]
        assert str(raised.value).startswith(f"{context}: ") and named == [context]
