import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbias.data import Dataset
from fedbias.exceptions import ConfigurationError
from fedbias.federation import client_local_train
from fedbias.nn import (
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerKind,
    forward_batch,
    init_weights,
    num_params,
    weight_layout,
)
from oracles import (
    Batch,
    engine_backward,
    fd_gradient,
    guarded_rel_error,
    optimizer_steps,
    random_gradcheck_instance,
    reference_loss,
    unpack_layers,
)


def spec_2_3_2() -> ClassifierSpec:
    return ClassifierSpec(2, (3,), 2, 1, HeadMode.PLAIN)


class TestSpecAndLayout:
    def test_output_dim_per_head_mode(self):
        plain = ClassifierSpec(4, (), 3, 2, HeadMode.PLAIN)
        grouped = ClassifierSpec(4, (), 3, 2, HeadMode.DOMAIN_INDEPENDENT)
        assert (plain.num_blocks, plain.output_dim) == (1, 3)
        assert (grouped.num_blocks, grouped.output_dim) == (2, 6)

    def test_num_params_hand_count(self):
        # 2->3: (2+1)*3 = 9; 3->2: (3+1)*2 = 8.
        assert num_params(spec_2_3_2()) == 17

    def test_layout_shapes(self):
        assert weight_layout(spec_2_3_2()) == ((0, (2, 3)), (1, (3, 2)))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassifierSpec(0, (), 2, 1)
        with pytest.raises(ConfigurationError):
            ClassifierSpec(2, (0,), 2, 1)
        with pytest.raises(ConfigurationError):
            ClassifierSpec(2, (), 1, 1)
        with pytest.raises(ConfigurationError):
            ClassifierSpec(2, (), 2, 0)

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            ModelWeights(np.zeros(5), weight_layout(spec_2_3_2()))

    def test_weights_hold_one_model(self):
        # A (K, P) stack of models of the right width is still refused.
        spec = spec_2_3_2()
        with pytest.raises(ValueError, match="does not match layout"):
            ModelWeights(np.zeros((2, num_params(spec))), weight_layout(spec))


class TestInitWeights:
    def test_same_seed_bit_identical(self):
        spec = ClassifierSpec(3, (4, 4), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        a = init_weights(spec, 77)
        b = init_weights(spec, 77)
        assert np.array_equal(a.values, b.values)

    def test_biases_exactly_zero(self):
        spec = ClassifierSpec(3, (5,), 3, 1)
        w = init_weights(spec, 1)
        for _, bias in w.unflatten():
            assert np.all(bias == 0.0)

    def test_fan_in_six_bounds_magnitude(self):
        # Half-width sqrt(6/6) = 1, so every weight magnitude is <= 1.
        spec = ClassifierSpec(6, (), 4, 1)
        w = init_weights(spec, 2)
        matrix, _ = w.unflatten()[0]
        assert np.max(np.abs(matrix)) <= 1.0

    def test_different_seeds_differ(self):
        spec = spec_2_3_2()
        assert not np.array_equal(init_weights(spec, 1).values, init_weights(spec, 2).values)


class TestForward:
    def test_zero_weights_zero_logits(self):
        spec = spec_2_3_2()
        w = ModelWeights(np.zeros(num_params(spec)), weight_layout(spec))
        out = forward_batch(spec, w, np.array([[1.5, -2.0]]))
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        # No hidden layers, weight matrix = identity, zero bias: logits = x.
        spec = ClassifierSpec(2, (), 2, 1)
        w = ModelWeights(
            np.concatenate([np.eye(2).ravel(), np.zeros(2)]), weight_layout(spec)
        )
        x = np.array([[0.7, -1.2], [3.0, 0.5]])
        assert np.array_equal(forward_batch(spec, w, x), x)

    def test_matches_independent_per_layer_evaluation(self):
        spec = spec_2_3_2()
        w = init_weights(spec, 5)
        x = np.array([[0.3, -0.9]])
        expected = x
        layers = unpack_layers(spec, w.values)
        for wi, bi in layers[:-1]:
            expected = np.maximum(expected @ wi + bi, 0.0)
        wi, bi = layers[-1]
        expected = expected @ wi + bi
        assert np.allclose(forward_batch(spec, w, x), expected, rtol=0, atol=0)

    def test_batch_matches_single(self):
        spec = ClassifierSpec(3, (4,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        w = init_weights(spec, 9)
        xs = np.random.default_rng(3).normal(size=(6, 3))
        batched = forward_batch(spec, w, xs)
        # Row-at-a-time and batched matmuls may take different BLAS
        # kernels, so agreement is to rounding, not bitwise.
        for i in range(6):
            assert np.allclose(batched[i], forward_batch(spec, w, xs[i : i + 1])[0], rtol=1e-12)

    def test_dimension_mismatch(self):
        spec = spec_2_3_2()
        w = init_weights(spec, 1)
        with pytest.raises(ValueError):
            forward_batch(spec, w, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            forward_batch(spec, w, np.zeros(2))

    def test_determinism_across_calls(self):
        spec = spec_2_3_2()
        w = init_weights(spec, 4)
        x = np.array([[0.2, 0.8]])
        assert np.array_equal(forward_batch(spec, w, x), forward_batch(spec, w, x))


class TestBackward:
    def test_duplicated_example_same_gradient(self):
        spec = spec_2_3_2()
        w = init_weights(spec, 6)
        x = np.array([[0.4, -0.6]])
        single = Batch(x, [1], [0])
        doubled = Batch(np.repeat(x, 2, axis=0), [1, 1], [0, 0])
        g1, l1 = engine_backward(spec, w.values, single)
        g2, l2 = engine_backward(spec, w.values, doubled)
        assert np.array_equal(g1, g2)
        assert l1 == l2

    def test_loss_matches_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            mode = HeadMode.PLAIN if rng.random() < 0.5 else HeadMode.DOMAIN_INDEPENDENT
            spec, w, batch = random_gradcheck_instance(rng, mode)
            _, loss = engine_backward(spec, w.values, batch)
            assert loss == pytest.approx(reference_loss(spec, w.values, batch), rel=1e-12)

    def test_gradient_matches_finite_differences_4_8_4(self):
        # The 4-8-(2x2) case: domain-independent head with N=2, D=2.
        spec = ClassifierSpec(4, (8,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        rng = np.random.default_rng(11)
        w = ModelWeights(rng.uniform(-0.5, 0.5, num_params(spec)), weight_layout(spec))
        batch = Batch(rng.uniform(-1, 1, (5, 4)), rng.integers(0, 2, 5), rng.integers(0, 2, 5))
        analytic, _ = engine_backward(spec, w.values, batch)
        numeric = fd_gradient(spec, w, batch)
        assert guarded_rel_error(analytic, numeric) <= 1e-5

    def test_gradient_matches_finite_differences_random(self):
        rng = np.random.default_rng(12)
        for mode in (HeadMode.PLAIN, HeadMode.DOMAIN_INDEPENDENT):
            for _ in range(5):
                spec, w, batch = random_gradcheck_instance(rng, mode)
                analytic, _ = engine_backward(spec, w.values, batch)
                numeric = fd_gradient(spec, w, batch)
                assert guarded_rel_error(analytic, numeric) <= 1e-5

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(HeadMode))
    def test_gradient_matches_finite_differences_property(self, seed, mode):
        spec, w, batch = random_gradcheck_instance(np.random.default_rng(seed), mode)
        analytic, _ = engine_backward(spec, w.values, batch)
        numeric = fd_gradient(spec, w, batch)
        assert guarded_rel_error(analytic, numeric) <= 1e-5

    def test_saturated_correct_logit(self):
        # Linear map sending x = [1, 0] to logits [20, -20]: the correct
        # class wins by 40 nats, so loss ~ e^-40 and the gradient is tiny.
        spec = ClassifierSpec(2, (), 2, 1)
        values = np.concatenate([np.array([[20.0, -20.0], [0.0, 0.0]]).ravel(), np.zeros(2)])
        batch = Batch(np.array([[1.0, 0.0]]), [0], [0])
        gradient, loss = engine_backward(spec, values, batch)
        assert loss < 1e-6
        assert np.linalg.norm(gradient) < 1e-4

    def test_gradient_linear_over_sub_batches(self):
        spec = ClassifierSpec(3, (4,), 3, 1)
        rng = np.random.default_rng(13)
        values = rng.uniform(-0.5, 0.5, num_params(spec))
        feats = rng.uniform(-1, 1, (7, 3))
        labels = rng.integers(0, 3, 7)
        groups = np.zeros(7, dtype=int)
        whole, _ = engine_backward(spec, values, Batch(feats, labels, groups))
        g_a, _ = engine_backward(spec, values, Batch(feats[:3], labels[:3], groups[:3]))
        g_b, _ = engine_backward(spec, values, Batch(feats[3:], labels[3:], groups[3:]))
        recombined = (3 * g_a + 4 * g_b) / 7
        assert np.max(np.abs(whole - recombined)) <= 1e-12

    def test_mode_head_mismatch(self):
        # The spec decides the head, so weights built for the other head
        # must be rejected rather than read with the wrong block count.
        plain = spec_2_3_2()
        di = ClassifierSpec(2, (3,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
        shard = Dataset(np.zeros((1, 2)), [0], [0], 2, 2)
        for spec, other in ((plain, di), (di, plain)):
            with pytest.raises(ValueError, match="weight layout does not match"):
                client_local_train(shard, init_weights(other, 0), spec, OptimizerConfig(), 1, 1, 0)

    @pytest.mark.parametrize("field", ["labels", "groups"])
    def test_non_integer_labels_and_groups_rejected(self, field):
        # A float 0.7 or 1.9 would otherwise be truncated to 0 or 1 and
        # train as a different target without any error.
        columns = {"labels": [0, 1], "groups": [0, 1]}
        columns[field] = np.array([0.7, 1.9])
        with pytest.raises(ValueError, match=f"^{field} must hold integers, got dtype float64$"):
            Dataset(np.zeros((2, 2)), columns["labels"], columns["groups"], 2, 2)

    @pytest.mark.parametrize(
        "label,group,message",
        [
            (-1, 0, "label -1 out of range for 2 classes"),
            (2, 0, "label 2 out of range for 2 classes"),
            (0, -1, "group -1 out of range for 3 groups"),
            (0, 3, "group 3 out of range for 3 groups"),
        ],
    )
    def test_target_out_of_range_rejected(self, label, group, message):
        # -1 would otherwise wrap to the last class or block, and N or D
        # would index past the logits. The dataset refuses the target when
        # it is built, and its arrays are read-only, so the target cannot
        # be written in afterwards: training need not look again.
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(np.zeros((2, 2)), [1, label], [group, 2], 2, 3)
        shard = Dataset(np.zeros((2, 2)), [1, 0], [0, 2], 2, 3)
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            shard.labels[1] = label
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            shard.groups[0] = group

    @pytest.mark.parametrize(
        "num_classes,num_groups,head",
        [(3, 3, HeadMode.PLAIN), (2, 2, HeadMode.DOMAIN_INDEPENDENT), (2, 2, HeadMode.PLAIN)],
    )
    def test_spec_counts_must_match_the_shard(self, num_classes, num_groups, head):
        # The shard holds group 2, past the logits of a two-group head:
        # client_local_train compares the counts instead of scanning targets.
        spec = ClassifierSpec(2, (3,), num_classes, num_groups, head)
        shard = Dataset(np.zeros((2, 2)), [1, 0], [0, 2], 2, 3)
        message = f"^shard 0 has 2 classes / 3 groups, model expects {num_classes} / {num_groups}$"
        with pytest.raises(ConfigurationError, match=message):
            client_local_train(shard, init_weights(spec, 0), spec, OptimizerConfig(), 1, 2, 0)

    def test_plain_head_ignores_groups(self):
        spec = spec_2_3_2()
        x = np.array([[0.4, -0.6]])
        values = init_weights(spec, 6).values
        g_any, l_any = engine_backward(spec, values, Batch(x, [1], [-1]))
        g_zero, l_zero = engine_backward(spec, values, Batch(x, [1], [0]))
        assert np.array_equal(g_any, g_zero) and l_any == l_zero

    def test_stacked_rows_match_single_model_calls(self):
        # A three-model stack, then a shorter stack on a shorter batch;
        # each row must equal its one-model step.
        rng = np.random.default_rng(14)
        spec = ClassifierSpec(3, (5, 4), 3, 2, HeadMode.DOMAIN_INDEPENDENT)
        for k, size in ((3, 6), (2, 4)):
            values = rng.normal(size=(k, num_params(spec)))
            batch = Batch(
                rng.normal(size=(k, size, 3)), rng.integers(0, 3, (k, size)),
                rng.integers(0, 2, (k, size)),
            )
            gradients, losses = engine_backward(spec, values, batch)
            assert gradients.shape == (k, num_params(spec)) and losses.shape == (k,)
            for i in range(k):
                single = Batch(batch.features[i], batch.labels[i], batch.groups[i])
                gradient, loss = engine_backward(spec, values[i], single)
                assert gradients[i].tobytes() == gradient.tobytes()
                assert losses[i] == loss


class TestOptimizers:
    def test_sgd_hand_computed(self):
        # theta <- theta - eta * g with eta = 0.1, g = 0.5: 1.0 -> 0.95.
        config = OptimizerConfig(kind=OptimizerKind.SGD, learning_rate=0.1, weight_decay=0.0)
        stepped, _, _ = optimizer_steps(config, [1.0, 1.0], [[0.5, 0.5]])
        assert np.array_equal(stepped, [0.95, 0.95])

    def test_sgd_weight_decay_folded_into_gradient(self):
        config = OptimizerConfig(kind=OptimizerKind.SGD, learning_rate=0.5, weight_decay=0.2)
        w = np.array([2.0, -1.0])
        g = np.array([0.0, 0.0])
        stepped, _, _ = optimizer_steps(config, w, [g])
        expected = w - 0.5 * (g + 0.2 * w)
        assert np.array_equal(stepped, expected)

    def test_zero_gradient_zero_decay_is_identity(self):
        for kind in OptimizerKind:
            config = OptimizerConfig(kind=kind, learning_rate=0.01, weight_decay=0.0)
            stepped, _, _ = optimizer_steps(config, [0.3, -0.7], [np.zeros(2)])
            assert np.array_equal(stepped, [0.3, -0.7])

    def test_adam_first_step_magnitude(self):
        # Bias correction makes the very first step ~ eta * g / (|g| + eps).
        config = OptimizerConfig(kind=OptimizerKind.ADAM, learning_rate=0.001, weight_decay=0.0)
        stepped, _, _ = optimizer_steps(config, [0.0, 0.0], [[1.0, 1.0]])
        assert stepped[0] == pytest.approx(-0.001, rel=1e-6)

    def test_adam_matches_hand_rolled_two_steps(self):
        config = OptimizerConfig(kind=OptimizerKind.ADAM, learning_rate=0.01, weight_decay=0.004)
        grads = [np.array([0.3, -0.8]), np.array([-0.1, 0.4])]

        theta = np.array([0.5, -0.25])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g**2
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            theta = theta - config.learning_rate * config.weight_decay * theta

        stepped, _, _ = optimizer_steps(config, [0.5, -0.25], grads)
        assert np.allclose(stepped, theta, rtol=0, atol=0)

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_in_place_stacked_step_matches_single_steps(self, kind):
        config = OptimizerConfig(kind=kind, learning_rate=0.01, weight_decay=0.004)
        rng = np.random.default_rng(15)
        values = rng.normal(size=(3, 2))
        grads = rng.normal(size=(3, 3, 2))
        stacked = optimizer_steps(config, values, grads)
        for i in range(3):
            single = optimizer_steps(config, values[i], grads[:, i])
            for got, expected in zip(stacked, single):
                assert got[i].tobytes() == expected.tobytes()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(learning_rate=-0.1)
        with pytest.raises(ConfigurationError):
            OptimizerConfig(weight_decay=-0.1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="^learning_rate must be finite$"):
                OptimizerConfig(learning_rate=value)
            with pytest.raises(ConfigurationError, match="^weight_decay must be finite$"):
                OptimizerConfig(weight_decay=value)
