"""The block softmax and its two uses: the true-group loss inside
``nn.backward`` and the group-marginalized ``predict_batch``.

Loss checks go through a bias-only network (no hidden layer, zero weight
matrix), whose logits are exactly its bias vector, on a one-example
batch, so ``backward``'s mean loss is that example's conditional
cross-entropy. Prediction checks compare against scipy's softmax. The
properties at the end check the class-major head math bit for bit
against its row-major form in ``oracles``, and that a row predicts
alone as it does inside its batch.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import log_softmax, softmax

from fedbias.exceptions import NumericError
from fedbias.head import block_softmax, predict_batch
from fedbias.nn import ClassifierSpec, HeadMode, num_params
from oracles import (
    Batch,
    engine_backward,
    row_major_backward,
    row_major_block_softmax,
    row_major_predict,
)


def loss_of(logits, label: int, group: int, num_classes: int, num_groups: int) -> float:
    """``backward``'s loss for one example whose logits are ``logits``."""
    spec = ClassifierSpec(1, (), num_classes, num_groups, HeadMode.DOMAIN_INDEPENDENT)
    bias = np.asarray(logits, dtype=float)
    batch = Batch(np.zeros((1, 1)), [label], [group])
    return engine_backward(spec, np.concatenate([np.zeros(bias.size), bias]), batch)[1]


def probs_of(logits, num_classes: int, num_groups: int) -> np.ndarray:
    """(num_groups, num_classes) class probabilities the loss implies."""
    return np.array(
        [
            [math.exp(-loss_of(logits, y, d, num_classes, num_groups)) for y in range(num_classes)]
            for d in range(num_groups)
        ]
    )


def marginal_oracle(logits: np.ndarray, num_classes: int, num_groups: int) -> np.ndarray:
    """Argmax of the uniform-prior mixture of per-group scipy softmaxes."""
    blocks = logits.reshape(len(logits), num_groups, num_classes)
    mixture = (softmax(blocks, axis=2) / num_groups).sum(axis=1)
    return np.argmax(mixture, axis=1)


class TestBlockSoftmax:
    def test_matches_scipy_on_every_block(self):
        rng = np.random.default_rng(3)
        blocks = rng.normal(0, 4, (5, 3, 4))
        shift, total, probs = block_softmax(np.moveaxis(blocks, -1, 0))
        assert shift.shape == total.shape == (5, 3)
        assert probs.shape == (4, 5, 3)
        probs = np.moveaxis(probs, 0, -1)
        assert np.allclose(probs, softmax(blocks, axis=-1), rtol=1e-12, atol=0)
        log_probs = blocks - shift[..., None] - np.log(total)[..., None]
        assert np.allclose(log_probs, log_softmax(blocks, axis=-1), rtol=1e-12, atol=1e-12)


class TestGroupConditionalProbs:
    def test_zero_logits_uniform(self):
        assert np.allclose(probs_of(np.zeros(4), 2, 2), 0.5)

    def test_single_group_is_binary_softmax(self):
        logits = np.array([0.3, -1.1])
        assert np.allclose(probs_of(logits, 2, 1)[0], softmax(logits))

    def test_rows_match_per_slice_softmax(self):
        logits = np.array([1.0, 2.0, 3.0, 0.0, 0.0, 10.0])
        probs = probs_of(logits, 3, 2)
        assert np.allclose(probs[0], softmax(logits[:3]))
        assert np.allclose(probs[1], softmax(logits[3:]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            probs = probs_of(rng.normal(0, 5, n * d), n, d)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(probs >= 0.0)
            assert np.all(probs <= 1.0)

    def test_global_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=6)
        for y in range(3):
            for d in range(2):
                assert loss_of(logits, y, d, 3, 2) == pytest.approx(
                    loss_of(logits + 12.5, y, d, 3, 2), abs=1e-12
                )

    def test_within_slice_shift_moves_one_row_only(self):
        # Shifting one group's whole slice by a constant leaves that
        # group's softmax, and every other group's, unchanged.
        rng = np.random.default_rng(6)
        logits = rng.normal(size=6)
        shifted = logits.copy()
        shifted[3:] += 4.0
        assert np.allclose(probs_of(logits, 3, 2), probs_of(shifted, 3, 2), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        for y in range(2):
            assert math.isfinite(loss_of([800.0, -800.0], y, 0, 2, 1))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            predict_batch(np.array([[np.nan, 0.0]]), 2, 1)
        with pytest.raises(NumericError):
            predict_batch(np.array([[np.inf, 0.0]]), 2, 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            predict_batch(np.zeros((1, 5)), 2, 2)


class TestPredict:
    def test_column_sums_decide(self):
        # Sums are [1.1, 0.9], so class 0 wins despite group 1 preferring 1.
        logits = np.log([[0.9, 0.1, 0.2, 0.8]])
        assert predict_batch(logits, 2, 2).tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        assert predict_batch(np.zeros((1, 4)), 2, 2).tolist() == [0]

    def test_single_group_is_plain_argmax(self):
        logits = np.array([[0.1, 1.4, -0.3]])
        assert predict_batch(logits, 3, 1).tolist() == [1]

    def test_explicit_uniform_prior_equivalent(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(0, 3, (50, 6))
        assert np.array_equal(predict_batch(logits, 3, 2), marginal_oracle(logits, 3, 2))


class TestConditionalCrossEntropy:
    def test_certain_class_zero_loss(self):
        assert loss_of([30.0, 0.0], 0, 0, 2, 1) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_binary_is_ln2(self):
        for y in range(2):
            for d in range(2):
                assert loss_of(np.zeros(4), y, d, 2, 2) == pytest.approx(math.log(2.0))

    def test_log_sum_exp_value(self):
        # Slice [1, 2, 3], target first entry: loss = ln(e + e^2 + e^3) - 1.
        expected = math.log(math.e + math.e**2 + math.e**3) - 1.0
        assert loss_of([1.0, 2.0, 3.0], 0, 0, 3, 1) == pytest.approx(expected)

    def test_reads_the_true_group_row(self):
        logits = [5.0, -5.0, -5.0, 5.0]
        assert loss_of(logits, 0, 0, 2, 2) < 0.01
        assert loss_of(logits, 0, 1, 2, 2) > 5.0

    def test_matches_scipy_log_softmax(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            logits = rng.normal(0, 4, 6)
            for d in range(2):
                reference = -log_softmax(logits[d * 3 : (d + 1) * 3])
                for y in range(3):
                    assert loss_of(logits, y, d, 3, 2) == pytest.approx(
                        float(reference[y]), rel=1e-12
                    )


class TestPredictBatch:
    def test_matches_per_instance_predict(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0, 2, (40, 6))
        batched = predict_batch(logits, 3, 2)
        for i in range(40):
            assert batched[i] == marginal_oracle(logits[i : i + 1], 3, 2)[0]

    def test_single_group_equals_plain_argmax(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(30, 4))
        assert np.array_equal(predict_batch(logits, 4, 1), np.argmax(logits, axis=1))

    def test_shape_and_finiteness_checked(self):
        with pytest.raises(ValueError):
            predict_batch(np.zeros((2, 5)), 2, 2)
        with pytest.raises(NumericError):
            predict_batch(np.full((1, 4), np.nan), 2, 2)

    def test_degenerate_single_group_pipeline_matches_plain_softmax(self):
        # With one group the head is an ordinary N-way classifier.
        rng = np.random.default_rng(11)
        for _ in range(20):
            logits = rng.normal(0, 3, 5)
            assert np.allclose(probs_of(logits, 5, 1)[0], softmax(logits), atol=1e-12)
            assert predict_batch(logits[None, :], 5, 1)[0] == int(np.argmax(logits))
            y = int(rng.integers(0, 5))
            assert loss_of(logits, y, 0, 5, 1) == pytest.approx(
                float(-log_softmax(logits)[y]), rel=1e-12
            )


# Logits with ties, both zeros and magnitudes up to 800 (exp underflows).
LOGITS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 800.0, -800.0]),
    st.floats(-800.0, 800.0),
)
# Class counts on both sides of 8 and 128, where the pairwise sum
# changes shape.
CLASSES = st.one_of(
    st.integers(1, 300), st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 256, 300])
)
# A classifier needs at least two classes.
SPEC_CLASSES = CLASSES.map(lambda n: max(n, 2))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# One row of logits for N = 2 classes in D = 8 groups, one group's block
# per line, whose two marginal scores tie within a last bit: a group sum
# that adds a one-row batch pairwise picks class 1 for it alone and
# class 0 inside a larger batch.
NEAR_TIE = np.ravel(
    [
        [0.0, 3.4657912018034693],
        [0.0, -1.0569540887078661],
        [2.75941441178888, 0.0],
        [0.0, -3.31339367130536],
        [-1.0569540887078661, 0.0],
        [-3.31339367130536, 0.0],
        [0.0, 2.75941441178888],
        [3.4657912018034693, 0.0],
    ]
)


@st.composite
def head_logits(draw) -> tuple[int, int, np.ndarray]:
    """(num_classes, num_groups, logits) for either head: one group is
    the plain head, 2 to 9 the grouped head (from 8 groups on, a one-row
    ``np.add.reduce`` over the groups would add them pairwise)."""
    n = draw(st.integers(2, 10))
    groups = draw(st.integers(1, 9))
    size = draw(st.integers(1, 6))
    return n, groups, draw(hnp.arrays(np.float64, (size, n * groups), elements=LOGITS))


class TestBatchIndependence:
    @settings(deadline=None)
    @given(case=head_logits())
    @example(case=(2, 8, np.array([NEAR_TIE, NEAR_TIE])))
    def test_each_row_predicts_alone_as_in_its_batch(self, case):
        n, groups, logits = case
        batched = predict_batch(logits, n, groups).tolist()
        alone = [predict_batch(row[np.newaxis], n, groups)[0] for row in logits]
        assert alone == batched == row_major_predict(logits, n, groups).tolist()


class TestRowMajorOracle:
    """The class-major softmax, loss, gradient and prediction against the
    row-major formulation, bit for bit. ``shift`` is compared with ``==``
    only: see ``test_max_of_both_zeros_reaches_no_output``."""

    @settings(deadline=None)
    @given(data=st.data(), n=CLASSES, lead=st.sampled_from([(), (1,), (5,), (3, 2)]))
    def test_block_softmax(self, data, n, lead):
        blocks = data.draw(hnp.arrays(np.float64, (*lead, n), elements=LOGITS))
        ref_shift, ref_total, ref_probs = row_major_block_softmax(blocks.copy())
        shift, total, probs = block_softmax(np.ascontiguousarray(np.moveaxis(blocks, -1, 0)))
        assert np.array_equal(shift, ref_shift)
        assert same_bits(total, ref_total)
        assert same_bits(np.ascontiguousarray(np.moveaxis(probs, 0, -1)), ref_probs)

    def test_total_for_every_class_count(self):
        rng = np.random.default_rng(12)
        for n in range(1, 301):
            blocks = rng.normal(0.0, 3.0, (n, 17))
            _, total, _ = block_softmax(blocks.copy())
            _, ref_total, _ = row_major_block_softmax(np.ascontiguousarray(blocks.T))
            assert same_bits(total, ref_total), n

    @settings(deadline=None)
    @given(data=st.data(), n=SPEC_CLASSES, groups=st.integers(1, 9), size=st.integers(1, 12))
    def test_predict_batch(self, data, n, groups, size):
        logits = data.draw(hnp.arrays(np.float64, (size, n * groups), elements=LOGITS))
        expected = row_major_predict(logits, n, groups)
        assert np.array_equal(predict_batch(logits, n, groups), expected)

    @settings(deadline=None)
    @given(
        data=st.data(),
        n=SPEC_CLASSES,
        groups=st.integers(1, 3),
        grouped=st.booleans(),
        hidden=st.sampled_from([(), (3,)]),
        models=st.integers(1, 3),
        size=st.integers(1, 5),
    )
    def test_backward(self, data, n, groups, grouped, hidden, models, size):
        mode = HeadMode.DOMAIN_INDEPENDENT if grouped else HeadMode.PLAIN
        spec = ClassifierSpec(2, hidden, n, groups, mode)
        p = num_params(spec)
        # The output bias carries the drawn logits. Examples with zero
        # features have exactly those logits (ties included); the others
        # add a product through the small weights.
        values = data.draw(hnp.arrays(np.float64, (models, p), elements=st.floats(-1.0, 1.0)))
        values[:, p - spec.output_dim :] = data.draw(
            hnp.arrays(np.float64, (models, spec.output_dim), elements=LOGITS)
        )
        if hidden:
            values[:, 2 * hidden[0] : 3 * hidden[0]] = 0.0
        features = data.draw(
            hnp.arrays(np.float64, (models, size, 2), elements=st.sampled_from([0.0, 1.5, -2.0]))
        )
        labels = data.draw(hnp.arrays(np.int64, (models, size), elements=st.integers(0, n - 1)))
        group_ids = data.draw(
            hnp.arrays(np.int64, (models, size), elements=st.integers(0, groups - 1))
        )
        batch = Batch(features, labels, group_ids)
        gradient, loss = engine_backward(spec, values, batch)
        ref_gradient, ref_loss = row_major_backward(spec, values, batch)
        assert same_bits(loss, ref_loss)
        assert same_bits(gradient, ref_gradient)

    def test_max_of_both_zeros_reaches_no_output(self):
        # Row-major, NumPy reduces a block of 9 or more classes with
        # several running maxima, and [-0, +0, -1, ...] comes out as -0;
        # across class rows the running max keeps the first zero it
        # meets. exp(x - 0) and exp(x + 0) agree for every x, and such a
        # block has total >= 2, so the loss terms agree too.
        block = np.full(9, -1.0)
        block[0], block[1] = -0.0, 0.0
        blocks = np.tile(block, (4, 1))
        ref_shift, ref_total, ref_probs = row_major_block_softmax(blocks.copy())
        shift, total, probs = block_softmax(np.ascontiguousarray(blocks.T))
        assert np.array_equal(shift, ref_shift)
        assert same_bits(total, ref_total)
        assert same_bits(probs.T.copy(), ref_probs)
        assert np.all(total >= 2.0)
        for y in range(9):
            ref_loss = blocks[:, y] - ref_shift - np.log(ref_total)
            assert same_bits(blocks[:, y] - shift - np.log(total), ref_loss), y
