"""Group-conditioned classifier head: the block softmax and prediction.

The output layer carries one block of ``num_classes`` logits per
sensitive group; the logit for (class y, group d) sits at index
``y + d * num_classes``. ``block_softmax`` is the one softmax behind
both uses of that layout. Training (``nn.backward``) applies it to the
block of each example's true group; prediction has no access to the
group and instead averages the per-group class probabilities with a
uniform group weight, which drops out of the argmax and leaves a plain
column-sum comparison.

``block_softmax`` takes its blocks class-major: the class axis comes
first, so class y of every block is one contiguous row. A block holds
only ``num_classes`` entries, often 2 to 10, and NumPy reduces so short
an axis one block at a time; across class rows the max, the shift and
the division are each a few elementwise operations over all blocks at
once, and so is the sum below 8 classes. From 8 classes on, NumPy sums
a contiguous axis pairwise, not left to right, so the sum reduces a
class-last copy. Either way every result is bit for bit what the
row-major softmax gives.

Prediction adds the group probabilities elementwise in group order,
whatever the batch size, so each row predicts alone as it does inside
any batch.

Probabilities come from max-shifted logits, so they stay finite
whenever the logits are.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError

# NumPy adds a contiguous axis of this many or more terms pairwise.
PAIRWISE_CLASSES = 8


def _class_sum(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum over the first axis of ``rows``, added in the order of
    ``np.add.reduce`` along a contiguous last axis. Below 8 terms that
    order is left to right, as the elementwise sum of whole rows adds;
    from 8 on it is NumPy's pairwise sum, so the rows are reduced from a
    class-last copy."""
    if len(rows) < PAIRWISE_CLASSES:
        return np.add.reduce(rows, axis=0, out=out)
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(rows, 0, -1)), axis=-1, out=out)


def block_softmax(
    blocks: np.ndarray, out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax along the first (class) axis, each block shifted by its own max.

    ``blocks`` is class-major, (num_classes, ...): ``blocks[y]`` holds
    class y's logit of every block. Returns ``(shift, total, probs)``:
    the block maxima and the sums of the shifted exponentials (both
    without the class axis), and the probabilities, class-major like
    ``blocks``. The log-softmax of class y is
    ``blocks[y] - shift - log(total)``. With ``out``, the three results
    are written into its arrays; ``probs`` may be ``blocks``.
    """
    shift, total, probs = (None, None, None) if out is None else out
    shift = np.maximum.reduce(blocks, axis=0, out=shift)
    probs = np.subtract(blocks, shift, out=probs)
    np.exp(probs, out=probs)
    total = _class_sum(probs, out=total)
    probs /= total
    return shift, total, probs


def predict_batch(logits: np.ndarray, num_classes: int, num_groups: int) -> np.ndarray:
    """Vectorized group-marginalized prediction for a (B, N*D) logit matrix."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != num_classes * num_groups:
        raise ValueError(
            f"expected logits of shape (B, {num_classes * num_groups}), got {logits.shape}"
        )
    if not np.all(np.isfinite(logits)):
        raise NumericError("logits contain non-finite values")
    if num_groups == 1:
        # Marginalizing over one group is the softmax itself, which is
        # monotone in the logits, so argmax the logits directly; that also
        # keeps apart distinct logits the softmax would round to a tie.
        return np.argmax(logits, axis=1)
    # Class-major (N, D, B) blocks; the group sum adds whole rows in
    # group order, as the row-major sum over the group axis does. (For a
    # one-row batch np.add.reduce would sum the group axis pairwise.)
    blocks = logits.reshape(len(logits), num_groups, num_classes).transpose(2, 1, 0)
    _, _, probs = block_softmax(np.ascontiguousarray(blocks))
    scores = probs[:, 0].copy()
    for d in range(1, num_groups):
        scores += probs[:, d]
    return np.argmax(scores, axis=0)
