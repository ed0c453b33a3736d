"""Group-conditioned classifier head: the block softmax and prediction.

The output layer carries one block of ``num_classes`` logits per
sensitive group; the logit for (class y, group d) sits at index
``y + d * num_classes``. ``block_softmax`` is the one softmax behind
both uses of that layout. Training (``nn.backward``) applies it to the
block of each example's true group; prediction has no access to the
group and instead averages the per-group class probabilities with a
uniform group weight, which drops out of the argmax and leaves a plain
column-sum comparison.

Probabilities come from max-shifted logits, so they stay finite
whenever the logits are.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError


def block_softmax(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax along the last axis, each block shifted by its own max.

    Returns ``(shift, total, probs)``: the block maxima and the sums of
    the shifted exponentials (both without the last axis), and the
    probabilities. The log-softmax at entry y is
    ``blocks[..., y] - shift - log(total)``.
    """
    shift = blocks.max(axis=-1)
    exp = np.exp(blocks - shift[..., None])
    total = exp.sum(axis=-1)
    return shift, total, exp / total[..., None]


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
    _, _, probs = block_softmax(logits.reshape(len(logits), num_groups, num_classes))
    return np.argmax(probs.sum(axis=1), axis=1)
