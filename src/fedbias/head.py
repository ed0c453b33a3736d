"""Group-conditioned classifier head: prediction.

The output layer carries one block of ``num_classes`` logits per
sensitive group; the logit for (class y, group d) sits at index
``y + d * num_classes``. Training reads the block of the example's true
group (the loss and its gradient live in ``nn.backward``); prediction
has no access to the group and instead averages the per-group class
probabilities with a uniform group weight, which drops out of the
argmax and leaves a plain column-sum comparison.

Probabilities come from max-shifted logits, so they stay finite
whenever the logits are.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError


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
        # monotone in the logits, so skip it and argmax directly.
        return np.argmax(logits, axis=1)
    blocks = logits.reshape(len(logits), num_groups, num_classes)
    shift = blocks.max(axis=2, keepdims=True)
    exp = np.exp(blocks - shift)
    probs = exp / exp.sum(axis=2, keepdims=True)
    return np.argmax(probs.sum(axis=1), axis=1)
