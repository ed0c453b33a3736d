"""How the group-structured output head turns logits into predictions.

A classifier for N classes and D sensitive groups gets N*D output nodes;
the node for (class y, group d) sits at index y + d*N. Training softmaxes
only the true group's N-logit slice. At prediction time the group is
unknown, so we average the per-group softmax columns and take the argmax.
"""
import numpy as np

from fedbias.head import block_softmax, predict_batch

N, D = 3, 2


def show(logits: np.ndarray) -> np.ndarray:
    # The softmax of each group's slice, the one the loss and prediction
    # share; it takes the class axis first, so transpose in and back out.
    _, _, probs = block_softmax(logits.reshape(D, N).T)
    probs = probs.T
    print("per-group class probabilities (rows = groups):")
    for d in range(D):
        row = ", ".join(f"{p:.3f}" for p in probs[d])
        print(f"  group {d}: [{row}]")
    print("column means (uniform prior over groups):")
    print(" ", ", ".join(f"{p:.3f}" for p in probs.mean(axis=0)))
    print("marginal prediction:", int(predict_batch(logits[None, :], N, D)[0]))
    # Knowing the group would mean reading only that group's slice.
    print("known-group predictions:",
          [int(np.argmax(logits[d * N : (d + 1) * N])) for d in range(D)])
    return probs


logits = np.array([1.0, 2.0, 0.5, 0.2, 2.5, 0.1])
print("raw logits (group 0 slice | group 1 slice):")
print(" ", logits[:N], "|", logits[N:])
print()
probs = show(logits)

# The marginal and the known-group rules can disagree: a class that is
# mediocre in every group can still win the average.
print("\na disagreement case:")
show(np.log(np.array([0.50, 0.45, 0.05, 0.05, 0.45, 0.50])))

# The training loss only ever sees the true group's slice: the
# cross-entropy of class y for an example of group d is -log of class y's
# probability in group d's row of the first table.
print("\ncross-entropy of class 1 under each group's slice:")
for d in range(D):
    print(f"  group {d}: {-np.log(probs[d, 1]):.4f}")
