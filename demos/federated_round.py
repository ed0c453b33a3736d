"""Anatomy of one federated round, done by hand with the library pieces.

Broadcast the global weights, let each client run its local epochs, then
average the returned weights in proportion to client dataset sizes.
"""
import numpy as np

from fedbias.data import SyntheticSpec, generate_synthetic, partition
from fedbias.federation import client_local_train, fedavg_aggregate
from fedbias.nn import ClassifierSpec, HeadMode, OptimizerConfig, OptimizerKind, init_weights
from fedbias.seeding import shuffle_seed

dataset = generate_synthetic(
    SyntheticSpec(2, 2, 4, 200, bias_strength=0.7, group_shift=1.0, seed=3)
)
shards = partition(dataset, 3, seed=4)
spec = ClassifierSpec(4, (8,), 2, 2, HeadMode.DOMAIN_INDEPENDENT)
optimizer = OptimizerConfig(kind=OptimizerKind.ADAM, learning_rate=0.01)

global_weights = init_weights(spec, seed=11)
print(f"{len(shards)} clients, {len(global_weights)} parameters each")

for round_index in (1, 2):
    print(f"\nround {round_index}")
    contributions = []
    for k, shard in enumerate(shards):
        weights, mean_loss = client_local_train(
            shard,
            global_weights,
            spec,
            optimizer,
            epochs=3,
            batch_size=32,
            seed=shuffle_seed(0, k, round_index),
        )
        drift = np.linalg.norm(weights.values - global_weights.values)
        print(
            f"  client {k}: {len(shard)} samples, "
            f"mean loss {mean_loss:.4f}, weight drift {drift:.4f}"
        )
        contributions.append((k, weights, len(shard)))
    merged = fedavg_aggregate(contributions)
    step = np.linalg.norm(merged.values - global_weights.values)
    print(f"  aggregate moved the global model by {step:.4f}")
    global_weights = merged

# The average is weighted: a client holding most of the data dominates.
big, small = shards[0], shards[1].subset(range(5))
lopsided = [
    (k, client_local_train(shard, global_weights, spec, optimizer, 1, 32, 99)[0], len(shard))
    for k, shard in enumerate((big, small))
]
merged = fedavg_aggregate(lopsided)
to_big = np.linalg.norm(merged.values - lopsided[0][1].values)
to_small = np.linalg.norm(merged.values - lopsided[1][1].values)
print(f"\nweighted average sits {to_big:.5f} from the {len(big)}-sample client "
      f"and {to_small:.5f} from the {len(small)}-sample one")
