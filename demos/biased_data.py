"""Generate synthetic datasets whose labels are correlated with a group.

bias_strength interpolates between group-independent labels (0.0) and a
deterministic label = group mod num_classes (1.0); group_shift moves each
group's feature cloud so the group is also visible in feature space.
"""
import tempfile
from pathlib import Path

import numpy as np

from fedbias.data import SyntheticSpec, class_distribution, generate_synthetic, save_csv


def label_table(dataset):
    table = np.zeros((dataset.num_groups, dataset.num_classes), dtype=int)
    for g, y in zip(dataset.groups, dataset.labels):
        table[g, y] += 1
    return table


for beta in (0.0, 0.5, 1.0):
    spec = SyntheticSpec(
        num_classes=3,
        num_groups=2,
        feature_dim=4,
        samples_per_group=300,
        bias_strength=beta,
        group_shift=1.0,
        seed=7,
    )
    dataset = generate_synthetic(spec)
    print(f"bias_strength = {beta}")
    print("  target label mix per group:",
          [[f"{p:.2f}" for p in class_distribution(spec, g)] for g in range(2)])
    print("  observed counts (rows = groups):")
    for g, row in enumerate(label_table(dataset)):
        print(f"    group {g}: {row.tolist()}")

# Same spec and seed -> same bytes on disk, handy for pinning test inputs.
spec = SyntheticSpec(2, 2, 3, 100, bias_strength=0.8, group_shift=1.0, seed=7)
with tempfile.TemporaryDirectory() as tmp:
    first, again = Path(tmp, "biased_demo.csv"), Path(tmp, "biased_demo_again.csv")
    save_csv(generate_synthetic(spec), first)
    save_csv(generate_synthetic(spec), again)
    a, b = first.read_bytes(), again.read_bytes()
print("\nwrote biased_demo.csv,", len(a), "bytes; rerun identical:", a == b)
