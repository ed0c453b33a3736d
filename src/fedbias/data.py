"""Datasets for desk-scale experiments.

Provides a seeded synthetic generator with controllable group/label
bias, CSV ingestion and export, train/test splitting, and the equal
random partitioner that hands each client its shard.

CSV format: header ``feature_0,...,feature_{m-1},target,group``, one
example per row, UTF-8, LF line endings. Floats are written as their
shortest round-trippable decimal representation, so save followed by
load reproduces a dataset bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .exceptions import ConfigurationError, DataFormatError


@dataclass(frozen=True)
class LabeledExample:
    """One sample: features, target class ``label``, sensitive group ``group``."""

    features: np.ndarray
    label: int
    group: int


@dataclass
class Dataset:
    """Array-backed collection of labeled examples.

    ``features`` is (n, m) float64, ``labels`` and ``groups`` are (n,)
    int64 with values in [0, num_classes) and [0, num_groups).
    """

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    num_classes: int
    num_groups: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.groups = np.asarray(self.groups, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.groups.shape != (n,):
            raise ValueError("features, labels and groups must have matching length")
        if self.num_classes < 1 or self.num_groups < 1:
            raise ValueError("num_classes and num_groups must be positive")
        if n > 0:
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ValueError("label out of range [0, num_classes)")
            if self.groups.min() < 0 or self.groups.max() >= self.num_groups:
                raise ValueError("group out of range [0, num_groups)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def example(self, i: int) -> LabeledExample:
        return LabeledExample(self.features[i].copy(), int(self.labels[i]), int(self.groups[i]))

    def examples(self) -> Iterator[LabeledExample]:
        for i in range(len(self)):
            yield self.example(i)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.groups[indices],
            self.num_classes,
            self.num_groups,
        )

    @classmethod
    def from_examples(
        cls, examples: Sequence[LabeledExample], num_classes: int, num_groups: int
    ) -> "Dataset":
        if examples:
            feats = np.stack([np.asarray(e.features, dtype=np.float64) for e in examples])
        else:
            feats = np.zeros((0, 0))
        labels = np.array([e.label for e in examples], dtype=np.int64)
        groups = np.array([e.group for e in examples], dtype=np.int64)
        return cls(feats, labels, groups, num_classes, num_groups)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the biased synthetic generator.

    ``bias_strength`` interpolates the per-group class distribution
    between uniform (0.0) and fully concentrated on class
    ``group mod num_classes`` (1.0). ``group_shift`` scales a fixed
    per-group offset added to every feature vector, making the group
    recoverable from the features; ``noise_sigma`` is the isotropic
    Gaussian noise level around the class centroid.
    """

    num_classes: int
    num_groups: int
    feature_dim: int
    samples_per_group: int
    bias_strength: float = 0.0
    group_shift: float = 0.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.num_groups < 1:
            raise ConfigurationError("num_groups must be >= 1")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if self.samples_per_group < 1:
            raise ConfigurationError("samples_per_group must be >= 1")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ConfigurationError("bias_strength must be in [0, 1]")
        if self.group_shift < 0.0:
            raise ConfigurationError("group_shift must be >= 0")
        if self.noise_sigma <= 0.0:
            raise ConfigurationError("noise_sigma must be > 0")


def class_distribution(spec: SyntheticSpec, group: int) -> np.ndarray:
    """Class probabilities for one group: uniform blended with a point mass."""
    n, beta = spec.num_classes, spec.bias_strength
    probs = np.full(n, (1.0 - beta) / n)
    probs[group % n] += beta
    return probs


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a biased dataset; deterministic given ``spec.seed``.

    Each group contributes ``samples_per_group`` examples. A feature
    vector is: centroid of its class + ``group_shift`` times the
    group's offset vector + isotropic noise. Centroids and offsets
    are standard-normal draws fixed by the seed.
    """
    rng = np.random.default_rng(spec.seed)
    centroids = rng.normal(0.0, 1.0, size=(spec.num_classes, spec.feature_dim))
    offsets = rng.normal(0.0, 1.0, size=(spec.num_groups, spec.feature_dim))

    all_feats = []
    all_labels = []
    all_groups = []
    for g in range(spec.num_groups):
        labels = rng.choice(spec.num_classes, size=spec.samples_per_group, p=class_distribution(spec, g))
        noise = rng.normal(0.0, spec.noise_sigma, size=(spec.samples_per_group, spec.feature_dim))
        feats = centroids[labels] + spec.group_shift * offsets[g] + noise
        all_feats.append(feats)
        all_labels.append(labels)
        all_groups.append(np.full(spec.samples_per_group, g, dtype=np.int64))

    return Dataset(
        np.concatenate(all_feats),
        np.concatenate(all_labels),
        np.concatenate(all_groups),
        spec.num_classes,
        spec.num_groups,
    )


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the package CSV format (lossless float text)."""
    m = dataset.feature_dim
    header = ",".join([f"feature_{j}" for j in range(m)] + ["target", "group"])
    lines = [header]
    for i in range(len(dataset)):
        cells = [repr(float(v)) for v in dataset.features[i]]
        cells.append(str(int(dataset.labels[i])))
        cells.append(str(int(dataset.groups[i])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_csv(path: str | Path, num_classes: int, num_groups: int) -> Dataset:
    """Parse a dataset CSV; rejects malformed rows with their line number."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header row")

    header = lines[0].split(",")
    if len(header) < 3 or header[-2] != "target" or header[-1] != "group":
        raise DataFormatError(f"{path}: line 1: header must end with 'target,group'")
    m = len(header) - 2
    expected = [f"feature_{j}" for j in range(m)]
    if header[:m] != expected:
        raise DataFormatError(f"{path}: line 1: feature columns must be feature_0..feature_{m - 1}")

    feats = np.zeros((len(lines) - 1, m))
    labels = np.zeros(len(lines) - 1, dtype=np.int64)
    groups = np.zeros(len(lines) - 1, dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        cells = line.split(",")
        if len(cells) != m + 2:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {m + 2} columns, found {len(cells)}"
            )
        try:
            feats[i] = [float(c) for c in cells[:m]]
            y = int(cells[m])
            g = int(cells[m + 1])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
        if not 0 <= y < num_classes:
            raise DataFormatError(
                f"{path}: line {lineno}: target {y} out of range [0, {num_classes})"
            )
        if not 0 <= g < num_groups:
            raise DataFormatError(
                f"{path}: line {lineno}: group {g} out of range [0, {num_groups})"
            )
        labels[i] = y
        groups[i] = g

    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise DataFormatError(f"{path}: line {int(bad.argmax()) + 2}: non-finite feature value")
    return Dataset(feats, labels, groups, num_classes, num_groups)


def partition(dataset: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Shuffle and split into ``num_clients`` shards whose sizes differ by <= 1.

    Shards are disjoint and cover the input; the first ``n % K`` shards
    take the extra example.
    """
    if num_clients < 1:
        raise ConfigurationError("num_clients must be >= 1")
    n = len(dataset)
    if n < num_clients:
        raise ConfigurationError(f"cannot split {n} samples across {num_clients} clients")
    order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, num_clients)
    parts = []
    start = 0
    for k in range(num_clients):
        size = base + (1 if k < extra else 0)
        parts.append(dataset.subset(order[start : start + size]))
        start += size
    return parts


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then hold out the trailing ``test_fraction`` of examples."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError("test_fraction must be in (0, 1)")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    return dataset.subset(order[: n - n_test]), dataset.subset(order[n - n_test :])
