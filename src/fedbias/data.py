"""Datasets for desk-scale experiments.

Provides a seeded synthetic generator with controllable group/label
bias, CSV ingestion and export, train/test splitting, and the equal
random partitioner that hands each client its shard.

CSV format: header ``feature_0,...,feature_{m-1},target,group``, one
example per row, UTF-8, LF line endings. Floats are written as their
shortest round-trippable decimal representation, so save followed by
load reproduces a dataset bit for bit.

Reading a dataset takes one of two paths that accept the same files and
give the same arrays and the same errors. The fast path, ``read_rows``,
parses the whole body with ``np.loadtxt``'s C parser, which converts
floats with CPython's own correctly rounded routine. It hands the file
to the per-line reader, the only path that names a bad line, whenever
the two could disagree: an empty body, a header other than the exact
one above, non-ASCII bytes, a line break other than LF that
``str.splitlines`` honours, the byte 0x1F (whitespace to ``np.loadtxt``
only), a blank line, a cell ``np.loadtxt`` refuses (it refuses every
cell ``float()``/``int()`` refuse, and also ``1_0`` and int64 overflow,
which the per-line reader judges as before), or a target or group out
of range.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigurationError, DataFormatError


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
        if self.features.ndim != 2:
            raise ValueError(f"features must be a 2-D array, got shape {self.features.shape}")
        for name in ("labels", "groups"):
            values = np.asarray(getattr(self, name))
            if values.size and values.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
            setattr(self, name, values.astype(np.int64, copy=False))
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

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.groups[indices],
            self.num_classes,
            self.num_groups,
        )


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


# ASCII bytes that only the per-line reader reads right: the line breaks
# other than LF that ``str.splitlines`` honours (``np.loadtxt`` reads in
# text mode, which turns CR and CRLF into LF and keeps the rest inside a
# cell), and 0x1F, which ``np.loadtxt`` strips from a cell as whitespace
# while ``float()`` and ``int()`` refuse it.
_PER_LINE_ONLY = b"\r\v\f\x1c\x1d\x1e\x1f"


def read_rows(path: Path) -> np.ndarray | None:
    """Every row after the header as one ``(x, y, g)`` record, parsed by
    ``np.loadtxt``; None where the per-line reader must decide, including
    when the header is not exactly ``feature_0,...,target,group``. Each
    LF-terminated line after the header is one record, so record i is
    line i + 2."""
    data = path.read_bytes()
    cut = data.find(b"\n")
    # An empty body, or one that starts with a blank line and so may hold
    # nothing else, stays away from np.loadtxt, which warns on no data.
    if cut < 0 or data[cut + 1 : cut + 2] in (b"", b"\n"):
        return None
    if not data.isascii() or len(data.translate(None, _PER_LINE_ONLY)) != len(data):
        return None
    header = data[:cut].decode("ascii")
    m = header.count(",") - 1
    if m < 1 or header != ",".join([f"feature_{j}" for j in range(m)] + ["target", "group"]):
        return None
    dtype = np.dtype([("x", np.float64, (m,)), ("y", np.int64), ("g", np.int64)])
    # np.loadtxt skips blank lines, so a later blank line shows up as a
    # record count short of the line count.
    lines = data.count(b"\n") - (1 if data.endswith(b"\n") else 0)
    del data  # np.loadtxt reads the file again, in chunks
    with warnings.catch_warnings():
        # Older NumPy reads a float cell such as 3.0 in an int64 column
        # through float, with a DeprecationWarning; int() refuses it.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1,
                encoding="utf-8",
            )
        except (ValueError, DeprecationWarning):
            return None
    return rows if len(rows) == lines else None


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the package CSV format (lossless float text)."""
    m = dataset.feature_dim
    header = ",".join([f"feature_{j}" for j in range(m)] + ["target", "group"])
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row, y, g in zip(dataset.features, dataset.labels.tolist(), dataset.groups.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{y},{g}\n")


def load_csv(path: str | Path, num_classes: int, num_groups: int) -> Dataset:
    """Parse a dataset CSV; rejects malformed rows with their line number."""
    path = Path(path)
    rows = read_rows(path)
    if (
        rows is not None
        and _within(rows["y"], num_classes)
        and _within(rows["g"], num_groups)
    ):
        feats, labels, groups = (np.ascontiguousarray(rows[name]) for name in ("x", "y", "g"))
    else:
        feats, labels, groups = _parse_csv_lines(path, num_classes, num_groups)
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise DataFormatError(f"{path}: line {int(bad.argmax()) + 2}: non-finite feature value")
    return Dataset(feats, labels, groups, num_classes, num_groups)


def _within(values: np.ndarray, limit: int) -> bool:
    return values.min() >= 0 and values.max() < limit


def _parse_csv_lines(
    path: Path, num_classes: int, num_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, labels and groups read one line at a time; the first bad
    line raises, naming its number."""
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
    return feats, labels, groups


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
