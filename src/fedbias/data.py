"""Datasets for desk-scale experiments.

Provides a seeded synthetic generator with controllable group/label
bias, CSV ingestion and export, train/test splitting, and the equal
random partitioner that hands each client its shard.

CSV format: header ``feature_0,...,feature_{m-1},target,group``, one
example per row, UTF-8, LF line endings. Floats are written as their
shortest round-trippable decimal representation, so save followed by
load reproduces a dataset bit for bit. The format holds finite features
only, so ``generate_synthetic`` refuses a draw with a non-finite one.

Reading a dataset takes one of two paths that accept the same files and
give the same arrays and the same errors. The fast path, ``read_rows``,
checks the file in blocks, never holding it whole, then parses the whole
body with ``np.loadtxt``'s C parser, which converts floats with
CPython's own correctly rounded routine. It hands the file
to the per-line reader, the only path that names a bad line, whenever
the two could disagree: an empty body, a header other than the exact
one above, non-ASCII bytes, a line break other than LF that
``str.splitlines`` honours, the byte 0x1F (whitespace to ``np.loadtxt``
only), a blank line, or a cell ``np.loadtxt`` refuses (it refuses every
cell ``float()``/``int()`` refuse, and also ``1_0`` and int64 overflow,
which the per-line reader judges as before). A file the fast path
parsed whole is not read again for a target or group out of range:
``check_ranges``, which the prediction log shares, names its line.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .exceptions import ConfigurationError, DataFormatError
from .exceptions import bound, bounded, check_bound, check_bounds


@dataclass(frozen=True)
class Dataset:
    """Array-backed collection of labeled examples.

    ``features`` is (n, m) float64, ``labels`` and ``groups`` are (n,)
    int64 with values in [0, num_classes) and [0, num_groups). The
    constructor range-checks its own copies of the labels and groups and
    keeps read-only views of all three arrays, so the check holds for life.
    A dataset the package derives from checked arrays (``subset``,
    ``generate_synthetic``, ``load_csv``) is built by ``_own``, which
    neither copies nor scans its targets again.
    """

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    num_classes: int
    num_groups: int

    def __post_init__(self) -> None:
        self._settle(check_targets=True)

    @classmethod
    def _own(cls, *values) -> "Dataset":
        """``Dataset(*values)`` over arrays the package has just made, whose
        labels and groups are in range by construction: their shapes and
        dtypes are checked, but they are kept as they are, with no copy or
        scan."""
        dataset = object.__new__(cls)
        for field, value in zip(dataclasses.fields(cls), values):
            object.__setattr__(dataset, field.name, value)
        dataset._settle(check_targets=False)
        return dataset

    def _settle(self, check_targets: bool) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be a 2-D array, got shape {features.shape}")
        if self.num_classes < 1 or self.num_groups < 1:
            raise ValueError("num_classes and num_groups must be positive")
        arrays = {"features": features}
        # A caller's targets are copied, so their range check holds for life.
        convert = np.array if check_targets else np.asarray
        for name, count, unit in (
            ("labels", self.num_classes, "classes"),
            ("groups", self.num_groups, "groups"),
        ):
            values = np.asarray(getattr(self, name))
            if values.size and values.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
            values = arrays[name] = convert(values, dtype=np.int64)
            if values.shape != (len(features),):
                raise ValueError("features, labels and groups must have matching length")
            if check_targets and values.size:
                low, high = int(values.min()), int(values.max())
                if low < 0 or high >= count:
                    bad = low if low < 0 else high
                    raise ValueError(f"{name[:-1]} {bad} out of range for {count} {unit}")
        for name, values in arrays.items():
            view = values.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset._own(
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

    num_classes: int = bounded(2)
    num_groups: int = bounded(1)
    feature_dim: int = bounded(1)
    samples_per_group: int = bounded(1)
    bias_strength: float = bounded(0, 1, default=0.0)
    group_shift: float = bounded(0, default=0.0)
    noise_sigma: float = bounded(0, strict=True, default=1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        check_bounds(self)


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
    are standard-normal draws fixed by the seed. Each group's rows are
    written in place into the one features array, with no per-group copy.
    A draw with a non-finite feature, which no CSV could hold, is refused
    with ``ConfigurationError``.
    """
    rng = np.random.default_rng(spec.seed)
    centroids = rng.normal(0.0, 1.0, size=(spec.num_classes, spec.feature_dim))
    offsets = rng.normal(0.0, 1.0, size=(spec.num_groups, spec.feature_dim))

    n = spec.samples_per_group
    features = np.empty((spec.num_groups * n, spec.feature_dim))
    labels = np.empty(spec.num_groups * n, dtype=np.int64)
    for g in range(spec.num_groups):
        rows, own = features[g * n : (g + 1) * n], labels[g * n : (g + 1) * n]
        own[:] = rng.choice(spec.num_classes, size=n, p=class_distribution(spec, g))
        noise = rng.normal(0.0, spec.noise_sigma, size=(n, spec.feature_dim))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            np.add(centroids[own], spec.group_shift * offsets[g], out=rows)
            rows += noise

    if not np.isfinite(features).all():
        raise ConfigurationError(
            "the draw has non-finite features: group_shift or noise_sigma is too large"
        )
    groups = np.repeat(np.arange(spec.num_groups, dtype=np.int64), n)
    return Dataset._own(features, labels, groups, spec.num_classes, spec.num_groups)


# ASCII bytes that only the per-line reader reads right: the line breaks
# other than LF that ``str.splitlines`` honours (``np.loadtxt`` reads in
# text mode, which turns CR and CRLF into LF and keeps the rest inside a
# cell), and 0x1F, which ``np.loadtxt`` strips from a cell as whitespace
# while ``float()`` and ``int()`` refuse it.
_PER_LINE_ONLY = b"\r\v\f\x1c\x1d\x1e\x1f"

# ``read_rows`` reads a file in blocks of this many bytes.
_BLOCK = 1 << 16


def read_rows(path: Path) -> np.ndarray | None:
    """Every row after the header as one ``(x, y, g)`` record, parsed by
    ``np.loadtxt``; None where the per-line reader must decide, including
    when the header is not exactly ``feature_0,...,target,group``. Each
    LF-terminated line after the header is one record, so record i is
    line i + 2. After the header line, the file is checked in
    ``_BLOCK``-byte blocks, one at a time, and ``np.loadtxt`` parses it
    from the path."""
    with path.open("rb") as fh:
        header = fh.readline()
        m = header.count(b",") - 1
        # With no LF, the header line is the whole file: an empty body.
        if m < 1 or header != (",".join(_columns(m)) + "\n").encode("ascii"):
            return None
        # A body that starts with a blank line, and so may hold nothing
        # else, stays away from np.loadtxt, which warns on no data.
        block = fh.read(_BLOCK)
        if block[:1] in (b"", b"\n"):
            return None
        # np.loadtxt skips blank lines, so a later blank line shows up as a
        # record count short of the line count.
        lines = 1
        for block in itertools.chain([block], iter(lambda: fh.read(_BLOCK), b"")):
            if not block.isascii() or any(byte in block for byte in _PER_LINE_ONLY):
                return None
            lines += block.count(b"\n")
        lines -= block.endswith(b"\n")
    with warnings.catch_warnings():
        # Older NumPy reads a float cell such as 3.0 in an int64 column
        # through float, with a DeprecationWarning; int() refuses it.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(
                path, dtype=_record_dtype(m), delimiter=",", comments=None, skiprows=1, ndmin=1,
                encoding="utf-8",
            )
        except (ValueError, DeprecationWarning):
            return None
    return rows if len(rows) == lines else None


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the package CSV format (lossless float text)."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_columns(dataset.feature_dim)) + "\n")
        for row, y, g in zip(dataset.features, dataset.labels.tolist(), dataset.groups.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{y},{g}\n")


def load_csv(path: str | Path, num_classes: int, num_groups: int) -> Dataset:
    """Parse a dataset CSV; rejects malformed rows with their line number."""
    path = Path(path)
    rows = read_rows(path)
    if rows is None:
        rows = _parse_csv_lines(path, num_classes, num_groups)
    else:
        check_ranges(path, (rows["y"], rows["g"]), ("target", "group"), (num_classes, num_groups))
    feats, labels, groups = (np.ascontiguousarray(rows[name]) for name in ("x", "y", "g"))
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise DataFormatError(f"{path}: line {int(bad.argmax()) + 2}: non-finite feature value")
    return Dataset._own(feats, labels, groups, num_classes, num_groups)


def _columns(m: int) -> list[str]:
    return [f"feature_{j}" for j in range(m)] + ["target", "group"]


def _record_dtype(m: int) -> np.dtype:
    return np.dtype([("x", np.float64, (m,)), ("y", np.int64), ("g", np.int64)])


def read_text(path: Path) -> str:
    """The file decoded as UTF-8. A byte sequence that is not UTF-8 raises
    ``DataFormatError`` naming its line, counted in LF line breaks."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: line {lineno}: {exc}") from None


def read_lines(path: Path, header: Callable, parse: Callable) -> tuple[int, list]:
    """The CSV file's column count, as ``header(cells)`` of line 1 returns
    it, and ``parse(cells)`` of every later line. A ``ValueError`` from
    either, or a line of another width, raises ``DataFormatError`` naming
    the line, as does an empty file."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    lineno, rows = 1, []
    try:
        width = header(lines[0].split(","))
        for lineno, line in enumerate(lines[1:], 2):
            cells = line.split(",")
            if len(cells) != width:
                raise ValueError(f"expected {width} columns, found {len(cells)}")
            rows.append(parse(cells))
    except ValueError as exc:
        raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    return width, rows


def check_ranges(
    path: Path, columns: Sequence[np.ndarray], names: Sequence[str], limits: Sequence[int]
) -> None:
    """Refuse the first row (row i is line i + 2) holding a cell outside
    ``[0, limit)`` of its column, naming the first such column in it."""
    bad = np.array([(column < 0) | (column >= limit) for column, limit in zip(columns, limits)])
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        c = int(bad[:, i].argmax())
        raise DataFormatError(
            f"{path}: line {i + 2}: {names[c]} {columns[c][i]} out of range [0, {limits[c]})"
        )


def _dataset_header(cells: list[str]) -> int:
    if len(cells) < 3 or cells[-2:] != ["target", "group"]:
        raise ValueError("header must end with 'target,group'")
    m = len(cells) - 2
    if cells != _columns(m):
        raise ValueError(f"feature columns must be feature_0..feature_{m - 1}")
    return m + 2


def _parse_csv_lines(path: Path, num_classes: int, num_groups: int) -> np.ndarray:
    """The rows of a file ``read_rows`` would not judge, read one line at a
    time as ``_record_dtype`` records; the first bad line raises, naming
    its number. A line's target and group are range-checked, in that
    order, before the next line is parsed."""

    def parse(cells: list[str]) -> tuple[list[float], int, int]:
        x, y, g = [float(c) for c in cells[:-2]], int(cells[-2]), int(cells[-1])
        if not 0 <= y < num_classes:
            raise ValueError(f"target {y} out of range [0, {num_classes})")
        if not 0 <= g < num_groups:
            raise ValueError(f"group {g} out of range [0, {num_groups})")
        return x, y, g

    width, rows = read_lines(path, _dataset_header, parse)
    return np.array(rows, dtype=_record_dtype(width - 2))


# The bounds of ``partition``'s client count and ``train_test_split``'s
# held-out fraction, which the config keys feeding them are held to too.
NUM_CLIENTS = bound(1)
TEST_FRACTION = bound(0, 1, strict=True)


def partition(dataset: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Shuffle and split into ``num_clients`` shards whose sizes differ by <= 1.

    Shards are disjoint and cover the input; the first ``n % K`` shards
    take the extra example.
    """
    check_bound("num_clients", NUM_CLIENTS, num_clients)
    n = len(dataset)
    if n < num_clients:
        raise ConfigurationError(f"cannot split {n} samples across {num_clients} clients")
    order = np.random.default_rng(seed).permutation(n)
    return [dataset.subset(part) for part in np.array_split(order, num_clients)]


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then hold out the trailing ``test_fraction`` of examples."""
    check_bound("test_fraction", TEST_FRACTION, test_fraction)
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    return dataset.subset(order[: n - n_test]), dataset.subset(order[n - n_test :])
