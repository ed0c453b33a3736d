"""Experiment configuration: a flat key-value text format.

A config file is lines of ``section.key = value``; blank lines and
``#`` comments are ignored. Unknown or duplicated keys are errors, so a
typo fails fast instead of silently training with a default. Every key
has a default except the conditionally required data-source fields.

A numeric key is held, with its line, to the bound of the library field
it feeds (``SyntheticSpec``, ``FederationConfig``, ``OptimizerConfig``);
the three keys no library type takes carry the bound of the library
function that takes their value: ``data.test_fraction`` that of
``train_test_split``, ``federation.clients`` that of ``partition`` and
``run.master_seed`` that of ``run_lockstep``; each ``model.hidden`` width
that of ``ClassifierSpec``. A float must also be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import (
    NUM_CLIENTS,
    TEST_FRACTION,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    partition,
    train_test_split,
)
from .exceptions import ConfigurationError, check_bound, refusal
from .federation import FederationConfig, Mode
from .nn import HIDDEN_WIDTH, OptimizerConfig, OptimizerKind
from .seeding import MASTER_SEED, TAG_DATA, TAG_PARTITION, TAG_SPLIT, derive_seed


def _parse_widths(raw: str) -> tuple[int, ...]:
    if raw.lower() in ("", "none"):
        return ()
    widths = tuple(int(part.strip(), 10) for part in raw.split(","))
    for width in widths:
        check_bound("hidden widths", HIDDEN_WIDTH, width)
    return widths


def _choice(noun: str, choices: dict[str, object]):
    """A parser of one of the names in ``choices``, matched in lowercase,
    returning the value it maps to."""

    def parse(raw: str):
        try:
            return choices[raw.lower()]
        except KeyError:
            valid = ", ".join(choices)
            raise ValueError(f"unknown {noun} {raw!r} (choose from {valid})") from None

    return parse


_SOURCES = ("synthetic", "csv")
_parse_source = _choice("source", {name: name for name in _SOURCES})
_parse_optimizer = _choice("optimizer", {k.value: k for k in OptimizerKind})
_parse_mode = _choice("mode", {m.value: m for m in Mode})


def _parse_modes(raw: str) -> tuple[Mode, ...]:
    # A bad mode is named in lowercase.
    modes = tuple(_parse_mode(part.strip().lower()) for part in raw.split(","))
    if len(set(modes)) != len(modes):
        raise ValueError("modes must not repeat")
    return modes


# _REQUIRED marks a key that must be present whenever its data source is
# selected.
_REQUIRED = object()


def _key(key: str, parse, default=_REQUIRED, bound=None):
    """A field read from config key ``key`` by ``parse``; ``default`` when absent.
    A key no library field takes carries the ``bound`` of the library
    function that takes its value."""
    metadata = {"key": key, "parse": parse, "default": default}
    return field(metadata=metadata if bound is None else {**metadata, "bound": bound})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, already typed and validated.

    Each field declares its config key, parser and default (see ``_key``);
    the constructor still takes every field, with no defaults. It checks
    the bounds of ``test_fraction`` and ``master_seed``, naming the key."""

    source: str = _key("data.source", _parse_source, "synthetic")
    num_classes: int = _key("data.num_classes", int)
    num_groups: int = _key("data.num_groups", int)
    feature_dim: int | None = _key("data.feature_dim", int, None)
    samples_per_group: int | None = _key("data.samples_per_group", int, None)
    bias_strength: float = _key("data.bias_strength", float, SyntheticSpec.bias_strength)
    group_shift: float = _key("data.group_shift", float, SyntheticSpec.group_shift)
    noise_sigma: float = _key("data.noise_sigma", float, SyntheticSpec.noise_sigma)
    csv_path: str | None = _key("data.csv_path", str, None)
    test_fraction: float = _key("data.test_fraction", float, 0.2, TEST_FRACTION)
    hidden_widths: tuple[int, ...] = _key("model.hidden", _parse_widths, (16,))
    rounds: int = _key("federation.rounds", int, 30)
    num_clients: int = _key("federation.clients", int, 5, NUM_CLIENTS)
    local_epochs: int = _key("federation.local_epochs", int, 3)
    batch_size: int = _key("federation.batch_size", int, 128)
    optimizer_kind: OptimizerKind = _key("optimizer.kind", _parse_optimizer, OptimizerConfig.kind)
    learning_rate: float = _key("optimizer.learning_rate", float, OptimizerConfig.learning_rate)
    weight_decay: float = _key("optimizer.weight_decay", float, OptimizerConfig.weight_decay)
    modes: tuple[Mode, ...] = _key("run.modes", _parse_modes, (Mode.DBFED,))
    master_seed: int = _key("run.master_seed", int, 0, MASTER_SEED)
    eval_every: int = _key("run.eval_every", int, FederationConfig.eval_every)
    output_path: str | None = _key("run.output", str, None)

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ConfigurationError(
                f"data.source must be 'synthetic' or 'csv', got {self.source!r}"
            )
        if self.source == "synthetic":
            if self.feature_dim is None or self.samples_per_group is None:
                raise ConfigurationError(
                    "synthetic data requires data.feature_dim and data.samples_per_group"
                )
        elif self.csv_path is None:
            raise ConfigurationError("data.source = csv requires data.csv_path")
        # Of the keys no library type takes, federation.clients is left to ``partition``.
        for name in ("test_fraction", "master_seed"):
            try:
                _checked(name, getattr(self, name))
            except ValueError as exc:
                raise ConfigurationError(f"{_KEYS[name]} {exc}") from None

    def with_master_seed(self, master_seed: int) -> "ExperimentConfig":
        return replace(self, master_seed=master_seed)

    def federation_config(self) -> FederationConfig:
        return FederationConfig(
            rounds=self.rounds,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            optimizer=OptimizerConfig(self.optimizer_kind, self.learning_rate, self.weight_decay),
            hidden_widths=self.hidden_widths,
            eval_every=self.eval_every,
        )

    def synthetic_spec(self) -> SyntheticSpec:
        if self.source != "synthetic":
            raise ConfigurationError("no synthetic data settings: data.source is csv")
        return SyntheticSpec(
            num_classes=self.num_classes,
            num_groups=self.num_groups,
            feature_dim=self.feature_dim,
            samples_per_group=self.samples_per_group,
            bias_strength=self.bias_strength,
            group_shift=self.group_shift,
            noise_sigma=self.noise_sigma,
            seed=derive_seed(self.master_seed, TAG_DATA),
        )

    def load_dataset(self) -> Dataset:
        if self.source == "synthetic":
            return generate_synthetic(self.synthetic_spec())
        return load_csv(self.csv_path, self.num_classes, self.num_groups)

    def split_and_partition(
        self, dataset: Dataset
    ) -> tuple[list[Dataset], Dataset]:
        """(client partitions of the training split, test split)."""
        train, test = train_test_split(
            dataset, self.test_fraction, derive_seed(self.master_seed, TAG_SPLIT)
        )
        if len(test) == 0:
            raise ConfigurationError(
                "test split is empty; grow the dataset or raise data.test_fraction"
            )
        parts = partition(
            train, self.num_clients, derive_seed(self.master_seed, TAG_PARTITION)
        )
        return parts, test


# Config key -> the ExperimentConfig field it sets, in field order.
_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
_KEYS = {f.name: key for key, f in _FIELDS.items()}
# ExperimentConfig field -> the bound its key is held to: its own, or that
# of the library field of the same name, which the key feeds.
_BOUNDS = {
    f.name: f.metadata["bound"]
    for cls in (ExperimentConfig, SyntheticSpec, FederationConfig, OptimizerConfig)
    for f in fields(cls)
    if "bound" in f.metadata
}


def _checked(name: str, value):
    """``value``, unless the bound of field ``name``'s key refuses it, which
    raises ``ValueError``: ``must be >= 0, got -1``."""
    reason = name in _BOUNDS and refusal(_BOUNDS[name], value)
    if reason:
        raise ValueError(f"{reason}, got {value}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        f = _FIELDS.get(key)
        if f is None:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if f.name in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[f.name] = _checked(f.name, f.metadata["parse"](raw_value))
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None

    for key, f in _FIELDS.items():
        if f.name in values:
            continue
        if f.metadata["default"] is _REQUIRED:
            raise ConfigurationError(f"missing required key {key!r}")
        values[f.name] = f.metadata["default"]
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
