"""Experiment configuration: a flat key-value text format.

A config file is lines of ``section.key = value``; blank lines and
``#`` comments are ignored. Unknown or duplicated keys are errors, so a
typo fails fast instead of silently training with a default. Every key
has a default except the conditionally required data-source fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    partition,
    train_test_split,
)
from .exceptions import ConfigurationError
from .federation import FederationConfig, Mode
from .nn import OptimizerConfig, OptimizerKind
from .seeding import TAG_DATA, TAG_PARTITION, TAG_SPLIT, check_master_seed, derive_seed


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _bounded(parse, ok, bound: str):
    """A parser that applies ``parse`` and refuses a value outside ``bound``,
    one for which ``ok`` is false."""

    def check(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"must be {bound}, got {value}")
        return value

    return check


def _int_at_least(low: int):
    """A parser of integers no smaller than ``low``."""
    return _bounded(int, lambda value: value >= low, f">= {low}")


# The float keys' bounds, checked with the key's line like the integer keys'.
_NON_NEGATIVE = _bounded(_parse_finite, lambda value: value >= 0, ">= 0")
_UNIT_CLOSED = _bounded(_parse_finite, lambda value: 0 <= value <= 1, "in [0, 1]")
_UNIT_OPEN = _bounded(_parse_finite, lambda value: 0 < value < 1, "in (0, 1)")
_POSITIVE = _bounded(_parse_finite, lambda value: value > 0, "> 0")


def _parse_widths(raw: str) -> tuple[int, ...]:
    if raw.lower() in ("", "none"):
        return ()
    widths = tuple(int(part.strip(), 10) for part in raw.split(","))
    if any(width < 1 for width in widths):
        raise ValueError("hidden widths must be positive")
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


def _key(key: str, parse, default=_REQUIRED):
    """A field read from config key ``key`` by ``parse``; ``default`` when absent."""
    return field(metadata={"key": key, "parse": parse, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, already typed and validated.

    Each field declares its config key, parser and default (see ``_key``);
    the constructor still takes every field, with no defaults."""

    source: str = _key("data.source", _parse_source, "synthetic")
    num_classes: int = _key("data.num_classes", _int_at_least(2))
    num_groups: int = _key("data.num_groups", _int_at_least(1))
    feature_dim: int | None = _key("data.feature_dim", _int_at_least(1), None)
    samples_per_group: int | None = _key("data.samples_per_group", _int_at_least(1), None)
    bias_strength: float = _key("data.bias_strength", _UNIT_CLOSED, SyntheticSpec.bias_strength)
    group_shift: float = _key("data.group_shift", _NON_NEGATIVE, SyntheticSpec.group_shift)
    noise_sigma: float = _key("data.noise_sigma", _POSITIVE, SyntheticSpec.noise_sigma)
    csv_path: str | None = _key("data.csv_path", str, None)
    test_fraction: float = _key("data.test_fraction", _UNIT_OPEN, 0.2)
    hidden_widths: tuple[int, ...] = _key("model.hidden", _parse_widths, (16,))
    rounds: int = _key("federation.rounds", _int_at_least(0), 30)
    num_clients: int = _key("federation.clients", _int_at_least(1), 5)
    local_epochs: int = _key("federation.local_epochs", _int_at_least(1), 3)
    batch_size: int = _key("federation.batch_size", _int_at_least(1), 128)
    optimizer_kind: OptimizerKind = _key("optimizer.kind", _parse_optimizer, OptimizerConfig.kind)
    learning_rate: float = _key("optimizer.learning_rate", _NON_NEGATIVE, OptimizerConfig.learning_rate)
    weight_decay: float = _key("optimizer.weight_decay", _NON_NEGATIVE, OptimizerConfig.weight_decay)
    modes: tuple[Mode, ...] = _key("run.modes", _parse_modes, (Mode.DBFED,))
    master_seed: int = _key("run.master_seed", _int_at_least(0), 0)
    eval_every: int = _key("run.eval_every", _int_at_least(1), FederationConfig.eval_every)
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
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("data.test_fraction must be strictly between 0 and 1")
        check_master_seed(self.master_seed)

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
            values[f.name] = f.metadata["parse"](raw_value)
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
