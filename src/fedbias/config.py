"""Experiment configuration: a flat key-value text format.

A config file is lines of ``section.key = value``; blank lines and
``#`` comments are ignored. Unknown or duplicated keys are errors, so a
typo fails fast instead of silently training with a default. Every key
has a default except the conditionally required data-source fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .federation import FederationConfig, Mode, head_mode_for
from .nn import ClassifierSpec, OptimizerConfig, OptimizerKind
from .seeding import TAG_DATA, TAG_PARTITION, TAG_SPLIT, check_master_seed, derive_seed


def _parse_widths(raw: str) -> tuple[int, ...]:
    if raw.lower() in ("", "none"):
        return ()
    widths = tuple(int(part.strip(), 10) for part in raw.split(","))
    if any(width < 1 for width in widths):
        raise ValueError("hidden widths must be positive")
    return widths


def _parse_modes(raw: str) -> tuple[Mode, ...]:
    modes = []
    for part in raw.split(","):
        name = part.strip().lower()
        try:
            modes.append(Mode(name))
        except ValueError:
            valid = ", ".join(m.value for m in Mode)
            raise ValueError(f"unknown mode {name!r} (choose from {valid})") from None
    if not modes:
        raise ValueError("at least one mode is required")
    if len(set(modes)) != len(modes):
        raise ValueError("modes must not repeat")
    return tuple(modes)


def _parse_optimizer_kind(raw: str) -> OptimizerKind:
    try:
        return OptimizerKind(raw.lower())
    except ValueError:
        valid = ", ".join(k.value for k in OptimizerKind)
        raise ValueError(f"unknown optimizer {raw!r} (choose from {valid})") from None


# key -> (attribute, parser, default); _REQUIRED means the key must be
# present whenever its data source is selected.
_REQUIRED = object()

_SCHEMA: dict[str, tuple[str, object, object]] = {
    "data.source": ("source", str, "synthetic"),
    "data.num_classes": ("num_classes", int, _REQUIRED),
    "data.num_groups": ("num_groups", int, _REQUIRED),
    "data.feature_dim": ("feature_dim", int, None),
    "data.samples_per_group": ("samples_per_group", int, None),
    "data.bias_strength": ("bias_strength", float, 0.0),
    "data.group_shift": ("group_shift", float, 0.0),
    "data.noise_sigma": ("noise_sigma", float, 1.0),
    "data.csv_path": ("csv_path", str, None),
    "data.test_fraction": ("test_fraction", float, 0.2),
    "model.hidden": ("hidden_widths", _parse_widths, (16,)),
    "federation.rounds": ("rounds", int, 30),
    "federation.clients": ("num_clients", int, 5),
    "federation.local_epochs": ("local_epochs", int, 3),
    "federation.batch_size": ("batch_size", int, 128),
    "optimizer.kind": ("optimizer_kind", _parse_optimizer_kind, OptimizerKind.ADAM),
    "optimizer.learning_rate": ("learning_rate", float, 1e-4),
    "optimizer.weight_decay": ("weight_decay", float, 3e-4),
    "optimizer.beta1": ("beta1", float, 0.9),
    "optimizer.beta2": ("beta2", float, 0.999),
    "optimizer.epsilon": ("epsilon", float, 1e-8),
    "run.modes": ("modes", _parse_modes, (Mode.DBFED,)),
    "run.master_seed": ("master_seed", int, 0),
    "run.eval_every": ("eval_every", int, 1),
    "run.output": ("output_path", str, None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs, already typed and validated."""

    source: str
    num_classes: int
    num_groups: int
    feature_dim: int | None
    samples_per_group: int | None
    bias_strength: float
    group_shift: float
    noise_sigma: float
    csv_path: str | None
    test_fraction: float
    hidden_widths: tuple[int, ...]
    rounds: int
    num_clients: int
    local_epochs: int
    batch_size: int
    optimizer_kind: OptimizerKind
    learning_rate: float
    weight_decay: float
    beta1: float
    beta2: float
    epsilon: float
    modes: tuple[Mode, ...]
    master_seed: int
    eval_every: int
    output_path: str | None

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "csv"):
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
        if self.eval_every < 1:
            raise ConfigurationError("run.eval_every must be >= 1")
        check_master_seed(self.master_seed)

    def with_master_seed(self, master_seed: int) -> "ExperimentConfig":
        return replace(self, master_seed=master_seed)

    def with_modes(self, modes: tuple[Mode, ...]) -> "ExperimentConfig":
        return replace(self, modes=modes)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            kind=self.optimizer_kind,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
        )

    def federation_config(self, mode: Mode) -> FederationConfig:
        return FederationConfig(
            rounds=self.rounds,
            num_clients=self.num_clients,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            optimizer=self.optimizer_config(),
            mode=mode,
            master_seed=self.master_seed,
        )

    def classifier_spec(self, mode: Mode, input_dim: int) -> ClassifierSpec:
        return ClassifierSpec(
            input_dim=input_dim,
            hidden_widths=self.hidden_widths,
            num_classes=self.num_classes,
            num_groups=self.num_groups,
            head_mode=head_mode_for(mode),
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


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser, _ = _SCHEMA[key]
        try:
            values[attr] = parser(raw_value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: {key}: {exc}") from None

    for key, (attr, _, default) in _SCHEMA.items():
        if attr in values:
            continue
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required key {key!r}")
        values[attr] = default
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
