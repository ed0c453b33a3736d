"""Minimal deterministic dense-network engine.

Fixed architecture family: dense layers with ReLU hidden activations
and a linear output layer, float64 throughout. Backpropagation is
hand-derived for this family rather than going through a general
autodiff graph, which keeps every operation a pure function of its
inputs and makes bitwise reproducibility checks meaningful.

Weights travel as one flat vector (`ModelWeights`) so they can be
averaged componentwise by the federation layer; the layout records the
per-layer shapes used to fold the vector back into matrices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError
from .head import block_softmax


class HeadMode(enum.Enum):
    PLAIN = "plain"
    DOMAIN_INDEPENDENT = "domain_independent"


class OptimizerKind(enum.Enum):
    SGD = "sgd"
    ADAM = "adam"


@dataclass(frozen=True)
class ClassifierSpec:
    """Network dimensions. The output layer has ``num_classes`` units in
    plain mode and ``num_classes * num_groups`` units in domain-independent
    mode, where group ``d`` owns the contiguous logit slice
    ``[d*num_classes, (d+1)*num_classes)``."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    num_classes: int
    num_groups: int
    head_mode: HeadMode = HeadMode.PLAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden_widths):
            raise ConfigurationError("hidden widths must be >= 1")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.num_groups < 1:
            raise ConfigurationError("num_groups must be >= 1")

    @property
    def num_blocks(self) -> int:
        """Logit blocks of ``num_classes`` each: one per group under the
        domain-independent head, one in all under the plain head."""
        if self.head_mode is HeadMode.DOMAIN_INDEPENDENT:
            return self.num_groups
        return 1

    @property
    def output_dim(self) -> int:
        return self.num_classes * self.num_blocks

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.output_dim)


Layout = tuple[tuple[int, tuple[int, int]], ...]


def weight_layout(spec: ClassifierSpec) -> Layout:
    """Per-layer (index, (fan_in, fan_out)) records, fixed by the layer dims."""
    dims = spec.layer_dims
    return tuple((i, (dims[i], dims[i + 1])) for i in range(len(dims) - 1))


def num_params(spec: ClassifierSpec) -> int:
    return sum((fi + 1) * fo for _, (fi, fo) in weight_layout(spec))


@dataclass(frozen=True)
class ModelWeights:
    """All trainable parameters as one flat float64 vector.

    Per layer the vector holds the weight matrix (row-major, shape
    fan_in x fan_out) followed by the bias (fan_out,). Two ModelWeights
    built from the same spec always share the same layout.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        expected = sum((fi + 1) * fo for _, (fi, fo) in self.layout)
        if self.values.shape != (expected,):
            raise ValueError(
                f"weight vector length {self.values.shape} does not match layout ({expected},)"
            )

    def __len__(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "ModelWeights":
        return ModelWeights(values, self.layout)

    def unflatten(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views (no copies) of each layer's weight matrix and bias."""
        out = []
        offset = 0
        for _, (fi, fo) in self.layout:
            w = self.values[offset : offset + fi * fo].reshape(fi, fo)
            offset += fi * fo
            b = self.values[offset : offset + fo]
            offset += fo
            out.append((w, b))
        return out


@dataclass(frozen=True)
class Batch:
    """A non-empty mini-batch: features (B, m), labels and groups (B,)."""

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "groups", np.asarray(self.groups, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError("batch must contain at least one example")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.groups.shape != (n,):
            raise ValueError("labels/groups must match the batch size")

    def __len__(self) -> int:
        return self.features.shape[0]


def init_weights(spec: ClassifierSpec, seed: int) -> ModelWeights:
    """Uniform fan-in-scaled init: weights U(-sqrt(6/fan_in), +sqrt(6/fan_in)),
    biases exactly zero. Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    layout = weight_layout(spec)
    chunks = []
    for _, (fi, fo) in layout:
        half_width = math.sqrt(6.0 / fi)
        chunks.append(rng.uniform(-half_width, half_width, size=fi * fo))
        chunks.append(np.zeros(fo))
    return ModelWeights(np.concatenate(chunks), layout)


def _check_weights(spec: ClassifierSpec, weights: ModelWeights) -> None:
    if weights.layout != weight_layout(spec):
        raise ValueError("weight layout does not match the classifier spec")


def forward_batch(spec: ClassifierSpec, weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Logits (B, output_dim) for a feature matrix (B, input_dim)."""
    _check_weights(spec, weights)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected features of shape (B, {spec.input_dim}), got {x.shape}")
    layers = weights.unflatten()
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    w, b = layers[-1]
    return a @ w + b


def backward(
    spec: ClassifierSpec,
    weights: ModelWeights,
    batch: Batch,
) -> tuple[np.ndarray, float]:
    """Analytic gradient of the mean per-example cross-entropy.

    Returns (gradient vector with the same layout as ``weights``, mean
    loss). The per-example loss is the negative log of the stabilized
    softmax over one block of ``num_classes`` logits, taken at the
    target class: the block of the example's group under the
    domain-independent head, the whole output under the plain head.
    """
    _check_weights(spec, weights)
    layers = weights.unflatten()
    n = spec.num_classes
    b_size = len(batch)

    # Forward pass, caching activations and hidden pre-activations.
    activations = [batch.features]
    pre_acts = []
    a = batch.features
    for w, b in layers[:-1]:
        z = a @ w + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    w, b = layers[-1]
    logits = a @ w + b

    # Example i reads the block of logits that starts at block[i] * n.
    block = batch.groups if spec.num_blocks > 1 else np.zeros(b_size, dtype=np.int64)
    rows = np.arange(b_size)
    cols = (block * n)[:, None] + np.arange(n)[None, :]
    sliced = logits[rows[:, None], cols]

    shift, total, delta_slice = block_softmax(sliced)
    log_probs = sliced[rows, batch.labels] - shift - np.log(total)
    mean_loss = float(-np.mean(log_probs))

    # d(mean loss)/d(logits): softmax minus one-hot on each block, /B.
    delta_slice[rows, batch.labels] -= 1.0
    delta_slice /= b_size
    delta = np.zeros_like(logits)
    delta[rows[:, None], cols] = delta_slice

    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        grads[li] = (activations[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            delta = (delta @ layers[li][0].T) * (pre_acts[li - 1] > 0.0)

    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat, mean_loss


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings an optimizer state is seeded from."""

    kind: OptimizerKind = OptimizerKind.ADAM
    learning_rate: float = 1e-4
    weight_decay: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        # 0 is allowed: it makes training a (useful) no-op in tests.
        if self.learning_rate < 0.0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.weight_decay < 0.0:
            raise ConfigurationError("weight_decay must be >= 0")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ConfigurationError("adam betas must be in (0, 1)")
        if self.epsilon <= 0.0:
            raise ConfigurationError("adam epsilon must be > 0")


@dataclass(frozen=True)
class OptimizerState:
    """Immutable optimizer state; ``optimizer_step`` returns a new one."""

    config: OptimizerConfig
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def fresh(cls, config: OptimizerConfig, num_values: int) -> "OptimizerState":
        return cls(config, np.zeros(num_values), np.zeros(num_values))


def optimizer_step(
    state: OptimizerState, weights: ModelWeights, gradient: np.ndarray
) -> tuple[ModelWeights, OptimizerState]:
    """One update. SGD folds weight decay into the gradient; Adam runs the
    bias-corrected moment update and then decays the stepped weights
    directly (decoupled decay), so decay never enters the moments."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != weights.values.shape:
        raise ValueError(
            f"gradient length {gradient.shape} does not match weights {weights.values.shape}"
        )

    c = state.config
    if c.kind is OptimizerKind.SGD:
        new_values = weights.values - c.learning_rate * (
            gradient + c.weight_decay * weights.values
        )
        new_state = OptimizerState(
            c, state.first_moment, state.second_moment, state.step_count + 1
        )
        return weights.with_values(new_values), new_state

    t = state.step_count + 1
    m = c.beta1 * state.first_moment + (1.0 - c.beta1) * gradient
    v = c.beta2 * state.second_moment + (1.0 - c.beta2) * gradient**2
    m_hat = m / (1.0 - c.beta1**t)
    v_hat = v / (1.0 - c.beta2**t)
    stepped = weights.values - c.learning_rate * m_hat / (np.sqrt(v_hat) + c.epsilon)
    if c.weight_decay != 0.0:
        stepped = stepped - c.learning_rate * c.weight_decay * stepped
    new_state = OptimizerState(c, m, v, t)
    return weights.with_values(stepped), new_state
