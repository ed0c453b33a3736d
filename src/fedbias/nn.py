"""Minimal deterministic dense-network engine.

Fixed architecture family: dense layers with ReLU hidden activations
and a linear output layer, float64 throughout. Backpropagation is
hand-derived for this family rather than going through a general
autodiff graph: a step is a fixed sequence of NumPy calls into the
arrays of its ``StepPlan``, which makes bitwise reproducibility checks
meaningful.

Weights travel as one flat vector (`ModelWeights`) so they can be
averaged componentwise by the federation layer; the layout records the
per-layer shapes used to fold the vector back into matrices.
"""

from __future__ import annotations

import enum
import functools
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


@functools.lru_cache(maxsize=64)
def weight_layout(spec: ClassifierSpec) -> Layout:
    """Per-layer (index, (fan_in, fan_out)) records, fixed by the layer dims.
    Cached per spec, so checking a model's layout costs one lookup."""
    dims = spec.layer_dims
    return tuple((i, (dims[i], dims[i + 1])) for i in range(len(dims) - 1))


def num_params(spec: ClassifierSpec) -> int:
    return sum((fi + 1) * fo for _, (fi, fo) in weight_layout(spec))


def _unflatten(values: np.ndarray, layout: Layout) -> list[tuple[np.ndarray, np.ndarray]]:
    lead = values.shape[:-1]
    out = []
    offset = 0
    for _, (fi, fo) in layout:
        w = values[..., offset : offset + fi * fo].reshape(*lead, fi, fo)
        offset += fi * fo
        b = values[..., offset : offset + fo]
        offset += fo
        out.append((w, b))
    return out


@dataclass(frozen=True)
class ModelWeights:
    """All trainable parameters as one flat float64 vector.

    Per layer the vector holds the weight matrix (row-major, shape
    fan_in x fan_out) followed by the bias (fan_out,). Two ModelWeights
    built from the same spec always share the same layout. A (K, P)
    ``values`` array holds a stack of K models with that layout, one per
    row, which ``backward`` and ``optimizer_step`` step together.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        expected = sum((fi + 1) * fo for _, (fi, fo) in self.layout)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != expected:
            raise ValueError(
                f"weight vector length {self.values.shape} does not match layout ({expected},)"
            )

    def __len__(self) -> int:
        return self.values.shape[-1]

    def with_values(self, values: np.ndarray) -> "ModelWeights":
        return ModelWeights(values, self.layout)

    def unflatten(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views (no copies) of each layer's weight matrix and bias, with
        the stack axis in front for a stack of models."""
        return _unflatten(self.values, self.layout)


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


class StepPlan:
    """The arrays that one stacked step of ``models`` models on batches of
    ``size`` examples writes into, each allocated at exactly its shape.

    ``features``, ``labels`` and ``groups`` hold the stacked batch, and
    ``clients`` the same three arrays row by row, one triple per model,
    for gathering each model's examples. Everything else is written by
    ``backward``: the layer outputs and deltas, the loss terms of the
    block softmax, and the (models, P) ``gradient`` with its per-layer
    views in ``grads``; ``scratch`` is the optimizer's.

    Every array is row-major (one row per example) except ``block``, the
    class-major (n, rows) copy of each example's own block of n logits,
    in which the softmax, the loss and the output delta are computed
    before the delta goes back into the row-major ``logits``. Under the
    grouped head the blocks are first gathered row-major into
    ``gathered`` (None under the plain head, whose logits are the blocks).
    """

    def __init__(self, spec: ClassifierSpec, models: int, size: int) -> None:
        n, blocks, dims = spec.num_classes, spec.num_blocks, spec.layer_dims
        rows = models * size
        self.models, self.size, self.grouped = models, size, blocks > 1
        self.features = np.empty((models, size, dims[0]))
        self.labels = np.empty((models, size), dtype=np.int64)
        self.groups = np.empty((models, size), dtype=np.int64)
        self.clients = list(zip(self.features, self.labels, self.groups))
        # Each layer's output (hidden activations, then logits); the
        # logits become the output delta.
        self.outputs = [np.empty((models, size, w)) for w in dims[1:]]
        self.deltas = [np.empty((models, size, w)) for w in dims[1:-1]]
        # The logits with one row per example and with one row per block.
        self.logits = self.outputs[-1].reshape(rows, blocks * n)
        self.logit_blocks = self.logits.reshape(rows * blocks, n)
        self.block = np.empty((n, rows))
        self.gathered = np.empty((rows, n)) if blocks > 1 else None
        # Row block_start[r] of ``logit_blocks`` is block 0 of example r;
        # entry (y, r) of ``block`` is at y * rows + r.
        self.row = np.arange(rows, dtype=np.int64)
        self.block_start = self.row * blocks
        self.block_row = np.empty(rows, dtype=np.int64)
        self.target = np.empty(rows, dtype=np.int64)
        self.picked, self.shift, self.total = np.empty(rows), np.empty(rows), np.empty(rows)
        p = num_params(spec)
        self.gradient, self.scratch = np.empty((models, p)), np.empty((models, p))
        self.grads = _unflatten(self.gradient, weight_layout(spec))


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    outs: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """``[x, hidden activations..., logits]``, written into ``outs`` if given.

    ``x`` is (B, m) for one model or (K, B, m) for a stack, matching the
    leading axis of ``layers``.
    """
    acts = [x]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w, out=None if outs is None else outs[i])
        z += b[..., None, :]
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward_batch(spec: ClassifierSpec, weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Logits (B, output_dim) for a feature matrix (B, input_dim)."""
    _check_weights(spec, weights)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected features of shape (B, {spec.input_dim}), got {x.shape}")
    return _forward(weights.unflatten(), x)[-1]


def backward(plan: StepPlan, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Analytic gradient of the mean per-example cross-entropy of K
    stacked models, model k on batch k of the plan's (K, B, m) ``features``
    and (K, B) ``labels`` and ``groups``; ``layers`` are the models' layer
    views. Writes the (K, P) gradient to ``plan.gradient`` and returns the
    (K,) mean losses.

    The per-example loss is the negative log of the stabilized softmax
    over one block of ``num_classes`` logits, at the target class: the
    block of the example's group under the domain-independent head, the
    whole output under the plain head. Row k is bit for bit what model k
    alone on batch k gives: every product is one BLAS call per model and
    every reduction runs along a model's own rows. Nothing is checked
    here; ``federation.train_clients`` checks layouts and shard shapes
    once, and each ``Dataset`` checked its targets when it was built.
    """
    k, b, logits, block = plan.models, plan.size, plan.logits, plan.block
    rows = k * b
    acts = _forward(layers, plan.features, plan.outputs)

    # Each example's block of n logits, class-major: block[y, r] is class
    # y of example r's block.
    if plan.grouped:
        block_row = np.add(plan.block_start, plan.groups.reshape(rows), out=plan.block_row)
        own = plan.logit_blocks.take(block_row, axis=0, out=plan.gathered, mode="clip")
        np.copyto(block, own.T)
    else:
        np.copyto(block, logits.T)
    target = np.multiply(plan.labels.reshape(rows), rows, out=plan.target)
    target += plan.row
    picked = block.reshape(-1).take(target, out=plan.picked, mode="clip")

    shift, total, delta_block = block_softmax(block, out=(plan.shift, plan.total, block))
    picked -= shift
    picked -= np.log(total, out=total)
    # np.mean's own arithmetic: the pairwise sum, then one division.
    mean_loss = -(np.add.reduce(picked.reshape(k, b), axis=-1) / b)

    # d(mean loss)/d(logits): softmax minus one-hot on each block, /B.
    delta_block.reshape(-1)[target] -= 1.0
    delta_block /= b
    # Back to the row-major logits buffer the products read.
    if plan.grouped:
        logits.fill(0.0)
        plan.logit_blocks[block_row] = delta_block.T
    else:
        np.copyto(logits, delta_block.T)
    delta = plan.outputs[-1]

    for li in range(len(layers) - 1, -1, -1):
        gw, gb = plan.grads[li]
        np.matmul(acts[li].transpose(0, 2, 1), delta, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        if li > 0:
            # ReLU mask: an activation is > 0 exactly where its
            # pre-activation was; the activation is not needed again.
            mask = np.greater(acts[li], 0.0, out=acts[li])
            delta = np.matmul(delta, layers[li][0].transpose(0, 2, 1), out=plan.deltas[li - 1])
            delta *= mask
    return mean_loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer kind and hyperparameters; ``optimizer_step`` reads them."""

    kind: OptimizerKind = OptimizerKind.ADAM
    learning_rate: float = 1e-4
    weight_decay: float = 3e-4

    def __post_init__(self) -> None:
        # 0 is allowed: it makes training a (useful) no-op in tests.
        if self.learning_rate < 0.0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.weight_decay < 0.0:
            raise ConfigurationError("weight_decay must be >= 0")


def optimizer_step(
    config: OptimizerConfig,
    t: int,
    values: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    gradient: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Update number ``t`` (from 1) of ``values`` with moments ``m`` and
    ``v``, in place; ``gradient`` and ``scratch`` are used as scratch, and
    all five share one shape. SGD folds weight decay into the gradient;
    Adam runs the bias-corrected moment update and then decays the stepped
    weights directly (decoupled decay), so decay never enters the moments.
    Every operation is elementwise, so a stack of models ((K, P) arrays)
    steps each row exactly as it would step alone."""
    if config.kind is OptimizerKind.SGD:
        # values - lr * (gradient + wd * values)
        np.multiply(values, config.weight_decay, out=scratch)
        scratch += gradient
        scratch *= config.learning_rate
        values -= scratch
    else:
        m *= ADAM_BETA1
        m += np.multiply(gradient, 1.0 - ADAM_BETA1, out=scratch)
        v *= ADAM_BETA2
        squared = np.square(gradient, out=gradient)
        squared *= 1.0 - ADAM_BETA2
        v += squared
        # values - lr * m_hat / (sqrt(v_hat) + eps)
        step = np.divide(m, 1.0 - ADAM_BETA1**t, out=scratch)
        step *= config.learning_rate
        denom = np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=gradient), out=gradient)
        denom += ADAM_EPSILON
        step /= denom
        values -= step
        if config.weight_decay != 0.0:
            values -= np.multiply(values, config.learning_rate * config.weight_decay, out=scratch)
