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
from typing import Sequence

import numpy as np

from .exceptions import bound, bounded, check_bound, check_bounds
from .head import block_softmax


class HeadMode(enum.Enum):
    PLAIN = "plain"
    DOMAIN_INDEPENDENT = "domain_independent"


class OptimizerKind(enum.Enum):
    SGD = "sgd"
    ADAM = "adam"


# The bound of every hidden width, which ``model.hidden`` is held to too.
HIDDEN_WIDTH = bound(1)


@dataclass(frozen=True)
class ClassifierSpec:
    """Network dimensions. The output layer has ``num_classes`` units in
    plain mode and ``num_classes * num_groups`` units in domain-independent
    mode, where group ``d`` owns the contiguous logit slice
    ``[d*num_classes, (d+1)*num_classes)``."""

    input_dim: int = bounded(1)
    hidden_widths: tuple[int, ...]
    num_classes: int = bounded(2)
    num_groups: int = bounded(1)
    head_mode: HeadMode = HeadMode.PLAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        check_bounds(self)
        for width in self.hidden_widths:
            check_bound("hidden widths", HIDDEN_WIDTH, width)

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
# A layer's (weights, bias) views, with the stack axis in front for a stack.
Layer = tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=64)
def weight_layout(spec: ClassifierSpec) -> Layout:
    """Per-layer (index, (fan_in, fan_out)) records, fixed by the layer dims.
    Cached per spec, so checking a model's layout costs one lookup."""
    dims = spec.layer_dims
    return tuple((i, (dims[i], dims[i + 1])) for i in range(len(dims) - 1))


def _num_values(layout: Layout) -> int:
    return sum((fi + 1) * fo for _, (fi, fo) in layout)


def num_params(spec: ClassifierSpec) -> int:
    return _num_values(weight_layout(spec))


def _unflatten(values: np.ndarray, layout: Layout) -> list[Layer]:
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
    """One model's trainable parameters as one flat float64 vector.

    Per layer the vector holds the weight matrix (row-major, shape
    fan_in x fan_out) followed by the bias (fan_out,). Two ModelWeights
    built from the same spec always share the same layout.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        expected = _num_values(self.layout)
        if self.values.shape != (expected,):
            raise ValueError(
                f"weight vector length {self.values.shape} does not match layout ({expected},)"
            )

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, values: np.ndarray) -> "ModelWeights":
        return ModelWeights(values, self.layout)

    def unflatten(self) -> list[Layer]:
        """Views (no copies) of each layer's weight matrix and bias."""
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


class _HeadPlan:
    """One head's section of a ``StepPlan``: the models in the ``models``
    slice of the stack, all on ``spec``, and their output layer.

    ``inputs`` are the section's rows of the layer below (the last hidden
    layer's output, or the features), and ``input_delta`` its rows of
    that layer's delta (None without hidden layers). ``outputs`` holds
    the section's logits, which become its output delta; ``logits`` and
    ``logit_blocks`` view them with one row per example and one row per
    block. ``block`` is the section's columns of the plan's class-major
    block. Under the grouped head each example's own block is first
    gathered row-major into ``gathered``, from row ``block_start[r] +
    groups[r]`` of ``logit_blocks``; under the plain head the logits are
    the blocks and ``gathered`` is None.
    """

    def __init__(self, plan: StepPlan, spec: ClassifierSpec, models: slice) -> None:
        n, blocks, size = spec.num_classes, spec.num_blocks, plan.size
        count = models.stop - models.start
        rows = count * size
        self.models, self.count, self.layout = models, count, weight_layout(spec)[-1:]
        self.inputs = (plan.outputs[-1] if plan.outputs else plan.features)[models]
        self.input_delta = plan.deltas[-1][models] if plan.deltas else None
        self.outputs = np.empty((count, size, blocks * n))
        self.logits = self.outputs.reshape(rows, blocks * n)
        self.logit_blocks = self.logits.reshape(rows * blocks, n)
        self.block = plan.block[:, models.start * size : models.stop * size]
        self.gathered = None
        if blocks > 1:
            self.gathered = np.empty((rows, n))
            self.groups = plan.groups[models].reshape(rows)
            self.block_start = np.arange(rows, dtype=np.int64) * blocks
            self.block_row = np.empty(rows, dtype=np.int64)


class StepPlan:
    """The arrays that one stacked step writes into, each allocated at
    exactly its shape, for batches of ``size`` examples and the models of
    ``heads``: (spec, count) pairs in stack order, whose specs share their
    input width, hidden widths and class count and so differ at most in
    their output layer.

    ``features``, ``labels`` and ``groups`` hold the stacked batch, and
    ``clients`` the same three arrays row by row, one triple per model,
    for gathering each model's examples. Everything else is written by
    ``backward``. The hidden layers are the whole stack's: one (K, B, h)
    ``outputs`` and ``deltas`` array per layer. So is the loss: ``block``
    is the class-major (n, rows) copy of each example's own block of n
    logits, in which the softmax, the loss terms (``target``, ``picked``,
    ``shift``, ``total``) and the output delta are computed for every
    model at once. Each head keeps its output layer in its section of
    ``heads`` (``_HeadPlan``).

    The stack's parameters live in one flat vector of ``num_values``
    values, with no padding: the (K, H) block of every model's hidden
    layers, then each head's (K_h, O_h) block of output-layer parameters.
    ``pack`` and ``unpack`` convert model vectors to and from it and
    ``layers`` views it layer by layer. The ``gradient`` has that layout,
    with its layer views in ``grads``; ``scratch`` is the optimizer's.
    """

    def __init__(self, heads: Sequence[tuple[ClassifierSpec, int]], size: int) -> None:
        first = heads[0][0]
        hidden = weight_layout(first)[:-1]
        models = sum(count for _, count in heads)
        rows = models * size
        self.models, self.size, self.hidden_layout = models, size, hidden
        self.features = np.empty((models, size, first.input_dim))
        self.labels = np.empty((models, size), dtype=np.int64)
        self.groups = np.empty((models, size), dtype=np.int64)
        self.clients = list(zip(self.features, self.labels, self.groups))
        # Each hidden layer's output, and the delta of that output.
        self.outputs = [np.empty((models, size, fo)) for _, (_, fo) in hidden]
        self.deltas = [np.empty_like(out) for out in self.outputs]
        # Entry (y, r) of ``block`` is at y * rows + r.
        self.block = np.empty((first.num_classes, rows))
        self.row = np.arange(rows, dtype=np.int64)
        self.target = np.empty(rows, dtype=np.int64)
        self.picked, self.shift, self.total = np.empty(rows), np.empty(rows), np.empty(rows)
        self.heads, start = [], 0
        for spec, count in heads:
            self.heads.append(_HeadPlan(self, spec, slice(start, start + count)))
            start += count
        self.shapes = [(models, _num_values(hidden))]
        self.shapes += [(head.count, _num_values(head.layout)) for head in self.heads]
        self.num_values = sum(count * width for count, width in self.shapes)
        self.gradient, self.scratch = np.empty(self.num_values), np.empty(self.num_values)
        self.grads = self.layers(self.gradient)

    def _blocks(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat`` as its (K, H) hidden block and each head's (K_h, O_h) block."""
        blocks, offset = [], 0
        for count, width in self.shapes:
            blocks.append(flat[offset : offset + count * width].reshape(count, width))
            offset += count * width
        return blocks

    def layers(self, flat: np.ndarray) -> tuple[list[Layer], list[Layer]]:
        """Views of a flat vector: each hidden layer's stacked (weights,
        bias) for all K models, then each head's output layer for its K_h."""
        hidden, *outputs = self._blocks(flat)
        heads = [_unflatten(out, head.layout)[0] for head, out in zip(self.heads, outputs)]
        return _unflatten(hidden, self.hidden_layout), heads

    def pack(self, models: Sequence[np.ndarray]) -> np.ndarray:
        """A new flat vector of the K models' (P,) vectors, in stack order."""
        flat = np.empty(self.num_values)
        hidden, *outputs = self._blocks(flat)
        width = hidden.shape[1]
        for head, out in zip(self.heads, outputs):
            stack = np.stack(models[head.models])
            hidden[head.models] = stack[:, :width]
            out[...] = stack[:, width:]
        return flat

    def unpack(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each head's (K_h, P_h) stack of model vectors, copied from ``flat``."""
        hidden, *outputs = self._blocks(flat)
        return [
            np.concatenate((hidden[head.models], out), axis=1)
            for head, out in zip(self.heads, outputs)
        ]


def _dense(
    x: np.ndarray, layer: Layer, out: np.ndarray | None = None, relu: bool = False
) -> np.ndarray:
    """``x @ w + b`` for ``layer = (w, b)``, through a ReLU if ``relu``,
    written into ``out`` if given."""
    w, b = layer
    z = np.matmul(x, w, out=out)
    z += b[..., None, :]
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _forward(layers: list[Layer], x: np.ndarray) -> list[np.ndarray]:
    """``[x, hidden activations..., logits]``.

    ``x`` is (B, m) for one model or (K, B, m) for a stack, matching the
    leading axis of ``layers``.
    """
    acts = [x]
    for i, layer in enumerate(layers):
        acts.append(_dense(acts[-1], layer, relu=i < len(layers) - 1))
    return acts


def forward_batch(spec: ClassifierSpec, weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Logits (B, output_dim) for a feature matrix (B, input_dim)."""
    _check_weights(spec, weights)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"expected features of shape (B, {spec.input_dim}), got {x.shape}")
    return _forward(weights.unflatten(), x)[-1]


def backward(plan: StepPlan, layers: tuple[list[Layer], list[Layer]]) -> np.ndarray:
    """Analytic gradient of the mean per-example cross-entropy of the
    plan's K stacked models, model k on batch k of the plan's (K, B, m)
    ``features`` and (K, B) ``labels`` and ``groups``; ``layers`` are the
    models' layer views (``StepPlan.layers``). Writes the gradient, in the
    plan's flat layout, to ``plan.gradient`` and returns the (K,) mean
    losses.

    The per-example loss is the negative log of the stabilized softmax
    over one block of ``num_classes`` logits, at the target class: the
    block of the example's group under the domain-independent head, the
    whole output under the plain head. The hidden layers and the loss run
    once for the whole stack, and only the output layer once per head.
    Row k is bit for bit what model k alone on batch k gives: every
    product is one BLAS call per model, every other operation is
    elementwise, and every reduction runs along a model's own rows.
    Nothing is checked here. A run checks its federations' layouts and
    shard shapes before round 1, ``federation.client_local_train`` checks
    its one client, and each ``Dataset`` checked its targets when it was
    built.
    """
    hidden, heads = layers
    k, b, block = plan.models, plan.size, plan.block
    rows = k * b
    acts = [plan.features]
    for layer, out in zip(hidden, plan.outputs):
        acts.append(_dense(acts[-1], layer, out, relu=True))

    # Each example's block of n logits, class-major: block[y, r] is class
    # y of example r's block.
    for head, layer in zip(plan.heads, heads):
        _dense(head.inputs, layer, head.outputs)
        if head.gathered is None:
            np.copyto(head.block, head.logits.T)
        else:
            block_row = np.add(head.block_start, head.groups, out=head.block_row)
            own = head.logit_blocks.take(block_row, axis=0, out=head.gathered, mode="clip")
            np.copyto(head.block, own.T)
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
    hidden_grads, head_grads = plan.grads
    for head, (w, _), (gw, gb) in zip(plan.heads, heads, head_grads):
        # Back to the head's row-major logits buffer the products read.
        if head.gathered is None:
            np.copyto(head.logits, head.block.T)
        else:
            head.logits.fill(0.0)
            head.logit_blocks[head.block_row] = head.block.T
        delta = head.outputs
        np.matmul(head.inputs.transpose(0, 2, 1), delta, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        if hidden:
            np.matmul(delta, w.transpose(0, 2, 1), out=head.input_delta)

    for li in range(len(hidden) - 1, -1, -1):
        # ReLU mask: an activation is > 0 exactly where its
        # pre-activation was; the activation is not needed again.
        delta = plan.deltas[li]
        delta *= np.greater(acts[li + 1], 0.0, out=acts[li + 1])
        gw, gb = hidden_grads[li]
        np.matmul(acts[li].transpose(0, 2, 1), delta, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        if li > 0:
            np.matmul(delta, hidden[li][0].transpose(0, 2, 1), out=plan.deltas[li - 1])
    return mean_loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer kind and hyperparameters; ``optimizer_step`` reads them."""

    kind: OptimizerKind = OptimizerKind.ADAM
    # 0 is allowed: it makes training a (useful) no-op in tests.
    learning_rate: float = bounded(0, default=1e-4)
    weight_decay: float = bounded(0, default=3e-4)

    def __post_init__(self) -> None:
        check_bounds(self)


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
