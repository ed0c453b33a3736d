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


@dataclass(frozen=True)
class Batch:
    """A non-empty mini-batch: features (B, m), labels and groups (B,);
    or a stack of K such batches, (K, B, m) and (K, B), one per model."""

    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        for name in ("labels", "groups"):
            values = np.asarray(getattr(self, name))
            if values.size and values.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
            object.__setattr__(self, name, values.astype(np.int64, copy=False))
        if self.features.ndim not in (2, 3) or self.features.shape[-2] == 0:
            raise ValueError("batch must contain at least one example")
        rows = self.features.shape[:-1]
        if self.labels.shape != rows or self.groups.shape != rows:
            raise ValueError("labels/groups must match the batch size")

    def __len__(self) -> int:
        return self.features.shape[-2]


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


class Workspace:
    """Every buffer that ``backward`` and ``optimizer_step`` write, for
    stacks of up to ``models`` models on batches of up to ``batch_size``
    examples, allocated once and reused by each step.

    A step of ``k`` models on ``b`` examples writes into the views of its
    ``plan(k, b)``: C-contiguous views of the leading part of each buffer
    (``view``), so a smaller stack or a short last batch is laid out in
    memory exactly like a freshly allocated array, and every NumPy kernel
    sees the same shapes and strides it would see without the workspace.
    Each plan is built on first use and kept, so a run of steps takes its
    views once per shape (a chunk's full batch and its ragged last batch)
    instead of once per step. ``weights``, ``first_moment`` and
    ``second_moment`` hold the stacked model and optimizer state of the
    caller's run of steps.
    """

    def __init__(self, spec: ClassifierSpec, models: int, batch_size: int) -> None:
        if models < 1 or batch_size < 1:
            raise ValueError("a workspace needs at least one model and one example")
        self.spec = spec
        self.models = models
        self.batch_size = batch_size
        rows = models * batch_size
        dims = spec.layer_dims
        n, blocks = spec.num_classes, spec.num_blocks
        self.features = np.empty(rows * dims[0])
        self.labels = np.empty(rows, dtype=np.int64)
        self.groups = np.empty(rows, dtype=np.int64)
        # Each layer's output (hidden activations, then logits); the
        # logits buffer becomes the output delta.
        self.outputs = [np.empty(rows * w) for w in dims[1:]]
        self.deltas = [np.empty(rows * w) for w in dims[1:-1]]
        self.block = np.empty(rows * n)
        self.shift, self.total, self.picked = np.empty(rows), np.empty(rows), np.empty(rows)
        # Row r of the logits, read as (rows * blocks, n), starts block 0
        # of example r; entry (r, y) of the block array is at r * n + y.
        self.block_start = np.arange(rows, dtype=np.int64) * blocks
        self.entry_start = np.arange(rows, dtype=np.int64) * n
        self.block_row = np.empty(rows, dtype=np.int64)
        self.target = np.empty(rows, dtype=np.int64)
        p = num_params(spec)
        self.gradient, self.scratch = np.empty(models * p), np.empty(models * p)
        self.weights = np.empty(models * p)
        self.first_moment, self.second_moment = np.empty(models * p), np.empty(models * p)
        self._plans: dict[tuple[int, int], StepPlan] = {}

    @staticmethod
    def view(buffer: np.ndarray, *shape: int) -> np.ndarray:
        """The C-contiguous ``shape`` array at the start of ``buffer``."""
        return buffer[: math.prod(shape)].reshape(shape)

    def plan(self, models: int, size: int) -> StepPlan:
        """The views a step of ``models`` models on ``size`` examples
        writes into, built on the first call for that shape."""
        plan = self._plans.get((models, size))
        if plan is None:
            if not (0 < models <= self.models and 0 < size <= self.batch_size):
                raise ValueError("workspace does not fit this spec, stack or batch")
            plan = self._plans[models, size] = StepPlan(self, models, size)
        return plan


class StepPlan:
    """The views of a workspace's buffers that one stacked step of
    ``models`` models on batches of ``size`` examples writes into.

    ``features``, ``labels`` and ``groups`` hold the stacked batch, and
    ``clients`` the same three views row by row, one triple per model,
    for gathering each model's examples. Everything else is written by
    ``backward``: the layer outputs and deltas, the loss terms of the
    block softmax, and the (models, P) ``gradient`` with its per-layer
    views in ``grads``; ``scratch`` is the optimizer's.
    """

    def __init__(self, ws: Workspace, models: int, size: int) -> None:
        spec, view = ws.spec, ws.view
        n, blocks, dims = spec.num_classes, spec.num_blocks, spec.layer_dims
        rows = models * size
        self.models, self.size, self.grouped = models, size, blocks > 1
        self.features = view(ws.features, models, size, dims[0])
        self.labels = view(ws.labels, models, size)
        self.groups = view(ws.groups, models, size)
        self.clients = list(zip(self.features, self.labels, self.groups))
        self.outputs = [view(buf, models, size, w) for buf, w in zip(ws.outputs, dims[1:])]
        self.deltas = [view(buf, models, size, w) for buf, w in zip(ws.deltas, dims[1:-1])]
        # The logits with one row per example and with one row per block;
        # ``block`` holds each example's own block of n logits, gathered
        # apart under the grouped head and the logits themselves otherwise.
        self.logits = self.outputs[-1].reshape(rows, blocks * n)
        self.logit_blocks = self.logits.reshape(rows * blocks, n)
        self.block_start, self.block_row = ws.block_start[:rows], ws.block_row[:rows]
        self.block = view(ws.block, rows, n) if blocks > 1 else self.logits
        self.entry_start, self.target = ws.entry_start[:rows], ws.target[:rows]
        self.picked, self.shift, self.total = ws.picked[:rows], ws.shift[:rows], ws.total[:rows]
        p = num_params(spec)
        self.gradient = view(ws.gradient, models, p)
        self.grads = _unflatten(self.gradient, weight_layout(spec))
        self.scratch = view(ws.scratch, models, p)


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


def _check_targets(spec: ClassifierSpec, labels: np.ndarray, groups: np.ndarray) -> None:
    checks = [("label", labels, spec.num_classes, "classes")]
    if spec.num_blocks > 1:
        checks.append(("group", groups, spec.num_groups, "groups"))
    for what, values, count, unit in checks:
        low, high = int(values.min()), int(values.max())
        if low < 0 or high >= count:
            bad = low if low < 0 else high
            raise ValueError(f"{what} {bad} out of range for {count} {unit}")


def backward(
    spec: ClassifierSpec,
    weights: ModelWeights,
    batch: Batch,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Analytic gradient of the mean per-example cross-entropy.

    Returns (gradient vector with the same layout as ``weights``, mean
    loss). The per-example loss is the negative log of the stabilized
    softmax over one block of ``num_classes`` logits, taken at the
    target class: the block of the example's group under the
    domain-independent head, the whole output under the plain head.

    A stack of K models ((K, P) weights) takes a stack of K batches of
    one size and returns (K, P) gradients and (K,) mean losses; row k is
    bit for bit what model k alone on batch k gives, because every
    product is one BLAS call per model and every reduction runs along a
    model's own rows. A single model is the K = 1 case. Every call checks
    its weights, batch shape and target ranges. With a ``workspace`` the
    gradient is a view into it, overwritten by the next call; without
    one, fresh buffers are allocated.
    """
    _check_weights(spec, weights)
    stacked = weights.values.ndim == 2
    values = weights.values if stacked else weights.values[None]
    x, labels, groups = batch.features, batch.labels, batch.groups
    if not stacked:
        x, labels, groups = x[None], labels[None], groups[None]
    k, b = labels.shape
    if x.shape != (len(values), b, spec.input_dim):
        raise ValueError(
            f"expected features of shape ({len(values)}, B, {spec.input_dim}) for "
            f"{len(values)} stacked models, got {x.shape}"
        )
    _check_targets(spec, labels, groups)
    ws = Workspace(spec, k, b) if workspace is None else workspace
    if ws.spec != spec:
        raise ValueError("workspace does not fit this spec, stack or batch")
    plan = ws.plan(k, b)
    mean_loss = _backward_core(plan, _unflatten(values, weights.layout), x, labels, groups)
    if stacked:
        return plan.gradient, mean_loss
    return plan.gradient[0], float(mean_loss[0])


def _backward_core(
    plan: StepPlan,
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
) -> np.ndarray:
    """``backward`` of a checked (K, B) step into ``plan``: writes the
    gradient to ``plan.gradient`` and returns the (K,) mean losses.
    ``layers`` are the stacked models' layer views, ``x`` the (K, B, m)
    features, ``labels`` and ``groups`` the (K, B) targets."""
    k, b, logits, sliced = plan.models, plan.size, plan.logits, plan.block
    acts = _forward(layers, x, plan.outputs)

    # Each example's block of n logits, one row per example.
    if plan.grouped:
        block_row = np.add(plan.block_start, groups.reshape(k * b), out=plan.block_row)
        plan.logit_blocks.take(block_row, axis=0, out=sliced, mode="clip")
    target = np.add(plan.entry_start, labels.reshape(k * b), out=plan.target)
    picked = sliced.reshape(-1).take(target, out=plan.picked, mode="clip")

    shift, total, delta_slice = block_softmax(sliced, out=(plan.shift, plan.total, sliced))
    picked -= shift
    picked -= np.log(total, out=total)
    # np.mean's own arithmetic: the pairwise sum, then one division.
    mean_loss = -(np.add.reduce(picked.reshape(k, b), axis=-1) / b)

    # d(mean loss)/d(logits): softmax minus one-hot on each block, /B.
    delta_slice.reshape(-1)[target] -= 1.0
    delta_slice /= b
    if plan.grouped:
        logits.fill(0.0)
        plan.logit_blocks[block_row] = delta_slice
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
    """Optimizer state; ``optimizer_step`` returns a new one. The moments
    have the shape of the weights they step, (P,) or (K, P)."""

    config: OptimizerConfig
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def optimizer_step(
    state: OptimizerState,
    weights: ModelWeights,
    gradient: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[ModelWeights, OptimizerState]:
    """One update. SGD folds weight decay into the gradient; Adam runs the
    bias-corrected moment update and then decays the stepped weights
    directly (decoupled decay), so decay never enters the moments.

    Every operation is elementwise, so a stack of models ((K, P) weights,
    moments and gradient) steps each row exactly as it would step alone.
    Without a workspace no input is changed. With one, the update is made
    in place: the weights and moments are overwritten, the gradient is
    used as scratch, and the results share their arrays.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != weights.values.shape:
        raise ValueError(
            f"gradient length {gradient.shape} does not match weights {weights.values.shape}"
        )
    values, m, v = weights.values, state.first_moment, state.second_moment
    if workspace is None:
        values, m, v, gradient = values.copy(), m.copy(), v.copy(), gradient.copy()
        scratch = np.empty_like(values)
    else:
        scratch = workspace.view(workspace.scratch, *values.shape)
    t = state.step_count + 1
    _optimizer_core(state.config, t, values, m, v, gradient, scratch)
    return weights.with_values(values), OptimizerState(state.config, m, v, t)


def _optimizer_core(
    c: OptimizerConfig,
    t: int,
    values: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    gradient: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Update number ``t`` of ``optimizer_step``, in place: ``values``,
    ``m`` and ``v`` are overwritten, and ``gradient`` and ``scratch``
    are used as scratch."""
    if c.kind is OptimizerKind.SGD:
        # values - lr * (gradient + wd * values)
        np.multiply(values, c.weight_decay, out=scratch)
        scratch += gradient
        scratch *= c.learning_rate
        values -= scratch
    else:
        m *= c.beta1
        m += np.multiply(gradient, 1.0 - c.beta1, out=scratch)
        v *= c.beta2
        squared = np.square(gradient, out=gradient)
        squared *= 1.0 - c.beta2
        v += squared
        # values - lr * m_hat / (sqrt(v_hat) + eps)
        step = np.divide(m, 1.0 - c.beta1**t, out=scratch)
        step *= c.learning_rate
        denom = np.sqrt(np.divide(v, 1.0 - c.beta2**t, out=gradient), out=gradient)
        denom += c.epsilon
        step /= denom
        values -= step
        if c.weight_decay != 0.0:
            values -= np.multiply(values, c.learning_rate * c.weight_decay, out=scratch)
