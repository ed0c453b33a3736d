"""Independent reference implementations the tests compare against.

Everything here is deliberately written from the definitions rather
than by calling library internals: metrics are recounted straight from
the record list (no count tensor), losses are recomputed per example
with scipy's log-sum-exp, gradients come from central finite
differences, the federated average is a plain weighted sum, and
client, federated and centralized training are plain loops of
single-model, single-batch steps. The one exception is the row-major
head math, which is compared bit for bit and so keeps the engine's own
forward pass and products around it. The CSV readers and writer are
kept in their one-cell-at-a-time form.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from fedbias.data import Dataset
from fedbias.exceptions import ConfigurationError, DataFormatError
from fedbias.federation import (
    FederationConfig,
    FederationResult,
    Mode,
    RoundSnapshot,
    _check_compatible,
    evaluate_weights,
    fedavg_aggregate,
)
from fedbias.metrics import FairnessReport, PredictionRecord, mean_reports
from fedbias.nn import (
    Batch,
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerState,
    _forward,
    _unflatten,
    backward,
    init_weights,
    num_params,
    optimizer_step,
    weight_layout,
)
from fedbias.seeding import TAG_INIT, derive_seed, shuffle_seed


# ---------------------------------------------------------------------------
# Fairness metrics recomputed from raw records.

def brute_metrics(
    records: list[PredictionRecord], num_classes: int, num_groups: int
) -> dict[str, float | None]:
    """All five metrics from scratch; None where a metric is undefined."""
    by_group = {g: [r for r in records if r.group == g] for g in range(num_groups)}

    acc = sum(1 for r in records if r.predicted == r.actual) / len(records)

    group_errors = []
    for g in range(num_groups):
        rows = by_group[g]
        if rows:
            right = sum(1 for r in rows if r.predicted == r.actual)
            group_errors.append(1.0 - right / len(rows))
        else:
            group_errors.append(None)

    if num_groups < 2 or any(e is None for e in group_errors):
        ser = None
    else:
        worst, best = max(group_errors), min(group_errors)
        if worst == 0.0:
            ser = 1.0
        elif best == 0.0:
            ser = math.inf
        else:
            ser = worst / best

    def popvar(values: list[float]) -> float:
        mean = sum(values) / len(values)
        return sum((v - mean) ** 2 for v in values) / len(values)

    eo_terms = []
    for c in range(num_classes):
        recalls = []
        for g in range(num_groups):
            truth = [r for r in by_group[g] if r.actual == c]
            if truth:
                recalls.append(sum(1 for r in truth if r.predicted == c) / len(truth))
        if len(recalls) >= 2:
            eo_terms.append(popvar(recalls))
    eo = sum(eo_terms) / len(eo_terms) if eo_terms else None

    ba_terms = []
    for c in range(num_classes):
        per_group = [sum(1 for r in by_group[g] if r.predicted == c) for g in range(num_groups)]
        if sum(per_group) > 0:
            ba_terms.append(max(per_group) / sum(per_group))
    ba = sum(ba_terms) / len(ba_terms) - 1.0 / num_groups if ba_terms else None

    if any(not by_group[g] for g in range(num_groups)):
        dp = None
    else:
        dp_terms = []
        for c in range(num_classes):
            rates = [
                sum(1 for r in by_group[g] if r.predicted == c) / len(by_group[g])
                for g in range(num_groups)
            ]
            dp_terms.append(popvar(rates))
        dp = sum(dp_terms) / num_classes

    return {"acc": acc, "ser": ser, "eo": eo, "ba": ba, "dp": dp}


def brute_counts(
    records: list[PredictionRecord], num_classes: int, num_groups: int
) -> np.ndarray:
    """counts[g, y, p], one ``np.add.at`` per record."""
    counts = np.zeros((num_groups, num_classes, num_classes), dtype=np.int64)
    for r in records:
        np.add.at(counts, (r.group, r.actual, r.predicted), 1)
    return counts


def log_arrays(records: list[PredictionRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (predicted, actual, group) int64 columns of a record list."""
    rows = np.array([(r.predicted, r.actual, r.group) for r in records], dtype=np.int64)
    predicted, actual, group = rows.reshape(-1, 3).T
    return predicted, actual, group


def random_records(
    rng: np.random.Generator, num_classes: int, num_groups: int, size: int
) -> list[PredictionRecord]:
    """A random log; sometimes only a subset of groups/classes appears so
    the degenerate-metric paths get exercised too."""
    group_pool = num_groups if rng.random() < 0.7 else int(rng.integers(1, num_groups + 1))
    class_pool = num_classes if rng.random() < 0.7 else int(rng.integers(1, num_classes + 1))
    return [
        PredictionRecord(
            int(rng.integers(0, class_pool)),
            int(rng.integers(0, class_pool)),
            int(rng.integers(0, group_pool)),
        )
        for _ in range(size)
    ]


# ---------------------------------------------------------------------------
# Loss and gradient recomputed per example.

def unpack_layers(spec: ClassifierSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk the flat vector with an explicit offset loop."""
    dims = [spec.input_dim, *spec.hidden_widths, spec.output_dim]
    layers = []
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    assert offset == values.size
    return layers


def reference_loss(spec: ClassifierSpec, values: np.ndarray, batch: Batch) -> float:
    """Mean cross-entropy, one example at a time, via scipy logsumexp, over
    the example's group window under the domain-independent head and over
    the whole output under the plain head."""
    layers = unpack_layers(spec, values)
    total = 0.0
    for x, y, d in zip(batch.features, batch.labels, batch.groups):
        a = x
        for w, b in layers[:-1]:
            a = np.maximum(a @ w + b, 0.0)
        w, b = layers[-1]
        logits = a @ w + b
        start = int(d) * spec.num_classes if spec.head_mode is HeadMode.DOMAIN_INDEPENDENT else 0
        window = logits[start : start + spec.num_classes]
        total += float(logsumexp(window) - window[int(y)])
    return total / len(batch)


def fd_gradient(
    spec: ClassifierSpec,
    weights: ModelWeights,
    batch: Batch,
    step: float = 1e-5,
) -> np.ndarray:
    base = weights.values
    grad = np.empty(base.size)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        grad[i] = (
            reference_loss(spec, plus, batch) - reference_loss(spec, minus, batch)
        ) / (2.0 * step)
    return grad


def guarded_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Max componentwise relative error, with a floor so near-zero
    components are judged absolutely (at floor * rel_tol)."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def hidden_preactivations(spec: ClassifierSpec, values: np.ndarray, features: np.ndarray) -> list[np.ndarray]:
    layers = unpack_layers(spec, values)
    pre = []
    a = features
    for w, b in layers[:-1]:
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
    return pre


def random_gradcheck_instance(
    rng: np.random.Generator, head_mode: HeadMode, max_params: int = 60
) -> tuple[ClassifierSpec, ModelWeights, Batch]:
    """A small random (spec, weights, batch) whose hidden pre-activations
    sit away from the ReLU kink, so finite differences are trustworthy."""
    domain_independent = head_mode is HeadMode.DOMAIN_INDEPENDENT
    while True:
        input_dim = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 5)) for _ in range(rng.integers(0, 3)))
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4)) if domain_independent else int(rng.integers(1, 4))
        spec = ClassifierSpec(input_dim, hidden, n, d, head_mode)
        if num_params(spec) > max_params:
            continue
        values = rng.uniform(-0.8, 0.8, num_params(spec))
        weights = ModelWeights(values, weight_layout(spec))
        size = int(rng.integers(1, 6))
        batch = Batch(
            rng.uniform(-1.0, 1.0, (size, input_dim)),
            rng.integers(0, n, size),
            rng.integers(0, d, size),
        )
        pre = hidden_preactivations(spec, values, batch.features)
        if all(np.min(np.abs(z)) > 1e-3 for z in pre):
            return spec, weights, batch


# ---------------------------------------------------------------------------
# The head math in its row-major form: each block's classes along the last
# axis, where NumPy reduces one block at a time. The engine lays its
# blocks out class-major and must reproduce these bits.

def row_major_block_softmax(
    blocks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(shift, total, probs)`` of the softmax along the last axis."""
    shift = np.maximum.reduce(blocks, axis=-1)
    probs = np.subtract(blocks, shift[..., None])
    np.exp(probs, out=probs)
    total = np.add.reduce(probs, axis=-1)
    probs /= total[..., None]
    return shift, total, probs


def row_major_predict(logits: np.ndarray, num_classes: int, num_groups: int) -> np.ndarray:
    """Group-marginalized prediction for (B, N*D) logits."""
    if num_groups == 1:
        return np.argmax(logits, axis=1)
    _, _, probs = row_major_block_softmax(logits.reshape(len(logits), num_groups, num_classes))
    return np.argmax(probs.sum(axis=1), axis=1)


def row_major_backward(
    spec: ClassifierSpec, values: np.ndarray, batch: Batch
) -> tuple[np.ndarray, np.ndarray]:
    """(K, P) gradients and (K,) mean losses of K stacked models on a
    (K, B) batch, with the loss taken on row-major blocks. The forward
    pass and the products are the engine's own calls, so only the head
    math differs from ``backward``."""
    k, b = batch.labels.shape
    n, blocks = spec.num_classes, spec.num_blocks
    layers = _unflatten(values, weight_layout(spec))
    acts = _forward(layers, batch.features)
    rows = np.arange(k * b)
    labels = batch.labels.reshape(-1)
    block_row = rows * blocks + (batch.groups.reshape(-1) if blocks > 1 else 0)
    sliced = acts[-1].reshape(k * b * blocks, n)[block_row]
    picked = sliced[rows, labels]
    shift, total, probs = row_major_block_softmax(sliced)
    picked = picked - shift - np.log(total)
    mean_loss = -(np.add.reduce(picked.reshape(k, b), axis=-1) / b)
    probs[rows, labels] -= 1.0
    probs /= b
    delta = np.zeros((k * b * blocks, n))
    delta[block_row] = probs
    delta = delta.reshape(k, b, blocks * n)
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        gw = np.matmul(acts[li].transpose(0, 2, 1), delta)
        grads[:0] = [gw.reshape(k, -1), np.add.reduce(delta, axis=1)]
        if li > 0:
            mask = acts[li] > 0.0
            delta = np.matmul(delta, layers[li][0].transpose(0, 2, 1))
            delta *= mask
    return np.concatenate(grads, axis=1), mean_loss


# ---------------------------------------------------------------------------
# CSV input and output one cell at a time, through float(), int() and repr().
# The prediction-log reader here checks no cell ranges.

_INT64 = np.iinfo(np.int64)


def reference_save_csv(dataset: Dataset, path: str | Path) -> None:
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


def reference_load_csv(path: str | Path, num_classes: int, num_groups: int) -> Dataset:
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


def reference_load_prediction_log(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``predicted,actual,group`` CSV into three int64 arrays, in the
    argument order of :func:`tally`; malformed rows name their line."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    if [c.strip() for c in lines[0].split(",")] != ["predicted", "actual", "group"]:
        raise DataFormatError(f"{path}: line 1: header must be 'predicted,actual,group'")
    rows = []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        cells = line.split(",")
        if len(cells) != 3:
            raise DataFormatError(f"{path}: line {lineno}: expected 3 columns, found {len(cells)}")
        try:
            rows.append([int(c) for c in cells])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        lineno, value = next(
            (i + 2, v)
            for i, row in enumerate(rows)
            for v in row
            if not _INT64.min <= v <= _INT64.max
        )
        raise DataFormatError(
            f"{path}: line {lineno}: {value} does not fit in a 64-bit integer"
        ) from None
    predicted, actual, group = table.T
    return predicted, actual, group


# ---------------------------------------------------------------------------
# Federated averaging recomputed directly.

def weighted_mean(values_list: list[np.ndarray], counts: list[int]) -> np.ndarray:
    total = sum(counts)
    acc = np.zeros_like(values_list[0])
    for values, count in zip(values_list, counts):
        acc = acc + (count / total) * values
    return acc


# ---------------------------------------------------------------------------
# One client's local training, one model and one batch at a time.

def fresh_state(config: OptimizerConfig, num_values: int) -> OptimizerState:
    """Optimizer state before the first step: zero moments, step count 0."""
    return OptimizerState(config, np.zeros(num_values), np.zeros(num_values))


def reference_client_train(
    data: Dataset,
    incoming: ModelWeights,
    spec: ClassifierSpec,
    optimizer: OptimizerConfig,
    epochs: int,
    batch_size: int,
    seed: int,
) -> tuple[ModelWeights, float]:
    """E passes over the shard with single-model ``backward`` and
    ``optimizer_step`` calls: what the stacked client engine must equal,
    bit for bit, for every client it trains."""
    rng = np.random.default_rng(seed)
    weights = incoming
    state = fresh_state(optimizer, len(incoming))
    loss_total = 0.0
    loss_batches = 0
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(data.features[idx], data.labels[idx], data.groups[idx])
            gradient, loss = backward(spec, weights, batch)
            weights, state = optimizer_step(state, weights, gradient)
            loss_total += loss
            loss_batches += 1
    return weights, loss_total / loss_batches


# ---------------------------------------------------------------------------
# One federation on its own, round by round.

def reference_run_federation(
    config: FederationConfig,
    partitions: list[Dataset],
    spec: ClassifierSpec,
    test_set: Dataset | None = None,
    eval_every: int = 1,
) -> FederationResult:
    """The R-round protocol for a single federation, each client trained
    alone by ``reference_client_train`` in client order: what every
    federation of a lockstep run must equal, bit for bit."""
    local_mode = config.mode is Mode.LOCAL_ONLY
    init = init_weights(spec, derive_seed(config.master_seed, TAG_INIT))
    global_weights = init
    local_weights = [init] * len(partitions)

    def evaluate() -> FairnessReport | None:
        if test_set is None:
            return None
        if not local_mode:
            return evaluate_weights(spec, global_weights, test_set)
        return mean_reports([evaluate_weights(spec, w, test_set) for w in local_weights])

    history = [RoundSnapshot(0, evaluate(), None, 0.0)]
    for round_index in range(1, config.rounds + 1):
        incoming = local_weights if local_mode else [global_weights] * len(partitions)
        results = [
            reference_client_train(
                part, incoming[k], spec, config.optimizer, config.local_epochs,
                config.batch_size, shuffle_seed(config.master_seed, k, round_index),
            )
            for k, part in enumerate(partitions)
        ]
        local_weights = [weights for weights, _ in results]
        losses = [loss for _, loss in results]
        if not local_mode:
            global_weights = fedavg_aggregate(
                [(k, local_weights[k], len(part)) for k, part in enumerate(partitions)]
            )
        due = round_index % eval_every == 0 or round_index == config.rounds
        report = evaluate() if due else None
        history.append(RoundSnapshot(round_index, report, sum(losses) / len(losses), 0.0))
    return FederationResult(
        mode=config.mode,
        spec=spec,
        config=config,
        final_weights=None if local_mode else global_weights,
        client_weights=dict(enumerate(local_weights)),
        history=history,
    )


# ---------------------------------------------------------------------------
# Centralized training, written out independently of the client engine.

def train_centralized(
    dataset: Dataset,
    spec: ClassifierSpec,
    optimizer: OptimizerConfig,
    rounds: int,
    local_epochs: int,
    batch_size: int,
    master_seed: int,
    test_set: Dataset | None = None,
    eval_every: int = 1,
) -> tuple[ModelWeights, list[RoundSnapshot]]:
    """Single-machine training on the whole dataset, rounds*local_epochs
    epochs in total, following the federated seed and batch schedule
    (per-round shuffle reseeding and optimizer restarts). Aggregating a
    lone client is the identity, so a one-client federated run and this
    loop are the same computation.
    """
    if rounds < 0:
        raise ConfigurationError("rounds must be >= 0")
    if local_epochs < 1 or batch_size < 1:
        raise ConfigurationError("local_epochs and batch_size must be >= 1")
    _check_compatible(spec, dataset, "training set")
    if test_set is not None:
        _check_compatible(spec, test_set, "test set")

    weights = init_weights(spec, derive_seed(master_seed, TAG_INIT))

    def evaluate(w: ModelWeights) -> FairnessReport | None:
        return evaluate_weights(spec, w, test_set) if test_set is not None else None

    start = time.perf_counter()
    history = [RoundSnapshot(0, evaluate(weights), None, time.perf_counter() - start)]
    for round_index in range(1, rounds + 1):
        start = time.perf_counter()
        rng = np.random.default_rng(shuffle_seed(master_seed, 0, round_index))
        state = fresh_state(optimizer, len(weights))
        loss_total = 0.0
        loss_batches = 0
        for _ in range(local_epochs):
            order = rng.permutation(len(dataset))
            for start_idx in range(0, len(dataset), batch_size):
                idx = order[start_idx : start_idx + batch_size]
                batch = Batch(
                    dataset.features[idx], dataset.labels[idx], dataset.groups[idx]
                )
                gradient, loss = backward(spec, weights, batch)
                weights, state = optimizer_step(state, weights, gradient)
                loss_total += loss
                loss_batches += 1
        due = round_index % eval_every == 0 or round_index == rounds
        history.append(
            RoundSnapshot(
                round_index,
                evaluate(weights) if due else None,
                loss_total / loss_batches,
                time.perf_counter() - start,
            )
        )
    return weights, history
