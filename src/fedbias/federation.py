"""Simulated federated training: broadcast, local epochs, weighted averaging.

One round is: the server sends the current global weights to every
client, each client runs E epochs of mini-batch training on its own
shard (optimizer moments start fresh each round), and the server
replaces the global weights with the sample-count-weighted mean of the
returned weights. Three modes share this loop:

- ``fedavg``: plain cross-entropy on a plain N-unit head.
- ``dbfed``: group-conditioned cross-entropy on the N*D-unit head, with
  group-marginalized prediction at evaluation time.
- ``local``: no aggregation; each client keeps training its own model,
  and evaluation averages the clients' individual reports.

The classifier spec's head decides the loss (``nn.backward``), so the
mode enters training only through ``run_federation``'s check that the
spec carries the mode's head.

Client k is the k-th partition. Clients never share mutable state, and
every shuffle is seeded by (master_seed, k, round), so a client's update
does not depend on which clients trained with it or before it. That lets
``train_clients`` run a chunk of clients in lockstep: each step is one
stacked backward pass and one optimizer update over the chunk's (K', P)
weight block, in buffers allocated once per run, and every client's
result is bit for bit what training it alone gives.
"""

from __future__ import annotations

import enum
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .exceptions import (
    ConfigurationError,
    DataFormatError,
    NumericError,
    ProtocolError,
    UndefinedMetricError,
)
from .head import predict_batch
from .metrics import FairnessReport, full_report, mean_reports, tally
from .metrics import records_from_arrays  # noqa: F401  (a span target of perfbench/tracing.py)
from .nn import (
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    OptimizerState,
    Workspace,
    backward,
    forward_batch,
    init_weights,
    num_params,
    optimizer_step,
)
from .seeding import TAG_INIT, derive_seed, shuffle_seed


class Mode(enum.Enum):
    FEDAVG_PLAIN = "fedavg"
    LOCAL_ONLY = "local"
    DBFED = "dbfed"


def head_mode_for(mode: Mode) -> HeadMode:
    return HeadMode.DOMAIN_INDEPENDENT if mode is Mode.DBFED else HeadMode.PLAIN


@dataclass(frozen=True)
class FederationConfig:
    """Run shape: R rounds, K clients, E local epochs per round."""

    rounds: int
    num_clients: int
    local_epochs: int
    batch_size: int
    optimizer: OptimizerConfig
    mode: Mode
    master_seed: int

    def __post_init__(self) -> None:
        # rounds = 0 is a valid no-op run that just reports the
        # initialized model.
        if self.rounds < 0:
            raise ConfigurationError("rounds must be >= 0")
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        if self.local_epochs < 1:
            raise ConfigurationError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


@dataclass(frozen=True)
class RoundSnapshot:
    """Per-round bookkeeping; ``report`` is filled on evaluation rounds."""

    round_index: int
    report: FairnessReport | None
    mean_train_loss: float | None
    duration_sec: float


@dataclass
class FederationResult:
    """``final_weights`` is the last global model; None in local mode,
    where each client's own model is in ``client_weights``."""

    mode: Mode
    spec: ClassifierSpec
    config: FederationConfig
    final_weights: ModelWeights | None
    client_weights: dict[int, ModelWeights]
    history: list[RoundSnapshot]

    @property
    def final_report(self) -> FairnessReport | None:
        for snap in reversed(self.history):
            if snap.report is not None:
                return snap.report
        return None


# A stacked step keeps each (K', P) array of its K' models at or under
# this many float64 values. The six Adam-sized arrays of a larger stack
# overflow a 2 MiB L2 cache, and past that point (the wide benchmark shape
# on a 2-core Xeon) stepping the models one at a time was faster.
STACK_VALUES = 2**15


def client_chunks(sizes: Sequence[int], num_values: int) -> list[list[int]]:
    """Client ids in the chunks that train as one stack.

    Clients with equal shard sizes share chunks, so every step of a chunk
    has one batch shape; each size class is split into the fewest
    balanced chunks of at most ``max(1, STACK_VALUES // num_values)``
    clients (50 clients at most 48 a chunk give 25 + 25).
    """
    cap = max(1, STACK_VALUES // num_values)
    by_size: dict[int, list[int]] = {}
    for k, size in enumerate(sizes):
        by_size.setdefault(size, []).append(k)
    chunks = []
    for ids in by_size.values():
        count = -(-len(ids) // cap)
        chunks.extend(part.tolist() for part in np.array_split(np.array(ids), count))
    return chunks


def train_clients(
    shards: Sequence[Dataset],
    incoming: Sequence[ModelWeights],
    spec: ClassifierSpec,
    optimizer: OptimizerConfig,
    epochs: int,
    batch_size: int,
    seeds: Sequence[int],
    workspace: Workspace | None = None,
) -> list[tuple[ModelWeights, float]]:
    """E full passes of K clients over their own shards, in lockstep.

    Client k starts from ``incoming[k]`` with zero optimizer moments, and
    one generator seeded by ``seeds[k]`` drives its every epoch's shuffle;
    the trailing partial batch is trained on. The shards must have equal
    lengths, so each step is one stacked ``backward`` and one stacked
    ``optimizer_step`` over the (K, P) block of client weights, with each
    client's rows gathered into the workspace. Returns each client's
    trained weights and mean loss over its batches, bit for bit what
    training that client alone gives.
    """
    if epochs < 1:
        raise ConfigurationError("epochs must be >= 1")
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    size = len(shards[0])
    if size == 0:
        raise ConfigurationError("cannot train on an empty dataset")
    if any(len(shard) != size for shard in shards):
        raise ConfigurationError("clients trained in one stack need equal shard sizes")
    k = len(shards)
    if len(incoming) != k or len(seeds) != k:
        raise ValueError("need one incoming model and one seed per client")
    ws = Workspace(spec, k, min(batch_size, size)) if workspace is None else workspace
    block = ws.view(ws.weights, k, len(incoming[0]))
    np.stack([w.values for w in incoming], out=block)
    weights = incoming[0].with_values(block)
    state = OptimizerState(
        optimizer,
        ws.view(ws.first_moment, *block.shape),
        ws.view(ws.second_moment, *block.shape),
    )
    state.first_moment.fill(0.0)
    state.second_moment.fill(0.0)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    loss_total = np.zeros(k)
    loss_batches = 0
    for _ in range(epochs):
        orders = [rng.permutation(size) for rng in rngs]
        for start in range(0, size, batch_size):
            batch = ws.batch(k, min(batch_size, size - start))
            for shard, order, x, y, g in zip(
                shards, orders, batch.features, batch.labels, batch.groups
            ):
                idx = order[start : start + len(batch)]
                shard.features.take(idx, axis=0, out=x, mode="clip")
                shard.labels.take(idx, out=y, mode="clip")
                shard.groups.take(idx, out=g, mode="clip")
            gradient, loss = backward(spec, weights, batch, ws)
            weights, state = optimizer_step(state, weights, gradient, ws)
            loss_total += loss
            loss_batches += 1
    mean_loss = loss_total / loss_batches
    return [(weights.with_values(block[i].copy()), float(mean_loss[i])) for i in range(k)]


def client_local_train(
    data: Dataset,
    incoming: ModelWeights,
    spec: ClassifierSpec,
    optimizer: OptimizerConfig,
    epochs: int,
    batch_size: int,
    seed: int,
) -> tuple[ModelWeights, float]:
    """E full passes over one client shard starting from ``incoming``:
    ``train_clients`` with a single client. Returns the trained weights and
    the mean loss over all batches; the call is a pure function of its
    arguments."""
    return train_clients([data], [incoming], spec, optimizer, epochs, batch_size, [seed])[0]


def fedavg_aggregate(
    contributions: Sequence[tuple[int, ModelWeights, int]],
) -> ModelWeights:
    """Sample-count-weighted mean of client weights.

    Contributions are (client_id, weights, sample_count) and are summed
    in ascending client_id order, so any arrival order gives the same
    bits. The mean is accumulated as offsets from the first client's
    weights and clamped to the componentwise client envelope: identical
    inputs pass through exactly, and no component can round outside
    [min_k, max_k].
    """
    if not contributions:
        raise ProtocolError("no client contributions to aggregate")
    ordered = sorted(contributions, key=lambda c: c[0])
    ids = [cid for cid, _, _ in ordered]
    if len(set(ids)) != len(ids):
        raise ProtocolError(f"duplicate client ids in aggregation: {ids}")
    base = ordered[0][1]
    for cid, w, n_k in ordered:
        if w.layout != base.layout:
            raise ProtocolError(f"client {cid} weight layout disagrees with client {ids[0]}")
        if n_k <= 0:
            raise ProtocolError(f"client {cid} reports a non-positive sample count")
    total = sum(n_k for _, _, n_k in ordered)
    stacked = np.stack([w.values for _, w, _ in ordered])
    coef = np.array([n_k / total for _, _, n_k in ordered])
    mixed = base.values + coef @ (stacked - base.values)
    np.clip(mixed, stacked.min(axis=0), stacked.max(axis=0), out=mixed)
    return base.with_values(mixed)


def predict_dataset(
    spec: ClassifierSpec, weights: ModelWeights, dataset: Dataset
) -> np.ndarray:
    """Predicted class per example; group-marginalized under the
    domain-independent head, plain argmax otherwise (a plain head is a
    one-group block). Non-finite logits raise ``NumericError``."""
    logits = forward_batch(spec, weights, dataset.features)
    return predict_batch(logits, spec.num_classes, spec.num_blocks)


def evaluate_weights(
    spec: ClassifierSpec, weights: ModelWeights, test_set: Dataset
) -> FairnessReport:
    predictions = predict_dataset(spec, weights, test_set)
    counts = tally(
        predictions, test_set.labels, test_set.groups, test_set.num_classes, test_set.num_groups
    )
    return full_report(counts)


_WRAPPABLE = (
    ConfigurationError,
    DataFormatError,
    ProtocolError,
    UndefinedMetricError,
    NumericError,
    ValueError,
    ArithmeticError,
)


@contextmanager
def _in_context(where: str):
    """Re-raise a library error with ``where`` (round, client, phase) prefixed."""
    try:
        yield
    except _WRAPPABLE as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _check_compatible(spec: ClassifierSpec, dataset: Dataset, what: str) -> None:
    if dataset.num_classes != spec.num_classes or dataset.num_groups != spec.num_groups:
        raise ConfigurationError(
            f"{what} has {dataset.num_classes} classes / {dataset.num_groups} groups, "
            f"model expects {spec.num_classes} / {spec.num_groups}"
        )
    if dataset.feature_dim != spec.input_dim:
        raise ConfigurationError(
            f"{what} has {dataset.feature_dim} features, model expects {spec.input_dim}"
        )


def round_workspace(
    config: FederationConfig, partitions: Sequence[Dataset], spec: ClassifierSpec
) -> Workspace:
    """A workspace that fits every chunk ``train_round`` trains."""
    sizes = [len(p) for p in partitions]
    chunks = client_chunks(sizes, num_params(spec))
    return Workspace(spec, max(map(len, chunks)), min(config.batch_size, max(sizes)))


def train_round(
    config: FederationConfig,
    partitions: Sequence[Dataset],
    spec: ClassifierSpec,
    incoming: Sequence[ModelWeights],
    round_index: int,
    workspace: Workspace | None = None,
) -> list[tuple[ModelWeights, float]]:
    """One round of local training for every client, chunk by chunk
    (``client_chunks``), as (weights, mean loss) in client order.

    Client k starts from ``incoming[k]`` and shuffles with
    ``shuffle_seed(master_seed, k, round_index)``. An error or a
    non-finite result names the round and the first client, in client
    order, that fails.
    """
    ws = round_workspace(config, partitions, spec) if workspace is None else workspace

    def train(ids: list[int]) -> list[tuple[ModelWeights, float]]:
        return train_clients(
            [partitions[k] for k in ids],
            [incoming[k] for k in ids],
            spec,
            config.optimizer,
            config.local_epochs,
            config.batch_size,
            [shuffle_seed(config.master_seed, k, round_index) for k in ids],
            ws,
        )

    results = {}
    for chunk in client_chunks([len(p) for p in partitions], num_params(spec)):
        try:
            results.update(zip(chunk, train(chunk)))
        except _WRAPPABLE:
            # A stacked step cannot tell which client failed: retrain the
            # chunk's clients one at a time to name the first that does.
            for k in chunk:
                with _in_context(f"round {round_index}, client {k}"):
                    train([k])
            raise
    ordered = [results[k] for k in range(len(partitions))]
    for k, (weights, loss) in enumerate(ordered):
        with _in_context(f"round {round_index}, client {k}"):
            if not (math.isfinite(loss) and np.isfinite(weights.values).all()):
                raise NumericError("local training produced non-finite weights or loss")
    return ordered


def run_federation(
    config: FederationConfig,
    partitions: Sequence[Dataset],
    spec: ClassifierSpec,
    test_set: Dataset | None = None,
    eval_every: int = 1,
) -> FederationResult:
    """The full R-round protocol. With a test set, the history carries a
    fairness report for round 0 (the shared initialization), every
    ``eval_every``-th round, and the final round."""
    if len(partitions) != config.num_clients:
        raise ConfigurationError(
            f"config expects {config.num_clients} clients but got {len(partitions)} partitions"
        )
    if eval_every < 1:
        raise ConfigurationError("eval_every must be >= 1")
    expected_head = head_mode_for(config.mode)
    if spec.head_mode is not expected_head:
        raise ConfigurationError(
            f"mode {config.mode.value} requires head_mode {expected_head.value}, "
            f"got {spec.head_mode.value}"
        )
    for k, part in enumerate(partitions):
        if len(part) == 0:
            raise ConfigurationError(f"client {k} has an empty dataset")
        _check_compatible(spec, part, f"client {k} partition")
    if test_set is not None:
        _check_compatible(spec, test_set, "test set")

    local_mode = config.mode is Mode.LOCAL_ONLY
    init = init_weights(spec, derive_seed(config.master_seed, TAG_INIT))
    local_weights = [init] * len(partitions)
    workspace = round_workspace(config, partitions, spec)

    def evaluate(round_index: int, global_weights: ModelWeights) -> FairnessReport | None:
        if test_set is None:
            return None
        if not local_mode:
            with _in_context(f"round {round_index}, evaluation"):
                return evaluate_weights(spec, global_weights, test_set)
        reports = []
        for k, weights in enumerate(local_weights):
            with _in_context(f"round {round_index}, client {k}, evaluation"):
                reports.append(evaluate_weights(spec, weights, test_set))
        return mean_reports(reports)

    start = time.perf_counter()
    global_weights = init
    history = [
        RoundSnapshot(0, evaluate(0, global_weights), None, time.perf_counter() - start)
    ]

    for round_index in range(1, config.rounds + 1):
        start = time.perf_counter()

        incoming = local_weights if local_mode else [global_weights] * len(partitions)
        results = train_round(config, partitions, spec, incoming, round_index, workspace)
        local_weights = [weights for weights, _ in results]
        losses = [loss for _, loss in results]

        if not local_mode:
            with _in_context(f"round {round_index}, aggregation"):
                global_weights = fedavg_aggregate(
                    [(k, local_weights[k], len(part)) for k, part in enumerate(partitions)]
                )

        due = round_index % eval_every == 0 or round_index == config.rounds
        report = evaluate(round_index, global_weights) if due else None
        mean_loss = sum(losses) / len(losses)
        history.append(
            RoundSnapshot(round_index, report, mean_loss, time.perf_counter() - start)
        )

    return FederationResult(
        mode=config.mode,
        spec=spec,
        config=config,
        final_weights=None if local_mode else global_weights,
        client_weights=dict(enumerate(local_weights)),
        history=history,
    )
