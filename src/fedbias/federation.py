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
mode enters training only through the runner's check that the spec
carries the mode's head.

Client k is the k-th partition. Clients never share mutable state, and
every shuffle is seeded by (master_seed, k, round), so a client's update
does not depend on which clients trained with it or before it. That lets
``train_clients`` run a chunk of clients in lockstep: each step is one
stacked backward pass and one optimizer update over the chunk's (K', P)
weight block, in buffers allocated once per run, and every client's
result is bit for bit what training it alone gives.

The same holds across federations. ``run_lockstep`` runs several
federations on one head (fedavg and local over the same shards, or one
mode at many master seeds) round by round: each round trains the clients
of all of them as one flat list through ``train_round``, then aggregates
and evaluates each federation on its own. Each result equals a run of
that federation alone, and ``run_federation`` is the one-federation case.
Errors name the federation by mode and master seed
(``"fedavg seed 3, round 2, client 1: ..."``, or ``"fedavg seed 3: ..."``
for the checks made before round 1).
"""

from __future__ import annotations

import enum
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    Workspace,
    _backward_core,
    _check_targets,
    _check_weights,
    _optimizer_core,
    forward_batch,
    init_weights,
    num_params,
)
from .nn import backward, optimizer_step  # noqa: F401  (span targets of perfbench/tracing.py)
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
    """Per-round bookkeeping; ``report`` is filled on evaluation rounds.

    ``duration_sec`` covers the round's training, which a lockstep run
    shares among its federations, plus this federation's own aggregation
    and evaluation.
    """

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
    lengths, so each step is one stacked backward pass and one stacked
    optimizer update over the (K, P) block of client weights, with each
    client's rows gathered into the workspace. Returns each client's
    trained weights and mean loss over its batches, bit for bit what
    training that client alone gives.

    The call checks once what ``backward`` checks at every call: the
    incoming layouts, that the workspace fits, and the shards' label (and
    under the grouped head, group) ranges, with ``backward``'s messages.
    The steps then run the in-place cores of ``backward`` and
    ``optimizer_step`` on the workspace plans of the full and the last
    batch, and on layer views of the weight block taken once.
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
    for weights in incoming:
        _check_weights(spec, weights)
    for shard in shards:
        _check_targets(spec, shard.labels, shard.groups)
    width = min(batch_size, size)
    ws = Workspace(spec, k, width) if workspace is None else workspace
    if ws.spec != spec:
        raise ValueError("workspace does not fit this spec, stack or batch")
    full = ws.plan(k, width)
    last = ws.plan(k, size % width) if size % width else full

    block = ws.view(ws.weights, k, len(incoming[0]))
    np.stack([w.values for w in incoming], out=block)
    weights = incoming[0].with_values(block)
    layers = weights.unflatten()
    first_moment = ws.view(ws.first_moment, *block.shape)
    second_moment = ws.view(ws.second_moment, *block.shape)
    first_moment.fill(0.0)
    second_moment.fill(0.0)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    loss_total = np.zeros(k)
    steps = 0
    for _ in range(epochs):
        orders = [rng.permutation(size) for rng in rngs]
        for start in range(0, size, batch_size):
            plan = full if start + width <= size else last
            for shard, order, (x, y, g) in zip(shards, orders, plan.clients):
                idx = order[start : start + plan.size]
                shard.features.take(idx, axis=0, out=x, mode="clip")
                shard.labels.take(idx, out=y, mode="clip")
                shard.groups.take(idx, out=g, mode="clip")
            loss_total += _backward_core(plan, layers, plan.features, plan.labels, plan.groups)
            steps += 1
            _optimizer_core(
                optimizer, steps, block, first_moment, second_moment, plan.gradient, plan.scratch
            )
    mean_loss = loss_total / steps
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


class Federation(NamedTuple):
    """One federation of a lockstep run: its run shape (with its own mode
    and master seed), its client shards and an optional test set."""

    config: FederationConfig
    partitions: Sequence[Dataset]
    test_set: Dataset | None = None


def _name(config: FederationConfig) -> str:
    return f"{config.mode.value} seed {config.master_seed}"


def _shared_config(federations: Sequence[Federation]) -> FederationConfig:
    """The first federation's config, once every federation is checked to
    share its rounds, local epochs, batch size and optimizer."""
    if not federations:
        raise ConfigurationError("a lockstep run needs at least one federation")
    first = federations[0].config
    shape = (first.rounds, first.local_epochs, first.batch_size, first.optimizer)
    for fed in federations[1:]:
        c = fed.config
        if (c.rounds, c.local_epochs, c.batch_size, c.optimizer) != shape:
            raise ConfigurationError(
                f"{_name(c)} differs from {_name(first)} in rounds, local epochs, "
                "batch size or optimizer; federations in one lockstep run must share them"
            )
    return first


def round_workspace(federations: Sequence[Federation], spec: ClassifierSpec) -> Workspace:
    """A workspace that fits every chunk ``train_round`` trains."""
    sizes = [len(p) for fed in federations for p in fed.partitions]
    chunks = client_chunks(sizes, num_params(spec))
    batch_size = _shared_config(federations).batch_size
    return Workspace(spec, max(map(len, chunks)), min(batch_size, max(sizes)))


def train_round(
    federations: Sequence[Federation],
    spec: ClassifierSpec,
    incoming: Sequence[Sequence[ModelWeights]],
    round_index: int,
    workspace: Workspace | None = None,
) -> list[list[tuple[ModelWeights, float]]]:
    """One round of local training for every client of every federation,
    as (weights, mean loss) per federation in client order.

    The (federation, client) pairs form one flat list that trains chunk
    by chunk (``client_chunks``). Client k of federation f starts from
    ``incoming[f][k]`` and shuffles with ``shuffle_seed(master_seed_f, k,
    round_index)``, so its result does not depend on the other clients
    in its chunk. An error or a non-finite result names the federation,
    the round and the first client that fails, in federation order, then
    client order.
    """
    config = _shared_config(federations)
    if [len(weights) for weights in incoming] != [len(fed.partitions) for fed in federations]:
        raise ValueError("need one incoming model per client of every federation")
    ws = round_workspace(federations, spec) if workspace is None else workspace
    # The flat list of clients: (federation, client id) and starting weights.
    owners = [(fed, k) for fed in federations for k in range(len(fed.partitions))]
    starts = [weights for per_fed in incoming for weights in per_fed]
    shards = [fed.partitions[k] for fed, k in owners]
    seeds = [shuffle_seed(fed.config.master_seed, k, round_index) for fed, k in owners]

    def train(ids: list[int]) -> list[tuple[ModelWeights, float]]:
        return train_clients(
            [shards[i] for i in ids],
            [starts[i] for i in ids],
            spec,
            config.optimizer,
            config.local_epochs,
            config.batch_size,
            [seeds[i] for i in ids],
            ws,
        )

    results: dict[int, tuple[ModelWeights, float]] = {}

    def checked(i: int) -> tuple[ModelWeights, float]:
        """Client i's result, trained alone if no chunk produced it, in
        the client's error context and checked for finiteness."""
        fed, k = owners[i]
        with _in_context(f"{_name(fed.config)}, round {round_index}, client {k}"):
            weights, loss = results[i] if i in results else train([i])[0]
            if not (math.isfinite(loss) and np.isfinite(weights.values).all()):
                raise NumericError("local training produced non-finite weights or loss")
        return weights, loss

    try:
        for chunk in client_chunks([len(shard) for shard in shards], num_params(spec)):
            results.update(zip(chunk, train(chunk)))
    except _WRAPPABLE:
        # A stacked step cannot tell which client failed: check the
        # trained clients and train the rest one at a time, in flat
        # order, to name the first that fails.
        for i in range(len(owners)):
            checked(i)
        raise
    flat = iter([checked(i) for i in range(len(owners))])
    return [[next(flat) for _ in fed.partitions] for fed in federations]


def _check_federation(fed: Federation, spec: ClassifierSpec) -> None:
    config, partitions = fed.config, fed.partitions
    if len(partitions) != config.num_clients:
        raise ConfigurationError(
            f"config expects {config.num_clients} clients but got {len(partitions)} partitions"
        )
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
    if fed.test_set is not None:
        _check_compatible(spec, fed.test_set, "test set")


def _evaluate(
    fed: Federation,
    spec: ClassifierSpec,
    round_index: int,
    global_weights: ModelWeights,
    local_weights: Sequence[ModelWeights],
) -> FairnessReport | None:
    """The federation's report: of the global model, or in local mode the
    mean of the clients' reports; None without a test set."""
    if fed.test_set is None:
        return None
    where = f"{_name(fed.config)}, round {round_index}"
    if fed.config.mode is not Mode.LOCAL_ONLY:
        with _in_context(f"{where}, evaluation"):
            return evaluate_weights(spec, global_weights, fed.test_set)
    reports = []
    for k, weights in enumerate(local_weights):
        with _in_context(f"{where}, client {k}, evaluation"):
            reports.append(evaluate_weights(spec, weights, fed.test_set))
    return mean_reports(reports)


def run_lockstep(
    federations: Sequence[Federation],
    spec: ClassifierSpec,
    eval_every: int = 1,
) -> list[FederationResult]:
    """The full R-round protocol for several federations on one head, one
    ``FederationResult`` each, in order.

    Each round trains every client of every federation through one
    ``train_round``; aggregation and evaluation then run per federation.
    The federations must share rounds, local epochs, batch size and
    optimizer; each keeps its own mode, master seed, partitions and test
    set, and its result is bit for bit the result of running it alone.
    With a test set, a history carries a fairness report for round 0
    (the shared initialization), every ``eval_every``-th round, and the
    final round.
    """
    config = _shared_config(federations)
    if eval_every < 1:
        raise ConfigurationError("eval_every must be >= 1")
    for fed in federations:
        with _in_context(_name(fed.config)):
            _check_federation(fed, spec)

    workspace = round_workspace(federations, spec)
    global_weights = [
        init_weights(spec, derive_seed(fed.config.master_seed, TAG_INIT)) for fed in federations
    ]
    local_weights = [[init] * len(fed.partitions) for fed, init in zip(federations, global_weights)]
    histories = []
    for f, fed in enumerate(federations):
        start = time.perf_counter()
        report = _evaluate(fed, spec, 0, global_weights[f], local_weights[f])
        histories.append([RoundSnapshot(0, report, None, time.perf_counter() - start)])

    for round_index in range(1, config.rounds + 1):
        start = time.perf_counter()
        incoming = [
            local_weights[f]
            if fed.config.mode is Mode.LOCAL_ONLY
            else [global_weights[f]] * len(fed.partitions)
            for f, fed in enumerate(federations)
        ]
        results = train_round(federations, spec, incoming, round_index, workspace)
        trained = time.perf_counter() - start

        for f, fed in enumerate(federations):
            start = time.perf_counter()
            local_weights[f] = [weights for weights, _ in results[f]]
            losses = [loss for _, loss in results[f]]
            if fed.config.mode is not Mode.LOCAL_ONLY:
                updates = local_weights[f]
                with _in_context(f"{_name(fed.config)}, round {round_index}, aggregation"):
                    global_weights[f] = fedavg_aggregate(
                        [(k, updates[k], len(p)) for k, p in enumerate(fed.partitions)]
                    )
            due = round_index % eval_every == 0 or round_index == config.rounds
            report = (
                _evaluate(fed, spec, round_index, global_weights[f], local_weights[f])
                if due
                else None
            )
            mean_loss = sum(losses) / len(losses)
            duration = trained + time.perf_counter() - start
            histories[f].append(RoundSnapshot(round_index, report, mean_loss, duration))

    return [
        FederationResult(
            mode=fed.config.mode,
            spec=spec,
            config=fed.config,
            final_weights=None if fed.config.mode is Mode.LOCAL_ONLY else global_weights[f],
            client_weights=dict(enumerate(local_weights[f])),
            history=histories[f],
        )
        for f, fed in enumerate(federations)
    ]


def run_federation(
    config: FederationConfig,
    partitions: Sequence[Dataset],
    spec: ClassifierSpec,
    test_set: Dataset | None = None,
    eval_every: int = 1,
) -> FederationResult:
    """The full R-round protocol for one federation: ``run_lockstep`` with
    a single federation."""
    return run_lockstep([Federation(config, partitions, test_set)], spec, eval_every)[0]
