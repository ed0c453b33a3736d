"""Simulated federated training: broadcast, local epochs, weighted averaging.

One round is: the server sends the current global weights to every
client, each client runs E epochs of mini-batch training on its own
shard (optimizer moments start fresh each round), and the server
replaces the global weights with the sample-count-weighted mean of the
returned weights. Three modes share this loop, each one ``Mode`` row:
its head (which decides the loss in ``nn.backward``) and whether it
aggregates.

- ``fedavg``: plain cross-entropy on a plain N-unit head, aggregated.
- ``dbfed``: group-conditioned cross-entropy on the N*D-unit head, with
  group-marginalized prediction at evaluation time, aggregated.
- ``local``: the plain head, no aggregation; each client keeps training
  its own model, and evaluation averages the clients' individual reports.

``evaluate_weights`` scores every mode from stacks of (model, error
context) pairs: the global model as a stack of one, and a ``local``
federation's clients as a stack of K.

A federation's network is its first client's shape, the run's
``FederationConfig.hidden_widths`` and its mode's head.

Client k is the k-th partition, a read-only ``Dataset`` whose labels and
groups were range-checked when it was built, so no run scans them again.
Clients never share mutable state, and every shuffle is seeded by
(master_seed, k, round), so a client's update does not depend on which
clients trained with it or before it. That lets
``_train_chunk`` run a chunk of clients in lockstep, on both heads at
once: each step is one stacked backward pass, whose hidden layers and
loss serve the whole chunk and whose output layer runs once per head,
and one optimizer update over one flat vector of the chunk's
parameters. Every client's result is bit for bit what training it alone
gives.

The same holds across federations. ``run_lockstep`` runs federations of
any mode (fedavg, local and dbfed over the same shards, or one mode at
many master seeds) under one shared ``FederationConfig``, through one
loop over rounds 0 to R: round 0 only evaluates the initialization, and
from round 1 each round trains the clients of all of them as one flat
list through ``_train_round``, which draws each distinct shuffle once,
then aggregates each federation on its own. An evaluated round then scores
the federations that share a test set in one pass (``_evaluate_round``):
one ``evaluate_weights`` call forwards each federation's models as a
stack, tallies all their predictions once and scores them once, and
each federation's report is the mean of its own rows. Each result
equals a run of that federation alone, and ``run_federation`` is the
one-federation case. Errors name the federation by mode and master seed
(``"fedavg seed 3, round 2, client 1: ..."``, or ``"fedavg seed 3: ..."``
for the checks made before round 1).
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .data import Dataset
from .exceptions import ConfigurationError, NumericError, bounded, check_bound, check_bounds, refusal
from .head import predict_batch
from .metrics import FairnessReport, stack_reports, tally
# Bound here for perfbench's tracer, which wraps these span targets.
from .metrics import full_report, mean_reports, records_from_arrays  # noqa: F401
from .nn import (
    ClassifierSpec,
    HeadMode,
    ModelWeights,
    OptimizerConfig,
    StepPlan,
    _check_weights,
    _forward,
    _unflatten,
    backward,
    forward_batch,
    init_weights,
    num_params,
    optimizer_step,
    weight_layout,
)
from .seeding import MASTER_SEED, TAG_INIT, derive_seed, shuffle_seed


class Mode(enum.Enum):
    """A comparison arm: its name, its clients' head, and whether it aggregates."""

    head: HeadMode
    aggregates: bool

    FEDAVG_PLAIN = ("fedavg", HeadMode.PLAIN, True)
    LOCAL_ONLY = ("local", HeadMode.PLAIN, False)
    DBFED = ("dbfed", HeadMode.DOMAIN_INDEPENDENT, True)

    def __new__(cls, value: str, head: HeadMode, aggregates: bool) -> "Mode":
        member = object.__new__(cls)
        member._value_, member.head, member.aggregates = value, head, aggregates
        return member


@dataclass(frozen=True)
class FederationConfig:
    """The run shape every federation of a run shares: R rounds of E local
    epochs in batches of B under one optimizer on hidden layers of
    ``hidden_widths``, with a test-set evaluation every ``eval_every``-th round."""

    # rounds = 0 is a valid no-op run that just reports the initialized model.
    rounds: int = bounded(0)
    local_epochs: int = bounded(1)
    batch_size: int = bounded(1)
    optimizer: OptimizerConfig
    hidden_widths: tuple[int, ...]
    eval_every: int = bounded(1, default=1)

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(frozen=True)
class RoundSnapshot:
    """Per-round bookkeeping; ``report`` is filled on evaluation rounds.

    ``duration_sec`` covers the round's training and evaluation, which a
    lockstep run shares among its federations (every head of the run
    trains in one pass, and every federation on a test set is scored in
    one pass), plus this federation's own aggregation. Round 0 trains
    and aggregates nothing, so its duration is its evaluation alone.
    """

    round_index: int
    report: FairnessReport | None
    mean_train_loss: float | None
    duration_sec: float


@dataclass
class FederationResult:
    """``final_weights`` is the last global model; None for a mode that does
    not aggregate, whose clients' own models are in ``client_weights``."""

    final_weights: ModelWeights | None
    client_weights: dict[int, ModelWeights]
    history: list[RoundSnapshot]

    @property
    def final_report(self) -> FairnessReport | None:
        """The last round's report: the final round is always evaluated."""
        return self.history[-1].report


# A stacked step keeps the parameters of its K' models at or under this
# many float64 values. The six Adam-sized arrays of a larger stack
# overflow a 2 MiB L2 cache, and past that point (the wide benchmark shape
# on a 2-core Xeon) stepping the models one at a time was faster. A
# stacked evaluation forward keeps each layer's activations, n test rows
# by the widest layer per model, to the same bound: at 50 clients on a
# 2000-row test set (K' = 1 there) the model-by-model loop was faster.
STACK_VALUES = 2**15


def client_chunks(specs: Sequence[ClassifierSpec], sizes: Sequence[int]) -> list[list[int]]:
    """Client ids in the chunks that train as one stack, client k on
    network ``specs[k]`` with a shard of ``sizes[k]`` examples.

    Every chunk has one shard size, so each of its steps has one batch
    shape. The clients of one network and size are split into the fewest
    balanced chunks of at most ``max(1, STACK_VALUES // P)`` clients, P
    the network's parameter count (50 clients at most 48 a chunk give
    25 + 25). Each such chunk then joins the first earlier chunk of its
    size whose networks differ from its own only in the output layer, if
    their parameters together stay within ``STACK_VALUES`` values; so 10
    plain-head clients of 178 parameters and 5 grouped-head clients of 212
    train as one chunk, with the plain head's clients first. Parts are
    placed by size, then take their clients in chunk order.
    """
    by_kind: dict[tuple[ClassifierSpec, int], list[int]] = {}
    for k, kind in enumerate(zip(specs, sizes)):
        by_kind.setdefault(kind, []).append(k)
    # [what the chunk's networks and shards share, its parameter values, its clients]
    chunks: list[list] = []
    for (spec, size), ids in by_kind.items():
        body = (spec.layer_dims[:-1], spec.num_classes, size)
        values = num_params(spec)
        count = -(-len(ids) // max(1, STACK_VALUES // values))
        placed = []  # (chunk index, part length); a later part may land earlier
        for length in map(len, np.array_split(ids, count)):
            cost = values * length
            fits = (i for i, c in enumerate(chunks) if c[0] == body and c[1] + cost <= STACK_VALUES)
            host = next(fits, len(chunks))
            if host == len(chunks):
                chunks.append([body, 0, []])
            chunks[host][1] += cost
            placed.append((host, length))
        for host, length in sorted(placed):
            chunks[host][2] += ids[:length]
            ids = ids[length:]
    return [ids for _, _, ids in chunks]


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


def _train_chunk(
    shards: Sequence[Dataset],
    incoming: Sequence[ModelWeights],
    specs: Sequence[ClassifierSpec],
    optimizer: OptimizerConfig,
    batch_size: int,
    orders: Sequence[Sequence[np.ndarray]],
) -> tuple[list[np.ndarray], np.ndarray]:
    """E full passes of K clients over their own shards, in lockstep.

    Client k trains network ``specs[k]`` from ``incoming[k]`` with zero
    optimizer moments and visits its shard in ``orders[k][e]`` in epoch
    e, the trailing partial batch included. A head is a run of consecutive
    clients on one network. Each step is one stacked backward pass (the
    hidden layers and the loss once for all K clients, the output layer
    once per head) and one optimizer update over one flat vector of all
    their parameters (``StepPlan``). Returns one (K_h, P_h) array of weight
    rows per head, in client order, and the (K,) mean losses; every client's
    row and loss are bit for bit what training it alone gives.

    Nothing is checked here. ``client_local_train`` checks its one client;
    in a run, ``client_chunks`` gives each chunk one shard length and one
    hidden body, ``FederationConfig`` bounds E and B, ``_train_round`` draws
    each order as a permutation of its shard, ``_check_federation`` fits
    each shard to its network before round 1, and ``run_lockstep`` makes
    every incoming model in its network's layout. A ``Dataset`` checked
    its targets when it was built; ``_train_round`` checks the results.
    """
    epochs, size = len(orders[0]), len(shards[0])
    heads = [(spec, len(list(run))) for spec, run in itertools.groupby(specs)]
    width = min(batch_size, size)
    full = StepPlan(heads, width)
    last = StepPlan(heads, size % width) if size % width else full

    values = full.pack([w.values for w in incoming])
    layers = full.layers(values)
    first_moment, second_moment = np.zeros_like(values), np.zeros_like(values)
    loss_total = np.zeros(len(shards))
    steps = 0
    for epoch in range(epochs):
        for start in range(0, size, batch_size):
            plan = full if start + width <= size else last
            for shard, own, (x, y, g) in zip(shards, orders, plan.clients):
                idx = own[epoch][start : start + plan.size]
                shard.features.take(idx, axis=0, out=x, mode="clip")
                shard.labels.take(idx, out=y, mode="clip")
                shard.groups.take(idx, out=g, mode="clip")
            loss_total += backward(plan, layers)
            steps += 1
            optimizer_step(
                optimizer, steps, values, first_moment, second_moment, plan.gradient, plan.scratch
            )
    return full.unpack(values), loss_total / steps


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
    ``_train_chunk`` with a single client, after checking its epochs,
    batch size, shard and weight layout against ``spec``. The E epoch
    orders are drawn in turn from one generator seeded by ``seed``.
    Returns the trained weights and the mean loss over all batches; the
    call is a pure function of its arguments."""
    declared = {f.name: f.metadata.get("bound") for f in fields(FederationConfig)}
    check_bound("epochs", declared["local_epochs"], epochs)
    check_bound("batch_size", declared["batch_size"], batch_size)
    if len(data) == 0:
        raise ConfigurationError("cannot train on an empty dataset")
    _check_weights(spec, incoming)
    _check_compatible(spec, data, "shard 0")
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(len(data)) for _ in range(epochs)]
    [trained], losses = _train_chunk([data], [incoming], [spec], optimizer, batch_size, [orders])
    return incoming.with_values(trained[0]), float(losses[0])


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
        raise ValueError("no client contributions to aggregate")
    ordered = sorted(contributions, key=lambda c: c[0])
    ids = [cid for cid, _, _ in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids in aggregation: {ids}")
    base = ordered[0][1]
    for cid, w, n_k in ordered:
        if w.layout != base.layout:
            raise ValueError(f"client {cid} weight layout disagrees with client {ids[0]}")
        if n_k <= 0:
            raise ValueError(f"client {cid} reports a non-positive sample count")
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


# Every library error subclasses one of these.
_WRAPPABLE = (ValueError, ArithmeticError)


@contextmanager
def _in_context(where: str):
    """Re-raise a library error with ``where`` (round, client, phase) prefixed."""
    try:
        yield
    except _WRAPPABLE as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _predict_stack(
    spec: ClassifierSpec,
    models: Sequence[tuple[ModelWeights, str]],
    test_set: Dataset,
    out: np.ndarray,
) -> None:
    """Writes the (K, n) predictions of K (weights, context) pairs on
    network ``spec`` to ``out``, row k bit for bit ``predict_dataset`` of
    model k, whose errors are prefixed with its context.

    A model that is the previous model's weights object (at round 0 every
    ``local`` client holds the initialization) reuses its predictions.
    The others go in order in chunks of ``max(1, STACK_VALUES // (n * W))``
    models (the last may be smaller), W the widest layer: a chunk of one
    through ``predict_dataset``, a larger one through one stacked forward
    (one BLAS call per model and layer, as alone) whose logits go through
    one ``predict_batch`` call, which predicts each row as it would alone.
    Layouts and the feature width are taken as checked."""
    weights, where = zip(*models)
    fresh = [k for k, w in enumerate(weights) if not k or w is not weights[k - 1]]
    per_chunk = max(1, STACK_VALUES // (max(len(test_set), 1) * max(spec.layer_dims[1:])))
    for start in range(0, len(fresh), per_chunk):
        chunk = fresh[start : start + per_chunk]
        if len(chunk) == 1:
            with _in_context(where[chunk[0]]):
                out[chunk[0]] = predict_dataset(spec, weights[chunk[0]], test_set)
            continue
        with _in_context(where[chunk[0]]):
            stack = np.stack([weights[k].values for k in chunk])
            logits = _forward(_unflatten(stack, weight_layout(spec)), test_set.features)[-1]
        if np.isfinite(logits).all():
            # Non-finite logits are left to the model-by-model calls
            # below, which name their model.
            rows = logits.reshape(-1, spec.output_dim)
            predicted = predict_batch(rows, spec.num_classes, spec.num_blocks)
            out[chunk] = predicted.reshape(logits.shape[:-1])
            continue
        for k, rows in zip(chunk, logits):
            with _in_context(where[k]):
                out[k] = predict_batch(rows, spec.num_classes, spec.num_blocks)
    for k in range(1, len(weights)):
        if weights[k] is weights[k - 1]:
            out[k] = out[k - 1]


def evaluate_weights(
    stacks: Sequence[tuple[ClassifierSpec, Sequence[tuple[ModelWeights, str]]]],
    test_set: Dataset,
) -> list[FairnessReport]:
    """The reports of S stacks on one test set, stack s a network and its
    (weights, context) pairs: one model's own report, or the mean of K
    reports.

    Every stack is checked before anything is predicted: it holds at
    least one model, and each model's layout (and, at its first model,
    the test set's class and group counts and feature width) is checked
    in that model's context. Each stack is predicted by ``_predict_stack``;
    then the (M, n) predictions of all M models are tallied once and
    scored once (``stack_reports``). The stacks share the test set, so
    scoring fails for all or none (an empty test set), and its error takes
    the first model's context."""
    sizes = [len(models) for _, models in stacks]
    if not sizes or not all(sizes):
        raise ValueError(f"need at least one stack and one model per stack, got sizes {sizes}")
    for spec, models in stacks:
        for k, (weights, where) in enumerate(models):
            with _in_context(where):
                _check_weights(spec, weights)
                if not k:
                    _check_compatible(spec, test_set, "test set")
    predictions = np.empty((sum(sizes), len(test_set)), dtype=np.int64)
    for (spec, models), end in zip(stacks, itertools.accumulate(sizes)):
        _predict_stack(spec, models, test_set, predictions[end - len(models) : end])
    with _in_context(stacks[0][1][0][1]):
        labels, groups = test_set.labels, test_set.groups
        counts = tally(predictions, labels, groups, test_set.num_classes, test_set.num_groups)
        return stack_reports(counts, sizes)


class Federation(NamedTuple):
    """What one federation of a run holds on its own: its mode, its master
    seed, its client shards (client k is the k-th) and an optional test
    set. The run shape comes from the ``FederationConfig`` of the run."""

    mode: Mode
    master_seed: int
    partitions: Sequence[Dataset]
    test_set: Dataset | None = None


def _name(fed: Federation) -> str:
    return f"{fed.mode.value} seed {fed.master_seed}"


def _train_round(
    config: FederationConfig,
    federations: Sequence[Federation],
    specs: Sequence[ClassifierSpec],
    incoming: Sequence[Sequence[ModelWeights]],
    round_index: int,
) -> list[list[tuple[ModelWeights, float]]]:
    """One round of local training under ``config`` for every client of
    every federation f, on the network ``specs[f]`` that
    ``_check_federation`` returned, as (weights, mean loss) per federation
    in client order, each client's weights a copy of its trained row in
    the layout of its incoming model.

    The (federation, client) pairs form one flat list that trains chunk
    by chunk (``client_chunks``): a chunk holds clients of one shard
    size, on one head or on both, and each of its steps serves all of
    them. Client k of federation f starts from ``incoming[f][k]`` and
    shuffles with ``shuffle_seed(master_seed_f, k, round_index)``; that
    shuffle is drawn once for every client that shares its master seed,
    client id and shard size, and its result does not depend on the
    other clients in its chunk.

    Every chunk trains; then a non-finite weight or loss raises
    ``NumericError`` naming the federation, the round and the first such
    client, in federation order, then client order. ``run_lockstep`` has
    checked everything else before round 1, so an exception from inside
    a chunk (one a caller's ``np.seterr(all="raise")`` turns a warning
    into) propagates as it is.
    """
    # The flat list of clients: owners, starting weights, shards, epoch orders.
    owners = [(fed, k) for fed in federations for k in range(len(fed.partitions))]
    starts = [weights for per_fed in incoming for weights in per_fed]
    shards = [fed.partitions[k] for fed, k in owners]
    draws: dict[tuple[int, int, int], list[np.ndarray]] = {}
    orders = []
    for fed, k in owners:
        key = (fed.master_seed, k, len(fed.partitions[k]))
        if key not in draws:
            rng = np.random.default_rng(shuffle_seed(fed.master_seed, k, round_index))
            draws[key] = [rng.permutation(key[2]) for _ in range(config.local_epochs)]
        orders.append(draws[key])

    networks = [spec for fed, spec in zip(federations, specs) for _ in fed.partitions]
    results: dict[int, tuple[ModelWeights, float]] = {}
    finite = np.empty(len(owners), dtype=bool)
    for chunk in client_chunks(networks, [len(shard) for shard in shards]):
        trained, losses = _train_chunk(
            [shards[i] for i in chunk],
            [starts[i] for i in chunk],
            [networks[i] for i in chunk],
            config.optimizer,
            config.batch_size,
            [orders[i] for i in chunk],
        )
        rows_finite = [np.isfinite(stack).all(axis=1) for stack in trained]
        finite[chunk] = np.isfinite(losses) & np.concatenate(rows_finite)
        # Copied: a view would keep its head's whole array alive.
        rows = (row.copy() for stack in trained for row in stack)
        for i, row, loss in zip(chunk, rows, losses):
            results[i] = (starts[i].with_values(row), float(loss))
    if not finite.all():
        fed, k = owners[int(finite.argmin())]
        raise NumericError(
            f"{_name(fed)}, round {round_index}, client {k}: "
            "local training produced non-finite weights or loss"
        )
    flat = iter([results[i] for i in range(len(owners))])
    return [[next(flat) for _ in fed.partitions] for fed in federations]


def _check_federation(config: FederationConfig, fed: Federation) -> ClassifierSpec:
    """The network the federation trains: its first client's feature width,
    class and group counts, the run's hidden widths and its mode's head.
    Checks, before round 1, that every client and the test set fit it,
    each error naming the federation; equal class and group counts are all
    the targets need, since each ``Dataset`` checked its own ranges."""
    with _in_context(_name(fed)):
        reason = refusal(MASTER_SEED, fed.master_seed)
        if reason:
            raise ConfigurationError(f"run.master_seed {reason}, got {fed.master_seed}")
        if not fed.partitions:
            raise ConfigurationError("a federation needs at least one client")
        first, head = fed.partitions[0], fed.mode.head
        spec = ClassifierSpec(
            first.feature_dim, config.hidden_widths, first.num_classes, first.num_groups, head
        )
        for k, part in enumerate(fed.partitions):
            if len(part) == 0:
                raise ConfigurationError(f"client {k} has an empty dataset")
            _check_compatible(spec, part, f"client {k} partition")
        if fed.test_set is not None:
            _check_compatible(spec, fed.test_set, "test set")
    return spec


def _evaluate_round(
    federations: Sequence[Federation],
    specs: Sequence[ClassifierSpec],
    round_index: int,
    global_weights: Sequence[ModelWeights],
    local_weights: Sequence[Sequence[ModelWeights]],
) -> list[FairnessReport | None]:
    """Each federation's report of the round, None without a test set:
    one ``evaluate_weights`` call per test-set object, in the order the
    federations first name it, scores the stacks of every federation on
    it. A federation's stack is its global model, in context
    ``"<federation>, round r, evaluation"``, or for a mode that does not
    aggregate its clients' models, client k in context ``"<federation>,
    round r, client k, evaluation"``."""
    sharing: dict[int, list[int]] = {}
    for f, fed in enumerate(federations):
        if fed.test_set is not None:
            sharing.setdefault(id(fed.test_set), []).append(f)
    reports: list[FairnessReport | None] = [None] * len(federations)
    for members in sharing.values():
        stacks = []
        for f in members:
            at = f"{_name(federations[f])}, round {round_index}"
            if federations[f].mode.aggregates:
                models = [(global_weights[f], f"{at}, evaluation")]
            else:
                models = [(w, f"{at}, client {k}, evaluation") for k, w in enumerate(local_weights[f])]
            stacks.append((specs[f], models))
        scored = evaluate_weights(stacks, federations[members[0]].test_set)
        for f, report in zip(members, scored):
            reports[f] = report
    return reports


def run_lockstep(config: FederationConfig, federations: Sequence[Federation]) -> list[FederationResult]:
    """The full R-round protocol of ``config`` for federations of any mode,
    one ``FederationResult`` each, in order.

    Each federation trains and predicts on its own network: its first
    client's feature width, class and group counts, ``config``'s hidden
    widths and the head of its mode's row. Each federation and its
    clients are checked against that network once, in order, before
    round 1; a client's labels and groups need no check of their own,
    since its ``Dataset`` checked them when it was built. One loop runs
    rounds 0 to R and records each round's snapshot the same way. From
    round 1, a round trains every client of every federation through one
    ``_train_round``, which checks nothing again, then aggregates per
    federation; round 0 trains nothing. An evaluated round scores every
    federation through one ``_evaluate_round``. Each federation's result
    is bit for bit the result of running it alone.
    With a test set, a history carries a fairness report for round 0
    (the initialization), every ``eval_every``-th round, and the final
    round.
    """
    if not federations:
        raise ConfigurationError("a lockstep run needs at least one federation")
    specs = [_check_federation(config, fed) for fed in federations]

    global_weights = [
        init_weights(own, derive_seed(fed.master_seed, TAG_INIT))
        for fed, own in zip(federations, specs)
    ]
    local_weights = [[init] * len(fed.partitions) for fed, init in zip(federations, global_weights)]
    histories: list[list[RoundSnapshot]] = [[] for _ in federations]
    for round_index in range(config.rounds + 1):
        own = [0.0] * len(federations)  # each federation's aggregation time
        start = time.perf_counter()
        if round_index:
            incoming = [
                [global_weights[f]] * len(fed.partitions) if fed.mode.aggregates else local_weights[f]
                for f, fed in enumerate(federations)
            ]
            results = _train_round(config, federations, specs, incoming, round_index)
            for f, fed in enumerate(federations):
                begun = time.perf_counter()
                local_weights[f] = [weights for weights, _ in results[f]]
                if fed.mode.aggregates:
                    updates = local_weights[f]
                    with _in_context(f"{_name(fed)}, round {round_index}, aggregation"):
                        global_weights[f] = fedavg_aggregate(
                            [(k, updates[k], len(p)) for k, p in enumerate(fed.partitions)]
                        )
                own[f] = time.perf_counter() - begun
        reports = [None] * len(federations)
        if round_index % config.eval_every == 0 or round_index == config.rounds:
            reports = _evaluate_round(federations, specs, round_index, global_weights, local_weights)
        shared = time.perf_counter() - start - sum(own)
        for f, report in enumerate(reports):
            mean_loss = None
            if round_index:
                losses = [loss for _, loss in results[f]]
                # Added left to right: sum() compensates from Python 3.12 on.
                mean_loss = functools.reduce(operator.add, losses, 0.0) / len(losses)
            histories[f].append(RoundSnapshot(round_index, report, mean_loss, shared + own[f]))

    return [
        FederationResult(
            final_weights=global_weights[f] if fed.mode.aggregates else None,
            client_weights=dict(enumerate(local_weights[f])),
            history=histories[f],
        )
        for f, fed in enumerate(federations)
    ]


def run_federation(config: FederationConfig, federation: Federation) -> FederationResult:
    """The full R-round protocol for one federation: ``run_lockstep`` of one."""
    return run_lockstep(config, [federation])[0]
