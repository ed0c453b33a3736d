"""Benchmark workloads: experiment configs, the CLI calls one pass makes,
and the work each pass does, computed from layer dims and shard sizes.

Every workload drives ``fedbias.cli.main`` the way a user's shell would.
The seed given to the benchmark becomes the run's master seed, so two runs
with one seed see identical data, shuffles and initial weights, while the
amount of work per pass depends only on the workload's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

# Passes run at this master seed have their output digests pinned in
# pinned_digests.json.
PINNED_SEED = 0

_BIASED_DATA = {
    "data.bias_strength": 0.8,
    "data.group_shift": 1.0,
    "data.noise_sigma": 1.4,
}

_DEMO = {
    "data.num_classes": 2,
    "data.num_groups": 2,
    "data.feature_dim": 8,
    "data.samples_per_group": 1000,
    **_BIASED_DATA,
    "model.hidden": "16",
    "federation.rounds": 30,
    "federation.clients": 5,
    "federation.local_epochs": 3,
    "federation.batch_size": 64,
    "optimizer.learning_rate": 0.005,
    "run.modes": "fedavg,local,dbfed",
    "run.eval_every": 1,
}

_WIDE = {
    "data.num_classes": 10,
    "data.num_groups": 4,
    "data.feature_dim": 64,
    "data.samples_per_group": 2000,
    **_BIASED_DATA,
    "model.hidden": "128,128",
    "federation.rounds": 20,
    "federation.clients": 5,
    "federation.local_epochs": 2,
    "federation.batch_size": 128,
    "optimizer.learning_rate": 0.005,
    "run.modes": "fedavg,dbfed",
    "run.eval_every": 5,
}

# many_clients_csv writes its data with generate-data and trains on the
# CSV, so the synthetic keys belong to the generator's config only.
_MANY_DATA = {
    "data.num_classes": 4,
    "data.num_groups": 4,
    "data.feature_dim": 16,
    "data.samples_per_group": 2500,
    **_BIASED_DATA,
}

_MANY_TRAIN = {
    "data.source": "csv",
    "data.num_classes": 4,
    "data.num_groups": 4,
    "model.hidden": "32",
    "federation.rounds": 15,
    "federation.clients": 50,
    "federation.local_epochs": 1,
    "federation.batch_size": 32,
    "optimizer.learning_rate": 0.005,
    "run.modes": "local,dbfed",
    "run.eval_every": 1,
}

# The self-test runs every workload at this size in about a second.
_TINY = {"data.samples_per_group": 100, "federation.rounds": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    train: dict
    seeds_per_pass: int = 1
    generate: dict | None = None
    # Whether untraced timings are scaled to the reference host speed (see
    # run.HostSpeed). Off where the program's speed does not follow the
    # reference task's.
    host_scaled: bool = True

    @property
    def reads_csv(self) -> bool:
        return self.generate is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo_sweep", _DEMO, seeds_per_pass=4),
        # BLAS-bound: its speed did not follow the reference task's, and
        # scaling widened its spread instead of narrowing it.
        Workload("wide", _WIDE, host_scaled=False),
        Workload("many_clients_csv", _MANY_TRAIN, generate=_MANY_DATA),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload shrunk to a few hundred examples and two rounds."""

    def shrink(keys: dict | None) -> dict | None:
        if keys is None:
            return None
        return {k: _TINY.get(k, v) for k, v in keys.items()}

    return replace(workload, train=shrink(workload.train), generate=shrink(workload.generate))


def _config_text(keys: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@dataclass(frozen=True)
class Files:
    """Where one run keeps its configs, data and results."""

    train_config: Path
    generate_config: Path | None
    csv: Path | None
    workdir: Path

    def results(self, index: int) -> Path:
        return self.workdir / f"results-{index}.jsonl"


def write_configs(workload: Workload, workdir: Path) -> Files:
    train = dict(workload.train)
    gen_path = csv_path = None
    if workload.reads_csv:
        csv_path = workdir / "data.csv"
        gen_path = workdir / "generate.cfg"
        gen_path.write_text(_config_text(workload.generate), encoding="utf-8")
        train["data.csv_path"] = str(csv_path)
    train_path = workdir / "train.cfg"
    train_path.write_text(_config_text(train), encoding="utf-8")
    return Files(train_path, gen_path, csv_path, workdir)


def generate_argv(files: Files, seed: int) -> list[str]:
    return ["generate-data", "--config", str(files.generate_config),
            "--out", str(files.csv), "--seed", str(seed)]


def train_argvs(workload: Workload, files: Files, seed: int) -> list[list[str]]:
    """The ``fedbias train`` calls of one pass, one per master seed."""
    return [
        ["train", "--config", str(files.train_config),
         "--out", str(files.results(i)), "--seed", str(seed + i)]
        for i in range(workload.seeds_per_pass)
    ]


@dataclass(frozen=True)
class Work:
    """Work per pass, exact from the config and the client shard sizes."""

    example_passes: int  # sum over seeds, modes and clients of R * E * shard size
    backward_gflop: float  # GEMM flops of nn.backward, 2 per multiply-add
    optimizer_mbytes: float  # Adam: reads w, g, m, v and writes w, m, v
    aggregate_mbytes: float  # reads K client vectors, writes one


def computed_work(workload: Workload, shard_sizes: list[int], feature_dim: int) -> Work:
    train = workload.train
    n_classes = int(train["data.num_classes"])
    n_groups = int(train["data.num_groups"])
    hidden = [int(w) for w in str(train["model.hidden"]).split(",")]
    rounds = int(train["federation.rounds"])
    epochs = int(train["federation.local_epochs"])
    batch = int(train["federation.batch_size"])
    modes = str(train["run.modes"]).split(",")
    seeds = workload.seeds_per_pass
    examples = sum(shard_sizes)
    steps_per_round = sum(epochs * -(-size // batch) for size in shard_sizes)

    flop = opt_bytes = agg_bytes = 0.0
    for mode in modes:
        out = n_classes * n_groups if mode == "dbfed" else n_classes
        dims = [feature_dim, *hidden, out]
        pairs = [a * b for a, b in zip(dims, dims[1:])]
        params = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
        # Forward and weight-gradient GEMMs on every layer, delta
        # propagation on all but the first; flops are linear in batch size,
        # so the ragged last batch needs no special case.
        per_example = 2 * (2 * sum(pairs) + sum(pairs[1:]))
        flop += per_example * examples * epochs * rounds
        opt_bytes += 7 * 8 * params * steps_per_round * rounds
        if mode != "local":
            agg_bytes += (len(shard_sizes) + 1) * 8 * params * rounds
    return Work(
        example_passes=seeds * len(modes) * rounds * epochs * examples,
        backward_gflop=seeds * flop / 1e9,
        optimizer_mbytes=seeds * opt_bytes / 1e6,
        aggregate_mbytes=seeds * agg_bytes / 1e6,
    )
