"""Train all three modes on one biased dataset and compare fairness metrics.

Modes: "fedavg" (plain head, federated averaging), "local" (plain head, no
communication; metrics averaged over client models), "dbfed" (group-sliced
head, federated averaging). Labels correlate with groups here, so the plain
head happily learns the shortcut; the grouped head has to explain each
group's labels with features alone.
"""
import statistics

from fedbias.config import parse_config
from fedbias.federation import Federation, Mode, run_lockstep
from fedbias.metrics import METRIC_NAMES

CONFIG = """
data.num_classes = 2
data.num_groups = 2
data.feature_dim = 8
data.samples_per_group = 1000
data.bias_strength = 0.8
data.group_shift = 1.0
data.noise_sigma = 1.4
model.hidden = 16
federation.rounds = 30
federation.clients = 5
federation.local_epochs = 3
federation.batch_size = 64
optimizer.learning_rate = 0.005
run.eval_every = 30
"""

SEEDS = range(5)

# Each seed draws its own data, split and client shards.
seeded = []
for master_seed in SEEDS:
    config = parse_config(CONFIG + f"run.master_seed = {master_seed}\n")
    dataset = config.load_dataset()
    seeded.append((master_seed, *config.split_and_partition(dataset)))

# The seeds share one run shape, so all (mode, seed) pairs train in one
# lockstep run, each mode on its own head.
MODES = (Mode.FEDAVG_PLAIN, Mode.LOCAL_ONLY, Mode.DBFED)
federations = [
    Federation(mode, master_seed, partitions, test_set)
    for mode in MODES
    for master_seed, partitions, test_set in seeded
]
results = iter(run_lockstep(config.federation_config(), federations))
rows = {}
for mode in MODES:
    finals = [next(results).final_report for _ in SEEDS]
    rows[mode.value] = {
        name: statistics.median(r.metric(name) for r in finals)
        for name in METRIC_NAMES
    }
    print(f"finished {mode.value} ({len(finals)} seeds)")

print(f"\nmedian test metrics over {len(list(SEEDS))} seeds"
      " (ACC higher is better, rest lower):")
header = ["mode"] + [n.upper() for n in METRIC_NAMES]
print("  " + "".join(h.ljust(9) for h in header))
for mode, metrics in rows.items():
    cells = [mode] + [f"{metrics[n]:.4f}" for n in METRIC_NAMES]
    print("  " + "".join(c.ljust(9) for c in cells))

dp_drop = rows["fedavg"]["dp"] - rows["dbfed"]["dp"]
acc_gap = rows["fedavg"]["acc"] - rows["dbfed"]["acc"]
print(f"\ngrouped head cuts DP by {dp_drop:.4f} and costs {acc_gap:.4f} accuracy")
