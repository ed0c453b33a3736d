"""Deterministic seed derivation.

Every source of randomness in an experiment (weight init, train/test
split, client partition, batch shuffles, data generation) draws from its own
integer seed derived from the master seed plus a purpose tag. Derived
seeds are stable across runs, platforms and process restarts, and
clients/rounds get independent streams, so one client's draws never
depend on how many draws another client made.
"""

from __future__ import annotations

import numpy as np

from .exceptions import bound

# NumPy seeds only from non-negative integers.
MASTER_SEED = bound(0)

# Purpose tags; distinct values keep the derived streams disjoint.
TAG_INIT = 1
TAG_SPLIT = 2
TAG_PARTITION = 3
TAG_SHUFFLE = 4
TAG_DATA = 5


def derive_seed(master_seed: int, *tags: int) -> int:
    """Mix a master seed and purpose tags into one well-spread integer seed."""
    state = np.random.SeedSequence((master_seed, *tags)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def shuffle_seed(master_seed: int, client_id: int, round_index: int) -> int:
    """Seed for a client's batch shuffling in one communication round."""
    return derive_seed(master_seed, TAG_SHUFFLE, client_id, round_index)
