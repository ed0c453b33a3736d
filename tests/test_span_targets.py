"""The benchmark's span targets are bound where its tracer looks them up.

``perfbench/tracing.py`` wraps each target by reading
``owner.__dict__[attr]``, so an import that only the tracer uses (a
``# noqa: F401`` binding) breaks the benchmark when a refactor drops it.
This test catches that in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import fedbias.federation as federation
from fedbias.data import Dataset
from fedbias.federation import Federation, FederationConfig, Mode, run_federation
from fedbias.nn import OptimizerConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for module_name, cls, attr, span in load_targets():
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        if not callable(owner.__dict__.get(attr)):
            where = f"{module_name}.{cls}" if cls else module_name
            missing.append(f"{span} ({where}.{attr})")
    assert missing == []


def test_training_steps_call_the_traced_step_functions(monkeypatch):
    # The tracer wraps the step functions where the chunk step looks them
    # up; a run that bypasses those names leaves their spans at 0 calls.
    calls = {"backward": 0, "optimizer_step": 0}
    for name in calls:
        original = getattr(federation, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(federation, name, counted)
    rng = np.random.default_rng(0)
    shards = [
        Dataset(rng.normal(size=(6, 2)), rng.integers(0, 2, 6), rng.integers(0, 2, 6), 2, 2)
        for _ in range(2)
    ]
    config = FederationConfig(2, 1, 4, OptimizerConfig(), ())
    run_federation(config, Federation(Mode.DBFED, 0, shards))
    # 2 rounds of 2 steps (a full batch of 4 and a last batch of 2).
    assert calls == {"backward": 4, "optimizer_step": 4}
