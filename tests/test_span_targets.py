"""The benchmark's span targets are bound where its tracer looks them up.

``perfbench/tracing.py`` wraps each target by reading
``owner.__dict__[attr]``, so an import that only the tracer uses (a
``# noqa: F401`` binding) breaks the benchmark when a refactor drops it.
This test catches that in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

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
