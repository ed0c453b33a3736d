"""Span tracing of fedbias from outside its source.

Each traced function is replaced, while tracing is on, at the attribute its
caller looks up (``fedbias.federation.backward``, not ``fedbias.nn.backward``),
so no source file changes. A span records its name, start, end, parent span
and the operation it belongs to. Spans stay in compact arrays in memory and
are written out once, when the run ends. Tracing assumes one thread, which
holds while ``federation.parallel_clients`` is off, as in every workload.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, class or None, attribute, span name). The span name is
# "<module that defines the function>.<function>".
TARGETS = (
    ("fedbias.cli", None, "main", "cli.main"),
    ("fedbias.cli", None, "load_config", "config.load_config"),
    ("fedbias.cli", None, "run_federation", "federation.run_federation"),
    ("fedbias.cli", None, "generate_synthetic", "data.generate_synthetic"),
    ("fedbias.cli", None, "save_csv", "data.save_csv"),
    # The benchmark's own set-up calls look these up in fedbias.config.
    ("fedbias.config", None, "load_config", "config.load_config"),
    ("fedbias.config", "ExperimentConfig", "load_dataset", "config.load_dataset"),
    ("fedbias.config", "ExperimentConfig", "split_and_partition", "config.split_and_partition"),
    ("fedbias.config", None, "generate_synthetic", "data.generate_synthetic"),
    ("fedbias.config", None, "load_csv", "data.load_csv"),
    ("fedbias.config", None, "train_test_split", "data.train_test_split"),
    ("fedbias.config", None, "partition", "data.partition"),
    ("fedbias.federation", None, "client_local_train", "federation.client_local_train"),
    ("fedbias.federation", None, "fedavg_aggregate", "federation.fedavg_aggregate"),
    ("fedbias.federation", None, "evaluate_weights", "federation.evaluate_weights"),
    ("fedbias.federation", None, "backward", "nn.backward"),
    ("fedbias.federation", None, "optimizer_step", "nn.optimizer_step"),
    ("fedbias.federation", None, "forward_batch", "nn.forward_batch"),
    ("fedbias.federation", None, "predict_batch", "head.predict_batch"),
    ("fedbias.federation", None, "records_from_arrays", "metrics.records_from_arrays"),
    ("fedbias.federation", None, "full_report", "metrics.full_report"),
    ("fedbias.federation", None, "mean_reports", "metrics.mean_reports"),
    ("fedbias.metrics", None, "tally", "metrics.tally"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in TARGETS))
MODULES = ("config", "data", "nn", "head", "federation", "metrics", "cli")


class Tracer:
    """Records spans of the TARGETS functions while ``active``.

    The benchmark groups its work into passes (one set-up, or one pass of
    ``fedbias train`` calls) and each pass into operations; every span is
    tagged with the operation it ran in.
    """

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")
        self._error = array("b")
        self._stack: list[int] = []
        self._op_pass: list[int] = []
        self._passes: list[tuple[str, float, float]] = []
        self._patches = []
        for module_name, cls, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            traced = self._wrap(original, self.names.index(span))
            self._patches.append((owner, attr, original, traced))

    def _wrap(self, fn, name_id: int):
        names, starts, ends = self._name, self._start, self._end
        parents, ops, errors, stack = self._parent, self._op, self._error, self._stack
        op_pass = self._op_pass
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(len(op_pass) - 1)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def timed_pass(self, kind: str):
        """Mark one pass; its wall time is what spans and remainder share."""
        index = len(self._passes)
        self._passes.append((kind, time.perf_counter(), 0.0))
        try:
            yield
        finally:
            self._passes[index] = (kind, self._passes[index][1], time.perf_counter())

    def next_op(self) -> None:
        """Start a new operation inside the latest pass. Operations started
        while tracing is off own no spans, so their entries go unread."""
        self._op_pass.append(len(self._passes) - 1)

    def summary(self, kind: str) -> dict | None:
        """Per-pass means over the passes of ``kind``; None if there are none.

        A span's self time is its duration minus its children's durations.
        Self times of all spans in a pass add up to the time of its root
        spans, and ``unattributed_s`` is the rest of the pass's wall time.
        """
        passes = [i for i, p in enumerate(self._passes) if p[0] == kind]
        count = len(passes)
        if not count:
            return None
        name = np.array(self._name, dtype=np.int64)
        start, end = np.array(self._start), np.array(self._end)
        parent = np.array(self._parent, dtype=np.int64)
        error = np.array(self._error, dtype=np.int64)
        span_pass = np.array(self._op_pass, dtype=np.int64)[np.array(self._op, dtype=np.int64)]
        duration = end - start
        nested = parent >= 0
        self_time = duration - np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        chosen = np.isin(span_pass, passes)
        k = len(self.names)

        def per_name(weights=None) -> np.ndarray:
            w = None if weights is None else weights[chosen]
            return np.bincount(name[chosen], weights=w, minlength=k) / count

        calls, self_s = per_name(), per_name(self_time)
        total_s, errors = per_name(duration), per_name(error)
        pass_s = sum(self._passes[i][2] - self._passes[i][1] for i in passes) / count
        root_s = duration[chosen & ~nested].sum() / count
        return {
            "passes": count,
            "pass_s": pass_s,
            "unattributed_s": pass_s - root_s,
            "spans": {
                n: {
                    "calls": float(calls[i]),
                    "self_s": float(self_s[i]),
                    "total_s": float(total_s[i]),
                    "errors": float(errors[i]),
                }
                for i, n in enumerate(self.names)
            },
        }

    def save(self, path: Path) -> None:
        """Write every span and pass to one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self._name, dtype=np.int64),
            start=np.array(self._start),
            end=np.array(self._end),
            parent=np.array(self._parent, dtype=np.int64),
            op=np.array(self._op, dtype=np.int64),
            error=np.array(self._error, dtype=np.int64),
            op_pass=np.array(self._op_pass, dtype=np.int64),
            pass_kind=np.array([p[0] for p in self._passes]),
            pass_start=np.array([p[1] for p in self._passes]),
            pass_end=np.array([p[2] for p in self._passes]),
        )


def module_self_times(spans: dict) -> dict[str, float]:
    """Self time per fedbias module, from a ``summary()['spans']`` table."""
    totals = dict.fromkeys(MODULES, 0.0)
    for span, row in spans.items():
        totals[span.split(".", 1)[0]] += row["self_s"]
    return totals
