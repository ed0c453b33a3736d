"""What a run was measured on, and how fast the host is while it runs.

The host's speed drifts between processes, so every run times the same
pure-Python loop and the same GEMM before and after its workload. The
probe is a diagnostic printed with the run; it is not a metric.

The host also drifts within a run, by up to half its speed over minutes,
as other tenants come and go. ``reference`` is a fixed task with the three
kinds of work fedbias does (small-array NumPy steps, 128-wide GEMMs and a
pure-Python tally); a run times it between its timed calls and scales each
call to the host speed at which the reference takes ``REFERENCE_S``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(root: Path) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(root),
    }


def probe() -> dict:
    """Seconds for a fixed pure-Python loop and five fixed 256x256 GEMMs."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    python_s = time.perf_counter() - start

    a = np.random.default_rng(0).standard_normal((256, 256))
    start = time.perf_counter()
    for _ in range(5):
        a @ a
    gemm_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "gemm_s": gemm_s}


# About the median time of the reference task on the 2-core Xeon VM the
# bounds were set on. Scaled timings read as seconds on that host at that speed.
REFERENCE_S = 0.030


def reference() -> float:
    """Seconds for one fixed reference task.

    Small-array training steps of a 8-16-2 MLP with a momentum update
    (NumPy dispatch, like the demo shape), steps of a 64-128-128-40 MLP on
    a batch of 128 (BLAS, like the wide shape) and a dict tally over
    tuples (pure Python, like metrics). The inputs are fixed, so every
    call does the same work.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((512, 8))
    y = rng.integers(0, 2, 512)
    w1 = rng.standard_normal((8, 16)) * 0.1
    w2 = rng.standard_normal((16, 2)) * 0.1
    m1, m2 = np.zeros_like(w1), np.zeros_like(w2)
    rows = np.arange(64)
    for step in range(240):
        lo = (step * 64) % 512
        xb, yb = x[lo:lo + 64], y[lo:lo + 64]
        h = np.maximum(xb @ w1, 0.0)
        z = h @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, yb] -= 1.0
        g2 = h.T @ p
        g1 = xb.T @ ((p @ w2.T) * (h > 0))
        for w, g, m in ((w1, g1, m1), (w2, g2, m2)):
            m *= 0.9
            m += 0.1 * g
            w -= 0.005 * m / (np.abs(m) + 1e-8)

    xw = rng.standard_normal((128, 64))
    a = rng.standard_normal((64, 128)) * 0.1
    b = rng.standard_normal((128, 128)) * 0.1
    c = rng.standard_normal((128, 40)) * 0.1
    for _ in range(18):
        h1 = np.maximum(xw @ a, 0.0)
        h2 = np.maximum(h1 @ b, 0.0)
        d3 = h2 @ c
        d2 = (d3 @ c.T) * (h2 > 0)
        d1 = (d2 @ b.T) * (h1 > 0)
        c -= 1e-4 * (h2.T @ d3)
        b -= 1e-4 * (h1.T @ d2)
        a -= 1e-4 * (xw.T @ d1)

    counts: dict = {}
    for i in range(37_500):
        key = (i % 7, i % 3)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start
