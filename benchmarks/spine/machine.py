"""The ``machine`` layer: calibration rows, peak memory, run fingerprint.

The calibration rows do fixed work that no change to the package can touch,
so their drift between the start and the end of an invocation measures the
machine (noisy neighbours, frequency changes), not the code.  A result set
whose calibration drifts more than :data:`DRIFT_LIMIT` is marked noisy, and
the rows let snapshots taken at different machine speeds be normalised.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import quantiles
from time import perf_counter, sleep

import numpy as np

__all__ = ["DRIFT_LIMIT", "calibrate", "drift", "peak_rss_mb", "fingerprint"]

DRIFT_LIMIT = 0.05

_rng = np.random.default_rng(20230515)
_TABLE = _rng.integers(0, 1024, size=(1024, 14)).astype(np.int32)
_CONFIG = _rng.integers(0, 4, size=1024).astype(np.int8)
_LIST = list(range(1000))


def _gather_ns() -> float:
    """ns per element of a fixed (1024, 14) int32 -> int8 gather."""
    t0 = perf_counter()
    for _ in range(50):
        _CONFIG[_TABLE]
    return (perf_counter() - t0) / (50 * _TABLE.size) * 1e9


def _pyloop_ns() -> float:
    """ns per iteration of a fixed pure-Python list index + add loop."""
    data = _LIST
    acc = 0
    t0 = perf_counter()
    for _ in range(5):
        for i in range(1000):
            acc += data[i]
    return (perf_counter() - t0) / 5000 * 1e9


def calibrate(repeats: int = 15) -> dict[str, float]:
    """Both calibration rows, timed ``repeats`` times over ~0.2 s.

    The lower quartile of the repeats is reported: a burst from a noisy
    neighbour lengthens some repeats, the fast quartile is the machine's
    own speed — which is what drifts when the result set is to be called
    noisy.
    """
    gather, pyloop = [], []
    for _ in range(repeats):
        gather.append(_gather_ns())
        pyloop.append(_pyloop_ns())
        sleep(0.01)
    return {"gather_ns": quantiles(gather, n=4)[0],
            "pyloop_ns": quantiles(pyloop, n=4)[0]}


def drift(start: dict[str, float], end: dict[str, float]) -> float:
    """Largest relative change of a calibration row across the invocation."""
    return max(abs(end[k] - start[k]) / start[k] for k in start)


def peak_rss_mb() -> float:
    """Peak resident set: this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: Path, **extra) -> dict:
    return {
        "commit": _commit(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **extra,
    }
