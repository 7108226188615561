"""Per-run provenance, kept out of the metrics.

Host facts and a fixed pure-Python calibration loop are recorded next
to every run's results, so a later comparison can tell a host change
from a regression.  None of them is a metric.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import time
from typing import Dict, Optional

#: Iterations of the calibration loop (about 0.1 s on a 2-CPU Xeon).
CALIBRATION_ITERATIONS = 1_000_000
CALIBRATION_REPEATS = 3


def _calibration_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def calibration_seconds() -> float:
    """Median time of the fixed loop over a few repeats."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        _calibration_loop(CALIBRATION_ITERATIONS)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(repro_env: Dict[str, str]) -> dict:
    """What ran where; ``repro_env`` is the caller's ``REPRO_*`` variables."""
    from repro.harness.parallel import shm_available

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "shm_available": shm_available(),
        "repro_env": dict(repro_env),
        "calibration_s": calibration_seconds(),
        "calibration_iterations": CALIBRATION_ITERATIONS,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
