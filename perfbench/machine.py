"""Thread pinning and the environment record attached to every result.

Import this module before numpy: ``pin_blas_threads`` only takes effect
when it runs before the BLAS library is loaded.
"""

from __future__ import annotations

import os
import platform

# One BLAS thread: the jobs are dominated by Python-level loops and small
# matrices, and a single thread keeps job times steady on a shared host.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine, library versions and run settings that produced a result."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }
