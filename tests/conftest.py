"""Pin BLAS to one thread for the whole suite, before numpy is imported.

With one BLAS thread per process the Monte Carlo experiments and the
parametric bootstrap may fan their work out over the usable CPUs
(``_fork.worker_count``), though most of the runs here are too small for
their first task's time to predict enough work to fork for; the
``fan_out`` fixture forces the fan-out where a test needs it.  With one
thread, OpenBLAS's idle threads no longer spin-wait against the test
process on a small machine.  ``setdefault`` leaves a setting made by the
caller in place; the seeded results are the same either way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from svyerr import _fork  # noqa: E402


@pytest.fixture
def fan_out(monkeypatch):
    """``fan_out(workers)`` forces the fan-out; it returns the list ``os.fork`` calls go into.

    It sets no minimum predicted time, so ``_fork.timed`` fans out
    whatever the first task took, over min(tasks left, ``workers``)
    processes (at least one), and empties the list of forks counted so far.
    """
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    monkeypatch.setattr(_fork, "_FORK_MIN_S", 0.0)

    def force(workers):
        monkeypatch.setattr(_fork, "worker_count", lambda tasks: max(1, min(tasks, workers)))
        forks.clear()
        return forks

    return force
