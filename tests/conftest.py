"""Pin BLAS to one thread for the whole suite, before numpy is imported.

With one BLAS thread per process the Monte Carlo experiments and the
parametric bootstrap may fan their work out over the usable CPUs
(``_fork.worker_count``; the bootstraps here are mostly too small to),
and OpenBLAS's idle threads no longer spin-wait against the test process
on a small machine.  ``setdefault`` leaves a setting made by the caller
in place; the seeded results are the same either way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
