"""Record reference outputs of every workload for the reference seeds.

    python3 perfbench/record_reference.py

Runs one untraced job per workload and seed with the current code and
writes ``perfbench/reference.json``.  ``run.py`` compares each job on one
of these seeds against it (relative tolerance 1e-9).  Re-record only when
a change is meant to alter the outputs, and say so in its description.
"""

from __future__ import annotations

import machine

machine.pin_blas_threads()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    out_dir = HERE.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=out_dir)
    reference: dict = {}
    try:
        for name, wl in workloads.WORKLOADS.items():
            reference[name] = {}
            for seed in REFERENCE_SEEDS:
                inputs = wl.prepare(seed, workdir, small=False)
                reference[name][str(seed)] = wl.check(inputs, wl.job(inputs))
            print(f"{name}: {len(REFERENCE_SEEDS)} seeds", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
