"""The benchmark's workloads run end to end against the current package.

``perfbench/workloads.py`` reads parts of svyerr that nothing else in this
suite pins together: ``GlmFit.converged``, ``hte_analytic(structure=)``,
``estimate_dispersion``, the ``svyerr fit`` JSON's ``p_hat_bootstrap`` and
the ``svyerr knn`` table's ``omega_half``.  A reduced instance of each
workload (its ``small`` inputs) goes through prepare, job and check here,
so a change that breaks what the benchmark reads fails the suite.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


WORKLOADS = _load_workloads()


def test_workloads_are_the_benchmarks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(WORKLOADS) == [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_job_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.prepare(0, str(tmp_path), small=True)
    out = workload.check(inputs, workload.job(inputs))
    assert out and all(math.isfinite(v) for v in out.values())
