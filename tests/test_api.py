"""Public API: exported names resolve, the benchmark's traced functions exist,
and scipy loads only where a command needs it.

``perfbench/run.py --trace 1`` reports calls and self time per
``<module>.<function>`` span named in ``BENCHMARK.json``; a span whose
function was deleted or renamed would silently read zero.
"""

import csv
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svyerr

MODULES = ("families", "design", "fit", "penalty", "rules", "simulate", "cli")
# spans the tracer builds from something other than a public function:
# SurveyDesign.__post_init__, the closure knn_rule returns, and the
# families spans other than loss_q and natural_to_mean
SYNTHETIC_SPANS = {"design.survey_design", "rules.retrain", "families.other"}


def _benchmark_spans():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    spans = set()
    for metric in spec["per_layer"]:
        span, _, stat = metric["name"].rpartition(".")
        if stat in ("calls", "self_s"):
            spans.add(span)
    return sorted(spans - SYNTHETIC_SPANS)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_entries_resolve(name):
    mod = importlib.import_module(f"svyerr.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_package_exports_are_public_module_names():
    exported = {
        attr for attr, value in vars(svyerr).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    public = set().union(*(importlib.import_module(f"svyerr.{m}").__all__ for m in MODULES))
    assert exported - public == set()


def test_benchmark_spans_found():
    assert len(_benchmark_spans()) == 15


@pytest.mark.parametrize("span", _benchmark_spans())
def test_benchmark_span_is_public_function(span):
    module, _, attr = span.partition(".")
    assert module in MODULES
    mod = importlib.import_module(f"svyerr.{module}")
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn), f"{span} is not a function of svyerr.{module}"
    assert fn.__module__ == mod.__name__ and not attr.startswith("_")


# Runs each (name, argv) through cli.main in a fresh interpreter and prints
# the scipy modules loaded after ``import svyerr`` and after each command.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import svyerr
from svyerr import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

loaded = {"import": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded[name] = [cli.main(argv), scipy_modules()]
print(json.dumps(loaded))
"""


def test_scipy_loads_only_where_a_command_needs_it(tmp_path):
    # a fresh process, since the test session itself may hold scipy already;
    # asserts on the loaded modules, not on import time.  The bernoulli
    # scenarios draw outcomes through scipy.special.ndtr, and nothing in
    # svyerr reaches scipy.optimize
    rng = np.random.default_rng(4)
    n = 120
    x = rng.normal(size=n)
    columns = {
        "gauss": 1.0 + x + rng.normal(size=n),
        "bern": (rng.random(n) < 1.0 / (1.0 + np.exp(-x))).astype(float),
    }
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gauss", "bern", "x", "w"])
        writer.writerows(np.column_stack([columns["gauss"], columns["bern"], x,
                                          rng.uniform(1.0, 3.0, size=n)]).tolist())
    data = ["--data", str(path), "--covariates", "x", "--weights", "w", "--seed", "1"]
    commands = [
        ("fit_gaussian_analytic",
         ["fit", *data, "--outcome", "gauss", "--family", "gaussian", "--method", "hte-analytic"]),
        ("fit_bernoulli_bootstrap",
         ["fit", *data, "--outcome", "bern", "--family", "bernoulli", "--method", "hte-bootstrap",
          "--B", "10", "--interval-runs", "2"]),
        *((f"simulate_{scenario}", ["simulate", "--scenario", scenario, "--pop", "2000",
                                    "--n", "100", "--reps", "2", "--seed", "1"])
          for scenario in ("s1", "s2_bern")),
        ("knn", ["knn", *data, "--outcome", "bern", "--k", "5", "--B", "10"]),
    ]
    src = str(Path(svyerr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for name in ("import", "fit_gaussian_analytic", "fit_bernoulli_bootstrap", "simulate_s1"):
        assert loaded[name] == [0, []], name
    code, modules = loaded["simulate_s2_bern"]
    assert code == 0 and "scipy.special" in modules
    assert not [m for m in modules if m.startswith("scipy.optimize")]
    code, modules = loaded["knn"]
    assert code == 0 and "scipy.spatial" in modules and "scipy.sparse" in modules
