"""Public API: exported names resolve, and the benchmark's traced functions exist.

``perfbench/run.py --trace 1`` reports calls and self time per
``<module>.<function>`` span named in ``BENCHMARK.json``; a span whose
function was deleted or renamed would silently read zero.
"""

import importlib
import inspect
import json
from pathlib import Path

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
