"""Span tracer that wraps svyerr's public functions from outside the package.

``Tracer.install`` replaces every public function defined in the seven
layer modules with a timing wrapper, in every namespace that binds it:
``from .fit import fit_weighted_glm`` gives ``penalty``, ``simulate``,
``cli`` and the package ``__init__`` their own names for one function,
and each is patched.  Two spans are not plain functions:
``design.survey_design`` wraps ``SurveyDesign.__post_init__`` (validation
and the PSU-nesting check), and ``rules.retrain`` wraps the closure that
``knn_rule`` returns.  ``uninstall`` restores the original bindings;
``with tracer:`` installs for the length of the block.

Spans are kept in memory (name, parent, job, start, end) and written out
by :meth:`Tracer.save`; calls and self time (duration minus time in child
spans) are also totalled per span name as the spans close.  Counts are
read from return values: ``GlmFit.iterations`` and ``PenaltyReport.B`` /
``dropped_replicates``.  Exceptions are counted per span and type.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("families", "design", "fit", "penalty", "rules", "simulate", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = -1
        self._stack: list[list] = []  # open spans: [child seconds, span index]
        self._restore: list[tuple] = []

    # ----------------------------------------------------------------- #

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after`` maps its result."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            frame = [0.0, idx]
            self.name_ids.append(nid)
            self.parents.append(stack[-1][1] if stack else -1)
            self.jobs.append(self.job)
            stack.append(frame)
            t0 = perf_counter()
            self.starts.append(t0)
            self.ends.append(t0)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.ends[idx] = t1
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
            return out if after is None else after(out)

        return traced

    # return-value hooks ---------------------------------------------- #

    def _after_fit(self, fit):
        self.counters["fit.irls_iterations"] += fit.iterations
        return fit

    def _after_bootstrap(self, report):
        self.counters["penalty.bootstrap_replicates"] += report.B
        self.counters["penalty.bootstrap_dropped"] += report.dropped_replicates
        return report

    def _after_knn_rule(self, rule):
        return self.wrap("rules.retrain", rule)

    # ----------------------------------------------------------------- #

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("svyerr")
        modules = {layer: importlib.import_module(f"svyerr.{layer}") for layer in LAYERS}
        hooks = {
            "fit.fit_weighted_glm": self._after_fit,
            "penalty.hte_bootstrap": self._after_bootstrap,
            "rules.knn_rule": self._after_knn_rule,
        }
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, hooks.get(name))
        # span names exist from install on, so unused ones report zero
        self._name_id("rules.retrain")
        for ns in (pkg, *modules.values()):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapped[value])
        cls = modules["design"].SurveyDesign
        post_init = cls.__dict__["__post_init__"]
        self._restore.append((cls, "__post_init__", post_init))
        cls.__post_init__ = self.wrap("design.survey_design", post_init)

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, value = self._restore.pop()
            setattr(ns, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------------- #

    def save(self, path: str, meta: dict) -> None:
        """Write every recorded span and the run's metadata to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            job=np.frombuffer(self.jobs, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )
