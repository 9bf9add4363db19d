"""The benchmark's four workloads: seeded inputs, one job, and its output checks.

Each workload has three parts:

* ``prepare(seed, workdir, small)`` builds the job's inputs from the seed
  (arrays, or CSV files written under ``workdir``).  ``small`` gives a
  reduced instance of the same shape, used to warm up lazy imports and
  first-call costs without running a full job.
* ``job(inputs)`` is the timed unit of work: calls into ``svyerr`` only.
* ``check(inputs, output)`` validates the job's raw output (untimed) and
  returns it flattened to ``{key: float}`` for the identity and
  reference comparisons.  It raises :class:`CheckFailed` on a bad output.

Library functions are always reached through their module attribute
(``fit.fit_weighted_glm``), so the span tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from svyerr import cli, design, families, fit, penalty, simulate


class CheckFailed(Exception):
    """A job's output failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    job: Callable
    check: Callable
    # layers ("fit") or spans ("rules.knn_rule") whose self time this
    # workload was chosen to exercise
    target_spans: tuple[str, ...]


def _finite(out: dict) -> dict:
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        raise CheckFailed(f"non-finite output(s): {', '.join(bad)}")
    return out


def _write_csv(path: str, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(columns[c] for c in names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _run_cli(argv: list[str]) -> str:
    """Run ``svyerr`` in-process; return its stdout or raise on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"svyerr {argv[0]} exited with code {code}")
    return buf.getvalue()


# --------------------------------------------------------------------- #
# simulate: the optimism Monte Carlo (acceptance criteria 3-6 in small)
# --------------------------------------------------------------------- #

SIM_SCENARIOS = ("s1", "s3", "s2_bern", "s4b_gauss")


@dataclass(frozen=True)
class SimulateInputs:
    seed: int
    pop: int
    n: int
    reps: int


def simulate_prepare(seed: int, workdir: str, small: bool) -> SimulateInputs:
    if small:
        return SimulateInputs(seed=seed, pop=20_000, n=200, reps=2)
    return SimulateInputs(seed=seed, pop=100_000, n=1_000, reps=25)


def simulate_job(inp: SimulateInputs):
    return [
        simulate.run_optimism_experiment(
            simulate.ScenarioSpec(sc, pop_size=inp.pop, sample_size=inp.n),
            reps=inp.reps, seed=inp.seed,
        ).aggregates()
        for sc in SIM_SCENARIOS
    ]


def simulate_check(inp: SimulateInputs, aggs) -> dict:
    out = {}
    for sc, agg in zip(SIM_SCENARIOS, aggs):
        if agg["scenario"] != sc or agg["replicates"] != inp.reps:
            raise CheckFailed(f"{sc}: {agg['replicates']} of {inp.reps} replicates kept")
        for name in ("optimism", "omega_hat"):
            for stat, v in agg[name].items():
                out[f"{sc}.{name}.{stat}"] = v
        if not agg["omega_hat"]["mean"] > 0.0:
            raise CheckFailed(f"{sc}: non-positive mean omega_hat")
    return _finite(out)


# --------------------------------------------------------------------- #
# bootstrap: `svyerr fit --method hte-bootstrap` (criterion 9's shape)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CliInputs:
    argv: list
    out_path: str | None = None
    k_list: tuple = ()


def bootstrap_prepare(seed: int, workdir: str, small: bool) -> CliInputs:
    n, B, runs = (100, 2, 1) if small else (500, 200, 4)
    rng = np.random.default_rng([seed, 9])
    x = rng.normal(size=(n, 2))
    eta = -0.2 + 0.8 * x[:, 0] - 0.5 * x[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    w = 1.0 / rng.uniform(0.1, 1.0, size=n)
    path = os.path.join(workdir, f"bootstrap{'_small' if small else ''}.csv")
    _write_csv(path, {"y": y, "x1": x[:, 0], "x2": x[:, 1], "w": w})
    return CliInputs(argv=[
        "fit", "--data", path, "--outcome", "y", "--covariates", "x1", "x2",
        "--weights", "w", "--family", "bernoulli", "--method", "hte-bootstrap",
        "--B", str(B), "--interval-runs", str(runs), "--seed", str(seed),
    ])


def bootstrap_job(inp: CliInputs) -> str:
    return _run_cli(inp.argv)


def bootstrap_check(inp: CliInputs, stdout: str) -> dict:
    try:
        res = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"fit output is not JSON: {exc}") from exc
    B = int(inp.argv[inp.argv.index("--B") + 1])
    if res.get("method") != "bootstrap" or res.get("B") != B:
        raise CheckFailed(f"unexpected method/B in fit output: {res.get('method')}/{res.get('B')}")
    out = {f"theta.{i}": v for i, v in enumerate(res["theta"])}
    out.update({f"v_diagonal.{i}": v for i, v in enumerate(res["v_diagonal"])})
    for key in ("weighted_deviance", "err_weighted", "omega_hat", "err_hat", "phi_hat"):
        out[key] = res[key]
    for key, v in res["p_hat_bootstrap"].items():
        out[f"p_hat_bootstrap.{key}"] = v
    if not out["p_hat_bootstrap.q025"] <= out["p_hat_bootstrap.median"] <= out["p_hat_bootstrap.q975"]:
        raise CheckFailed("p_hat_bootstrap quantiles out of order")
    return _finite(out)


# --------------------------------------------------------------------- #
# knn: `svyerr knn` error table (criterion 11's shape)
# --------------------------------------------------------------------- #


def knn_prepare(seed: int, workdir: str, small: bool) -> CliInputs:
    n, k_list, B = (200, (10, 20), 2) if small else (2_000, (10, 20, 30, 40), 100)
    rng = np.random.default_rng([seed, 11])
    x = rng.normal(size=(n, 2))
    prob = 1.0 / (1.0 + np.exp(-0.3 * (0.2 + x[:, 0] + x[:, 1])))
    y = (rng.random(n) < prob).astype(float)
    w = 1.0 / rng.uniform(0.1, 1.0, size=n)
    tag = "_small" if small else ""
    path = os.path.join(workdir, f"knn{tag}.csv")
    out_path = os.path.join(workdir, f"knn{tag}_table.csv")
    _write_csv(path, {"y": y, "x1": x[:, 0], "x2": x[:, 1], "w": w})
    argv = [
        "knn", "--data", path, "--outcome", "y", "--covariates", "x1", "x2",
        "--weights", "w", "--k", *map(str, k_list), "--B", str(B),
        "--seed", str(seed), "--out-csv", out_path,
    ]
    return CliInputs(argv=argv, out_path=out_path, k_list=k_list)


def knn_job(inp: CliInputs) -> str:
    return _run_cli(inp.argv)


def knn_check(inp: CliInputs, stdout: str) -> dict:
    with open(inp.out_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ks = tuple(int(r["k"]) for r in rows)
    if ks != inp.k_list:
        raise CheckFailed(f"kNN table rows {ks}, expected {inp.k_list}")
    out = {}
    for r in rows:
        for col in ("err", "omega_half", "err_hat"):
            out[f"k{r['k']}.{col}"] = float(r[col])
        if not 0.0 <= out[f"k{r['k']}.err"] <= 1.0:
            raise CheckFailed(f"k={r['k']}: weighted 0-1 error outside [0, 1]")
    return _finite(out)


# --------------------------------------------------------------------- #
# clustered: stratified/PSU meat and phi-hat on one large fit
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClusteredInputs:
    X: np.ndarray
    y: np.ndarray
    pi: np.ndarray
    strata: np.ndarray
    psu: np.ndarray


def clustered_prepare(seed: int, workdir: str, small: bool) -> ClusteredInputs:
    n_strata, psu_per_stratum, psu_size = (5, 4, 10) if small else (50, 100, 20)
    n_psu = n_strata * psu_per_stratum
    n = n_psu * psu_size
    rng = np.random.default_rng([seed, 13])
    strata = np.repeat(np.arange(n_strata), psu_per_stratum * psu_size)
    psu = np.repeat(np.arange(n_psu), psu_size)  # globally unique labels
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
    effect = rng.normal(scale=0.5, size=n_psu)[psu]
    eta = X @ np.array([-0.5, 0.5, -0.3, 0.2]) + effect
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    pi = rng.uniform(0.02, 0.2, size=n_psu)[psu]
    return ClusteredInputs(X=X, y=y, pi=pi, strata=strata, psu=psu)


@contextlib.contextmanager
def _capture_calls(module, name: str):
    """Record (args, kwargs, result) of every call to ``module.name``."""
    inner = getattr(module, name)
    seen = []

    def tap(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append((args, kwargs, out))
        return out

    setattr(module, name, tap)
    try:
        yield seen
    finally:
        setattr(module, name, inner)


def clustered_job(inp: ClusteredInputs):
    d = design.SurveyDesign(pi=inp.pi, strata=inp.strata, psu=inp.psu)
    f = fit.fit_weighted_glm(inp.X, inp.y, families.Family(families.FamilyKind.BERNOULLI), d)
    with _capture_calls(design, "meat_stratified_cluster") as meats:
        report = penalty.hte_analytic(f, structure=design.MeatStructure.STRATIFIED_CLUSTER)
    rho, phi = penalty.estimate_dispersion(f)
    return f, report, rho, phi, meats


def oracle_meat(X, r, d) -> np.ndarray:
    """Stratified/PSU meat from O(n p) segment sums over (stratum, PSU) cells.

    Per cell c: raw score sum u_c = sum x_i w_i r_i and centred sum
    v_c = sum x_i w_i (r_i - mean_c r).  Each stratum h contributes
    sum_c u_c u_c' + s_h s_h' - sum_c v_c v_c' with s_h = sum_{c in h} v_c.
    Strata must hold at least two PSUs.
    """
    _, h = np.unique(d.strata, return_inverse=True)
    _, j = np.unique(d.psu, return_inverse=True)
    _, cell = np.unique(h * (j.max() + 1) + j, return_inverse=True)
    n_cells = int(cell.max()) + 1
    h_of_cell = np.empty(n_cells, dtype=np.int64)
    h_of_cell[cell] = h
    if np.any(np.bincount(h_of_cell) < 2):
        raise CheckFailed("oracle needs at least two PSUs per stratum")
    w = d.weights
    rbar = np.bincount(cell, r, n_cells) / np.bincount(cell, minlength=n_cells)
    raw = w * r
    cen = w * (r - rbar[cell])
    U = np.column_stack([np.bincount(cell, X[:, k] * raw, n_cells) for k in range(X.shape[1])])
    C = np.column_stack([np.bincount(cell, X[:, k] * cen, n_cells) for k in range(X.shape[1])])
    S = np.column_stack([np.bincount(h_of_cell, C[:, k]) for k in range(X.shape[1])])
    V = (U.T @ U + S.T @ S - C.T @ C) / d.pop_size**2
    return (V + V.T) / 2.0


MEAT_RTOL = 1e-10


def clustered_check(inp: ClusteredInputs, output) -> dict:
    f, report, rho, phi, meats = output
    if len(meats) != 1:
        raise CheckFailed(f"expected one stratified meat, saw {len(meats)}")
    (X, r, d), kwargs, meat = meats[0]
    if kwargs.get("center_diagonal") or kwargs.get("certainty_single_psu"):
        raise CheckFailed(f"unexpected meat options {kwargs}")
    ref = oracle_meat(np.asarray(X), np.asarray(r), d)
    M = np.asarray(getattr(meat, "matrix", meat))
    gap = float(np.max(np.abs(M - ref)) / np.max(np.abs(ref)))
    if not gap <= MEAT_RTOL:
        raise CheckFailed(f"stratified meat differs from the segment-sum oracle by {gap:.3e} (relative)")
    if not f.converged:
        raise CheckFailed("clustered fit did not converge")
    out = {f"theta.{i}": float(v) for i, v in enumerate(f.theta)}
    out.update(
        trace_JV=report.omega_hat / 2.0,
        daic=report.daic,
        err_weighted=report.err_weighted,
        rho_hat=rho,
        phi_hat=phi,
    )
    return _finite(out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate", simulate_prepare, simulate_job, simulate_check,
                 ("simulate.generate_population", "simulate.draw_sample")),
        Workload("bootstrap", bootstrap_prepare, bootstrap_job, bootstrap_check,
                 ("fit", "families")),
        Workload("knn", knn_prepare, knn_job, knn_check, ("rules.knn_rule",)),
        Workload("clustered", clustered_prepare, clustered_job, clustered_check,
                 ("design.meat_stratified_cluster",)),
    )
}
