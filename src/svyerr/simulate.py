"""Monte Carlo studies of the HT-weighted covariance penalty.

Generates finite populations under the eight benchmark scenarios, draws
fixed-size PPS samples without replacement, and runs the optimism and
HTE-versus-naive-AIC experiments with per-replicate seed streams so the
results are reproducible regardless of execution order.  The replicates
run on forked workers where the first one's measured time says that
pays (``_map_replicates``, through ``svyerr._fork.timed``, the rule the
parametric bootstrap also uses), and each chunk of them reuses one
:class:`Workspace` of population-sized arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _fork
from . import families as fam
from . import penalty as pen
from .design import SurveyDesign
from .families import Family, FamilyKind, Loss, LossKind
from .fit import FitError, fit_weighted_glm

__all__ = [
    "ScenarioSpec",
    "ExperimentSummary",
    "CaseControlSpec",
    "SCENARIO_IDS",
    "Workspace",
    "generate_population",
    "draw_sample",
    "run_optimism_experiment",
    "run_relative_error_experiment",
]

SCENARIO_IDS = (
    "s1",
    "s2_gauss",
    "s2_bern",
    "s3",
    "s4a_gauss",
    "s4a_bern",
    "s4b_gauss",
    "s4b_bern",
)

RECORD_FIELDS = ("Err", "err", "optimism", "omega_hat", "err_hat", "aic_naive")


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark data-generation scheme."""

    id: str
    pop_size: int = 100_000
    sample_size: int = 1_000

    def __post_init__(self) -> None:
        if self.id not in SCENARIO_IDS:
            raise ValueError(f"unknown scenario {self.id!r}")
        if self.sample_size < 3:  # the [1, x] fit needs more rows than parameters
            raise ValueError(f"sample size must be at least 3, got {self.sample_size}")
        if not self.sample_size < self.pop_size:
            raise ValueError("sample size must be below the population size")

    @property
    def family(self) -> Family:
        if self.id.endswith("_bern"):
            return Family(FamilyKind.BERNOULLI)
        return Family(FamilyKind.GAUSSIAN)


@dataclass
class ExperimentSummary:
    """Per-replicate records plus the headline aggregates."""

    scenario: str
    records: list[dict] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.records])

    def aggregates(self) -> dict:
        out: dict = {"scenario": self.scenario, "replicates": len(self.records)}
        for name in ("optimism", "omega_hat"):
            col = self.column(name)
            out[name] = {
                "mean": float(col.mean()),
                "median": float(np.median(col)),
                "q025": float(np.quantile(col, 0.025)),
                "q975": float(np.quantile(col, 0.975)),
            }
        return out


@dataclass(frozen=True)
class CaseControlSpec:
    """High-risk oversampling scheme for the HTE-versus-AIC comparison."""

    prevalence: float = 1.0 / 200.0
    case_fraction: float = 0.20
    sample_size: int = 1_000

    def __post_init__(self) -> None:
        for v in (self.prevalence, self.case_fraction):
            if not 0.0 < v < 1.0:
                raise ValueError("fractions must lie in (0, 1)")


class Workspace:
    """Population-sized arrays that a run of replicates reuses.

    ``generate_population`` and ``draw_sample`` fill the workspace passed
    as ``out`` instead of allocating; the arrays they return are views of
    it, valid until its next use.  ``array(name, N)`` is the length-N
    array called ``name``, made on first use and again only when N
    changes; "log_index" is made filled with the index-driven size
    measure log(i+1), i = 1..N.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, N: int) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None or len(a) != N:
            a = np.log(np.arange(1, N + 1) + 1.0) if name == "log_index" else np.empty(N)
            self._arrays[name] = a
        return a


def generate_population(
    spec: ScenarioSpec, seed, *, out: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (X_N, y_N, raw size measure) for one scenario.

    The gaussian noise scale is read as a standard deviation (|X| or
    log(i+1)); index-driven size measures use log(i+1) so the first unit
    keeps a positive inclusion probability.  The inverse-|X| size measure
    is capped at its 99.9th percentile so one near-zero draw cannot
    absorb the whole sample.  With ``out`` the three arrays are views of
    its "x", "y" and "size" (or "log_index") arrays, and its "p" array is
    scratch; without it they are new.
    """
    ws = Workspace() if out is None else out
    rng = np.random.default_rng(seed)
    N = spec.pop_size
    sid = spec.id
    x = rng.standard_normal(out=ws.array("x", N))
    y = ws.array("y", N)
    # log(i+1): the s3 noise scale and the index-driven size measure
    by_index = sid in ("s1", "s2_gauss", "s2_bern", "s3")
    size = ws.array("log_index" if by_index else "size", N)
    if sid.endswith("_bern"):
        from scipy import special

        rng.random(out=y)
        np.less(y, special.ndtr(x, out=ws.array("p", N)), out=y)
    else:
        rng.standard_normal(out=y)
        if sid == "s3":
            y *= size
        elif sid != "s1":  # s2_gauss, s4a_gauss, s4b_gauss
            y *= np.abs(x, out=ws.array("p", N))
        y += x
    if sid.startswith("s4a"):
        np.maximum(np.abs(x, out=size), 1e-12, out=size)
    elif sid.startswith("s4b"):
        np.divide(1.0, np.maximum(np.abs(x, out=size), 1e-300, out=size), out=size)
        tmp = ws.array("p", N)
        np.copyto(tmp, size)  # the quantile partitions tmp in place; size keeps its order
        np.minimum(size, np.quantile(tmp, 0.999, overwrite_input=True), out=size)
    return x, y, size


def draw_sample(
    population: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, seed,
    *, out: Workspace | None = None,
) -> tuple[np.ndarray, SurveyDesign]:
    """Fixed-size PPS draw without replacement; returns selected indices and their design.

    With p = m / sum m for the size measure m, the draw runs in rounds:
    each draws one uniform per unit still to be chosen, maps it through
    the cumulative sum of p with the units chosen so far set to zero,
    and keeps the first occurrence of each unit, until n units are
    chosen.  These are the rounds of numpy's ``Generator.choice(N, n,
    replace=False, p=p)``, and a seed gives the same indices.  The
    sample is weighted by the nominal pi = min(1, n m / sum m), as common
    survey software does; under very skewed size measures the nominal pi
    can differ materially from the realized inclusion frequencies.

    m must be finite and non-negative, with at least n positive entries
    (``ValueError`` otherwise).  With ``out``, p and the cumulative sums
    are formed in its "p" and "cdf" arrays.
    """
    m = np.asarray(population[2], dtype=float)
    N = len(m)
    total = m.sum()
    if not np.isfinite(total):
        raise ValueError("size measure must be finite, and so must its sum")
    if m.min(initial=0.0) < 0.0:
        raise ValueError("size measure must be non-negative")
    ws = Workspace() if out is None else out
    p = ws.array("p", N)
    if not (total > 0.0 and np.count_nonzero(np.divide(m, total, out=p)) >= n):
        raise ValueError(f"size measure must have at least n={n} positive entries")
    cdf = ws.array("cdf", N)
    rng = np.random.default_rng(seed)
    idx = np.empty(n, dtype=np.int64)
    k = 0
    while k < n:
        u = rng.random(n - k)
        np.cumsum(p, out=cdf)
        cdf /= cdf[-1]
        new = cdf.searchsorted(u, side="right")
        new = new[np.sort(np.unique(new, return_index=True)[1])]
        idx[k:k + len(new)] = new
        p[new] = 0.0
        k += len(new)
    pi = np.minimum(1.0, n * m[idx] / total)
    return idx, SurveyDesign(pi=pi, pop_size=float(N))


def _fit_replicate(x_s, y_s, family: Family, design: SurveyDesign, loss: Loss):
    """Both experiments' replicate step: the design-weighted fit of [1, x], its
    analytic HTE report under ``loss``, and the uniform-weight fit's naive AIC.
    """
    X = np.column_stack([np.ones(len(x_s)), x_s])
    f = fit_weighted_glm(X, y_s, family, design)
    report = pen.hte_analytic(f, loss=loss)
    uniform = fit_weighted_glm(X, y_s, family, SurveyDesign.uniform(len(x_s)))
    return f, report, pen.aic_naive(uniform)


def _check_failures(failures: int, reps: int) -> None:
    """Both experiments' failure rule: at most max(1, 1% of reps) failed fits, and one kept."""
    if failures > max(1, 0.01 * reps) or failures == reps:
        raise FitError(f"{failures}/{reps} replicates failed to fit")


def _run_chunk(step, tasks):
    """``step(*task, ws)`` for each task in turn, with one workspace for the chunk."""
    ws = Workspace()
    for task in tasks:
        yield step(*task, ws)


def _map_replicates(step, tasks: list[tuple], sizes: list[int]) -> list:
    """``[step(*task, ws) for task in tasks]``, fanned out over forked workers.

    ``sizes`` is each task's population size, which its time is about
    proportional to.  ``_fork.timed`` runs the first task here, timed, and
    fans the rest out when that time scaled by their total size says it
    pays, in contiguous chunks of about equal total size joined in task
    order.  Each chunk of tasks gets its own ``Workspace`` ``ws`` (see
    ``_run_chunk``), and each replicate draws from its own seed stream,
    so the list is the serial one for any worker count.
    """
    results: list = []
    _fork.timed(functools.partial(_run_chunk, step), tasks, sizes, results.append)
    return results


def _optimism_replicate(spec: ScenarioSpec, seed: int, rep: int, ws: Workspace) -> dict | None:
    """One optimism replicate's record, or None when a fit fails; ``ws`` holds its population."""
    family = spec.family
    pop = generate_population(spec, [seed, rep, 0], out=ws)
    x, y, _ = pop
    idx, design = draw_sample(pop, spec.sample_size, [seed, rep, 1], out=ws)
    try:
        f, report, naive = _fit_replicate(
            x[idx], y[idx], family, design, Loss(LossKind.SQUARED_ERROR)
        )
    except FitError:
        return None
    # Err = mean((y - mu)^2) over the population, formed in the draw's p array
    e = np.multiply(x, f.theta[1], out=ws.array("p", len(x)))
    e += f.theta[0]
    fam.natural_to_mean(family, e, out=e)
    np.subtract(y, e, out=e)
    Err = float(np.mean(np.square(e, out=e)))
    return {
        "Err": Err,
        "err": report.err_weighted,
        "optimism": Err - report.err_weighted,
        "omega_hat": report.omega_hat,
        "err_hat": report.err_hat,
        "aic_naive": naive,
    }


def run_optimism_experiment(spec: ScenarioSpec, reps: int, seed: int) -> ExperimentSummary:
    """Optimism benchmark: finite-population Err - err versus analytic HTE.

    Each replicate regenerates the population, draws a sample, fits the
    intercept-plus-slope model with inverse-probability weights, and
    records the squared-error in-sample error, finite-population error,
    and the analytic optimism estimate.  The PPS sampler carries nominal
    inclusion probabilities; under the heavily skewed size measures these
    can diverge from the realized frequencies, which is exactly the
    weighting-mismatch regime the benchmark probes.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if spec.family.kind is FamilyKind.BERNOULLI:
        import scipy.special  # noqa: F401  (loaded once here, not in each forked worker)
    records = _map_replicates(
        _optimism_replicate, [(spec, seed, rep) for rep in range(reps)], [spec.pop_size] * reps
    )
    kept = [r for r in records if r is not None]
    _check_failures(reps - len(kept), reps)
    return ExperimentSummary(scenario=spec.id, records=kept)


def _case_control_pop_size(cc: CaseControlSpec) -> int:
    n = cc.sample_size
    return int(max(10 * n, math.ceil(0.4 * n / cc.prevalence)))


def _case_control_population(cc: CaseControlSpec, rng: np.random.Generator, ws: Workspace):
    """Population (X, y, case indicator) with the requested case prevalence.

    X and y are views of ``ws``'s "x" and "y" arrays, and the event
    probabilities are formed in its "p" array.
    """
    from scipy import optimize, special

    N = _case_control_pop_size(cc)
    x = rng.standard_normal(out=ws.array("x", N))
    p = ws.array("p", N)

    def event_prob(a):  # expit(a + x), in p
        return special.expit(np.add(x, a, out=p), out=p)

    # intercept tuned so the realized event rate matches the prevalence
    a = optimize.brentq(lambda a: event_prob(a).mean() - cc.prevalence, -40.0, 10.0)
    y = rng.random(out=ws.array("y", N))
    np.less(y, event_prob(a), out=y)
    return x, y, y == 1.0


def _case_control_draw(cases: np.ndarray, n: int, frac: float, rng: np.random.Generator):
    """Fixed-size SRS within cases and controls; returns (indices, design)."""
    case_idx = np.flatnonzero(cases)
    ctrl_idx = np.flatnonzero(~cases)
    n_case = min(int(round(frac * n)), len(case_idx))
    n_ctrl = n - n_case
    pick_c = rng.choice(case_idx, size=n_case, replace=False)
    pick_0 = rng.choice(ctrl_idx, size=n_ctrl, replace=False)
    idx = np.concatenate([pick_c, pick_0])
    pi = np.concatenate(
        [
            np.full(n_case, n_case / len(case_idx)),
            np.full(n_ctrl, n_ctrl / len(ctrl_idx)),
        ]
    )
    design = SurveyDesign(pi=pi, pop_size=float(len(cases)))
    return idx, design


def _mc_se(v: np.ndarray) -> float:
    """Monte Carlo standard error of the mean of ``v``."""
    return float(v.std(ddof=1) / math.sqrt(len(v)))


def _case_control_replicate(cc: CaseControlSpec, seed: int, cell: int, rep: int, ws: Workspace):
    """One case-control replicate's relative errors (HTE, naive AIC), or None when a fit fails.

    True error is the deviance on the unsampled part of the population,
    which ``ws`` holds.
    """
    family = Family(FamilyKind.BERNOULLI)
    loss = Loss(LossKind.DEVIANCE, family)
    rng = np.random.default_rng([seed, cell, rep])
    x, y, cases = _case_control_population(cc, rng, ws)
    idx, design = _case_control_draw(cases, cc.sample_size, cc.case_fraction, rng)
    try:
        f, report, naive = _fit_replicate(x[idx], y[idx], family, design, loss)
    except FitError:
        return None
    rest = np.ones(len(x), dtype=bool)
    rest[idx] = False
    mu_rest = fam.natural_to_mean(family, f.theta[0] + f.theta[1] * x[rest])
    err_true = float(np.mean(fam.loss_q(loss, y[rest], mu_rest)))
    return abs(report.err_hat - err_true) / err_true, abs(naive - err_true) / err_true


def run_relative_error_experiment(
    cc: CaseControlSpec, grid: dict, reps: int, seed: int
) -> list[dict]:
    """Mean relative estimation error of HTE and naive AIC for logistic fits.

    ``grid`` maps one field of ``cc`` ("sample_size" or "prevalence") to
    the values to sweep.  True error is the deviance on the unsampled part
    of the finite population; each cell reports the two mean relative
    errors, their ratio (HTE / AIC, below 1 when HTE is closer), and the
    Monte Carlo standard errors of both means and of their paired
    difference.
    """
    (key, values), = grid.items()
    specs = [CaseControlSpec(**{**cc.__dict__, key: value}) for value in values]
    tasks = [(spec, seed, cell, rep) for cell, spec in enumerate(specs) for rep in range(reps)]
    import scipy.optimize  # noqa: F401  (loaded once here, not in each forked worker)
    import scipy.special  # noqa: F401
    results = _map_replicates(
        _case_control_replicate, tasks, [_case_control_pop_size(t[0]) for t in tasks]
    )
    rows = []
    for cell, value in enumerate(values):
        kept = [r for r in results[cell * reps:(cell + 1) * reps] if r is not None]
        _check_failures(reps - len(kept), reps)
        hte, aic = map(np.array, zip(*kept))
        rows.append(
            {
                key: value,
                "reps": len(hte),
                "rel_err_hte": float(hte.mean()),
                "rel_err_aic": float(aic.mean()),
                "ratio": float(hte.mean() / aic.mean()),
                "mc_se_hte": _mc_se(hte),
                "mc_se_aic": _mc_se(aic),
                "mc_se_diff": _mc_se(hte - aic),
            }
        )
    return rows
