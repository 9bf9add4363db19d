"""Monte Carlo studies of the HT-weighted covariance penalty.

Generates finite populations under the eight benchmark scenarios, draws
fixed-size successive-draw PPS samples, and runs the optimism and
HTE-versus-naive-AIC experiments with per-replicate seed streams so the
results are reproducible regardless of execution order; the replicates
run on forked workers where that pays (``_map_replicates``).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

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


def generate_population(spec: ScenarioSpec, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (X_N, y_N, raw size measure) for one scenario.

    The gaussian noise scale is read as a standard deviation (|X| or
    log(i+1)); index-driven size measures use log(i+1) so the first unit
    keeps a positive inclusion probability.  The inverse-|X| size measure
    is capped at its 99.9th percentile so one near-zero draw cannot
    absorb the whole sample.
    """
    rng = np.random.default_rng(seed)
    N = spec.pop_size
    x = rng.normal(size=N)
    sid = spec.id
    # log(i+1): the s3 noise scale and the index-driven size measure
    by_index = sid in ("s1", "s2_gauss", "s2_bern", "s3")
    log_index = np.log(np.arange(1, N + 1) + 1.0) if by_index else None
    if sid.endswith("_bern"):
        from scipy import special

        y = (rng.random(N) < special.ndtr(x)).astype(float)
    elif sid == "s1":
        y = x + rng.normal(size=N)
    elif sid == "s3":
        y = x + rng.normal(size=N) * log_index
    else:  # s2_gauss, s4a_gauss, s4b_gauss
        y = x + rng.normal(size=N) * np.abs(x)
    if by_index:
        size = log_index
    elif sid.startswith("s4a"):
        size = np.abs(x)
        size = np.maximum(size, 1e-12)
    else:  # s4b
        inv = 1.0 / np.maximum(np.abs(x), 1e-300)
        size = np.minimum(inv, np.quantile(inv, 0.999))
    return x, y, size


def draw_sample(
    population: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, seed
) -> tuple[np.ndarray, SurveyDesign]:
    """Fixed-size PPS draw; returns selected indices and their design.

    Mimics common survey software: n successive draws without replacement
    with probability proportional to size, weighted by the nominal
    pi = min(1, n m / sum m); under very skewed size measures the nominal
    pi can differ materially from the realized inclusion frequencies.
    """
    m = np.asarray(population[2], dtype=float)
    N = len(m)
    rng = np.random.default_rng(seed)
    idx = rng.choice(N, size=n, replace=False, p=m / m.sum())
    pi = np.minimum(1.0, n * m[idx] / m.sum())
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


# Fan-out pays only past this many population units over all replicates: a
# replicate costs about 90 ns per unit, a fork plus join 10-20 ms.
_FORK_MIN_WORK = 1_000_000


def _worker_count(tasks: int, work: int) -> int:
    """Processes to run ``tasks`` replicates totalling ``work`` population units on.

    min(tasks, usable CPUs // BLAS threads), where the BLAS thread count
    is read from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else taken
    to be the CPU count: a process whose BLAS is not pinned to one thread
    already keeps every CPU busy, and stays serial.  Also serial below
    ``_FORK_MIN_WORK``, where "fork" is not a start method, and while the
    process runs another Python thread: a forked child gets only the
    calling thread, and a lock another thread held stays locked in it.
    (Spawned workers would each re-import numpy, and scipy where the
    population needs it, which costs more than a typical experiment.)
    """
    if work < _FORK_MIN_WORK or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas_threads = max(1, int(blas)) if blas else cpus
    except ValueError:
        blas_threads = cpus
    workers = min(tasks, cpus // blas_threads)
    if workers < 2:
        return 1
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _run_chunk(step, tasks) -> list:
    return [step(*task) for task in tasks]


def _map_replicates(step, tasks: list[tuple], sizes: list[int]) -> list:
    """``[step(*task) for task in tasks]``, fanned out over forked workers.

    ``sizes`` is each task's population size.  The tasks are cut into one
    contiguous chunk per worker, of about equal total size; the parent
    computes the first chunk while forked children compute the rest, and
    the chunks are joined in task order.  Each replicate draws from its
    own seed stream, so the list is the serial one for any worker count.
    """
    workers = _worker_count(len(tasks), sum(sizes))
    if workers == 1:
        return _run_chunk(step, tasks)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    cum = np.concatenate([[0], np.cumsum(sizes)])
    bounds = np.searchsorted(cum, cum[-1] * np.arange(workers + 1) // workers)
    chunks = [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(workers - 1, mp_context=get_context("fork")) as pool:
        futures = [pool.submit(_run_chunk, step, chunk) for chunk in chunks[1:] if chunk]
        results = _run_chunk(step, chunks[0])
        for fut in futures:
            results.extend(fut.result())
    return results


def _optimism_replicate(spec: ScenarioSpec, seed: int, rep: int) -> dict | None:
    """One optimism replicate's record, or None when a fit fails."""
    family = spec.family
    pop = generate_population(spec, [seed, rep, 0])
    x, y, _ = pop
    idx, design = draw_sample(pop, spec.sample_size, [seed, rep, 1])
    try:
        f, report, naive = _fit_replicate(
            x[idx], y[idx], family, design, Loss(LossKind.SQUARED_ERROR)
        )
    except FitError:
        return None
    mu_pop = fam.natural_to_mean(family, f.theta[0] + f.theta[1] * x)
    Err = float(np.mean((y - mu_pop) ** 2))
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
    and the analytic optimism estimate.  The successive-draw PPS sampler
    carries nominal inclusion probabilities; under the heavily
    skewed size measures these can diverge from the realized frequencies,
    which is exactly the weighting-mismatch regime the benchmark probes.
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


def _case_control_population(cc: CaseControlSpec, rng: np.random.Generator):
    """Population (X, y, case indicator) with the requested case prevalence."""
    from scipy import optimize, special

    N = _case_control_pop_size(cc)
    x = rng.normal(size=N)
    # intercept tuned so the realized event rate matches the prevalence
    a = optimize.brentq(
        lambda a: special.expit(a + x).mean() - cc.prevalence, -40.0, 10.0
    )
    y = (rng.random(N) < special.expit(a + x)).astype(float)
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


def _case_control_replicate(cc: CaseControlSpec, seed: int, cell: int, rep: int):
    """One case-control replicate's relative errors (HTE, naive AIC), or None when a fit fails.

    True error is the deviance on the unsampled part of the population.
    """
    family = Family(FamilyKind.BERNOULLI)
    loss = Loss(LossKind.DEVIANCE, family)
    rng = np.random.default_rng([seed, cell, rep])
    x, y, cases = _case_control_population(cc, rng)
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
