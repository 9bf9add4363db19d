"""Monte Carlo studies of the HT-weighted covariance penalty.

Generates finite populations under the eight benchmark scenarios, draws
fixed-size successive-draw PPS samples, and runs the optimism and
HTE-versus-naive-AIC experiments with per-replicate seed streams so the
results are reproducible regardless of execution order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

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
    "brute_force_optimism",
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
    if sid.endswith("_bern"):
        y = (rng.random(N) < special.ndtr(x)).astype(float)
    elif sid == "s1":
        y = x + rng.normal(size=N)
    elif sid == "s3":
        y = x + rng.normal(size=N) * np.log(np.arange(1, N + 1) + 1.0)
    else:  # s2_gauss, s4a_gauss, s4b_gauss
        y = x + rng.normal(size=N) * np.abs(x)
    if sid in ("s1", "s2_gauss", "s2_bern", "s3"):
        size = np.log(np.arange(1, N + 1) + 1.0)
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


def _fit_scenario_sample(x_s, y_s, family: Family, design: SurveyDesign):
    X = np.column_stack([np.ones(len(x_s)), x_s])
    return fit_weighted_glm(X, y_s, family, design)


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
    family = spec.family
    sq = Loss(LossKind.SQUARED_ERROR)
    summary = ExperimentSummary(scenario=spec.id)
    failures = 0
    for rep in range(reps):
        pop = generate_population(spec, [seed, rep, 0])
        x, y, _ = pop
        idx, design = draw_sample(pop, spec.sample_size, [seed, rep, 1])
        try:
            f = _fit_scenario_sample(x[idx], y[idx], family, design)
            report = pen.hte_analytic(f, loss=sq)
            uf = _fit_scenario_sample(
                x[idx], y[idx], family, SurveyDesign.uniform(len(idx))
            )
        except FitError:
            failures += 1
            continue
        mu_pop = np.asarray(
            fam.natural_to_mean(family, f.theta[0] + f.theta[1] * x)
        )
        Err = float(np.mean((y - mu_pop) ** 2))
        summary.records.append(
            {
                "Err": Err,
                "err": report.err_weighted,
                "optimism": Err - report.err_weighted,
                "omega_hat": report.omega_hat,
                "err_hat": report.err_hat,
                "aic_naive": pen.aic_naive(uf),
            }
        )
    if failures > max(1, 0.01 * reps):
        raise FitError(f"{failures}/{reps} replicates failed to fit")
    return summary


def _case_control_population(cc: CaseControlSpec, rng: np.random.Generator):
    """Population (X, y, case indicator) with the requested case prevalence."""
    n = cc.sample_size
    N = int(max(10 * n, math.ceil(0.4 * n / cc.prevalence)))
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
    family = Family(FamilyKind.BERNOULLI)
    loss = Loss(LossKind.DEVIANCE, family)
    rows = []
    for cell, value in enumerate(values):
        spec = CaseControlSpec(**{**cc.__dict__, key: value})
        rel_hte, rel_aic = [], []
        for rep in range(reps):
            rng = np.random.default_rng([seed, cell, rep])
            x, y, cases = _case_control_population(spec, rng)
            idx, design = _case_control_draw(cases, spec.sample_size, spec.case_fraction, rng)
            try:
                f = _fit_scenario_sample(x[idx], y[idx], family, design)
                report = pen.hte_analytic(f, loss=loss)
                uf = _fit_scenario_sample(
                    x[idx], y[idx], family, SurveyDesign.uniform(len(idx))
                )
            except FitError:
                continue
            rest = np.ones(len(x), dtype=bool)
            rest[idx] = False
            mu_rest = np.asarray(
                fam.natural_to_mean(family, f.theta[0] + f.theta[1] * x[rest])
            )
            err_true = float(np.mean(np.asarray(fam.loss_q(loss, y[rest], mu_rest))))
            rel_hte.append(abs(report.err_hat - err_true) / err_true)
            rel_aic.append(abs(pen.aic_naive(uf) - err_true) / err_true)
        hte, aic = np.array(rel_hte), np.array(rel_aic)
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


@dataclass(frozen=True)
class BruteForceResult:
    e_err_hat: float
    e_g_err: float
    mc_se: float
    draws: int


def brute_force_optimism(
    pop_size: int = 8,
    sample_size: int = 4,
    draws: int = 2000,
    seed: int = 0,
    sigma2: float = 1.0,
    mean: float = 0.0,
    size_measure=None,
) -> BruteForceResult:
    """Exhaustive check of design-unbiasedness for a mean-only gaussian model.

    The design draws fixed-size samples with probability proportional to
    the product of per-unit size measures; every sample is enumerated, so
    the design expectation is exact, and the covariance in the HTE
    penalty uses the known sigma^2.  The superpopulation error uses the
    closed-form expectation over a fresh response at each unit.
    """
    if pop_size > 12:
        raise ValueError("population too large for exhaustive enumeration")
    if size_measure is None:
        size_measure = np.linspace(0.8, 1.2, pop_size)
    m = np.asarray(size_measure, dtype=float)

    samples = list(itertools.combinations(range(pop_size), sample_size))
    p_s = np.array([np.prod(m[list(s)]) for s in samples])
    p_s /= p_s.sum()
    pi = np.zeros(pop_size)
    for prob, s in zip(p_s, samples):
        pi[list(s)] += prob
    w = 1.0 / pi

    rng = np.random.default_rng(seed)
    diffs = np.empty(draws)
    err_hats = np.empty(draws)
    errs = np.empty(draws)
    for d in range(draws):
        y = mean + rng.normal(size=pop_size) * math.sqrt(sigma2)
        e_hat = 0.0
        e_true = 0.0
        for prob, s in zip(p_s, samples):
            s = list(s)
            ws = w[s]
            mu_hat = float(ws @ y[s]) / ws.sum()
            err_w = float(ws @ (y[s] - mu_hat) ** 2) / pop_size
            cov = ws * sigma2 / ws.sum()  # cov(mu_hat, y_i), exact
            pen_term = 2.0 * float(ws @ cov) / pop_size
            e_hat += prob * (err_w + pen_term)
            e_true += prob * (sigma2 + (mean - mu_hat) ** 2)
        err_hats[d] = e_hat
        errs[d] = e_true
        diffs[d] = e_hat - e_true
    mc_se = float(diffs.std(ddof=1) / math.sqrt(draws))
    return BruteForceResult(
        e_err_hat=float(err_hats.mean()),
        e_g_err=float(errs.mean()),
        mc_se=mc_se,
        draws=draws,
    )
