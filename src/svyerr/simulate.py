"""Monte Carlo studies of the HT-weighted covariance penalty.

Generates finite populations under the eight benchmark scenarios, draws
fixed-size systematic PPS samples, and runs the optimism and
HTE-versus-naive-AIC experiments with per-replicate seed streams so the
results are reproducible regardless of execution order.
"""

from __future__ import annotations

import itertools
import math
import warnings
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
    family_kind: FamilyKind = FamilyKind.BERNOULLI

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


def inclusion_probabilities(size_measure, n: int) -> np.ndarray:
    """Fixed-size PPS probabilities pi = n * m / sum(m), clipped at 1.

    Clipped units are set to certainty and the remainder rescaled
    iteratively so the probabilities still sum to n.
    """
    m = np.asarray(size_measure, dtype=float)
    if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
        raise ValueError("size measures must be finite and positive")
    pi = np.zeros_like(m)
    free = np.ones(len(m), dtype=bool)
    n_free = n
    for _ in range(len(m)):
        pi[free] = n_free * m[free] / m[free].sum()
        over = free & (pi >= 1.0)
        if not np.any(over):
            break
        pi[over] = 1.0
        n_free -= int(over.sum())
        free &= ~over
        if n_free <= 0:
            break
    clipped = int((~free).sum())
    if clipped > 0.01 * len(m):
        warnings.warn(f"{clipped} units clipped at pi=1")
    return np.minimum(pi, 1.0)


def draw_sample(
    population: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int,
    seed,
    method: str = "systematic",
) -> tuple[np.ndarray, SurveyDesign]:
    """Fixed-size PPS draw; returns selected indices and their design.

    ``systematic`` runs the systematic procedure on a randomly permuted
    order, so realized inclusion frequencies match the (clip-corrected)
    probabilities exactly.  ``pps_draw`` mimics common survey software:
    n successive draws without replacement with probability proportional
    to size, weighted by the nominal pi = min(1, n m / sum m); under very
    skewed size measures the nominal pi can differ materially from the
    realized inclusion frequencies.
    """
    x, y, size = population
    N = len(size)
    rng = np.random.default_rng(seed)
    if method == "systematic":
        pi = inclusion_probabilities(size, n)
        perm = rng.permutation(N)
        cum = np.cumsum(pi[perm])
        points = rng.random() + np.arange(n)
        pos = np.minimum(np.searchsorted(cum, points, side="right"), N - 1)
        idx = perm[pos]
    elif method == "pps_draw":
        m = np.asarray(size, dtype=float)
        idx = rng.choice(N, size=n, replace=False, p=m / m.sum())
        pi = np.zeros(N)
        pi[idx] = np.minimum(1.0, n * m[idx] / m.sum())
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    design = SurveyDesign(pi=pi[idx], pop_size=float(N))
    return idx, design


def _fit_scenario_sample(x_s, y_s, family: Family, design: SurveyDesign):
    X = np.column_stack([np.ones(len(x_s)), x_s])
    return fit_weighted_glm(X, y_s, family, design)


def run_optimism_experiment(
    spec: ScenarioSpec, reps: int, seed: int, sampling: str = "pps_draw"
) -> ExperimentSummary:
    """Optimism benchmark: finite-population Err - err versus analytic HTE.

    Each replicate regenerates the population, draws a sample, fits the
    intercept-plus-slope model with inverse-probability weights, and
    records the squared-error in-sample error, finite-population error,
    and the analytic optimism estimate.  The default successive-draw PPS
    sampler carries nominal inclusion probabilities; under the heavily
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
        idx, design = draw_sample(pop, spec.sample_size, [seed, rep, 1], method=sampling)
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
    if cc.family_kind is FamilyKind.BERNOULLI:
        # intercept tuned so the realized event rate matches the prevalence
        a = optimize.brentq(
            lambda a: special.expit(a + x).mean() - cc.prevalence, -40.0, 10.0
        )
        mu = special.expit(a + x)
        y = (rng.random(N) < mu).astype(float)
        cases = y == 1.0
    else:
        eta = x
        if cc.family_kind is FamilyKind.GAUSSIAN:
            y = eta + rng.normal(size=N)
        else:
            y = rng.poisson(np.exp(np.clip(eta, None, 20.0))).astype(float)
        cases = eta >= np.quantile(eta, 1.0 - cc.prevalence)
    return x, y, cases


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


def run_relative_error_experiment(
    cc: CaseControlSpec, grid: dict, reps: int, seed: int
) -> list[dict]:
    """Mean relative estimation error of HTE and scaled naive AIC.

    ``grid`` maps one field of ``cc`` ("sample_size" or "prevalence") to
    the values to sweep.  True error is measured on the unsampled part of
    the finite population; each cell reports the two mean relative errors
    and their ratio (HTE / AIC, below 1 when HTE is closer).
    """
    (key, values), = grid.items()
    rows = []
    for cell, value in enumerate(values):
        spec = CaseControlSpec(**{**cc.__dict__, key: value})
        family = Family(spec.family_kind)
        if spec.family_kind is FamilyKind.GAUSSIAN:
            loss = Loss(LossKind.SQUARED_ERROR)
        else:
            loss = Loss(LossKind.DEVIANCE, family)
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
            if loss.kind is LossKind.DEVIANCE:
                loss_true = Loss(LossKind.DEVIANCE, f.family)
                err_true = float(np.mean(np.asarray(fam.loss_q(loss_true, y[rest], mu_rest))))
            else:
                err_true = float(np.mean((y[rest] - mu_rest) ** 2))
            aic = pen.aic_naive(uf)
            if loss.kind is LossKind.SQUARED_ERROR:
                aic *= uf.family.dispersion
            rel_hte.append(abs(report.err_hat - err_true) / err_true)
            rel_aic.append(abs(aic - err_true) / err_true)
        rows.append(
            {
                key: value,
                "family": spec.family_kind.value,
                "reps": len(rel_hte),
                "rel_err_hte": float(np.mean(rel_hte)),
                "rel_err_aic": float(np.mean(rel_aic)),
                "ratio": float(np.mean(rel_hte) / np.mean(rel_aic)),
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
