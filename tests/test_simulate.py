"""Population generation, PPS sampling, and the Monte Carlo experiments.

Also home to two experiments that acceptance criteria run:
``brute_force_optimism``, the exhaustive small-population oracle that
criterion 8 checks design-unbiasedness against, and
``run_relative_error_experiment``, criterion 10's comparison of HTE with
naive AIC on case-control samples.
"""

import itertools
import math
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import optimize, special

from svyerr import _fork
from svyerr import families as fam
from svyerr import simulate as sim
from svyerr.design import SurveyDesign
from svyerr.families import Family, FamilyKind, Loss, LossKind
from svyerr.fit import FitError
from svyerr.simulate import ScenarioSpec, draw_sample, generate_population, run_optimism_experiment


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


CASE_FRACTION = 0.20  # the share of each case-control sample drawn from the cases


def _case_control_pop_size(n: int, prevalence: float) -> int:
    return int(max(10 * n, math.ceil(0.4 * n / prevalence)))


def _case_control_population(N: int, prevalence: float, rng: np.random.Generator, ws):
    """Population (X, y, case indicator) of N units with the given case prevalence.

    X and y are views of ``ws``'s "x" and "y" arrays, and the event
    probabilities are formed in its "p" array.
    """
    x = rng.standard_normal(out=ws.array("x", N))
    p = ws.array("p", N)

    def event_prob(a):  # expit(a + x), in p
        return special.expit(np.add(x, a, out=p), out=p)

    # intercept tuned so the realized event rate matches the prevalence
    a = optimize.brentq(lambda a: event_prob(a).mean() - prevalence, -40.0, 10.0)
    y = rng.random(out=ws.array("y", N))
    np.less(y, event_prob(a), out=y)
    return x, y, y == 1.0


def _case_control_draw(cases: np.ndarray, n: int, rng: np.random.Generator):
    """Fixed-size SRS within cases and controls; returns (indices, design)."""
    strata = np.flatnonzero(cases), np.flatnonzero(~cases)
    n_case = min(int(round(CASE_FRACTION * n)), len(strata[0]))
    sizes = n_case, n - n_case
    idx = np.concatenate([rng.choice(s, size=k, replace=False) for s, k in zip(strata, sizes)])
    pi = np.concatenate([np.full(k, k / len(s)) for s, k in zip(strata, sizes)])
    return idx, SurveyDesign(pi=pi, pop_size=float(len(cases)))


def _case_control_replicate(n, prevalence, seed, cell, rep, ws):
    """One case-control replicate's relative errors (HTE, naive AIC), or None when a fit fails.

    True error is the deviance on the unsampled part of the population,
    which ``ws`` holds.
    """
    family = Family(FamilyKind.BERNOULLI)
    loss = Loss(LossKind.DEVIANCE, family)
    rng = np.random.default_rng([seed, cell, rep])
    N = _case_control_pop_size(n, prevalence)
    x, y, cases = _case_control_population(N, prevalence, rng, ws)
    idx, design = _case_control_draw(cases, n, rng)
    try:
        f, report, naive = sim._fit_replicate(x[idx], y[idx], family, design, loss)
    except FitError:
        return None
    rest = np.ones(len(x), dtype=bool)
    rest[idx] = False
    mu_rest = fam.natural_to_mean(family, f.theta[0] + f.theta[1] * x[rest])
    err_true = float(np.mean(fam.loss_q(loss, y[rest], mu_rest)))
    return abs(report.err_hat - err_true) / err_true, abs(naive - err_true) / err_true


def run_relative_error_experiment(
    sample_sizes: list[int], reps: int, seed: int, prevalence: float = 1.0 / 200.0
) -> list[dict]:
    """Mean relative estimation error of HTE and naive AIC for logistic fits.

    Lumley & Scott's (2015) comparison: a logistic population with the
    given case prevalence, of at least 10 n units, and a fixed-size SRS
    of n with ``CASE_FRACTION`` of it from the cases, for each n in
    ``sample_sizes``.  Replicate ``rep`` of the ``cell``-th size draws from
    the seed stream (seed, cell, rep), and the replicates run through
    ``svyerr.simulate``'s fan-out, workspace and failure rule.  True error
    is the deviance on the unsampled part of the population; each row
    reports the two mean relative errors, their ratio (HTE / AIC, below 1
    when HTE is closer), and the Monte Carlo standard errors of both
    means and of their paired difference.
    """
    tasks = [
        (n, prevalence, seed, cell, rep) for cell, n in enumerate(sample_sizes) for rep in range(reps)
    ]
    results = sim._map_replicates(
        _case_control_replicate, tasks, [_case_control_pop_size(n, prevalence) for n, *_ in tasks]
    )

    def mc_se(v):  # Monte Carlo standard error of the mean of v
        return float(v.std(ddof=1) / math.sqrt(len(v)))

    rows = []
    for cell, n in enumerate(sample_sizes):
        kept = [r for r in results[cell * reps:(cell + 1) * reps] if r is not None]
        sim._check_failures(reps - len(kept), reps)
        hte, aic = map(np.array, zip(*kept))
        rows.append({
            "sample_size": n, "reps": len(hte),
            "rel_err_hte": float(hte.mean()), "rel_err_aic": float(aic.mean()),
            "ratio": float(hte.mean() / aic.mean()),
            "mc_se_hte": mc_se(hte), "mc_se_aic": mc_se(aic), "mc_se_diff": mc_se(hte - aic),
        })
    return rows


class TestGeneratePopulation:
    def test_index_size_measure(self):
        spec = ScenarioSpec(id="s1", pop_size=1000, sample_size=10)
        _, _, size = generate_population(spec, seed=0)
        np.testing.assert_allclose(size, np.log(np.arange(2, 1002)))

    def test_inverse_size_capped(self):
        spec = ScenarioSpec(id="s4b_gauss", pop_size=5000, sample_size=10)
        x, _, size = generate_population(spec, seed=0)
        inv = 1.0 / np.abs(x)
        assert size.max() == pytest.approx(np.quantile(inv, 0.999))
        assert np.all(size > 0)

    def test_absolute_size_measure(self):
        spec = ScenarioSpec(id="s4a_gauss", pop_size=500, sample_size=10)
        x, _, size = generate_population(spec, seed=3)
        np.testing.assert_allclose(size, np.maximum(np.abs(x), 1e-12))

    def test_bernoulli_outcomes_binary(self):
        spec = ScenarioSpec(id="s2_bern", pop_size=500, sample_size=10)
        _, y, _ = generate_population(spec, seed=1)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_deterministic(self):
        spec = ScenarioSpec(id="s3", pop_size=300, sample_size=10)
        a = generate_population(spec, seed=42)
        b = generate_population(spec, seed=42)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(id="nope")

    def test_sample_must_be_smaller_than_population(self):
        with pytest.raises(ValueError):
            ScenarioSpec(id="s1", pop_size=10, sample_size=10)

    @pytest.mark.parametrize("n", [-3, 0, 2])
    def test_sample_too_small_to_fit_rejected(self, n):
        with pytest.raises(ValueError, match=f"sample size must be at least 3, got {n}"):
            ScenarioSpec(id="s1", pop_size=1000, sample_size=n)


class TestDrawSample:
    def test_uniform_sizes_give_equal_probabilities(self):
        pop = (np.zeros(20), np.zeros(20), np.ones(20))
        idx, design = draw_sample(pop, 5, seed=0)
        assert len(idx) == 5
        np.testing.assert_allclose(design.weights, 4.0)

    def test_fixed_sample_size_every_draw(self):
        rng = np.random.default_rng(0)
        pop = (np.zeros(30), np.zeros(30), rng.uniform(0.5, 2.0, size=30))
        for seed in range(50):
            idx, _ = draw_sample(pop, 7, seed=seed)
            assert len(idx) == 7
            assert len(np.unique(idx)) == 7

    def test_pps_draw_nominal_probabilities(self):
        m = np.arange(1.0, 11.0)
        pop = (np.zeros(10), np.zeros(10), m)
        idx, design = draw_sample(pop, 3, seed=1)
        np.testing.assert_allclose(design.weights, 1.0 / np.minimum(1.0, 3.0 * m[idx] / m.sum()))

    def test_deterministic(self):
        pop = (np.zeros(40), np.zeros(40), np.linspace(1, 2, 40))
        i1, d1 = draw_sample(pop, 10, seed=5)
        i2, d2 = draw_sample(pop, 10, seed=5)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(d1.weights, d2.weights)

    @staticmethod
    def _choice(m, n, seed):
        """The draw numpy's Generator.choice makes with the same seed and p."""
        return np.random.default_rng(seed).choice(len(m), n, replace=False, p=m / m.sum())

    @pytest.mark.parametrize("scenario", ["s1", "s3", "s2_bern", "s4b_gauss"])
    def test_equals_numpy_choice_on_benchmark_size_measures(self, scenario):
        # the perfbench simulate workload's populations and seed streams
        spec = ScenarioSpec(id=scenario, pop_size=100_000, sample_size=1_000)
        ws = sim.Workspace()
        for seed in range(4):
            pop = generate_population(spec, [seed, 0, 0], out=ws)
            idx, _ = draw_sample(pop, 1_000, [seed, 0, 1], out=ws)
            np.testing.assert_array_equal(idx, self._choice(pop[2], 1_000, [seed, 0, 1]))

    def test_equals_numpy_choice_with_many_duplicate_rounds(self):
        rng = np.random.default_rng(2024)
        repeated_rounds = 0
        for seed in range(300):
            N = int(rng.integers(5, 61))
            m = rng.exponential(size=N) ** 3  # skewed: the first round repeats units
            m[rng.random(N) < 0.2] = 0.0
            if not m.any():
                m[0] = 1.0
            n = int(rng.integers(1, np.count_nonzero(m) + 1))
            idx, design = draw_sample((np.zeros(N), np.zeros(N), m), n, seed)
            np.testing.assert_array_equal(idx, self._choice(m, n, seed))
            np.testing.assert_array_equal(design.weights, 1.0 / np.minimum(1.0, n * m[idx] / m.sum()))
            cdf = np.cumsum(m / m.sum())
            first = (cdf / cdf[-1]).searchsorted(np.random.default_rng(seed).random(n), side="right")
            repeated_rounds += len(np.unique(first)) < n  # a second round was needed
        assert repeated_rounds > 200

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "m, problem",
        [
            ([1.0, np.nan, 1.0, 1.0], "finite"),
            ([1.0, np.inf, 1.0, 1.0], "finite"),
            ([1.0, -np.inf, 1.0, 1.0], "finite"),
            ([1e308, 1e308, 1.0, 1.0], "finite"),  # finite entries whose sum overflows
            ([1.0, -1e-3, 1.0, 1.0], "non-negative"),
        ],
        ids=["nan", "inf", "minus_inf", "overflowing_sum", "negative"],
    )
    def test_bad_size_measure_rejected(self, m, problem):
        with pytest.raises(ValueError, match=f"^size measure must be {problem}"):
            draw_sample((np.zeros(4), np.zeros(4), np.array(m)), 2, seed=0)

    @pytest.mark.parametrize(
        "m, n",
        [
            ([0.0, 1.0, 0.0, 2.0, 0.0], 3),
            ([0.0, 0.0, 0.0, 0.0, 0.0], 3),
            ([1e300, 1e300, 5e-324, 0.0, 0.0], 3),  # three positive, but m / sum m has two
            ([1.0, 1.0, 1.0, 1.0, 1.0], 6),  # a larger sample than the population
        ],
        ids=["two_positive", "all_zero", "underflow", "n_above_N"],
    )
    def test_fewer_positive_entries_than_n_rejected(self, m, n):
        with pytest.raises(ValueError, match=f"^size measure must have at least n={n} positive"):
            draw_sample((np.zeros(5), np.zeros(5), np.array(m)), n, seed=0)


class TestRunOptimismExperiment:
    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_fewer_than_one_replicate(self, reps):
        with pytest.raises(ValueError, match="^reps must be at least 1$"):
            run_optimism_experiment(ScenarioSpec(id="s1", pop_size=5000, sample_size=200), reps=reps, seed=0)

    def test_single_replicate_aggregates_equal_record(self):
        spec = ScenarioSpec(id="s1", pop_size=5000, sample_size=200)
        summary = run_optimism_experiment(spec, reps=1, seed=0)
        agg = summary.aggregates()
        rec = summary.records[0]
        assert agg["replicates"] == 1
        for stat in ("mean", "median", "q025", "q975"):
            assert agg["optimism"][stat] == pytest.approx(rec["optimism"])
            assert agg["omega_hat"][stat] == pytest.approx(rec["omega_hat"])

    def test_deterministic(self):
        spec = ScenarioSpec(id="s2_bern", pop_size=5000, sample_size=200)
        s1 = run_optimism_experiment(spec, reps=3, seed=7)
        s2 = run_optimism_experiment(spec, reps=3, seed=7)
        assert s1.records == s2.records

    def test_record_decomposition(self):
        spec = ScenarioSpec(id="s1", pop_size=5000, sample_size=200)
        summary = run_optimism_experiment(spec, reps=2, seed=1)
        for rec in summary.records:
            assert rec["optimism"] == pytest.approx(rec["Err"] - rec["err"])
            assert rec["err_hat"] == pytest.approx(rec["err"] + rec["omega_hat"])

    def test_estimator_spread_far_below_optimism_spread(self):
        # the per-replicate penalty varies much less than realized optimism
        for sid in ("s1", "s3"):
            spec = ScenarioSpec(id=sid, pop_size=20_000, sample_size=500)
            summary = run_optimism_experiment(spec, reps=80, seed=11)
            omega = summary.column("omega_hat")
            opt = summary.column("optimism")
            iqr = lambda v: np.subtract(*np.percentile(v, [75, 25]))
            assert iqr(omega) < iqr(opt)


class TestRunRelativeErrorExperiment:
    def test_reports_both_estimators_and_ratio(self):
        rows = run_relative_error_experiment([100], reps=5, seed=0, prevalence=0.05)
        (row,) = rows
        assert row["reps"] == 5
        assert row["ratio"] == pytest.approx(row["rel_err_hte"] / row["rel_err_aic"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # no SE from one rep
    def test_monte_carlo_standard_errors(self):
        # rep r draws from the stream (seed, cell, r), so the per-rep errors
        # are recovered from the running means over 1, 2, ..., reps reps
        reps = 6
        means = []
        for k in range(1, reps + 1):
            (row,) = run_relative_error_experiment([100], reps=k, seed=3, prevalence=0.05)
            assert row["reps"] == k
            means.append([row["rel_err_hte"], row["rel_err_aic"]])
        means = np.array(means)
        sums = np.arange(1, reps + 1)[:, None] * means
        hte, aic = np.diff(sums, axis=0, prepend=0.0).T
        se = lambda v: v.std(ddof=1) / np.sqrt(reps)
        assert row["mc_se_hte"] == pytest.approx(se(hte), rel=1e-9)
        assert row["mc_se_aic"] == pytest.approx(se(aic), rel=1e-9)
        assert row["mc_se_diff"] == pytest.approx(se(hte - aic), rel=1e-9)

    def test_small_grid_equals_the_recorded_rows(self):
        """Every float of a small grid, bit for bit, as the library's
        ``svyerr.simulate.run_relative_error_experiment`` gave it before the
        experiment became test code here.  A change to the truth it scores,
        such as the case-depleted remainder ROADMAP.md proposes, re-records
        these literals.
        """
        rows = run_relative_error_experiment([100, 150], reps=3, seed=5, prevalence=0.05)
        assert _hex(rows) == [
            {"sample_size": 100, "reps": 3, "rel_err_hte": "0x1.e524fda2801b4p-3",
             "rel_err_aic": "0x1.017bff75bbd69p+1", "ratio": "0x1.e259028743bbdp-4",
             "mc_se_hte": "0x1.83bc428dfc628p-4", "mc_se_aic": "0x1.86a79d9059dfep-3",
             "mc_se_diff": "0x1.377994fc7b258p-3"},
            {"sample_size": 150, "reps": 3, "rel_err_hte": "0x1.7e0e0cffbaf09p-2",
             "rel_err_aic": "0x1.45bd4a964f99fp+1", "ratio": "0x1.2c423158e77eep-3",
             "mc_se_hte": "0x1.591058872ea72p-4", "mc_se_aic": "0x1.8531fd3046256p-2",
             "mc_se_diff": "0x1.3575775d8c896p-2"},
        ]


class TestFailureRule:
    """Both experiments skip a failed fit; they raise past max(1, 1% of reps) failures."""

    @staticmethod
    def _fail_first(monkeypatch, k):
        # a failed weighted fit skips its replicate's uniform fit, so the
        # first k fit calls are the weighted fits of replicates 0, ..., k - 1.
        # The call counter is per process: it holds only because these
        # experiments are below the fan-out threshold and run serially
        # (TestFanOut forces failures by replicate index instead).
        real, calls = sim.fit_weighted_glm, itertools.count()

        def fit(*args, **kwargs):
            if next(calls) < k:
                raise FitError("forced failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "fit_weighted_glm", fit)

    @staticmethod
    def _kept(experiment, reps):
        if experiment == "optimism":
            spec = ScenarioSpec(id="s1", pop_size=5000, sample_size=200)
            return len(run_optimism_experiment(spec, reps=reps, seed=0).records)
        (row,) = run_relative_error_experiment([100], reps=reps, seed=0, prevalence=0.05)
        return row["reps"]

    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    def test_one_failure_skipped(self, monkeypatch, experiment):
        self._fail_first(monkeypatch, 1)
        assert self._kept(experiment, 3) == 2

    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    @pytest.mark.parametrize("failures, reps", [(2, 3), (1, 1)])
    def test_too_many_failures_raise(self, monkeypatch, experiment, failures, reps):
        self._fail_first(monkeypatch, failures)
        with pytest.raises(FitError, match=f"{failures}/{reps} replicates failed"):
            self._kept(experiment, reps)


def _hex(value):
    """Records and rows with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


class TestFanOut:
    """Forked workers reproduce the serial experiments bit for bit.

    Runs this small stay in one process under the measured rule, so the
    fan-out is forced (the ``fan_out`` fixture) and the forks counted.
    """

    SPEC = ScenarioSpec(id="s2_bern", pop_size=5000, sample_size=200)

    def _run(self, experiment, reps):
        if experiment == "optimism":
            return _hex(run_optimism_experiment(self.SPEC, reps=reps, seed=5).records)
        return _hex(run_relative_error_experiment([100, 150], reps=reps, seed=5, prevalence=0.05))

    @staticmethod
    def _break_reps(monkeypatch, experiment, reps, ran_in=None):
        """Make the listed replicates' covariate constant, so their fit is rank deficient.

        With ``ran_in``, a directory, each broken replicate writes the pid
        of the process that ran it to a file there named "<cell>-<rep>".
        """
        def broken(x, cell, rep):
            if rep not in reps:
                return x
            if ran_in is not None:
                (ran_in / f"{cell}-{rep}").write_text(str(os.getpid()))
            return np.zeros_like(x)

        if experiment == "optimism":
            real = sim.generate_population

            def population(spec, seed, *, out=None):
                x, y, size = real(spec, seed, out=out)
                return broken(x, 0, seed[1]), y, size

            monkeypatch.setattr(sim, "generate_population", population)
        else:
            real = _case_control_population

            def population(N, prevalence, rng, ws):
                x, y, cases = real(N, prevalence, rng, ws)
                _, cell, rep = rng.bit_generator.seed_seq.entropy
                return broken(x, cell, rep), y, cases

            monkeypatch.setitem(globals(), "_case_control_population", population)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # no SE from one rep
    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("reps", [1, 2, 5])
    def test_records_identical_for_any_worker_count(self, fan_out, experiment, workers, reps):
        assert fan_out(1) == []
        serial = self._run(experiment, reps)
        forks = fan_out(workers)
        assert self._run(experiment, reps) == serial
        # one rep leaves at most one task after the first, which runs here;
        # two reps of the grid leave three, of 1,000, 1,500 and 1,500 units,
        # which make two chunks for two workers and for three
        assert len(forks) == {1: 0, 2: int(experiment == "relative_error"), 5: workers - 1}[reps]

    def test_unequal_population_sizes_keep_task_order(self, fan_out):
        # cells of 1,000 and 8,000 units: the chunks are cut by work, not count
        tasks = [(100, p, 2, cell, rep) for cell, p in enumerate((0.05, 0.005)) for rep in range(3)]
        sizes = [_case_control_pop_size(*t[:2]) for t in tasks]
        assert sizes == [1000] * 3 + [8000] * 3
        results = []
        for workers in (1, 2, 3):
            forks = fan_out(workers)
            results.append(_hex(sim._map_replicates(_case_control_replicate, tasks, sizes)))
            assert len(forks) == workers - 1
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    def test_failure_in_a_child_keeps_the_serial_records(
        self, fan_out, monkeypatch, tmp_path, experiment
    ):
        # with 2 workers the first task runs alone, and the rest are cut into
        # optimism reps 1-2 and 3-4, or (cells of 1,000 and 1,500 units) cell
        # 0's reps 1-4 with cell 1's reps 0-1, and cell 1's reps 2-4
        self._break_reps(monkeypatch, experiment, {4}, tmp_path)
        fan_out(1)
        serial = self._run(experiment, 5)
        forks = fan_out(2)
        assert self._run(experiment, 5) == serial
        assert len(forks) == 1
        in_child = {path.name: int(path.read_text()) != os.getpid() for path in tmp_path.iterdir()}
        if experiment == "optimism":
            assert len(serial) == 4
            assert in_child == {"0-4": True}
        else:
            assert [row["reps"] for row in serial] == [4, 4]
            assert in_child == {"0-4": False, "1-4": True}

    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    def test_too_many_failures_in_a_child_same_message(self, fan_out, monkeypatch, experiment):
        self._break_reps(monkeypatch, experiment, {3, 4})
        for workers in (1, 2):
            forks = fan_out(workers)
            with pytest.raises(FitError, match=r"^2/5 replicates failed to fit$"):
                self._run(experiment, 5)
            assert len(forks) == workers - 1

    def test_other_error_in_a_child_propagates(self, fan_out, monkeypatch):
        real = sim.generate_population

        def population(spec, seed, *, out=None):
            if seed[1] == 4:
                raise RuntimeError("population 4 failed")
            return real(spec, seed, out=out)

        monkeypatch.setattr(sim, "generate_population", population)
        forks = fan_out(2)
        with pytest.raises(RuntimeError, match="population 4 failed"):
            self._run("optimism", 5)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_below_threshold_builds_no_pool(self, monkeypatch):
        # 3 reps of 5,000 units: the CPU rule alone would fork for the two
        # reps after the first, but the first takes a few ms, which predicts
        # far less than _FORK_MIN_S for the rest
        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _fork.worker_count(2) == 2
        assert len(run_optimism_experiment(self.SPEC, reps=3, seed=5).records) == 3


def _peak_bytes(fn):
    """tracemalloc's peak over ``fn()``, measured from the memory traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _allocating_case_control_population(N, prevalence, rng):
    """The case-control population as drawn before it used a workspace."""
    x = rng.normal(size=N)
    a = optimize.brentq(lambda a: special.expit(a + x).mean() - prevalence, -40.0, 10.0)
    y = (rng.random(N) < special.expit(a + x)).astype(float)
    return x, y, y == 1.0


class TestWorkspace:
    """One workspace per chunk of replicates moves no seeded number."""

    POP = 100_000
    ARRAY_BYTES = 8 * POP  # one float array over the population

    @pytest.mark.parametrize("scenario", sim.SCENARIO_IDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_experiment_records_equal_lone_replicates(self, fan_out, scenario, workers):
        forks = fan_out(workers)
        spec = ScenarioSpec(id=scenario, pop_size=5000, sample_size=200)
        records = run_optimism_experiment(spec, reps=4, seed=9).records
        assert len(forks) == workers - 1
        fresh = [sim._optimism_replicate(spec, 9, rep, sim.Workspace()) for rep in range(4)]
        assert _hex(records) == _hex(fresh)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_case_control_records_equal_lone_replicates(self, fan_out, workers):
        # cells of 1,000 and 8,000 units: a chunk's workspace changes size
        forks = fan_out(workers)
        prevalences = (0.05, 0.005, 0.05)
        tasks = [(100, p, 4, cell, rep) for cell, p in enumerate(prevalences) for rep in range(2)]
        sizes = [_case_control_pop_size(*t[:2]) for t in tasks]
        results = sim._map_replicates(_case_control_replicate, tasks, sizes)
        assert len(forks) == workers - 1
        fresh = [_case_control_replicate(*t, sim.Workspace()) for t in tasks]
        assert _hex(results) == _hex(fresh)

    @pytest.mark.parametrize("n", [50, 500, 5000])
    def test_case_control_population_equals_allocating_draw(self, n):
        prevalence = 1.0 / 200.0
        N = _case_control_pop_size(n, prevalence)
        ws = sim.Workspace()
        for rep in range(2):
            want_rng, got_rng = np.random.default_rng(rep), np.random.default_rng(rep)
            want = _allocating_case_control_population(N, prevalence, want_rng)
            got = _case_control_population(N, prevalence, got_rng, ws)
            for u, v in zip(got, want):
                assert u.tobytes() == v.tobytes()
            assert got_rng.random() == want_rng.random()  # the same stream consumed

    @pytest.mark.parametrize("scenario", sim.SCENARIO_IDS)
    def test_calls_without_workspace_return_new_arrays(self, scenario):
        spec = ScenarioSpec(id=scenario, pop_size=2000, sample_size=50)
        want = [a.copy() for a in generate_population(spec, seed=3)]
        first = generate_population(spec, seed=3)
        idx, _ = draw_sample(first, 50, seed=4)
        want_idx = idx.copy()
        for a in (*first, idx):
            a[:] = -7
        second = generate_population(spec, seed=3)
        for a, b, w in zip(first, second, want):
            assert not np.shares_memory(a, b)
            np.testing.assert_array_equal(b, w)
        np.testing.assert_array_equal(draw_sample(second, 50, seed=4)[0], want_idx)
        np.testing.assert_array_equal(second[2], want[2])  # the draw leaves m alone

    @pytest.mark.parametrize("scenario", sim.SCENARIO_IDS)
    def test_workspace_calls_fill_its_arrays(self, scenario):
        spec = ScenarioSpec(id=scenario, pop_size=2000, sample_size=50)
        ws = sim.Workspace()
        for seed in (3, 4):
            pop = generate_population(spec, seed, out=ws)
            for a, b in zip(pop, generate_population(spec, seed)):
                assert a.tobytes() == b.tobytes()
            for a, name in zip(pop, ("x", "y", "log_index" if scenario < "s4" else "size")):
                assert np.shares_memory(a, ws.array(name, spec.pop_size))
            idx, design = draw_sample(pop, 50, seed, out=ws)
            want_idx, want_design = draw_sample(pop, 50, seed)
            np.testing.assert_array_equal(idx, want_idx)
            assert design.weights.tobytes() == want_design.weights.tobytes()

    @pytest.mark.parametrize("scenario", sim.SCENARIO_IDS)
    def test_serial_experiment_peaks_below_six_population_arrays(self, fan_out, scenario):
        fan_out(1)
        spec = ScenarioSpec(id=scenario, pop_size=self.POP, sample_size=1000)
        run_optimism_experiment(spec, reps=1, seed=0)  # lazy imports
        peak = _peak_bytes(lambda: run_optimism_experiment(spec, reps=3, seed=0))
        assert peak < 6 * self.ARRAY_BYTES

    @pytest.mark.parametrize("scenario", sim.SCENARIO_IDS)
    def test_replicate_after_the_first_allocates_no_population_array(self, scenario):
        spec = ScenarioSpec(id=scenario, pop_size=self.POP, sample_size=1000)
        ws = sim.Workspace()
        sim._optimism_replicate(spec, 0, 0, ws)
        # the fit and its n-sized arrays, and isfinite's one-byte mask over N
        peak = _peak_bytes(lambda: sim._optimism_replicate(spec, 0, 1, ws))
        assert peak < self.ARRAY_BYTES / 2


class TestBruteForceOptimism:
    def test_design_expectation_unbiased(self):
        res = brute_force_optimism(draws=2000, seed=0)
        assert abs(res.e_err_hat - res.e_g_err) <= 3.0 * res.mc_se

    def test_uniform_design_reduction(self):
        res = brute_force_optimism(draws=1500, seed=1, size_measure=np.ones(8))
        assert abs(res.e_err_hat - res.e_g_err) <= 3.0 * res.mc_se

    def test_zero_noise_population(self):
        res = brute_force_optimism(draws=50, seed=2, sigma2=1e-30, mean=1.0)
        assert res.e_err_hat == pytest.approx(0.0, abs=1e-12)
        assert res.e_g_err == pytest.approx(0.0, abs=1e-12)

    def test_population_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_optimism(pop_size=13)
