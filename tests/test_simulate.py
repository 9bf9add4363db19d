"""Population generation, PPS sampling, and the Monte Carlo experiments.

Also home to ``brute_force_optimism``, the exhaustive small-population
oracle that acceptance criterion 8 checks design-unbiasedness against.
"""

import itertools
import math
import multiprocessing
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from svyerr import simulate as sim
from svyerr.fit import FitError
from svyerr.simulate import (
    CaseControlSpec,
    ScenarioSpec,
    draw_sample,
    generate_population,
    run_optimism_experiment,
    run_relative_error_experiment,
)


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


class TestRunOptimismExperiment:
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
        cc = CaseControlSpec(sample_size=100, prevalence=0.05)
        rows = run_relative_error_experiment(cc, {"sample_size": [100]}, reps=5, seed=0)
        (row,) = rows
        assert row["reps"] == 5
        assert row["ratio"] == pytest.approx(row["rel_err_hte"] / row["rel_err_aic"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # no SE from one rep
    def test_monte_carlo_standard_errors(self):
        # rep r draws from the stream (seed, cell, r), so the per-rep errors
        # are recovered from the running means over 1, 2, ..., reps reps
        cc = CaseControlSpec(sample_size=100, prevalence=0.05)
        reps = 6
        means = []
        for k in range(1, reps + 1):
            (row,) = run_relative_error_experiment(cc, {"sample_size": [100]}, reps=k, seed=3)
            assert row["reps"] == k
            means.append([row["rel_err_hte"], row["rel_err_aic"]])
        means = np.array(means)
        sums = np.arange(1, reps + 1)[:, None] * means
        hte, aic = np.diff(sums, axis=0, prepend=0.0).T
        se = lambda v: v.std(ddof=1) / np.sqrt(reps)
        assert row["mc_se_hte"] == pytest.approx(se(hte), rel=1e-9)
        assert row["mc_se_aic"] == pytest.approx(se(aic), rel=1e-9)
        assert row["mc_se_diff"] == pytest.approx(se(hte - aic), rel=1e-9)

    def test_prevalence_sweep_runs(self):
        cc = CaseControlSpec(sample_size=150)
        rows = run_relative_error_experiment(
            cc, {"prevalence": [0.02, 0.1]}, reps=3, seed=1
        )
        assert [r["prevalence"] for r in rows] == [0.02, 0.1]


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
        cc = CaseControlSpec(sample_size=100, prevalence=0.05)
        (row,) = run_relative_error_experiment(cc, {"sample_size": [100]}, reps=reps, seed=0)
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
    """Forked workers reproduce the serial experiments bit for bit."""

    SPEC = ScenarioSpec(id="s2_bern", pop_size=5000, sample_size=200)
    CC = CaseControlSpec(sample_size=100, prevalence=0.05)

    @staticmethod
    def _workers(monkeypatch, n):
        monkeypatch.setattr(sim, "_worker_count", lambda tasks, work: n)

    def _run(self, monkeypatch, experiment, workers, reps):
        self._workers(monkeypatch, workers)
        if experiment == "optimism":
            return _hex(run_optimism_experiment(self.SPEC, reps=reps, seed=5).records)
        grid = {"sample_size": [100, 150]}
        return _hex(run_relative_error_experiment(self.CC, grid, reps=reps, seed=5))

    @staticmethod
    def _break_reps(monkeypatch, experiment, reps):
        """Make the listed replicates' covariate constant, so their fit is rank deficient."""
        if experiment == "optimism":
            real = sim.generate_population

            def population(spec, seed):
                x, y, size = real(spec, seed)
                return (np.zeros_like(x) if seed[1] in reps else x), y, size

            monkeypatch.setattr(sim, "generate_population", population)
        else:
            real = sim._case_control_population

            def population(cc, rng):
                x, y, cases = real(cc, rng)
                rep = rng.bit_generator.seed_seq.entropy[-1]
                return (np.zeros_like(x) if rep in reps else x), y, cases

            monkeypatch.setattr(sim, "_case_control_population", population)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # no SE from one rep
    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("reps", [1, 2, 5])
    def test_records_identical_for_any_worker_count(self, monkeypatch, experiment, workers, reps):
        serial = self._run(monkeypatch, experiment, 1, reps)
        assert self._run(monkeypatch, experiment, workers, reps) == serial

    def test_unequal_population_sizes_keep_task_order(self, monkeypatch):
        # cells of 1,000 and 8,000 units: the chunks are cut by work, not count
        specs = [CaseControlSpec(sample_size=100, prevalence=p) for p in (0.05, 0.005)]
        tasks = [(spec, 2, cell, rep) for cell, spec in enumerate(specs) for rep in range(3)]
        sizes = [sim._case_control_pop_size(t[0]) for t in tasks]
        assert sizes == [1000] * 3 + [8000] * 3
        results = []
        for workers in (1, 2, 3):
            self._workers(monkeypatch, workers)
            results.append(_hex(sim._map_replicates(sim._case_control_replicate, tasks, sizes)))
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    def test_failure_in_a_child_keeps_the_serial_records(self, monkeypatch, experiment):
        # with 2 workers the child computes replicate 4: the optimism chunks
        # are reps 0-2 and 3-4, the relative-error chunks (cells of 1,000
        # and 1,500 units) are cell 0 plus cell 1's rep 0, and the rest
        self._break_reps(monkeypatch, experiment, {4})
        serial = self._run(monkeypatch, experiment, 1, 5)
        assert self._run(monkeypatch, experiment, 2, 5) == serial
        if experiment == "optimism":
            assert len(serial) == 4
        else:
            assert [row["reps"] for row in serial] == [4, 4]

    @pytest.mark.parametrize("experiment", ["optimism", "relative_error"])
    def test_too_many_failures_in_a_child_same_message(self, monkeypatch, experiment):
        self._break_reps(monkeypatch, experiment, {3, 4})
        for workers in (1, 2):
            with pytest.raises(FitError, match=r"^2/5 replicates failed to fit$"):
                self._run(monkeypatch, experiment, workers, 5)

    def test_other_error_in_a_child_propagates(self, monkeypatch):
        real = sim.generate_population

        def population(spec, seed):
            if seed[1] == 4:
                raise RuntimeError("population 4 failed")
            return real(spec, seed)

        monkeypatch.setattr(sim, "generate_population", population)
        with pytest.raises(RuntimeError, match="population 4 failed"):
            self._run(monkeypatch, "optimism", 2, 5)
        assert multiprocessing.active_children() == []

    def test_below_threshold_builds_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        # 3 reps of 5,000 units: the CPU rule alone would fork 3 workers
        assert sim._worker_count(3, sim._FORK_MIN_WORK) == 3
        assert len(run_optimism_experiment(self.SPEC, reps=3, seed=5).records) == 3


class TestWorkerCount:
    WORK = 10**7

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    def test_unpinned_blas_stays_serial(self):
        assert sim._worker_count(100, self.WORK) == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    @pytest.mark.parametrize("threads, workers", [("1", 4), ("2", 2), ("3", 1), ("8", 1)])
    def test_cpus_divided_by_blas_threads(self, monkeypatch, var, threads, workers):
        monkeypatch.setenv(var, threads)
        assert sim._worker_count(100, self.WORK) == workers

    def test_openblas_setting_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        assert sim._worker_count(100, self.WORK) == 4

    def test_no_more_workers_than_tasks(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert sim._worker_count(3, self.WORK) == 3

    def test_below_work_threshold_serial(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert sim._worker_count(100, sim._FORK_MIN_WORK - 1) == 1

    def test_other_thread_running_serial(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert sim._worker_count(100, self.WORK) == 4
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert sim._worker_count(100, self.WORK) == 1
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_no_fork_serial(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert sim._worker_count(100, self.WORK) == 1


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
