"""Population generation, PPS sampling, and the Monte Carlo experiments."""

import numpy as np
import pytest

from svyerr.simulate import (
    CaseControlSpec,
    ScenarioSpec,
    brute_force_optimism,
    draw_sample,
    generate_population,
    run_optimism_experiment,
    run_relative_error_experiment,
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


class TestDrawSample:
    def test_uniform_sizes_give_equal_probabilities(self):
        pop = (np.zeros(20), np.zeros(20), np.ones(20))
        idx, design = draw_sample(pop, 5, seed=0)
        assert len(idx) == 5
        np.testing.assert_allclose(design.pi, 0.25)

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
        np.testing.assert_allclose(design.pi, np.minimum(1.0, 3.0 * m[idx] / m.sum()))

    def test_deterministic(self):
        pop = (np.zeros(40), np.zeros(40), np.linspace(1, 2, 40))
        i1, d1 = draw_sample(pop, 10, seed=5)
        i2, d2 = draw_sample(pop, 10, seed=5)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(d1.pi, d2.pi)


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
