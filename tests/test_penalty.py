"""Optimism penalties: analytic trace form, dAIC, dispersion, bootstrap."""

import os
import time

import numpy as np
import pytest

from svyerr import _fork, rules
from svyerr import families as fam
from svyerr import fit as fitting
from svyerr import penalty as pen
from svyerr.design import MeatStructure, SurveyDesign
from svyerr.families import Family, FamilyKind, Loss, LossKind
from svyerr.fit import FitError, fit_weighted_glm, sandwich_variance
from svyerr.penalty import (
    aic_naive,
    cov_lambda_y_elementwise,
    estimate_dispersion,
    glm_rule,
    hte_analytic,
    hte_bootstrap,
    in_sample_error,
)

GAUSS = Family(FamilyKind.GAUSSIAN)
BERN = Family(FamilyKind.BERNOULLI)
POIS = Family(FamilyKind.POISSON)
SQERR = Loss(LossKind.SQUARED_ERROR)


def _loop_estimate_dispersion(fit):
    """Reference rho-hat and phi-hat: one full-sample mask per PSU."""
    v = np.asarray(fam.unit_variance(fit.family, fit.mu)) * fit.family.dispersion
    e = (fit.y - fit.mu) / np.sqrt(v)
    num = 0.0
    npairs = 0
    sizes = []
    for j in np.unique(fit.design.psu):
        ej = e[fit.design.psu == j]
        m = len(ej)
        sizes.append(m)
        if m >= 2:
            num += (ej.sum() ** 2 - (ej**2).sum()) / 2.0
            npairs += m * (m - 1) // 2
    rho = num / (npairs * float(np.mean(e**2)))
    return rho, 1.0 + (float(np.mean(sizes)) - 1.0) * rho


def _gaussian_instance(rng, n=60, p=3, uniform=False):
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = X @ (rng.normal(size=p) * 0.5) + rng.normal(size=n)
    if uniform:
        design = SurveyDesign(pi=np.full(n, n / (4 * n)), pop_size=4 * n)
    else:
        design = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
    return X, y, design


class TestInSampleError:
    def test_uniform_mean(self):
        assert in_sample_error(SQERR, [1.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_weighted(self):
        d = SurveyDesign(weights=[1.0, 3.0], pop_size=4.0)
        got = in_sample_error(SQERR, np.array([1.0, 3.0]), np.array([1.0, 1.0]), d)
        assert got == pytest.approx(3.0)

    def test_perfect_fit_is_zero(self):
        y = np.array([0.2, 0.8])
        assert in_sample_error(SQERR, y, y) == 0.0
        assert in_sample_error(Loss(LossKind.DEVIANCE, BERN), np.array([0.0, 1.0]),
                               np.array([1e-12, 1 - 1e-12])) == pytest.approx(0.0, abs=1e-9)


class TestHteAnalytic:
    def test_uniform_gaussian_penalty_is_2p_sigma2_over_n(self):
        rng = np.random.default_rng(0)
        n, p = 50, 3
        X, y, d = _gaussian_instance(rng, n=n, p=p, uniform=True)
        f = fit_weighted_glm(X, y, GAUSS, d)
        report = hte_analytic(f, loss=SQERR, model_based=True)
        assert report.omega_hat == pytest.approx(
            2.0 * p * f.family.dispersion / n, rel=1e-12
        )
        # with the observed residuals the identity holds on average only
        observed = hte_analytic(f, loss=SQERR)
        assert observed.omega_hat == pytest.approx(
            2.0 * p * f.family.dispersion / n, rel=0.5
        )

    def test_model_based_deviance_rejected(self):
        X, y, d = _gaussian_instance(np.random.default_rng(0))
        f = fit_weighted_glm(X, y, GAUSS, d)
        with pytest.raises(ValueError, match="squared error only"):
            hte_analytic(f, model_based=True)

    def test_squared_error_rejects_stratified_meat(self):
        X, y, d = _gaussian_instance(np.random.default_rng(0), n=40)
        clustered = SurveyDesign(weights=d.weights, psu=np.repeat(np.arange(10), 4))
        f = fit_weighted_glm(X, y, GAUSS, clustered)
        with pytest.raises(ValueError, match="only available for the independent meat structure"):
            hte_analytic(f, loss=SQERR, structure=MeatStructure.STRATIFIED_CLUSTER)

    def test_zero_one_loss_rejected(self):
        rng = np.random.default_rng(0)
        y = (rng.random(30) < 0.4).astype(float)
        f = fit_weighted_glm(np.ones((30, 1)), y, BERN, SurveyDesign.uniform(30))
        with pytest.raises(ValueError, match="deviance and squared error only"):
            hte_analytic(f, loss=Loss(LossKind.ZERO_ONE))

    def test_zero_residuals_zero_omega(self):
        rng = np.random.default_rng(1)
        n = 20
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, -2.0])
        f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n), estimate_dispersion=False)
        assert hte_analytic(f, loss=SQERR).omega_hat == pytest.approx(0.0, abs=1e-15)

    def test_squared_error_matches_direct_trace_expression(self):
        rng = np.random.default_rng(2)
        X, y, d = _gaussian_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        report = hte_analytic(f, loss=SQERR)
        W = np.diag(d.weights)
        r = y - f.mu
        N = d.pop_size
        direct = float(d.weights @ r**2) / N + (2.0 / N) * np.trace(
            X.T @ W @ np.diag(r**2) @ W @ X @ np.linalg.inv(X.T @ W @ X)
        )
        assert report.err_hat == pytest.approx(direct, rel=1e-10)

    def test_err_hat_decomposition(self):
        rng = np.random.default_rng(3)
        X, y, d = _gaussian_instance(rng)
        report = hte_analytic(fit_weighted_glm(X, y, GAUSS, d), loss=SQERR)
        assert report.err_hat == report.err_weighted + report.omega_hat

    def test_squared_error_equals_deviance_criterion_times_dispersion(self):
        rng = np.random.default_rng(4)
        X, y, d = _gaussian_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        report = hte_analytic(f, loss=SQERR)
        assert report.err_hat == pytest.approx(
            hte_analytic(f).daic * f.family.dispersion, rel=1e-12
        )

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
    def test_trace_equals_elementwise_covariance(self, family):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(30, 120))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            eta = X @ (rng.normal(size=3) * 0.4)
            if family.kind is FamilyKind.GAUSSIAN:
                y = eta + rng.normal(size=n)
            elif family.kind is FamilyKind.BERNOULLI:
                y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
            else:
                y = rng.poisson(np.exp(eta)).astype(float)
            d = SurveyDesign(pi=rng.uniform(0.05, 1.0, size=n))
            f = fit_weighted_glm(X, y, family, d)
            sw = sandwich_variance(f)
            cov = cov_lambda_y_elementwise(f)
            elementwise = float(d.weights @ cov) / (d.pop_size * f.family.dispersion)
            assert sw.trace_JV == pytest.approx(elementwise, rel=1e-8)


class TestDaic:
    def test_equals_deviance_plus_twice_trace(self):
        rng = np.random.default_rng(7)
        X, y, d = _gaussian_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        assert hte_analytic(f).daic == pytest.approx(
            f.deviance_weighted + 2.0 * sandwich_variance(f).trace_JV, rel=1e-12
        )

    def test_zero_residuals_zero_penalty(self):
        rng = np.random.default_rng(8)
        n = 15
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([0.4, 1.1])
        f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n), estimate_dispersion=False)
        assert hte_analytic(f).daic == pytest.approx(0.0, abs=1e-18)

    def test_effective_parameters_approach_p_uniform_gaussian(self):
        # correctly specified model, uniform weights: n tr(J V) -> p
        rng = np.random.default_rng(9)
        n, p, reps = 2000, 3, 200
        phats = []
        for _ in range(reps):
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            y = X @ np.array([0.5, -0.2, 0.8]) + rng.normal(size=n)
            f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n))
            phats.append(hte_analytic(f).p_hat)
        assert np.mean(phats) == pytest.approx(p, rel=0.10)


class TestEstimateDispersion:
    @staticmethod
    def _beta_binomial_fit(rho, seed, n_psu=200, size=10):
        rng = np.random.default_rng(seed)
        if rho > 0:
            a = (1.0 / rho - 1.0) / 2.0  # Beta(a,a): within-PSU correlation rho
            p = rng.beta(a, a, size=n_psu)
        else:
            p = np.full(n_psu, 0.5)
        y = (rng.random((n_psu, size)) < p[:, None]).astype(float).ravel()
        n = n_psu * size
        psu = np.repeat(np.arange(n_psu), size)
        d = SurveyDesign(pi=np.full(n, 0.5), strata=np.zeros(n, dtype=int), psu=psu)
        return fit_weighted_glm(np.ones((n, 1)), y, BERN, d)

    def test_independent_data_rho_near_zero(self):
        rho, phi = estimate_dispersion(self._beta_binomial_fit(0.0, seed=0))
        assert rho == pytest.approx(0.0, abs=0.02)

    def test_exchangeable_rho_recovered(self):
        rho, phi = estimate_dispersion(self._beta_binomial_fit(0.2, seed=1))
        assert rho == pytest.approx(0.2, abs=0.05)
        assert phi == pytest.approx(1.0 + 9.0 * rho)

    def test_all_singletons_return_convention(self):
        rng = np.random.default_rng(2)
        n = 30
        y = (rng.random(n) < 0.5).astype(float)
        d = SurveyDesign(pi=np.full(n, 0.5), strata=np.zeros(n, dtype=int), psu=np.arange(n))
        f = fit_weighted_glm(np.ones((n, 1)), y, BERN, d)
        with pytest.warns(UserWarning, match="singleton"):
            assert estimate_dispersion(f) == (0.0, 1.0)

    def test_matches_loop_oracle_random_designs(self):
        rng = np.random.default_rng(18)
        for trial in range(100):
            n_psu = int(rng.integers(2, 12))
            sizes = rng.integers(1, 6, size=n_psu)  # singleton PSUs included
            sizes[0] = max(sizes[0], 2)
            cell = np.repeat(np.arange(n_psu), sizes)
            n = int(sizes.sum())
            labels = rng.choice(500, size=n_psu, replace=False) * 4 + 9
            if trial % 2:
                labels = np.array([f"c{v}" for v in labels])
            order = rng.permutation(n)
            d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n),
                             strata=np.zeros(n, dtype=int), psu=labels[cell][order])
            y = (rng.random(n) < 0.4).astype(float)
            y[:2] = (0.0, 1.0)
            f = fit_weighted_glm(np.ones((n, 1)), y, BERN, d)
            got = estimate_dispersion(f)
            want = _loop_estimate_dispersion(f)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_matches_loop_oracle_large_design(self):
        # n = 100,000 units in 5,000 PSUs of 20, rows shuffled
        rng = np.random.default_rng(19)
        n_psu, size = 5_000, 20
        cell = np.repeat(np.arange(n_psu), size)[rng.permutation(n_psu * size)]
        n = cell.size
        p = 1.0 / (1.0 + np.exp(-rng.normal(scale=0.7, size=n_psu)))[cell]
        y = (rng.random(n) < p).astype(float)
        d = SurveyDesign(pi=np.full(n, 0.1), strata=cell // 100, psu=cell * 2 + 1)
        f = fit_weighted_glm(np.ones((n, 1)), y, BERN, d)
        np.testing.assert_allclose(estimate_dispersion(f), _loop_estimate_dispersion(f),
                                   rtol=1e-12)

    def test_psu_labels_reused_across_strata_match_unique_labels(self):
        # 30 strata x PSU labels 1, 2 in each, versus unique labels
        rng = np.random.default_rng(20)
        cell = np.repeat(np.arange(60), 8)[rng.permutation(480)]
        p = 1.0 / (1.0 + np.exp(-rng.normal(scale=0.8, size=60)))[cell]
        y = (rng.random(480) < p).astype(float)
        pi = rng.uniform(0.2, 1.0, size=480)
        got = []
        for psu in (cell % 2 + 1, cell):
            d = SurveyDesign(pi=pi, strata=cell // 2, psu=psu)
            got.append(estimate_dispersion(fit_weighted_glm(np.ones((480, 1)), y, BERN, d)))
        np.testing.assert_allclose(got[0], got[1], rtol=1e-12)
        assert got[0][0] > 0.05

    def test_requires_psu_labels(self):
        rng = np.random.default_rng(3)
        y = (rng.random(20) < 0.5).astype(float)
        f = fit_weighted_glm(np.ones((20, 1)), y, BERN, SurveyDesign.uniform(20))
        with pytest.raises(ValueError):
            estimate_dispersion(f)


class TestHteBootstrap:
    def test_gaussian_glm_matches_analytic(self):
        rng = np.random.default_rng(10)
        X, y, d = _gaussian_instance(rng, n=80)
        f = fit_weighted_glm(X, y, GAUSS, d)
        analytic = hte_analytic(f, loss=SQERR)
        rule = glm_rule(X, d, GAUSS)
        boot = hte_bootstrap(rule, f, B=2000, seed=1, loss=SQERR)
        assert boot.omega_hat == pytest.approx(analytic.omega_hat, rel=0.10)

    def test_psu_labels_scale_omega_by_design_effect(self):
        rng = np.random.default_rng(11)
        X, y, d = _gaussian_instance(rng, n=40)
        clustered = SurveyDesign(weights=d.weights, psu=np.repeat(np.arange(10), 4))
        plain = hte_bootstrap(glm_rule(X, d, GAUSS), fit_weighted_glm(X, y, GAUSS, d),
                              B=50, seed=2, loss=SQERR)
        gen = fit_weighted_glm(X, y, GAUSS, clustered)
        scaled = hte_bootstrap(glm_rule(X, clustered, GAUSS), gen, B=50, seed=2, loss=SQERR)
        rho, phi = estimate_dispersion(gen)
        assert (plain.rho_hat, plain.phi_hat) == (None, 1.0)
        assert (scaled.rho_hat, scaled.phi_hat) == (rho, phi)
        assert abs(phi - 1.0) > 0.1
        assert scaled.omega_hat == pytest.approx(phi * plain.omega_hat, rel=1e-12)

    def test_constant_rule_zero_omega(self):
        rng = np.random.default_rng(12)
        X, y, d = _gaussian_instance(rng, n=40)

        def constant_rule(Y_):
            return np.full(Y_.shape, 0.3)

        boot = hte_bootstrap(constant_rule, fit_weighted_glm(X, y, GAUSS, d),
                             B=2000, seed=3, loss=SQERR)
        assert boot.omega_hat == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(13)
        X, y, d = _gaussian_instance(rng, n=30)
        rule = glm_rule(X, d, GAUSS)
        gen = fit_weighted_glm(X, y, GAUSS, d)
        r1 = hte_bootstrap(rule, gen, B=40, seed=9, loss=SQERR)
        r2 = hte_bootstrap(rule, gen, B=40, seed=9, loss=SQERR)
        assert r1.omega_hat == r2.omega_hat

    def test_failing_replicates_dropped_then_error(self):
        rng = np.random.default_rng(14)
        X, y, d = _gaussian_instance(rng, n=30)
        calls = {"n": 0}

        def flaky_rule(Y_):
            calls["n"] += 1
            if calls["n"] > 1:  # fail on every bootstrap replicate
                return np.full(Y_.shape, np.nan)
            return Y_

        with pytest.raises(FitError, match="replicates"):
            hte_bootstrap(flaky_rule, fit_weighted_glm(X, y, GAUSS, d), B=20, seed=4,
                          loss=SQERR)

    def test_rule_failing_on_the_observed_outcomes_rejected(self):
        X, y, d = _gaussian_instance(np.random.default_rng(14), n=30)

        def rule(Y_):
            return np.full(Y_.shape, np.nan)

        with pytest.raises(FitError, match="^the rule failed to train on the observed outcomes$"):
            hte_bootstrap(rule, fit_weighted_glm(X, y, GAUSS, d), B=20, seed=4, loss=SQERR)

    def test_report_dict_carries_dropped_replicates(self):
        rng = np.random.default_rng(15)
        X, y, d = _gaussian_instance(rng, n=30)
        seen = {"rows": -1}  # replicate index of the block's first row; -1 is the base fit

        def flaky_rule(Y_):
            b = seen["rows"] + np.arange(len(Y_))
            seen["rows"] += len(Y_)
            mu = Y_.copy()
            mu[np.isin(b, (1, 5))] = np.nan  # replicates 1 and 5 fail to train
            return mu

        report = hte_bootstrap(flaky_rule, fit_weighted_glm(X, y, GAUSS, d), B=20, seed=4,
                               loss=SQERR)
        assert report.dropped_replicates == 2
        assert report.to_dict()["dropped_replicates"] == 2

    def test_rule_factors_its_basis_once(self, monkeypatch):
        # the pivoted QR of sqrt(W) X depends on X and the weights only, so the
        # rule takes it once when built, not once per block it retrains on
        rng = np.random.default_rng(16)
        n = 60
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ [0.2, 0.8, -0.5]))).astype(float)
        d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
        loss = Loss(LossKind.DEVIANCE, BERN)
        gen = fit_weighted_glm(X, y, BERN, d)
        Y = np.stack([y, 1.0 - y, (rng.random(n) < 0.5).astype(float)])
        alone = fitting.irls(X, Y, BERN, d)  # factors its own basis
        calls = []
        inner = fitting._solve_basis

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(fitting, "_solve_basis", counted)
        rule = glm_rule(X, d, BERN)
        hte_bootstrap(rule, gen, B=100, seed=0, loss=loss)  # one base fit, four blocks
        assert len(calls) == 1
        mu = rule(Y)
        assert len(calls) == 1
        assert [float.hex(v) for v in mu.ravel()] == [float.hex(v) for v in alone.mu.ravel()]

    def test_bootstrap_owns_the_loss(self):
        # one rule, two losses: the gaussian natural parameter is mu / sigma^2,
        # so the deviance penalty times sigma-hat^2 is the squared-error one
        rng = np.random.default_rng(17)
        X, y, d = _gaussian_instance(rng, n=50)
        gen = fit_weighted_glm(X, y, GAUSS, d)
        rule = glm_rule(X, d, GAUSS)
        dev = hte_bootstrap(rule, gen, B=64, seed=5, loss=Loss(LossKind.DEVIANCE, gen.family))
        sq = hte_bootstrap(rule, gen, B=64, seed=5, loss=SQERR)
        sigma2 = gen.family.dispersion
        assert sigma2 != 1.0
        assert dev.omega_hat * sigma2 == pytest.approx(sq.omega_hat, rel=1e-13)
        assert dev.err_weighted * sigma2 == pytest.approx(sq.err_weighted, rel=1e-13)

    def test_rejects_tiny_b(self):
        rng = np.random.default_rng(15)
        X, y, d = _gaussian_instance(rng, n=30)
        with pytest.raises(ValueError):
            hte_bootstrap(glm_rule(X, d, GAUSS), fit_weighted_glm(X, y, GAUSS, d),
                          B=1, seed=0, loss=SQERR)


class TestRuleSums:
    """``_rule_sums`` keeps the bits of its plain form on the rows that trained.

    numpy sums the rows of a C-order block one after another but the
    columns of an F-order block pairwise, and the kNN vote block is
    F-order, so the form of each product decides the last bits.
    """

    @staticmethod
    def _plain(rule, Y, mu, loss):
        lam = rule(Y)
        ok = ~np.isnan(lam).any(axis=1)
        lam, e = fam.lambda_hat(loss, lam[ok]), Y[ok] - mu
        return lam.sum(axis=0), e.sum(axis=0), (lam * e).sum(axis=0), int(ok.sum())

    @pytest.mark.parametrize("failing_row", [None, 5])
    @pytest.mark.parametrize("kind", ["knn", "glm"])
    def test_sums_equal_the_plain_form(self, kind, failing_row):
        n = 400
        rng = np.random.default_rng(21)
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X[:, 0] - X[:, 1])))).astype(float)
        d = SurveyDesign(weights=1.0 / rng.uniform(0.1, 1.0, size=n))
        X1 = np.column_stack([np.ones(n), X])
        gen = fit_weighted_glm(X1, y, BERN, d)
        Y = np.stack([fam._draw_responses(np.random.default_rng([4, b]), BERN, gen.mu)
                      for b in range(pen._BLOCK)])
        if kind == "knn":
            inner, loss = rules.knn_rule(X, d, 15), Loss(LossKind.ZERO_ONE)
            assert inner(Y).flags.f_contiguous
        else:
            inner, loss = glm_rule(X1, d, BERN), Loss(LossKind.DEVIANCE, BERN)

        def rule(Y_):
            mu = inner(Y_)
            if failing_row is not None:
                mu[failing_row] = np.nan
            return mu

        got, want = pen._rule_sums(rule, Y, gen.mu, loss), self._plain(rule, Y, gen.mu, loss)
        assert got[3] == want[3] == pen._BLOCK - (failing_row is not None)
        for g, w in zip(got[:3], want[:3]):
            assert np.array_equal(g, w)


def _report_hex(report):
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _array_bytes(obj):
    """The bytes of every numpy array in ``obj``, its tuples, lists and attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(map(_array_bytes, obj))
    return _array_bytes(list(vars(obj).values())) if hasattr(obj, "__dict__") else 0


class TestBootstrapFanOut:
    """Forked (seed, block) tasks give the serial reports bit for bit.

    Bootstraps this small stay in one process under the measured rule, so
    the fan-out is forced (the ``fan_out`` fixture) and the forks counted.  With
    B = 100 a seed has blocks of 32, 32, 32 and 4 replicates; the first
    task runs alone, and the rest are cut by replicate count, so the last
    chunk (a child's) always ends with the last seed's short block.
    """

    B = 100
    SEEDS = [0, 1, 2]

    def _serial(self, fan_out, rule_list, gen, loss):
        """Each rule's report from its own one-seed ``hte_bootstrap``, in one process."""
        forks = fan_out(1)
        out = [[_report_hex(hte_bootstrap(rule, gen, self.B, seed, loss)) for rule in rule_list]
               for seed in self.SEEDS]
        assert forks == []
        return out

    def _forked(self, fan_out, workers, rule_list, gen, loss):
        forks = fan_out(workers)
        out = [[_report_hex(r) for r in reports]
               for reports in pen._bootstrap_reports(rule_list, gen, self.B, self.SEEDS, loss)]
        assert len(forks) == workers - 1
        _assert_no_child_left()
        return out

    @pytest.mark.parametrize("family", [BERN, GAUSS], ids=["bernoulli", "gaussian"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_glm_rule_reports_identical_for_any_worker_count(self, fan_out, family, workers):
        rng = np.random.default_rng(40)
        X, y, d = _gaussian_instance(rng, n=80)
        if family is BERN:
            y = (rng.random(80) < 1.0 / (1.0 + np.exp(-X @ [0.2, 0.8, -0.5]))).astype(float)
        gen = fit_weighted_glm(X, y, family, d)
        args = ([glm_rule(X, d, family)], gen, Loss(LossKind.DEVIANCE, gen.family))
        serial = self._serial(fan_out, *args)
        assert self._forked(fan_out, workers, *args) == serial

    @pytest.mark.parametrize("workers", [2, 3])
    def test_knn_vote_rules_identical_for_any_worker_count(self, fan_out, workers):
        rng = np.random.default_rng(41)
        n = 90
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
        d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n), psu=np.arange(n) % 9)
        gen = fit_weighted_glm(np.column_stack([np.ones(n), X]), y, BERN, d)
        args = (rules._vote_rules(X, d, [3, 5, 9]), gen, Loss(LossKind.ZERO_ONE))
        serial = self._serial(fan_out, *args)
        assert self._forked(fan_out, workers, *args) == serial

    @pytest.mark.parametrize("workers", [2, 3])
    def test_dropped_replicates_in_a_child_identical(self, fan_out, workers):
        # replicates 5 and 70 of the last seed fail to train; its blocks all
        # run in the last child for 2 and for 3 workers
        rng = np.random.default_rng(42)
        X, y, d = _gaussian_instance(rng, n=50)
        gen = fit_weighted_glm(X, y, GAUSS, d)
        failing = np.stack([
            fam._draw_responses(np.random.default_rng([self.SEEDS[-1], b]), gen.family, gen.mu)
            for b in (5, 70)
        ])
        inner = glm_rule(X, d, GAUSS)

        def rule(Y):  # a pure function of its block
            mu = inner(Y)
            mu[(Y[:, None, :] == failing).all(axis=2).any(axis=1)] = np.nan
            return mu

        serial = self._serial(fan_out, [rule], gen, SQERR)
        assert [reports[0]["dropped_replicates"] for reports in serial] == [0, 0, 2]
        assert self._forked(fan_out, workers, [rule], gen, SQERR) == serial

    def test_a_child_holds_at_most_one_seed_of_block_sums(self, fan_out, monkeypatch, tmp_path):
        # 16 seeds of two blocks over two workers: the child's chunk spans
        # about 8 seeds, but what it keeps until the chunk is done stays
        # within one seed's block sums (3 x n floats a block), not one per block
        forks = fan_out(2)
        n, B = 400, 2 * pen._BLOCK
        X, y, d = _gaussian_instance(np.random.default_rng(44), n=n)
        gen = fit_weighted_glm(X, y, GAUSS, d)
        serve = _fork._serve

        def measured(work, chunk, fd):  # runs in the child
            def counted(chunk):
                held = 0
                for item in work(chunk):
                    held += _array_bytes(item)
                    yield item
                (tmp_path / str(os.getpid())).write_text(str(held))

            serve(counted, chunk, fd)

        monkeypatch.setattr(_fork, "_serve", measured)
        reports = pen._bootstrap_reports([glm_rule(X, d, GAUSS)], gen, B, range(16), SQERR)
        assert len(reports) == 16
        [held] = [int(path.read_text()) for path in tmp_path.iterdir()]
        assert 0 < held <= (B // pen._BLOCK) * 3 * n * 8
        assert len(forks) == 1
        _assert_no_child_left()

    def _one_seed(self, rule, gen):
        return hte_bootstrap(rule, gen, self.B, 0, SQERR)

    def _gaussian(self):
        X, y, d = _gaussian_instance(np.random.default_rng(43), n=40)
        return glm_rule(X, d, GAUSS), fit_weighted_glm(X, y, GAUSS, d)

    def test_error_in_a_child_is_raised_in_the_parent(self, fan_out):
        # one seed and two workers: the child runs the short block alone
        forks = fan_out(2)
        inner, gen = self._gaussian()
        parent = os.getpid()

        def rule(Y):
            if 1 < len(Y) < pen._BLOCK:
                raise ValueError("boom" if os.getpid() != parent else "short block in the parent")
            return inner(Y)

        with pytest.raises(ValueError) as info:
            self._one_seed(rule, gen)
        assert str(info.value) == "boom"
        cause = info.value.__cause__
        assert isinstance(cause, _fork.WorkerError)
        assert str(cause).startswith("raised in forked worker ")
        assert "ValueError: boom" in str(cause)  # the child's traceback
        assert len(forks) == 1
        _assert_no_child_left()

    def test_child_that_dies_raises_a_clear_error(self, fan_out):
        forks = fan_out(2)
        inner, gen = self._gaussian()
        parent = os.getpid()

        def rule(Y):
            if 1 < len(Y) < pen._BLOCK:
                if os.getpid() == parent:
                    raise AssertionError("short block in the parent")
                os._exit(7)
            return inner(Y)

        with pytest.raises(_fork.WorkerError, match=r"without returning its results \(exit code 7\)"):
            self._one_seed(rule, gen)
        assert len(forks) == 1
        _assert_no_child_left()

    def test_parent_failure_kills_its_children(self, fan_out):
        # the child sleeps on the short block; the parent fails on its second
        # full block, and must not wait for the child to finish
        forks = fan_out(2)
        inner, gen = self._gaussian()
        parent, blocks = os.getpid(), []

        def rule(Y):
            if os.getpid() != parent:
                if len(Y) < pen._BLOCK:
                    time.sleep(60.0)
            elif len(Y) == pen._BLOCK:
                blocks.append(None)
                if len(blocks) == 2:
                    raise ValueError("parent boom")
            return inner(Y)

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="parent boom"):
            self._one_seed(rule, gen)
        assert time.perf_counter() - t0 < 30.0
        assert len(forks) == 1
        _assert_no_child_left()


class TestAicNaive:
    def test_penalty_term_is_2p_over_n(self):
        rng = np.random.default_rng(16)
        n = 40
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
        f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n))
        dev_mean = f.deviance_weighted  # uniform census: weighted = mean
        assert aic_naive(f) - dev_mean == pytest.approx(2.0 * 2 / n, rel=1e-10)

    def test_mean_only_toy_closed_form(self):
        # y = (0, 2): mu = 1, sigma2 = 1, mean unit deviance 1, penalty 2*1/2
        f = fit_weighted_glm(np.ones((2, 1)), np.array([0.0, 2.0]), GAUSS,
                             SurveyDesign.uniform(2))
        assert aic_naive(f) == pytest.approx(2.0)

    def test_matches_design_criterion_under_uniform_gaussian(self):
        rng = np.random.default_rng(17)
        n, reps = 400, 100
        gaps = []
        for _ in range(reps):
            X = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = X @ np.array([0.3, -0.7]) + rng.normal(size=n)
            f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n))
            gaps.append(hte_analytic(f).daic - aic_naive(f))
        assert np.mean(gaps) == pytest.approx(0.0, abs=5e-3)
