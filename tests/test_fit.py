"""Weighted GLM fitting, information matrix, and sandwich variance."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from scipy import linalg as sla

from svyerr import families as fam
from svyerr import fit as fit_mod
from svyerr.design import MeatStructure, SurveyDesign
from svyerr.families import Family, FamilyKind, natural_to_mean
from svyerr.fit import (
    FitError,
    GlmFit,
    fit_weighted_glm,
    information_J,
    irls,
    sandwich_variance,
)
from svyerr.penalty import glm_rule, hte_analytic, hte_bootstrap

GAUSS = Family(FamilyKind.GAUSSIAN)
BERN = Family(FamilyKind.BERNOULLI)
POIS = Family(FamilyKind.POISSON)


def _random_instance(rng, n=40, p=3):
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    theta = rng.normal(size=p) * 0.5
    y = X @ theta + rng.normal(size=n)
    design = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
    return X, y, design


def _wls_qr(X, z, wts):
    """Weighted least squares via a pivoted QR of sqrt(W) X."""
    sw = np.sqrt(wts)
    A = X * sw[:, None]
    q, r, piv = sla.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(A.shape) * np.finfo(float).eps if diag.size else 0.0
    if np.any(diag <= tol):
        bad = int(piv[int(np.argmax(diag <= tol))])
        raise FitError(f"design matrix is rank deficient (column {bad})")
    theta = np.empty(X.shape[1])
    theta[piv] = sla.solve_triangular(r, q.T @ (z * sw))
    return theta


def _serial_irls(X, y, family, design):
    """Reference IRLS for one outcome vector: a QR solve per iteration.

    Returns (theta, mu, iterations) or raises FitError; reads MAX_ITER and
    TOL_SCORE from the fit module so monkeypatching reaches both paths.
    """
    w = design.weights
    deviance = fam.Loss(fam.LossKind.DEVIANCE, family)
    score_scale = max(1.0, float(np.max(np.abs(X.T @ (w * np.abs(y) + w)))))
    mu = fam._initial_mu(family, y)
    lam = np.asarray(fam.mean_to_natural(family, mu))
    dev = float(w @ fam.loss_q(deviance, y, mu))
    theta = None
    for it in range(1, fit_mod.MAX_ITER + 1):
        v = np.asarray(fam.unit_variance(family, mu))
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise FitError("degenerate fit: zero model variance at a fitted point")
        z = lam + (y - mu) / v
        theta_new = _wls_qr(X, z, w * v)
        step = 1.0
        for _ in range(30):
            cand = theta_new if theta is None else (1 - step) * theta + step * theta_new
            lam_c = X @ cand
            mu_c = np.asarray(fam.natural_to_mean(family, lam_c))
            with np.errstate(over="ignore", invalid="ignore"):
                dev_c = float(w @ fam.loss_q(deviance, y, mu_c))
            if theta is None or (np.isfinite(dev_c) and dev_c <= dev + 1e-12 * (1.0 + abs(dev))):
                break
            step /= 2.0
        else:
            raise FitError("step-halving failed to decrease the weighted deviance")
        theta, lam, mu, dev = cand, lam_c, mu_c, dev_c
        score = X.T @ (w * (y - mu))
        if np.max(np.abs(score)) <= fit_mod.TOL_SCORE * score_scale:
            return theta, mu, it
    raise FitError(f"IRLS did not converge in {fit_mod.MAX_ITER} iterations")


def _outcome_block(family, seed, m=12, n=80, coef=(0.2, 0.7, -0.5)):
    """A covariate matrix, a design, and m outcome rows drawn from one GLM."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    gen_mu = natural_to_mean(family, X @ np.array(coef))
    d = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
    Y = np.stack([fam._draw_responses(rng, family, gen_mu) for _ in range(m)])
    return X, Y, d


class TestIrlsCore:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_serial_oracle(self, kind, seed):
        family = Family(kind)
        X, Y, d = _outcome_block(family, seed)
        block = irls(X, Y, family, d)
        for i, y in enumerate(Y):
            theta, mu, iterations = _serial_irls(X, y, family, d)
            assert block.errors[i] is None
            np.testing.assert_allclose(block.theta[i], theta, rtol=1e-10, atol=0)
            np.testing.assert_allclose(block.mu[i], mu, rtol=1e-10, atol=0)
            assert block.iterations[i] == iterations

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_row_alone_matches_row_in_block(self, kind):
        family = Family(kind)
        X, Y, d = _outcome_block(family, seed=7)
        block = irls(X, Y, family, d)
        for i in range(len(Y)):
            alone = irls(X, Y[i:i + 1], family, d)
            np.testing.assert_allclose(alone.theta[0], block.theta[i], rtol=1e-12, atol=0)
            np.testing.assert_allclose(alone.mu[0], block.mu[i], rtol=1e-12, atol=0)
            assert alone.iterations[0] == block.iterations[i]

    def test_fit_weighted_glm_is_the_one_row_core(self):
        X, Y, d = _outcome_block(BERN, seed=8, m=1)
        f = fit_weighted_glm(X, Y[0], BERN, d)
        block = irls(X, Y, BERN, d)
        np.testing.assert_array_equal(f.theta, block.theta[0])
        np.testing.assert_array_equal(f.mu, block.mu[0])
        assert f.iterations == block.iterations[0]

    def test_near_collinear_covariates_fit_like_the_qr_oracle(self):
        # x next to x + 1e-8 noise: the normal equations of X itself are
        # singular to working precision, those of the QR basis are not
        rng = np.random.default_rng(0)
        n = 2_000
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x, x + 1e-8 * rng.normal(size=n)])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.3 + x)))).astype(float)
        d = SurveyDesign(pi=rng.uniform(0.1, 1.0, size=n))
        _, mu, iterations = _serial_irls(X, y, BERN, d)
        f = fit_weighted_glm(X, y, BERN, d)
        assert f.iterations == iterations == 4
        # |theta| is about 2e7, so X @ theta rounds to ~1e-8 in either fit:
        # the oracle's own mu lies 2.9e-8 (relative) from an 80-bit refit
        np.testing.assert_allclose(f.mu, mu, rtol=5e-8, atol=0)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_badly_scaled_covariate_fits_like_the_qr_oracle(self, kind):
        # a covariate of scale 1e8 puts 1e8 between R's diagonal entries;
        # the basis is W-orthonormal and the fit matches the oracle's path
        family = Family(kind)
        X, Y, d = _outcome_block(family, seed=11, m=4)
        X_big = X * np.array([1.0, 1e8, 1.0])
        Bt, M = fit_mod._solve_basis(X_big, d.weights)
        np.testing.assert_allclose((Bt * d.weights) @ Bt.T, np.eye(3), rtol=0, atol=1e-14)
        np.testing.assert_allclose(X_big @ M, Bt.T, rtol=0, atol=1e-12)
        block = irls(X_big, Y, family, d)
        for i, y in enumerate(Y):
            theta, mu, iterations = _serial_irls(X_big, y, family, d)
            np.testing.assert_allclose(block.theta[i], theta, rtol=1e-10, atol=0)
            np.testing.assert_allclose(block.mu[i], mu, rtol=1e-10, atol=0)
            assert block.iterations[i] == iterations

    @staticmethod
    def _cauchy_poisson_block(seed):
        """Four Poisson rows on a heavy-tailed covariate: fits that need step-halving."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        X = np.column_stack([np.ones(n), rng.standard_cauchy(n)])
        Y = rng.poisson(np.exp(rng.normal(1, 2, (4, n)))).astype(float)
        return X, Y, SurveyDesign(pi=rng.uniform(0.05, 1.0, n))

    @pytest.mark.parametrize("seed, failed", [(362, []), (30, [2])])
    def test_step_halving_matches_serial_oracle(self, monkeypatch, seed, failed):
        X, Y, d = self._cauchy_poisson_block(seed)
        rounds, natural_to_mean = [], fam.natural_to_mean
        with monkeypatch.context() as m:
            m.setattr(fam, "natural_to_mean", lambda *a: rounds.append(None) or natural_to_mean(*a))
            block = irls(X, Y, POIS, d)
        # one candidate per iteration, and one more per halving round
        assert len(rounds) > max(block.iterations)
        for i, y in enumerate(Y):
            if i in failed:
                with pytest.raises(FitError) as exc:
                    _serial_irls(X, y, POIS, d)
                assert block.errors[i] == str(exc.value)
                assert np.isnan(block.theta[i]).all() and np.isnan(block.mu[i]).all()
                continue
            theta, mu, iterations = _serial_irls(X, y, POIS, d)
            assert block.errors[i] is None
            np.testing.assert_allclose(block.theta[i], theta, rtol=1e-10, atol=0)
            np.testing.assert_allclose(block.mu[i], mu, rtol=1e-10, atol=0)
            assert block.iterations[i] == iterations

    def test_fit_raises_the_rows_halving_failure(self):
        X, Y, d = self._cauchy_poisson_block(30)
        with pytest.raises(FitError, match="^step-halving failed to decrease the weighted deviance$"):
            fit_weighted_glm(X, Y[2], POIS, d)

    def test_singular_system_is_a_nan_row_not_a_failed_block(self):
        A = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
        got = fit_mod._solve_rows(A, np.ones((3, 2)))
        np.testing.assert_array_equal(got, [[1.0, 1.0], [np.nan, np.nan], [0.5, 0.5]])

    def test_singular_normal_equations_fail_only_their_row(self, monkeypatch):
        X, Y, d = _outcome_block(BERN, seed=12)
        want = irls(X, Y, BERN, d)
        solve, calls = fit_mod._solve_rows, []

        def one_nan_row(A, b):
            out = solve(A, b)
            if not calls:  # the first solve has every row active, in block order
                out[3] = np.nan
            calls.append(None)
            return out

        monkeypatch.setattr(fit_mod, "_solve_rows", one_nan_row)
        got = irls(X, Y, BERN, d)
        assert got.errors == [None] * 3 + ["weighted normal equations are singular"] + [None] * 8
        assert np.isnan(got.theta[3]).all() and np.isnan(got.mu[3]).all()
        assert got.iterations[3] == 0
        # the other rows follow their own paths; the stacked products are one
        # row shorter, which BLAS may round differently in the last bits
        keep = np.arange(len(Y)) != 3
        np.testing.assert_allclose(got.theta[keep], want.theta[keep], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.mu[keep], want.mu[keep], rtol=1e-12, atol=0)
        np.testing.assert_array_equal(got.iterations[keep], want.iterations[keep])

    def test_failed_rows_are_the_oracle_failures(self, monkeypatch):
        X, Y, d = _outcome_block(BERN, seed=9, m=24)
        iterations = irls(X, Y, BERN, d).iterations
        cap = int(np.max(iterations)) - 1
        monkeypatch.setattr(fit_mod, "MAX_ITER", cap)
        block = irls(X, Y, BERN, d)
        want = []
        for y in Y:
            try:
                _serial_irls(X, y, BERN, d)
                want.append(None)
            except FitError as exc:
                want.append(str(exc))
        assert block.errors == want
        failed = np.array([e is not None for e in want])
        assert 0 < failed.sum() < len(Y)
        assert np.all(np.isnan(block.mu[failed])) and np.all(np.isnan(block.theta[failed]))
        assert np.all(np.isfinite(block.mu[~failed]))

    def test_bootstrap_drops_exactly_the_failed_replicates(self, monkeypatch):
        # a strong signal on n=30 spreads the iteration counts, so a low
        # MAX_ITER fails a few replicates without failing the bootstrap
        X, Y, d = _outcome_block(BERN, seed=10, m=1, n=30, coef=(0.5, 2.0, -1.5))
        gen = fit_weighted_glm(X, Y[0], BERN, d)
        loss = fam.Loss(fam.LossKind.DEVIANCE, gen.family)
        B, seed = 100, 3
        draws = [fam._draw_responses(np.random.default_rng([seed, b]), BERN, gen.mu)
                 for b in range(B)]
        iterations = irls(X, np.stack(draws), BERN, d).iterations
        cap = min(c for c in set(iterations.tolist()) if (iterations > c).sum() <= 0.1 * B)
        monkeypatch.setattr(fit_mod, "MAX_ITER", cap)
        dropped = 0
        for y in draws:
            try:
                _serial_irls(X, y, BERN, d)
            except FitError:
                dropped += 1
        assert 0 < dropped <= 0.1 * B
        report = hte_bootstrap(glm_rule(X, d, BERN), gen, B=B, seed=seed, loss=loss)
        assert report.dropped_replicates == dropped


class TestFitWeightedGlm:
    @pytest.mark.parametrize("x_cut, y_cut, d_cut", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    def test_mismatched_lengths_rejected(self, x_cut, y_cut, d_cut):
        X, y, d = _random_instance(np.random.default_rng(0))
        with pytest.raises(ValueError, match="^X, y, and design must have matching lengths$"):
            fit_weighted_glm(X[x_cut:], y[y_cut:], GAUSS, SurveyDesign(weights=d.weights[d_cut:]))

    def test_gaussian_uniform_matches_ols(self):
        rng = np.random.default_rng(0)
        X, y, _ = _random_instance(rng)
        d = SurveyDesign.uniform(len(y))
        f = fit_weighted_glm(X, y, GAUSS, d)
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(f.theta, ols, atol=1e-10)

    def test_gaussian_weighted_closed_form(self):
        rng = np.random.default_rng(1)
        X, y, d = _random_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        W = np.diag(d.weights)
        want = np.linalg.solve(X.T @ W @ X, X.T @ W @ y)
        np.testing.assert_allclose(f.theta, want, atol=1e-10)

    def test_bernoulli_matches_newton_oracle(self):
        rng = np.random.default_rng(2)
        n = 100
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        mu0 = 1.0 / (1.0 + np.exp(-(X @ np.array([-0.3, 0.8]))))
        y = (rng.random(n) < mu0).astype(float)
        w = rng.uniform(1.0, 5.0, size=n)
        d = SurveyDesign(weights=w)
        f = fit_weighted_glm(X, y, BERN, d)

        # independent Newton iteration on the weighted log-likelihood
        theta = np.zeros(2)
        for _ in range(50):
            eta = X @ theta
            mu = 1.0 / (1.0 + np.exp(-eta))
            grad = X.T @ (w * (y - mu))
            hess = (X * (w * mu * (1 - mu))[:, None]).T @ X
            step = np.linalg.solve(hess, grad)
            theta = theta + step
            if np.max(np.abs(step)) < 1e-12:
                break
        np.testing.assert_allclose(f.theta, theta, atol=1e-8)

    def test_poisson_score_at_solution(self):
        rng = np.random.default_rng(3)
        n = 80
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(np.exp(0.2 + 0.3 * X[:, 1])).astype(float)
        d = SurveyDesign(pi=rng.uniform(0.3, 1.0, size=n))
        f = fit_weighted_glm(X, y, POIS, d)
        score = X.T @ (d.weights * (y - f.mu))
        assert np.max(np.abs(score)) <= 1e-6

    def test_lambda_is_linear_predictor_and_mu_matches(self):
        rng = np.random.default_rng(4)
        X, y, d = _random_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        np.testing.assert_allclose(f.mu, natural_to_mean(f.family, X @ f.theta))

    def test_irls_fixed_point(self):
        rng = np.random.default_rng(5)
        n = 60
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.random(n) < 0.5).astype(float)
        d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
        f = fit_weighted_glm(X, y, BERN, d)
        # one more weighted least squares step barely moves theta
        v = f.mu * (1 - f.mu)
        z = X @ f.theta + (y - f.mu) / v
        wts = d.weights * v
        A = X * np.sqrt(wts)[:, None]
        theta_next = np.linalg.lstsq(A, z * np.sqrt(wts), rcond=None)[0]
        assert np.max(np.abs(theta_next - f.theta)) < 1e-6

    def test_weight_scale_equivariance(self):
        # exact when N is taken as the weight sum (no rounding)
        rng = np.random.default_rng(6)
        X, y, d0 = _random_instance(rng)
        w = d0.weights
        d = SurveyDesign(weights=w, pop_size=w.sum())
        d_scaled = SurveyDesign(weights=10.0 * w, pop_size=10.0 * w.sum())
        f1 = fit_weighted_glm(X, y, GAUSS, d)
        f2 = fit_weighted_glm(X, y, GAUSS, d_scaled)
        np.testing.assert_allclose(f1.theta, f2.theta, atol=1e-10)
        t1 = sandwich_variance(f1).trace_JV
        t2 = sandwich_variance(f2).trace_JV
        assert t1 == pytest.approx(t2, rel=1e-10)

    @staticmethod
    def _named_column(X, d, y):
        """The column a rank-deficient X is rejected for, by the fit and by glm_rule."""
        with pytest.raises(FitError, match="rank deficient"):
            glm_rule(X, d, GAUSS)  # at build time, before any block is drawn
        with pytest.raises(FitError, match=r"rank deficient \(column \d\)") as err:
            fit_weighted_glm(X, y, GAUSS, d)
        return int(err.value.args[0][-2])

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(7)
        n = 20
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x, 2.0 * x])
        d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
        assert self._named_column(X, d, rng.normal(size=n)) in (1, 2)

    def test_repeated_intercept_names_one_of_its_copies(self):
        rng = np.random.default_rng(7)
        n = 20
        X = np.column_stack([np.ones(n), np.ones(n), rng.normal(size=n)])
        d = SurveyDesign(pi=rng.uniform(0.2, 1.0, size=n))
        assert self._named_column(X, d, rng.normal(size=n)) in (0, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariate_rejected(self, bad):
        rng = np.random.default_rng(8)
        n = 20
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        X[5, 1] = bad
        d = SurveyDesign.uniform(n)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            fit_weighted_glm(X, rng.normal(size=n), GAUSS, d)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            irls(X, rng.normal(size=(2, n)), GAUSS, d)

    def test_svd_failure_is_a_fit_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(fit_mod.np.linalg, "svd", fail)
        X, y, d = _random_instance(np.random.default_rng(9))
        with pytest.raises(FitError, match="SVD did not converge"):
            fit_weighted_glm(X, y, GAUSS, d)

    def test_more_parameters_than_observations_rejected(self):
        with pytest.raises(FitError):
            fit_weighted_glm(np.ones((2, 2)), np.zeros(2), GAUSS, SurveyDesign.uniform(2))

    def test_bernoulli_requires_binary(self):
        with pytest.raises(ValueError):
            fit_weighted_glm(
                np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), BERN, SurveyDesign.uniform(3)
            )

    def test_separation_flag(self):
        n = 20
        x = np.concatenate([-np.arange(1, 11), np.arange(1, 11)]).astype(float)
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(n), x])
        with pytest.warns(UserWarning, match="saturation"):
            f = fit_weighted_glm(X, y, BERN, SurveyDesign.uniform(n))
        assert f.separation

    def test_exact_gaussian_fit_names_zero_residual_variance(self):
        x = np.arange(20) % 2.0
        X, y = np.column_stack([np.ones(20), x]), 1.0 - 2.0 * x
        with pytest.raises(FitError, match="^zero residual variance: the gaussian fit is exact"):
            fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(20))

    def test_gaussian_dispersion_estimated(self):
        rng = np.random.default_rng(8)
        X, y, d = _random_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        want = float(d.weights @ (y - f.mu) ** 2 / d.weights.sum())
        assert f.family.dispersion == pytest.approx(want)


def _manual_fit(family, mu, y, X=None, design=None, sigma_m=None):
    """Assemble a GlmFit directly for formula-level tests."""
    from svyerr import families as fam

    n = len(mu)
    X = np.ones((n, 1)) if X is None else X
    design = SurveyDesign.uniform(n) if design is None else design
    v = np.asarray(fam.unit_variance(family, mu)) if sigma_m is None else sigma_m
    return GlmFit(
        theta=np.zeros(X.shape[1]),
        mu=np.asarray(mu, dtype=float),
        sigma_m=v,
        design=design,
        family=family,
        X=X,
        y=np.asarray(y, dtype=float),
        converged=True,
        iterations=1,
        deviance_weighted=0.0,
    )


class TestInformationJ:
    def test_gaussian_identity_design(self):
        f = _manual_fit(
            GAUSS,
            mu=np.zeros(2),
            y=np.zeros(2),
            X=np.eye(2),
            design=SurveyDesign(pi=np.ones(2)),
        )
        np.testing.assert_allclose(information_J(f), 0.5 * np.eye(2), atol=1e-12)

    def test_bernoulli_constant_variance_factor(self):
        rng = np.random.default_rng(10)
        n = 10
        X = rng.normal(size=(n, 2))
        d = SurveyDesign(pi=rng.uniform(0.3, 1.0, size=n))
        f = _manual_fit(BERN, mu=np.full(n, 0.5), y=np.zeros(n), X=X, design=d)
        want = 0.25 * (X * d.weights[:, None]).T @ X / d.pop_size
        np.testing.assert_allclose(information_J(f), want, atol=1e-12)

    def test_gaussian_weighted_information_formula(self):
        rng = np.random.default_rng(11)
        X, y, d = _random_instance(rng)
        f = fit_weighted_glm(X, y, GAUSS, d)
        want = (X * d.weights[:, None]).T @ X / (d.pop_size * f.family.dispersion)
        np.testing.assert_allclose(information_J(f), want, atol=1e-12)


class TestSandwichVariance:
    def test_zero_residuals_zero_variance(self):
        rng = np.random.default_rng(12)
        n = 10
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 2.0]) + rng.normal(size=n)
        f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n))
        # an exact gaussian fit raises FitError, so zero a noisy fit's residuals
        f = dataclasses.replace(f, y=f.mu.copy(), deviance_weighted=0.0)
        sw = sandwich_variance(f)
        np.testing.assert_allclose(sw.V, np.zeros((2, 2)), atol=1e-18)

    def test_gaussian_sandwich_closed_form(self):
        rng = np.random.default_rng(13)
        X, y, d = _random_instance(rng, n=60)
        f = fit_weighted_glm(X, y, GAUSS, d)
        W = np.diag(d.weights)
        r = y - f.mu
        A = np.linalg.inv(X.T @ W @ X)
        want = A @ X.T @ W @ np.diag(r**2) @ W @ X @ A
        np.testing.assert_allclose(sandwich_variance(f).V, want, atol=1e-10)

    def test_uniform_weights_match_robust_covariance(self):
        rng = np.random.default_rng(14)
        n = 50
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = X @ np.array([0.5, -1.0, 0.3]) + rng.normal(size=n)
        f = fit_weighted_glm(X, y, GAUSS, SurveyDesign.uniform(n))
        r = y - f.mu
        A = np.linalg.inv(X.T @ X)
        hc0 = A @ (X * (r**2)[:, None]).T @ X @ A
        np.testing.assert_allclose(sandwich_variance(f).V, hc0, atol=1e-10)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(15)
        X, y, d = _random_instance(rng)
        sw = sandwich_variance(fit_weighted_glm(X, y, GAUSS, d))
        want = np.linalg.inv(sw.J) @ sw.VU @ np.linalg.inv(sw.J)
        np.testing.assert_allclose(sw.V, want, rtol=1e-10, atol=1e-15)

    def test_singular_information_is_a_fit_error(self):
        X = np.column_stack([np.ones(4), np.zeros(4)])
        f = _manual_fit(GAUSS, mu=np.zeros(4), y=np.ones(4), X=X)
        with pytest.raises(FitError, match="^information matrix is singular$"):
            sandwich_variance(f)

    def test_badly_conditioned_information_warns(self):
        # orthogonal columns of scale 1 and 1e7: J = diag(1, 2.5e14), past COND_LIMIT
        X = np.column_stack([np.ones(4), 1e7 * np.array([-1.0, 1.0, -2.0, 2.0])])
        f = _manual_fit(GAUSS, mu=np.zeros(4), y=np.ones(4), X=X)
        with pytest.warns(UserWarning, match=r"^information matrix badly conditioned \(cond=2\.50e\+14\)$"):
            sw = sandwich_variance(f)
        np.testing.assert_allclose(sw.J, np.diag([1.0, 2.5e14]), rtol=1e-15, atol=0)


class TestWorkingSet:
    def test_stratified_logistic_fit_and_penalty_peak(self):
        # irls's docstring bounds the one-row fit by the weights, B' (p arrays
        # of n doubles) and, while the normal matrices form, p + 2 more:
        # 2p + 3.  The design's psu_cells and the stratified meat hold less
        # beside the fit's weights, means and variances (design docstrings).
        # Two arrays more for everything smaller than n leaves 2p + 5.
        n_strata, psus, size, p = 50, 50, 20, 4
        n = n_strata * psus * size
        rng = np.random.default_rng(5)
        strata = np.repeat(np.arange(n_strata), psus * size)
        psu = np.repeat(np.arange(n_strata * psus), size)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        eta = X @ np.array([-0.5, 0.5, -0.3, 0.2]) + rng.normal(scale=0.5, size=n_strata * psus)[psu]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        pi = rng.uniform(0.02, 0.2, size=n_strata * psus)[psu]
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            d = SurveyDesign(pi=pi, strata=strata, psu=psu)
            f = fit_weighted_glm(X, y, BERN, d)
            report = hte_analytic(f, structure=MeatStructure.STRATIFIED_CLUSTER)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.isfinite(report.daic)
        assert peak / (8 * n) <= 2 * p + 5
