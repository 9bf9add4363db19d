"""Weighted GLM fitting by IRLS, with the design-based sandwich variance.

The fit maximizes the Horvitz-Thompson weighted log-likelihood
l-hat(theta) = (1/N) sum_i w_i l_i(theta) for a canonical-link GLM, via
iteratively reweighted least squares with a step-halving safeguard.  The
bread J-hat, meat V-hat_U, and sandwich V-hat are exposed so the trace
penalty tr(J V) is available downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import families as fam
from . import design as dsn
from .families import Family, FamilyKind
from .design import MeatStructure, SurveyDesign

__all__ = [
    "GlmFit",
    "SandwichVariance",
    "FitError",
    "fit_weighted_glm",
    "information_J",
    "sandwich_variance",
]


# IRLS stops when max |score| <= TOL_SCORE * score scale, or fails after
# MAX_ITER iterations; sandwich_variance warns when cond(J) > COND_LIMIT
TOL_SCORE = 1e-8
MAX_ITER = 100
COND_LIMIT = 1e12


class FitError(RuntimeError):
    """IRLS failure: non-convergence, rank deficiency, or a degenerate fit."""


@dataclass(frozen=True)
class GlmFit:
    """A converged weighted GLM fit and its Theorem-level ingredients."""

    theta: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    z: np.ndarray  # working response lam + (y - mu) dlam/dmu at mu-hat
    sigma_m: np.ndarray
    design: SurveyDesign
    family: Family
    X: np.ndarray
    y: np.ndarray
    converged: bool
    iterations: int
    deviance_weighted: float
    separation: bool = False

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def p(self) -> int:
        return int(self.X.shape[1])

    @property
    def residuals(self) -> np.ndarray:
        return self.y - self.mu


@dataclass(frozen=True)
class SandwichVariance:
    J: np.ndarray
    VU: np.ndarray
    V: np.ndarray

    @property
    def trace_JV(self) -> float:
        """tr(J V) = tr(J^{-1} V_U), the effective-parameter count."""
        return float(np.trace(self.J @ self.V))


def _wls_qr(X, z, wts):
    """Solve the weighted least squares problem via QR of sqrt(W) X."""
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


def _initial_mu(family: Family, y):
    if family.kind is FamilyKind.GAUSSIAN:
        return y.astype(float).copy()
    if family.kind is FamilyKind.BERNOULLI:
        return (y + 0.5) / 2.0
    return y + 0.1


def fit_weighted_glm(
    X,
    y,
    family: Family,
    design: SurveyDesign,
    estimate_dispersion: bool = True,
) -> GlmFit:
    """Fit a canonical-link GLM by HT-weighted IRLS.

    For gaussian outcomes the dispersion is re-estimated after the fit as
    the HT-weighted mean squared residual (divisor sum of weights) unless
    ``estimate_dispersion`` is False.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n != y.shape[0] or n != design.n:
        raise ValueError("X, y, and design must have matching lengths")
    if n <= p:
        raise FitError(f"need more observations ({n}) than parameters ({p})")
    if family.kind is FamilyKind.BERNOULLI and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("bernoulli outcomes must be 0/1")
    if family.kind is FamilyKind.POISSON and np.any(y < 0):
        raise ValueError("poisson outcomes must be non-negative")

    w = design.weights
    N = design.pop_size
    score_scale = max(1.0, float(np.max(np.abs(X.T @ (w * np.abs(y) + w)))))

    mu = _initial_mu(family, y)
    lam = np.asarray(fam.mean_to_natural(family, mu))
    dev = float(w @ fam.loss_q(fam.Loss(fam.LossKind.DEVIANCE, family), y, mu))
    theta = None
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        v = np.asarray(fam.unit_variance(family, mu))
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise FitError("degenerate fit: zero model variance at a fitted point")
        z = lam + (y - mu) / v
        theta_new = _wls_qr(X, z, w * v)
        # step-halving keeps the weighted deviance non-increasing after
        # the first (unconditionally accepted) update
        step = 1.0
        for _ in range(30):
            if theta is None:
                cand = theta_new
            else:
                cand = (1 - step) * np.asarray(theta) + step * theta_new
            lam_c = X @ cand
            mu_c = np.asarray(fam.natural_to_mean(family, lam_c))
            with np.errstate(over="ignore", invalid="ignore"):
                dev_c = float(
                    w @ fam.loss_q(fam.Loss(fam.LossKind.DEVIANCE, family), y, mu_c)
                )
            if theta is None or (
                np.isfinite(dev_c) and dev_c <= dev + 1e-12 * (1.0 + abs(dev))
            ):
                break
            step /= 2.0
        else:
            raise FitError("step-halving failed to decrease the weighted deviance")
        theta, lam, mu, dev = cand, lam_c, mu_c, dev_c
        score = X.T @ (w * (y - mu))
        if np.max(np.abs(score)) <= TOL_SCORE * score_scale:
            converged = True
            break
    if not converged:
        raise FitError(f"IRLS did not converge in {MAX_ITER} iterations")

    separation = bool(
        family.kind is not FamilyKind.GAUSSIAN
        and np.any(np.abs(lam) >= fam.NATURAL_CLAMP - 1e-9)
    )
    if separation:
        warnings.warn("linear predictor hit the saturation clamp (possible separation)")

    fitted_family = family
    if family.kind is FamilyKind.GAUSSIAN and estimate_dispersion:
        sigma2 = float(w @ (y - mu) ** 2 / w.sum())
        if sigma2 <= 0.0:
            sigma2 = np.finfo(float).tiny
        fitted_family = family.with_dispersion(sigma2)

    loss = fam.Loss(fam.LossKind.DEVIANCE, fitted_family)
    dev_w = float(w @ fam.loss_q(loss, y, mu)) / N
    v = np.asarray(fam.unit_variance(fitted_family, mu))
    return GlmFit(
        theta=np.asarray(theta),
        mu=mu,
        lam=lam,
        z=lam + (y - mu) / v,
        sigma_m=v,
        design=design,
        family=fitted_family,
        X=X,
        y=y,
        converged=converged,
        iterations=it,
        deviance_weighted=dev_w,
        separation=separation,
    )


def information_J(fit: GlmFit) -> np.ndarray:
    """HT-weighted observed information (1/N) X^T Pi^{-1} Sigma_M X.

    The model-variance diagonal is the unit variance over the dispersion,
    so the gaussian case reduces to (X^T Pi^{-1} X) / (N sigma^2).
    """
    s = fit.design.weights * fit.sigma_m / fit.family.dispersion
    return (fit.X * s[:, None]).T @ fit.X / fit.design.pop_size


def sandwich_variance(
    fit: GlmFit,
    structure: MeatStructure = MeatStructure.INDEPENDENT,
) -> SandwichVariance:
    """Sandwich V = J^{-1} V_U J^{-1} with the requested meat structure.

    Residuals entering the meat are scaled by 1/dispersion so V_U
    estimates the covariance of the weighted score (for gaussian this is
    the division by sigma-hat^2).
    """
    J = information_J(fit)
    r = (fit.y - fit.mu) / fit.family.dispersion
    if structure is MeatStructure.INDEPENDENT:
        VU = dsn.meat_independent(fit.X, r, fit.design)
    else:
        VU = dsn.meat_stratified_cluster(fit.X, r, fit.design)
    cond = np.linalg.cond(J)
    if not np.isfinite(cond):
        raise FitError("information matrix is singular")
    if cond > COND_LIMIT:
        warnings.warn(f"information matrix badly conditioned (cond={cond:.2e})")
    Jinv = np.linalg.inv(J)
    V = Jinv @ VU @ Jinv
    return SandwichVariance(J=J, VU=VU, V=(V + V.T) / 2.0)
