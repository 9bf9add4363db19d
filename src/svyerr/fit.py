"""Weighted GLM fitting by IRLS, with the design-based sandwich variance.

The fit maximizes the Horvitz-Thompson weighted log-likelihood
l-hat(theta) = (1/N) sum_i w_i l_i(theta) for a canonical-link GLM, via
iteratively reweighted least squares with a step-halving safeguard.  One
IRLS loop fits a block of outcome rows at once, so the parametric
bootstrap retrains on many simulated outcome vectors per call.  The bread
J-hat, meat V-hat_U, and sandwich V-hat are exposed so the trace penalty
tr(J V) is available downstream.
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
    "IrlsBlock",
    "irls",
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


def _solve_basis(X, w) -> tuple[np.ndarray, np.ndarray]:
    """W-orthonormal basis B = X M for the IRLS normal equations, as (B', M).

    One pivoted QR before the iterations, sqrt(W) X P = Q R, raises
    FitError when sqrt(W) X is numerically rank deficient.  The IRLS
    weights w * v only rescale rows by positive factors, so the rank and
    the conditioning are decided by X and w.  Normal equations in X square
    the condition of sqrt(W) X and fail on near-collinear covariates; in
    B = Q / sqrt(w), M = P R^-1 the normal matrix B' W V B = Q' V Q is
    conditioned like v alone.  B is read off Q, not multiplied out, so it
    keeps Q's accuracy, and a solution beta maps back as theta = M beta.
    """
    sw = np.sqrt(w)
    A = np.multiply(X, sw[:, None], order="F")  # the QR overwrites it with Q in place
    q, r, piv = sla.qr(A, overwrite_a=True, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(A.shape) * np.finfo(float).eps if diag.size else 0.0
    if np.any(diag <= tol):
        bad = int(piv[int(np.argmax(diag <= tol))])
        raise FitError(f"design matrix is rank deficient (column {bad})")
    q /= sw[:, None]
    M = np.empty_like(r)
    M[piv] = sla.solve_triangular(r, np.eye(len(r)))
    return np.ascontiguousarray(q.T), M  # contiguous rows make the stacked products fast


def _solve_rows(A, b):
    """Solve the stacked systems A[i] x = b[i]; a singular system gives a NaN row."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack
        out = np.full_like(b, np.nan)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _initial_mu(family: Family, y):
    if family.kind is FamilyKind.GAUSSIAN:
        return y.astype(float).copy()
    if family.kind is FamilyKind.BERNOULLI:
        return (y + 0.5) / 2.0
    return y + 0.1


@dataclass
class IrlsBlock:
    """Per-row IRLS results for a block of m outcome rows.

    A row that failed to fit has NaN ``theta``, ``mu`` and ``lam`` and its
    FitError message in ``errors``; a converged row has ``errors`` None.
    """

    theta: np.ndarray  # (m, p)
    mu: np.ndarray  # (m, n)
    lam: np.ndarray  # (m, n)
    iterations: np.ndarray  # (m,)
    errors: list


def irls(X, Y, family: Family, design: SurveyDesign) -> IrlsBlock:
    """HT-weighted IRLS on each row of the (m, n) outcome block ``Y``.

    Every row follows its own path, the path a one-row fit would take: a
    cold start from the outcomes, an unconditional first step, then up to
    30 step halvings that keep its weighted deviance non-increasing, and
    a stop once max |score| <= TOL_SCORE times its score scale.  Active
    rows are solved together by batched normal equations; converged rows
    leave the active set.  A row whose model variance degenerates, whose
    normal equations are singular, whose halving fails or that does not
    converge in MAX_ITER iterations is a failed row, not a failed block.
    Only a rank-deficient design raises.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    (m, n), p = Y.shape, X.shape[1]
    w = design.weights
    Bt, M = _solve_basis(X, w)
    deviance = fam.Loss(fam.LossKind.DEVIANCE, family)
    out = IrlsBlock(
        theta=np.full((m, p), np.nan), mu=np.full((m, n), np.nan), lam=np.full((m, n), np.nan),
        iterations=np.zeros(m, dtype=int), errors=[None] * m,
    )  # filled in as rows leave the iteration

    # state of the rows still iterating; rows[i] is the block row of row i
    rows, y = np.arange(m), Y
    scale = np.maximum(1.0, np.max(np.abs((w * np.abs(Y) + w) @ X), axis=1))
    theta = np.zeros((m, p))
    mu = _initial_mu(family, Y)
    lam = np.asarray(fam.mean_to_natural(family, mu))
    dev = fam.loss_q(deviance, Y, mu) @ w

    def leave(keep, message):
        """Drop the rows outside ``keep`` from the iteration, failed with ``message``."""
        for i in rows[~keep]:
            out.errors[i] = message
        return [a[keep] for a in (rows, y, scale, theta, mu, lam, dev)]

    for it in range(1, MAX_ITER + 1):
        v = np.asarray(fam.unit_variance(family, mu))
        ok = np.all((v > 0.0) & np.isfinite(v), axis=1)
        if not ok.all():
            rows, y, scale, theta, mu, lam, dev = leave(
                ok, "degenerate fit: zero model variance at a fitted point")
            v = v[ok]
        wv = w * v
        theta_new = _solve_rows((Bt * wv[:, None, :]) @ Bt.T, (wv * (lam + (y - mu) / v)) @ Bt.T) @ M.T
        ok = np.all(np.isfinite(theta_new), axis=1)
        if not ok.all():
            rows, y, scale, theta, mu, lam, dev = leave(ok, "weighted normal equations are singular")
            theta_new = theta_new[ok]
        # step-halving keeps each row's weighted deviance non-increasing
        # after the first (unconditionally accepted) update
        k = len(rows)
        cand, lam_c, mu_c, dev_c = np.empty((k, p)), np.empty((k, n)), np.empty((k, n)), np.empty(k)
        step = np.ones(k)
        todo = slice(None)  # every row tries the full step first
        for _ in range(30):
            s = step[todo, None]
            cand[todo] = (1 - s) * theta[todo] + s * theta_new[todo]
            lam_c[todo] = cand[todo] @ X.T
            mu_c[todo] = fam.natural_to_mean(family, lam_c[todo])
            with np.errstate(over="ignore", invalid="ignore"):
                dev_c[todo] = fam.loss_q(deviance, y[todo], mu_c[todo]) @ w
            d, d0 = dev_c[todo], dev[todo]
            accept = (it == 1) | (np.isfinite(d) & (d <= d0 + 1e-12 * (1.0 + np.abs(d0))))
            todo = np.arange(k)[todo][~accept]
            if todo.size == 0:
                break
            step[todo] /= 2.0
        theta, lam, mu, dev = cand, lam_c, mu_c, dev_c
        if todo.size:
            ok = np.ones(k, dtype=bool)
            ok[todo] = False
            rows, y, scale, theta, mu, lam, dev = leave(
                ok, "step-halving failed to decrease the weighted deviance")
        score = (w * (y - mu)) @ X
        done = np.max(np.abs(score), axis=1) <= TOL_SCORE * scale
        if done.any():
            r = rows[done]
            out.theta[r], out.mu[r], out.lam[r] = theta[done], mu[done], lam[done]
            out.iterations[r] = it
            rows, y, scale, theta, mu, lam, dev = leave(~done, None)
            if rows.size == 0:
                break
    leave(np.zeros(len(rows), dtype=bool), f"IRLS did not converge in {MAX_ITER} iterations")
    return out


def fit_weighted_glm(
    X,
    y,
    family: Family,
    design: SurveyDesign,
    estimate_dispersion: bool = True,
) -> GlmFit:
    """Fit a canonical-link GLM by HT-weighted IRLS (:func:`irls` on one row).

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

    block = irls(X, y[None], family, design)
    if block.errors[0] is not None:
        raise FitError(block.errors[0])
    theta, mu, lam = block.theta[0], block.mu[0], block.lam[0]
    w = design.weights
    N = design.pop_size

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
        theta=theta,
        mu=mu,
        lam=lam,
        z=lam + (y - mu) / v,
        sigma_m=v,
        design=design,
        family=fitted_family,
        X=X,
        y=y,
        converged=True,
        iterations=int(block.iterations[0]),
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
