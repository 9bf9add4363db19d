"""Weighted GLM fitting by IRLS, with the design-based sandwich variance.

The fit maximizes the Horvitz-Thompson weighted log-likelihood
l-hat(theta) = (1/N) sum_i w_i l_i(theta) for a canonical-link GLM, via
iteratively reweighted least squares with a step-halving safeguard.  One
IRLS loop fits a block of outcome rows at once, so the parametric
bootstrap retrains on many simulated outcome vectors per call.  The bread
J-hat, meat V-hat_U, and sandwich V-hat are exposed so the trace penalty
tr(J V) is available downstream.

Working set, in arrays of n doubles beside the caller's X and y: a one-row
fit with p covariates holds at most 2p + 3 (the weights, the IRLS basis
B' and the normal matrices' p + 2; see :func:`irls`).  The sandwich holds
the fit's weights, means and variances, and forms J-hat from one scaled
copy of X (p more); the meats' own arrays are stated in the design module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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

    One thin SVD before the iterations, sqrt(W) X = U S V', raises
    FitError when sqrt(W) X is numerically rank deficient: its smallest
    singular value is at most max(n, p) eps times its largest, the
    tolerance of numpy.linalg.matrix_rank.  The error names the column
    that loads most on the last right singular vector.  The IRLS weights
    w * v only rescale rows by positive factors, so the rank and the
    conditioning are decided by X and w.  Normal equations in X square
    the condition of sqrt(W) X and fail on near-collinear covariates; in
    B = U / sqrt(w), M = V S^-1 the normal matrix B' W V B = U' V U is
    conditioned like v alone.  B is read off U, not multiplied out, so it
    keeps U's accuracy, and a solution beta maps back as theta = M beta.
    A NaN or inf in X or w raises ValueError.
    """
    sw = np.sqrt(w)
    A = X * sw[:, None]
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    try:
        u, s, vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"design matrix SVD failed: {exc}") from None
    del A  # sqrt(W) X is not read again: it goes before B' is formed
    if s.size and s[-1] <= s[0] * max(X.shape) * np.finfo(float).eps:
        bad = int(np.argmax(np.abs(vt[-1])))
        raise FitError(f"design matrix is rank deficient (column {bad})")
    # B' in one pass, in contiguous rows, which make the stacked products fast
    return np.divide(u.T, sw, order="C"), vt.T / s


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


@dataclass
class IrlsBlock:
    """Per-row IRLS results for a block of m outcome rows.

    A row that failed to fit has NaN ``theta`` and ``mu`` and its FitError
    message in ``errors``; a converged row has ``errors`` None.
    """

    theta: np.ndarray  # (m, p)
    mu: np.ndarray  # (m, n)
    iterations: np.ndarray  # (m,)
    errors: list


def irls(X, Y, family: Family, design: SurveyDesign, *, _basis=None) -> IrlsBlock:
    """HT-weighted IRLS on each row of the (m, n) outcome block ``Y``.

    Every row follows its own path, the path a one-row fit would take: a
    cold start from the outcomes, an unconditional first step, then up to
    30 step halvings that keep its weighted deviance non-increasing, and
    a stop once max |score| <= TOL_SCORE times its score scale.  The first
    step is accepted whatever its deviance, so the start has none.  Active
    rows are solved together by batched normal equations; converged rows
    leave the active set.  A row whose normal equations are singular,
    whose halving fails or that does not converge in MAX_ITER iterations
    is a failed row, not a failed block.  Only a rank-deficient design
    raises.  No row's model variance can degenerate: the start lies in
    the open mean domain, and the +-30 clamp of the natural parameter
    keeps every later bernoulli or poisson variance in [9.4e-14, 1.1e13].

    Working set, in arrays of n doubles, with k rows active: B' (p) and the
    weights (1), plus k (p + 2) while the normal matrices are formed (the
    weighted working response, the IRLS weights and the (k, p, n) product
    B' W), or k (2 + t) while a candidate step is scored (its natural and
    mean parameters, in the buffers of the first two, and the deviance's
    t temporaries, three for bernoulli).  The means of the rows that have
    converged are kept as they leave, and the (m, n) block of means is
    formed from them after the loop.  Before the iterations,
    ``_solve_basis`` holds sqrt(w), sqrt(W) X and U (2p + 1), then sqrt(w),
    U and B'.

    ``_basis`` is ``_solve_basis(X, design.weights)`` when the caller
    already holds it (a prediction rule retraining on many blocks).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    (m, n), p = Y.shape, X.shape[1]
    w = design.weights
    Bt, M = _solve_basis(X, w) if _basis is None else _basis
    deviance = fam.Loss(fam.LossKind.DEVIANCE, family)
    out_theta, iterations, errors = np.full((m, p), np.nan), np.zeros(m, dtype=int), [None] * m
    fitted = []  # (block rows, means) of the rows that converged, as they leave

    # state of the rows still iterating; rows[i] is the block row of row i
    rows, y = np.arange(m), Y
    scale = np.maximum(1.0, np.max(np.abs((w * np.abs(Y) + w) @ X), axis=1))
    theta = np.zeros((m, p))
    mu = fam._initial_mu(family, Y)
    lam = np.asarray(fam.mean_to_natural(family, mu))
    dev = np.full(m, np.inf)  # no deviance to beat before the unconditional first step

    def leave(keep, message, *state):
        """Drop the rows outside ``keep`` from the iteration, failed with ``message``."""
        for i in rows[~keep]:
            errors[i] = message
        return [a[keep] for a in (rows, y, scale, *state)]

    for it in range(1, MAX_ITER + 1):
        # the weighted working response w v (lam + (y - mu) / v) in one array,
        # and the IRLS weights w v formed in place from v; lam and mu are not
        # read again, so they go before the normal matrices
        wv = np.asarray(fam.unit_variance(family, mu))
        z = y - mu
        z /= wv
        np.add(lam, z, out=z)
        del lam, mu
        wv *= w
        z *= wv
        theta_new = _solve_rows((Bt * wv[:, None, :]) @ Bt.T, z @ Bt.T) @ M.T
        ok = np.all(np.isfinite(theta_new), axis=1)
        if not ok.all():
            rows, y, scale, theta, dev, theta_new = leave(
                ok, "weighted normal equations are singular", theta, dev, theta_new)
        # step-halving keeps each row's weighted deviance non-increasing
        # after the first (unconditionally accepted) update
        k = len(rows)
        # the candidates' natural and mean parameters are written into the
        # buffers of z and w v, which the solve no longer reads
        cand, lam_c, mu_c, dev_c = np.empty((k, p)), z[:k], wv[:k], np.empty(k)
        del wv, z
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
        # drop the second names, so the full-size arrays go as soon as rows
        # leave instead of living on into the next iteration's normal equations
        del cand, lam_c, mu_c, dev_c
        if todo.size:
            ok = np.ones(k, dtype=bool)
            ok[todo] = False
            rows, y, scale, theta, lam, mu, dev = leave(
                ok, "step-halving failed to decrease the weighted deviance", theta, lam, mu, dev)
        score = (w * (y - mu)) @ X
        done = np.max(np.abs(score), axis=1) <= TOL_SCORE * scale
        if done.any():
            r = rows[done]
            out_theta[r] = theta[done]
            fitted.append((r, mu[done]))
            iterations[r] = it
            rows, y, scale, theta, lam, mu, dev = leave(~done, None, theta, lam, mu, dev)
            if rows.size == 0:
                break
    leave(np.zeros(len(rows), dtype=bool), f"IRLS did not converge in {MAX_ITER} iterations")
    out_mu = np.full((m, n), np.nan)
    for r, mu_r in fitted:
        out_mu[r] = mu_r
    return IrlsBlock(theta=out_theta, mu=out_mu, iterations=iterations, errors=errors)


def fit_weighted_glm(X, y, family: Family, design: SurveyDesign) -> GlmFit:
    """Fit a canonical-link GLM by HT-weighted IRLS (:func:`irls` on one row).

    For gaussian outcomes the dispersion is re-estimated after the fit as
    the HT-weighted mean squared residual (divisor sum of weights); an
    exact fit, whose estimate is 0, raises FitError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n != y.shape[0] or n != design.n:
        raise ValueError("X, y, and design must have matching lengths")
    if n <= p:
        raise FitError(f"need more observations ({n}) than parameters ({p})")
    fam.check_outcomes(family, y)

    block = irls(X, y[None], family, design)
    if block.errors[0] is not None:
        raise FitError(block.errors[0])
    theta, mu = block.theta[0], block.mu[0]

    # the linear predictor of the accepted step, formed as irls formed it
    lam = (theta[None] @ X.T)[0]
    separation = bool(
        family.kind is not FamilyKind.GAUSSIAN
        and np.any(np.abs(lam) >= fam.NATURAL_CLAMP - 1e-9)
    )
    if separation:
        warnings.warn("linear predictor hit the saturation clamp (possible separation)")

    fitted_family = family
    if family.kind is FamilyKind.GAUSSIAN:
        sigma2 = float(design.weights @ (y - mu) ** 2 / design.weights.sum())
        if sigma2 == 0.0:  # the information and the meat would divide by it
            raise FitError("zero residual variance: the gaussian fit is exact, so its dispersion cannot be estimated")
        fitted_family = Family(family.kind, sigma2)

    loss = fam.Loss(fam.LossKind.DEVIANCE, fitted_family)
    v = np.asarray(fam.unit_variance(fitted_family, mu))
    return GlmFit(
        theta=theta,
        mu=mu,
        sigma_m=v,
        design=design,
        family=fitted_family,
        X=X,
        y=y,
        converged=True,
        iterations=int(block.iterations[0]),
        deviance_weighted=design.mean(fam.loss_q(loss, y, mu)),
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
