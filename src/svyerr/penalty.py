"""Optimism estimation: the HT-weighted covariance penalty and design AIC.

Two routes to the penalty are kept deliberately separate so they can
check each other: the trace form tr(J V) from the sandwich, and the
elementwise form that sums per-unit covariances between the fitted
natural parameter and the outcome.  A parametric bootstrap covers
prediction rules with no analytic covariance (for example kNN under 0-1
loss).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import design as dsn
from . import families as fam
from .design import MeatStructure, SurveyDesign
from .families import Family, FamilyKind, Loss, LossKind
from .fit import FitError, GlmFit, SandwichVariance, irls, sandwich_variance

__all__ = [
    "PenaltyReport",
    "RuleFit",
    "in_sample_error",
    "cov_lambda_y_elementwise",
    "hte_analytic",
    "aic_naive",
    "estimate_dispersion",
    "hte_bootstrap",
    "glm_rule",
]


@dataclass(frozen=True)
class PenaltyReport:
    """In-sample error, estimated optimism, and the inflated error estimate.

    ``sandwich`` is the sandwich the analytic penalty was built from (None
    for the bootstrap); it is not part of :meth:`to_dict`.
    """

    err_weighted: float
    omega_hat: float
    err_hat: float
    daic: float | None
    p_hat: float | None
    method: str
    B: int | None = None
    phi_hat: float | None = None
    rho_hat: float | None = None
    dropped_replicates: int = 0
    sandwich: SandwichVariance | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "err_weighted": self.err_weighted,
            "omega_hat": self.omega_hat,
            "err_hat": self.err_hat,
            "daic": self.daic,
            "p_hat": self.p_hat,
            "method": self.method,
            "B": self.B,
            "phi_hat": self.phi_hat,
            "rho_hat": self.rho_hat,
            "dropped_replicates": self.dropped_replicates,
        }


@dataclass(frozen=True)
class RuleFit:
    """In-sample output of a prediction rule trained on m outcome rows.

    ``mu`` holds fitted means and ``lam`` the rule's penalty-side
    parameter for its loss (natural parameter for deviance, mu for
    squared error, +-1 for 0-1 loss), both of shape (m, n).  A row that
    failed to train is a row of NaN in ``lam``.
    """

    mu: np.ndarray
    lam: np.ndarray


# a prediction rule trains on (X, Y, design), Y an (m, n) block of outcome
# rows, and reports its in-sample (mu, lambda) per row; it does not raise
# for a row that fails to train
PredictionRule = Callable[[np.ndarray, np.ndarray, SurveyDesign], RuleFit]

# bootstrap replicates per rule call: memory is O(_BLOCK * n) for any B
_BLOCK = 32


def in_sample_error(loss: Loss, y, mu_hat, design: SurveyDesign | None = None) -> float:
    """Mean loss on the training data: uniform, or HT-weighted over N."""
    q = np.asarray(fam.loss_q(loss, y, mu_hat))
    if design is None:
        return float(q.mean())
    return float(design.weights @ q) / design.pop_size


def cov_lambda_y_elementwise(fit: GlmFit, model_based: bool = False) -> np.ndarray:
    """Per-unit analytic covariance of the fitted natural parameter with y.

    The hat-matrix form diag{X (X^T Sigma_M Pi^{-1} X)^{-1} X^T Pi^{-1}
    Sigma_O} with Sigma_O the diagonal of squared residuals; used as an
    independent route to the trace penalty.  ``model_based`` replaces the
    observed squared residuals by the fitted outcome variances (for
    gaussian, Sigma_O = sigma-hat^2 I), which makes the uniform-weight
    gaussian penalty exactly 2 p sigma-hat^2 / n.
    """
    w = fit.design.weights
    M = (fit.X * (w * fit.sigma_m)[:, None]).T @ fit.X
    if model_based:
        r2 = fit.sigma_m * fit.family.dispersion
    else:
        r2 = (fit.y - fit.mu) ** 2
    sol = np.linalg.solve(M, fit.X.T)  # (p, n)
    return np.einsum("ij,ji->i", fit.X, sol) * w * r2


def hte_analytic(
    fit: GlmFit,
    loss: Loss | None = None,
    structure: MeatStructure = MeatStructure.INDEPENDENT,
    model_based: bool = False,
) -> PenaltyReport:
    """HTE prediction-error report for a fitted GLM.

    Deviance loss uses the trace penalty 2 tr(J V) directly; squared
    error rescales the per-unit natural-parameter covariances by the
    model variance (for gaussian this is the multiplication by
    sigma-hat^2).  ``daic`` is the design-based AIC on the deviance
    scale, HT-weighted deviance + 2 tr(J V); the deviance differs from
    -2 l-hat by a theta-free saturated-model constant.
    """
    if not fit.converged:
        raise FitError("penalty requires a converged fit")
    if loss is None:
        loss = Loss(LossKind.DEVIANCE, fit.family)
    sw = sandwich_variance(fit, structure)
    tr_jv = sw.trace_JV
    w = fit.design.weights
    N = fit.design.pop_size

    if loss.kind is LossKind.DEVIANCE:
        err_w = fit.deviance_weighted
        if model_based:
            cov = cov_lambda_y_elementwise(fit, model_based=True)
            omega = 2.0 * float(w @ cov) / (N * fit.family.dispersion)
        else:
            omega = 2.0 * tr_jv
    elif loss.kind is LossKind.SQUARED_ERROR:
        if structure is not MeatStructure.INDEPENDENT:
            raise ValueError(
                "squared-error penalty uses the elementwise covariance, which "
                "is only available for the independent meat structure"
            )
        err_w = float(w @ (fit.y - fit.mu) ** 2) / N
        cov_mu = fit.sigma_m * cov_lambda_y_elementwise(fit, model_based=model_based)
        omega = 2.0 * float(w @ cov_mu) / N
    else:
        raise ValueError("analytic penalty is available for deviance and squared error only")

    return PenaltyReport(
        err_weighted=err_w,
        omega_hat=omega,
        err_hat=err_w + omega,
        daic=fit.deviance_weighted + 2.0 * tr_jv,
        # per-observation penalty tr(J V) is roughly p/n, so the
        # effective-parameter count carries the n scaling
        p_hat=fit.n * tr_jv,
        method="analytic",
        sandwich=sw,
    )


def aic_naive(fit_unweighted: GlmFit) -> float:
    """Classical AIC on the per-observation deviance scale: err + 2p/n.

    Expects a fit with uniform weights (the "naive" analysis that ignores
    the design).
    """
    n = fit_unweighted.n
    dev_mean = float(np.mean(
        fam.loss_q(Loss(LossKind.DEVIANCE, fit_unweighted.family),
                   fit_unweighted.y, fit_unweighted.mu)
    ))
    return dev_mean + 2.0 * fit_unweighted.p / n


def estimate_dispersion(fit: GlmFit) -> tuple[float, float]:
    """Intra-PSU correlation rho-hat and design effect phi-hat.

    rho-hat pools pairwise within-PSU products of Pearson residuals over
    all PSUs (pair-count weighting); phi-hat = 1 + (nbar - 1) rho-hat at
    the average PSU size.  All-singleton designs return (0, 1).

    PSUs are the (stratum, label) cells of :func:`design.psu_cells`.  Cost
    O(n) plus the sorts of the labels, from segment sums: per PSU the size
    m, sum e and sum e^2 of the Pearson residuals e give its pair-product
    sum ((sum e)^2 - sum e^2) / 2.
    """
    psu, _ = dsn.psu_cells(fit.design)
    v = np.asarray(fam.variance(fit.family, fit.mu))
    e = (fit.y - fit.mu) / np.sqrt(v)
    sizes = np.bincount(psu)
    npairs = int((sizes * (sizes - 1) // 2).sum())
    if npairs == 0:
        warnings.warn("all PSUs are singletons; rho is undefined, returning (0, 1)")
        return 0.0, 1.0
    num = float((np.bincount(psu, e) ** 2 - np.bincount(psu, e * e)).sum()) / 2.0
    rho = num / (npairs * float(np.mean(e**2)))
    nbar = float(np.mean(sizes))
    phi = 1.0 + (nbar - 1.0) * rho
    return float(rho), float(phi)


def _draw_responses(rng: np.random.Generator, family: Family, mu: np.ndarray):
    if family.kind is FamilyKind.GAUSSIAN:
        return mu + rng.normal(size=mu.shape) * np.sqrt(family.dispersion)
    if family.kind is FamilyKind.BERNOULLI:
        return (rng.random(mu.shape) < mu).astype(float)
    return rng.poisson(mu).astype(float)


def glm_rule(family: Family, loss: Loss) -> PredictionRule:
    """Wrap the weighted GLM's IRLS as a prediction rule for the bootstrap."""

    def train(X, Y, design):
        mu = irls(X, Y, family, design).mu
        lam = np.full_like(mu, np.nan)
        ok = ~np.isnan(mu).any(axis=1)
        lam[ok] = fam.lambda_hat(loss, mu[ok])
        return RuleFit(mu=mu, lam=lam)

    return train


def hte_bootstrap(
    rule: PredictionRule, X, gen: GlmFit, B: int, seed: int, loss: Loss
) -> PenaltyReport:
    """Parametric-bootstrap HTE estimate for an arbitrary prediction rule.

    The design-weighted GLM fit ``gen`` supplies the outcomes, the design
    and the generating means; replicate b redraws responses with the rng
    stream (seed, b), the rule retrains on ``X`` (one call per block of
    replicates), and the per-unit covariance of the rule's lambda with the
    simulated outcome yields the optimism.  Given PSU labels, that
    covariance is scaled by the design effect phi-hat of
    :func:`estimate_dispersion` on ``gen`` (quasi-binomial correction).

    The covariance comes from running sums over the kept replicates of
    lambda, e = y* - mu and lambda e, so memory does not grow with B:
    sum_b lambda_b (y*_b - ybar*) = sum lambda e - (sum lambda)(sum e) / B.
    """
    if B < 2:
        raise ValueError("bootstrap needs at least two replicates")
    X = np.asarray(X, dtype=float)
    y, design, n = gen.y, gen.design, gen.n
    rho_hat, phi_hat = estimate_dispersion(gen) if design.psu is not None else (None, 1.0)
    base = rule(X, y[None], design)
    if np.isnan(base.lam).any():
        raise FitError("the rule failed to train on the observed outcomes")

    sum_lam, sum_e, sum_lam_e = np.zeros(n), np.zeros(n), np.zeros(n)
    kept = 0
    for start in range(0, B, _BLOCK):
        Y = np.stack([
            _draw_responses(np.random.default_rng([seed, b]), gen.family, gen.mu)
            for b in range(start, min(start + _BLOCK, B))
        ])
        lam = rule(X, Y, design).lam
        ok = ~np.isnan(lam).any(axis=1)
        lam, e = lam[ok], Y[ok] - gen.mu
        sum_lam += lam.sum(axis=0)
        sum_e += e.sum(axis=0)
        sum_lam_e += (lam * e).sum(axis=0)
        kept += int(ok.sum())
    dropped = B - kept
    if dropped > 0.1 * B:
        raise FitError(f"{dropped}/{B} bootstrap replicates failed to train")

    cov_i = phi_hat * (sum_lam_e - sum_lam * sum_e / kept) / (kept - 1)
    omega = 2.0 * float(design.weights @ cov_i) / design.pop_size
    err_w = in_sample_error(loss, y, base.mu[0], design)
    return PenaltyReport(
        err_weighted=err_w,
        omega_hat=omega,
        err_hat=err_w + omega,
        daic=None,
        p_hat=None,
        method="bootstrap",
        B=B,
        phi_hat=phi_hat,
        rho_hat=rho_hat,
        dropped_replicates=dropped,
    )
