"""Optimism estimation: the HT-weighted covariance penalty and design AIC.

Two routes to the penalty are kept deliberately separate so they can
check each other: the trace form tr(J V) from the sandwich, and the
elementwise form that sums per-unit covariances between the fitted
natural parameter and the outcome.  A parametric bootstrap covers
prediction rules with no analytic covariance (for example kNN under 0-1
loss): ``hte_bootstrap(rule, gen, B, seed, loss)`` draws blocks Y of
outcome rows from the generating fit ``gen`` and calls ``rule(Y)``, which
returns the rule's in-sample fitted means; the bootstrap alone maps them
to the penalty-side parameter lambda-hat of ``loss``.  Its (seed, block)
tasks run on forked workers when the first one's time says that pays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import _fork
from . import families as fam
from . import fit as fitting
from .design import MeatStructure, SurveyDesign
from .families import Family, Loss, LossKind
from .fit import FitError, GlmFit, SandwichVariance, irls, sandwich_variance

__all__ = [
    "PenaltyReport",
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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "sandwich"}


# a prediction rule, built on its covariates and design, trains on an (m, n)
# block Y of outcome rows and returns the (m, n) in-sample fitted means; it
# does not raise for a row that fails to train, which comes back as NaN.  It
# must be a pure function of Y: the bootstrap may run its blocks in forked
# processes, which do not share state a rule keeps across calls
PredictionRule = Callable[[np.ndarray], np.ndarray]

# bootstrap replicates per rule call: memory is O(_BLOCK * n) for any B and any
# number of seeds; a forked worker also keeps 3 x rules x n floats per block of
# the one seed it takes over part-way, until its chunk is done.  Reports are
# byte-identical for this block layout only: irls rounds a row's products in
# the last bits by how many rows share them, so another _BLOCK (or a replicate
# dropped at its first solve) moves glm_rule's other replicates at 1e-16
_BLOCK = 32


def in_sample_error(loss: Loss, y, mu_hat, design: SurveyDesign | None = None) -> float:
    """Mean loss on the training data: uniform, or HT-weighted over N."""
    q = np.asarray(fam.loss_q(loss, y, mu_hat))
    return float(q.mean()) if design is None else design.mean(q)


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
    model variance (for gaussian, by sigma-hat^2), with ``model_based``
    as in :func:`cov_lambda_y_elementwise` (squared error only).  ``daic``
    is the design-based AIC on the deviance scale, HT-weighted deviance +
    2 tr(J V); the deviance differs from -2 l-hat by a theta-free
    saturated-model constant.
    """
    if loss is None:
        loss = Loss(LossKind.DEVIANCE, fit.family)
    sw = sandwich_variance(fit, structure)
    tr_jv = sw.trace_JV
    design = fit.design

    if loss.kind is LossKind.DEVIANCE:
        if model_based:
            raise ValueError("the model-based penalty is available for squared error only")
        err_w = fit.deviance_weighted
        omega = 2.0 * tr_jv
    elif loss.kind is LossKind.SQUARED_ERROR:
        if structure is not MeatStructure.INDEPENDENT:
            raise ValueError(
                "squared-error penalty uses the elementwise covariance, which "
                "is only available for the independent meat structure"
            )
        err_w = in_sample_error(loss, fit.y, fit.mu, design)
        omega = 2.0 * design.mean(fit.sigma_m * cov_lambda_y_elementwise(fit, model_based=model_based))
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
    f = fit_unweighted
    return in_sample_error(Loss(LossKind.DEVIANCE, f.family), f.y, f.mu) + 2.0 * f.p / f.n


def estimate_dispersion(fit: GlmFit) -> tuple[float, float]:
    """Intra-PSU correlation rho-hat and design effect phi-hat.

    rho-hat pools pairwise within-PSU products of Pearson residuals over
    all PSUs (pair-count weighting); phi-hat = 1 + (nbar - 1) rho-hat at
    the average PSU size.  All-singleton designs return (0, 1).

    PSUs are the (stratum, label) cells of :attr:`SurveyDesign.psu_cells`.
    Cost O(n), from segment sums: per PSU the size m, sum e and sum e^2
    of the Pearson residuals e give its pair-product sum
    ((sum e)^2 - sum e^2) / 2.
    """
    psu, _ = fit.design.psu_cells
    e = (fit.y - fit.mu) / np.sqrt(fit.sigma_m * fit.family.dispersion)
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


def glm_rule(X, design: SurveyDesign, family: Family) -> PredictionRule:
    """The weighted GLM's IRLS on covariates ``X`` and ``design``, as a prediction rule.

    The IRLS basis (from the thin SVD of sqrt(W) X) depends only on X and the
    weights, so it is factored once here and shared by every block the
    rule retrains on; a rank-deficient X raises FitError here.
    """
    X = np.asarray(X, dtype=float)
    basis = fitting._solve_basis(X, design.weights)

    def train(Y):
        return irls(X, Y, family, design, _basis=basis).mu

    return train


def hte_bootstrap(
    rule: PredictionRule, gen: GlmFit, B: int, seed: int, loss: Loss
) -> PenaltyReport:
    """Parametric-bootstrap HTE estimate for an arbitrary prediction rule.

    The design-weighted GLM fit ``gen`` supplies the outcomes, the design
    and the generating means; replicate b redraws responses with the rng
    stream (seed, b), and the rule retrains on them (one call per block of
    replicates).  ``loss`` maps the rule's fitted means to lambda-hat and
    scores the in-sample error; the per-unit covariance of lambda-hat with
    the simulated outcome yields the optimism.  Given PSU labels, that
    covariance is scaled by the design effect phi-hat of
    :func:`estimate_dispersion` on ``gen`` (quasi-binomial correction).

    The covariance comes from running sums over the kept replicates of
    lambda, e = y* - mu and lambda e, so memory does not grow with B:
    sum_b lambda_b (y*_b - ybar*) = sum lambda e - (sum lambda)(sum e) / B.
    This is the one-rule, one-seed case of :func:`_bootstrap_reports`.
    """
    return _bootstrap_reports([rule], gen, B, [seed], loss)[0][0]


def _rule_sums(rule: PredictionRule, Y: np.ndarray, mu: np.ndarray, loss: Loss):
    """One rule on one block: (sum lambda, sum e, sum lambda e, kept rows).

    This is the one place that maps a rule's fitted means to lambda-hat: a
    row with a NaN mean failed to train and is dropped.

    Working set beside the (m, n) block Y and what the rule holds while it
    trains: the rule's means with lambda-hat and its (m, n) threshold mask,
    then lambda-hat with e, so at most three (m, n) doubles and one mask,
    25 m bytes per unit, when every row trained; rows are copied only when
    one failed.  The kNN vote holds three too: one C-ordered copy of Y.T
    that its shells' products share, the votes, and one shell's product
    until it is added.

    Bits follow memory order: sum(axis=0) adds a C-ordered block's rows one
    after another but an F-ordered one's, such as the kNN vote block's,
    pairwise.  So lambda-hat e is formed in e's buffer, C-ordered like Y,
    and sums as (lam * e).sum(0) does; lambda-hat keeps the rule's order,
    which changes no bits, as glm_rule's means are C-ordered and the kNN
    votes' 0-1 lambda-hat of +-1 sums exactly in any order.
    """
    lam = rule(Y)
    ok = ~np.isnan(lam).any(axis=1)
    kept = int(ok.sum())
    if kept < len(ok):
        lam, Y = lam[ok], Y[ok]
    lam = fam.lambda_hat(loss, lam)
    e = Y - mu
    e_sum = e.sum(axis=0)
    e *= lam
    return lam.sum(axis=0), e_sum, e.sum(axis=0), kept


def _block_sums(
    rules: list[PredictionRule], gen: GlmFit, loss: Loss, B: int, seed: int, start: int
):
    """Yield each rule's :func:`_rule_sums` on block ``start`` of ``seed``'s replicates.

    The block holds replicates start, ..., start + _BLOCK - 1 (up to B).
    The block and each rule's arrays are local, so they are freed as soon
    as they are summed.
    """
    Y = np.stack([
        fam._draw_responses(np.random.default_rng([seed, b]), gen.family, gen.mu)
        for b in range(start, min(start + _BLOCK, B))
    ])
    for rule in rules:
        yield _rule_sums(rule, Y, gen.mu, loss)


class _SeedSums:
    """One seed's running sums, per rule, of lambda, e and lambda e, and its kept rows."""

    def __init__(self, rules: int, n: int):
        self.lam, self.e, self.lam_e = (np.zeros((rules, n)) for _ in range(3))
        self.kept = [0] * rules

    def add(self, r: int, lam, e, lam_e, kept: int) -> None:
        self.lam[r] += lam
        self.e[r] += e
        self.lam_e[r] += lam_e
        self.kept[r] += kept


def _bootstrap_reports(
    rules: list[PredictionRule], gen: GlmFit, B: int, seeds, loss: Loss
) -> list[list[PenaltyReport]]:
    """:func:`hte_bootstrap` for several rules and seeds; reports indexed [seed][rule].

    phi-hat and each rule's base fit are computed once.  Every (seed,
    block) task draws its block once, and every rule retrains on it; the
    tasks run on forked workers where that pays (``_fork.timed``), and
    each rule's per-block sums are added into its running sums in task
    order.  So each rule's report equals, bit for bit, the one
    :func:`hte_bootstrap` gives for it alone under that seed, for any
    worker count; a rule must therefore be a pure function of its block.
    """
    if B < 2:
        raise ValueError("bootstrap needs at least two replicates")
    y, design, n = gen.y, gen.design, gen.n
    rho_hat, phi_hat = estimate_dispersion(gen) if design.psu is not None else (None, 1.0)
    bases = [rule(y[None])[0] for rule in rules]
    if any(np.isnan(mu).any() for mu in bases):
        raise FitError("the rule failed to train on the observed outcomes")
    errs = [in_sample_error(loss, y, mu, design) for mu in bases]

    def seed_reports(sums: _SeedSums) -> list[PenaltyReport]:
        out = []
        for r, kept in enumerate(sums.kept):
            dropped = B - kept
            if dropped > 0.1 * B:
                raise FitError(f"{dropped}/{B} bootstrap replicates failed to train")
            cov_i = phi_hat * (sums.lam_e[r] - sums.lam[r] * sums.e[r] / kept) / (kept - 1)
            omega = 2.0 * design.mean(cov_i)
            out.append(PenaltyReport(
                err_weighted=errs[r],
                omega_hat=omega,
                err_hat=errs[r] + omega,
                daic=None,
                p_hat=None,
                method="bootstrap",
                B=B,
                phi_hat=phi_hat,
                rho_hat=rho_hat,
                dropped_replicates=dropped,
            ))
        return out

    def work(tasks):
        """Sum ``tasks``' blocks seed by seed; yield what the caller must fold.

        A seed begun before ``tasks`` goes on in the caller's running sums:
        each rule's block sums go back as ("add", (r, *sums)) and the
        seed's end as ("close", None).  A seed begun here is summed here
        from zeros, in the same order, and goes back as ("reports", its
        reports), or as ("sums", its _SeedSums) where ``tasks`` stops
        inside it.  So a forked worker keeps the reports of the seeds it
        finished, one _SeedSums, and the block sums of the one seed it
        takes over part-way, not the block sums of every seed.
        """
        sums = None
        for seed, start in tasks:
            if start == 0:
                sums = _SeedSums(len(rules), n)
            for r, part in enumerate(_block_sums(rules, gen, loss, B, seed, start)):
                if sums is None:
                    yield ("add", (r, *part))
                else:
                    sums.add(r, *part)
            if start + _BLOCK >= B:
                yield ("close", None) if sums is None else ("reports", seed_reports(sums))
                sums = None
        if sums is not None:
            yield ("sums", sums)

    reports: list[list[PenaltyReport]] = []
    running = None  # the sums of a seed that goes on into the next chunk

    def fold(item):
        nonlocal running
        kind, value = item
        if kind == "add":
            running.add(*value)
        elif kind == "close":
            reports.append(seed_reports(running))
            running = None
        elif kind == "reports":
            reports.append(value)
        else:
            running = value

    tasks = [(seed, start) for seed in seeds for start in range(0, B, _BLOCK)]
    _fork.timed(work, tasks, [min(_BLOCK, B - start) for _, start in tasks], fold)
    return reports
