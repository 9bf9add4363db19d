"""Exponential families, canonical links, and q-class loss functions.

Each family is parameterized on the unit-dispersion natural scale: the
natural parameter of a gaussian outcome is its mean, with the dispersion
(sigma^2) kept as a separate scale factor that enters the unit deviance
as (y - mu)^2 / sigma^2.  Bernoulli and poisson carry dispersion 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "FamilyKind",
    "LossKind",
    "Family",
    "Loss",
    "natural_to_mean",
    "mean_to_natural",
    "unit_variance",
    "loss_q",
    "lambda_hat",
    "check_outcomes",
    "DomainError",
]

# Linear predictors beyond this magnitude are saturated before
# exponentiation; exp(30) ~ 1e13 keeps doubles comfortably finite.
NATURAL_CLAMP = 30.0


class DomainError(ValueError):
    """Argument outside the open domain of a family's mean or natural parameter."""


class FamilyKind(str, Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    POISSON = "poisson"


class LossKind(str, Enum):
    DEVIANCE = "deviance"
    SQUARED_ERROR = "squared_error"
    ZERO_ONE = "zero_one"


@dataclass(frozen=True)
class Family:
    """An exponential family with canonical link.

    Attributes:
        kind: which distribution.
        dispersion: sigma^2 for gaussian; must be 1 for bernoulli and
            poisson unless a quasi-likelihood scaling has been applied.
    """

    kind: FamilyKind
    dispersion: float = 1.0

    def __post_init__(self) -> None:
        if self.dispersion <= 0:
            raise ValueError(f"dispersion must be positive, got {self.dispersion}")


@dataclass(frozen=True)
class Loss:
    """A q-class loss (deviance or squared error) or 0-1 loss.

    Deviance requires the family whose unit deviance it measures; the
    other kinds are family-free.
    """

    kind: LossKind
    family: Family | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind is LossKind.DEVIANCE and self.family is None:
            raise ValueError("deviance loss requires a family")


def natural_to_mean(family: Family, lam, *, out=None):
    """Mean parameter mu = d(psi)/d(lambda).

    Gaussian uses the identity link; bernoulli the logistic; poisson the
    exponential.  Linear predictors are saturated at +-30 before
    exponentiation to avoid overflow.  The result is built in one array:
    a new one, or ``out`` (of lam's shape; it may be lam itself).
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise DomainError("natural parameter must be finite")
    if out is None:
        out = np.empty_like(lam)
    if family.kind is FamilyKind.GAUSSIAN:
        np.copyto(out, lam)
    else:
        np.clip(lam, -NATURAL_CLAMP, NATURAL_CLAMP, out=out)
        if family.kind is FamilyKind.BERNOULLI:  # 1 / (1 + exp(-lam))
            np.negative(out, out=out)
            np.exp(out, out=out)
            out += 1.0
            np.divide(1.0, out, out=out)
        else:
            np.exp(out, out=out)
    return out if out.ndim else float(out)


def mean_to_natural(family: Family, mu):
    """Canonical link: inverse of :func:`natural_to_mean`."""
    mu = np.asarray(mu, dtype=float)
    _check_mean_domain(family, mu)
    if family.kind is FamilyKind.GAUSSIAN:
        out = mu.copy()
    elif family.kind is FamilyKind.BERNOULLI:
        out = np.log(mu) - np.log1p(-mu)
    else:
        out = np.log(mu)
    return out if out.ndim else float(out)


def _check_mean_domain(family: Family, mu) -> None:
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise DomainError("mean must be finite")
    if family.kind is FamilyKind.BERNOULLI:
        if np.any(mu <= 0.0) or np.any(mu >= 1.0):
            raise DomainError("bernoulli mean must lie in the open interval (0, 1)")
    elif family.kind is FamilyKind.POISSON:
        if np.any(mu <= 0.0):
            raise DomainError("poisson mean must be positive")


def check_outcomes(family: Family, y) -> None:
    """Raise DomainError for a non-finite, non-0/1 bernoulli or negative poisson outcome."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"{family.kind.value} outcomes must be finite")
    if family.kind is FamilyKind.BERNOULLI and not np.all(np.isin(y, (0.0, 1.0))):
        raise DomainError("bernoulli outcomes must be 0/1")
    if family.kind is FamilyKind.POISSON and np.any(y < 0):
        raise DomainError("poisson outcomes must be non-negative")


def unit_variance(family: Family, mu):
    """Variance function on the unit-dispersion scale: d(mu)/d(lambda)."""
    mu = np.asarray(mu, dtype=float)
    if family.kind is FamilyKind.GAUSSIAN:
        out = np.ones_like(mu)
    elif family.kind is FamilyKind.BERNOULLI:
        out = mu * (1.0 - mu)
    else:
        out = mu.copy()
    return out if out.ndim else float(out)


def _initial_mu(family: Family, y):
    """IRLS start values: the outcomes, moved into the open mean domain."""
    if family.kind is FamilyKind.GAUSSIAN:
        return y.astype(float).copy()
    if family.kind is FamilyKind.BERNOULLI:
        return (y + 0.5) / 2.0
    return y + 0.1


def _draw_responses(rng: np.random.Generator, family: Family, mu):
    """One outcome draw per unit from the family at means mu (dispersion-scaled gaussian noise)."""
    if family.kind is FamilyKind.GAUSSIAN:
        return mu + rng.normal(size=mu.shape) * np.sqrt(family.dispersion)
    if family.kind is FamilyKind.BERNOULLI:
        return (rng.random(mu.shape) < mu).astype(float)
    return rng.poisson(mu).astype(float)


def _xlogy(x, y):
    """x * log(y), with scipy.special.xlogy's conventions: 0 where x == 0 and y is not NaN.

    So 0 * log(0) = 0, 0 * log(NaN) = NaN and x * log(0) = -inf for x > 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(x * np.log(y))
    zero = x == 0.0  # where IEEE gives 0 * log(0) = NaN, or -0.0 for 0 < y < 1
    if zero.any():
        np.copyto(out, 0.0, where=zero & ~np.isnan(y))
    return out


def _unit_deviance(family: Family, y, mu):
    """Pointwise unit deviance 2[log g_y(y) - log g_mu(y)], dispersion-scaled."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family.kind is FamilyKind.GAUSSIAN:
        return (y - mu) ** 2 / family.dispersion
    if family.kind is FamilyKind.BERNOULLI:
        if np.all((y == 0.0) | (y == 1.0)):
            # y log y and (1-y) log(1-y) vanish for 0/1 outcomes, and of the
            # other two terms only the log of the fitted probability of the
            # observed outcome is non-zero: one log per unit.  0.0 - a keeps
            # the sign of a zero deviance that the four-term sum gives.  The
            # where array is the only one: the log and the scaling are in place
            p = np.where(y == 1.0, mu, 1.0 - mu)
            np.log(p, out=p)
            np.subtract(0.0, p, out=p)
            return np.multiply(2.0, p, out=p)
        return 2.0 * (
            _xlogy(y, y) - _xlogy(y, mu)
            + _xlogy(1.0 - y, 1.0 - y) - _xlogy(1.0 - y, 1.0 - mu)
        )
    return 2.0 * (_xlogy(y, y) - _xlogy(y, mu) - (y - mu))


def loss_q(loss: Loss, y, mu_hat):
    """Pointwise loss Q(y, mu_hat).

    Deviance equals the family's unit deviance; squared error is
    (y - mu_hat)^2.  Bernoulli deviance does not raise outside the open
    mean domain: mu_hat is clipped to [0, 1], so a boundary prediction
    with an outcome in [0, 1] it rules out gets +inf from log(0).  An
    outcome outside [0, 1] gives NaN at every mu_hat.
    """
    y = np.asarray(y, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    if loss.kind is LossKind.SQUARED_ERROR:
        out = (y - mu_hat) ** 2
    elif loss.kind is LossKind.ZERO_ONE:
        out = (y != (mu_hat >= 0.5).astype(float)).astype(float)
    else:
        fam = loss.family
        assert fam is not None
        if fam.kind is FamilyKind.BERNOULLI:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = _unit_deviance(fam, y, np.clip(mu_hat, 0.0, 1.0))
        else:
            _check_mean_domain(fam, mu_hat)
            out = _unit_deviance(fam, y, mu_hat)
    return out if out.ndim else float(out)


def lambda_hat(loss: Loss, mu_hat):
    """The penalty-side parameter -qdot(mu_hat)/2 for the given loss.

    Deviance: the natural parameter.  Squared error: mu_hat itself.
    0-1 loss: -1 below 0.5 and +1 at or above.
    """
    mu_hat = np.asarray(mu_hat, dtype=float)
    if loss.kind is LossKind.SQUARED_ERROR:
        out = mu_hat.copy()
    elif loss.kind is LossKind.ZERO_ONE:
        out = np.where(mu_hat < 0.5, -1.0, 1.0)
    else:
        fam = loss.family
        assert fam is not None
        out = np.asarray(mean_to_natural(fam, mu_hat)) / fam.dispersion
    return out if out.ndim else float(out)

