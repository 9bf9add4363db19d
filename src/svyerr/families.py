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
from scipy import special

__all__ = [
    "FamilyKind",
    "LossKind",
    "Family",
    "Loss",
    "natural_to_mean",
    "mean_to_natural",
    "variance",
    "unit_variance",
    "loss_q",
    "lambda_hat",
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

    def with_dispersion(self, dispersion: float) -> "Family":
        return Family(self.kind, dispersion)


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


def _clamp(lam):
    return np.clip(lam, -NATURAL_CLAMP, NATURAL_CLAMP)


def natural_to_mean(family: Family, lam):
    """Mean parameter mu = d(psi)/d(lambda).

    Gaussian uses the identity link; bernoulli the logistic; poisson the
    exponential.  Linear predictors are saturated at +-30 before
    exponentiation to avoid overflow.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise DomainError("natural parameter must be finite")
    if family.kind is FamilyKind.GAUSSIAN:
        out = lam.copy()
    elif family.kind is FamilyKind.BERNOULLI:
        out = 1.0 / (1.0 + np.exp(-_clamp(lam)))
    else:
        out = np.exp(_clamp(lam))
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


def variance(family: Family, mu):
    """Outcome variance at mean mu: sigma^2 (gaussian), mu(1-mu), or mu."""
    mu = np.asarray(mu, dtype=float)
    _check_mean_domain(family, mu)
    out = np.asarray(unit_variance(family, mu)) * family.dispersion
    return out if out.ndim else float(out)


def _xlogy(x, y):
    """x * log(y) with the limit convention 0 * log(0) = 0."""
    return special.xlogy(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _unit_deviance(family: Family, y, mu):
    """Pointwise unit deviance 2[log g_y(y) - log g_mu(y)], dispersion-scaled."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family.kind is FamilyKind.GAUSSIAN:
        return (y - mu) ** 2 / family.dispersion
    if family.kind is FamilyKind.BERNOULLI:
        if np.all((y == 0.0) | (y == 1.0)):
            # y log y and (1-y) log(1-y) vanish for 0/1 outcomes; 0.0 - a keeps
            # the sign of a zero deviance that the four-term sum gives
            return 2.0 * (0.0 - _xlogy(y, mu) - _xlogy(1.0 - y, 1.0 - mu))
        return 2.0 * (
            _xlogy(y, y) - _xlogy(y, mu)
            + _xlogy(1.0 - y, 1.0 - y) - _xlogy(1.0 - y, 1.0 - mu)
        )
    return 2.0 * (_xlogy(y, y) - _xlogy(y, mu) - (y - mu))


def loss_q(loss: Loss, y, mu_hat):
    """Pointwise loss Q(y, mu_hat).

    Deviance equals the family's unit deviance; squared error is
    (y - mu_hat)^2.  Bernoulli deviance at a boundary prediction with
    the opposite outcome returns +inf rather than raising.
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
            # endpoints produce an infinite loss sentinel, not an exception
            with np.errstate(divide="ignore", invalid="ignore"):
                out = _unit_deviance(fam, y, np.clip(mu_hat, 0.0, 1.0))
            bad = ((mu_hat <= 0.0) & (y > 0.0)) | ((mu_hat >= 1.0) & (y < 1.0))
            out = np.where(bad, np.inf, out)
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

