"""Families: canonical links, variance functions, and pointwise losses."""

import math

import numpy as np
import pytest
from scipy import special

from svyerr import families
from svyerr.families import (
    NATURAL_CLAMP,
    DomainError,
    Family,
    FamilyKind,
    Loss,
    LossKind,
    check_outcomes,
    lambda_hat,
    loss_q,
    mean_to_natural,
    natural_to_mean,
    unit_variance,
)

GAUSS = Family(FamilyKind.GAUSSIAN)
BERN = Family(FamilyKind.BERNOULLI)
POIS = Family(FamilyKind.POISSON)


def psi(family: Family, lam):
    """Oracle: cumulant function of the unit-dispersion natural parameterization."""
    lam = np.asarray(lam, dtype=float)
    if family.kind is FamilyKind.GAUSSIAN:
        out = 0.5 * lam**2
    elif family.kind is FamilyKind.BERNOULLI:
        out = np.logaddexp(0.0, np.clip(lam, -NATURAL_CLAMP, NATURAL_CLAMP))
    else:
        out = np.exp(np.clip(lam, -NATURAL_CLAMP, NATURAL_CLAMP))
    return out if out.ndim else float(out)


def loss_q_from_concave(loss: Loss, y, mu_hat):
    """Oracle: Q(y, mu_hat) assembled from the concave generator q and its derivative.

    Independent of :func:`loss_q`; used to check the two constructions agree.
    """
    y = np.asarray(y, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    if loss.kind is LossKind.SQUARED_ERROR:
        # q(m) = -m^2, qdot(m) = -2m
        return (-(mu_hat**2)) + (-2.0 * mu_hat) * (y - mu_hat) - (-(y**2))
    fam = loss.family

    def q_of(m):
        lam = mean_to_natural(fam, m)
        return 2.0 * (psi(fam, lam) - m * lam) / fam.dispersion

    def qdot_of(m):
        return -2.0 * mean_to_natural(fam, m) / fam.dispersion

    # q(y) needs the closed-form saturated value when y sits on the
    # boundary of the mean domain (bernoulli y in {0,1}, poisson y=0).
    if fam.kind is FamilyKind.GAUSSIAN:
        q_y = q_of(y)
    elif fam.kind is FamilyKind.BERNOULLI:
        q_y = -2.0 * (special.xlogy(y, y) + special.xlogy(1.0 - y, 1.0 - y))
    else:
        q_y = 2.0 * (y - special.xlogy(y, y))
    return q_of(mu_hat) + qdot_of(mu_hat) * (y - mu_hat) - q_y


def log_likelihood(family: Family, y, mu):
    """Oracle: pointwise log density at mean mu (constants included)."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family.kind is FamilyKind.GAUSSIAN:
        s2 = family.dispersion
        return -0.5 * ((y - mu) ** 2 / s2 + math.log(2.0 * math.pi * s2))
    if family.kind is FamilyKind.BERNOULLI:
        return special.xlogy(y, mu) + special.xlogy(1.0 - y, 1.0 - mu)
    return special.xlogy(y, mu) - mu - special.gammaln(y + 1.0)


class TestNaturalToMean:
    def test_bernoulli_at_zero(self):
        assert natural_to_mean(BERN, 0.0) == pytest.approx(0.5)

    def test_poisson_at_zero(self):
        assert natural_to_mean(POIS, 0.0) == pytest.approx(1.0)

    def test_gaussian_identity_link(self):
        assert natural_to_mean(GAUSS, 2.5) == pytest.approx(2.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            natural_to_mean(BERN, np.inf)

    def test_saturation_clamp(self):
        # extreme predictors saturate instead of overflowing
        assert np.isfinite(natural_to_mean(POIS, 1e6))

    @staticmethod
    def _allocating(family, lam):
        """The formula before the result was built in one array."""
        lam = np.asarray(lam, dtype=float)
        clamped = np.clip(lam, -NATURAL_CLAMP, NATURAL_CLAMP)
        if family.kind is FamilyKind.GAUSSIAN:
            out = lam.copy()
        elif family.kind is FamilyKind.BERNOULLI:
            out = 1.0 / (1.0 + np.exp(-clamped))
        else:
            out = np.exp(clamped)
        return out if out.ndim else float(out)

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind.value)
    @pytest.mark.parametrize("shape", [(1, 100_000), (32, 500), ()])
    def test_bit_identical_to_allocating_formula(self, family, shape):
        # scale 20 puts some predictors past the +-30 clamp
        lam = np.random.default_rng(7).normal(scale=20.0, size=shape)
        before = np.copy(lam)
        got = natural_to_mean(family, lam)
        want = self._allocating(family, lam)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(got) is type(want)
        assert lam.tobytes() == before.tobytes()  # the input is not modified

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind.value)
    def test_out_receives_the_result(self, family):
        lam = np.random.default_rng(8).normal(scale=20.0, size=(3, 50))
        want = natural_to_mean(family, lam)
        out = np.empty_like(lam)
        assert natural_to_mean(family, lam, out=out) is out
        assert out.tobytes() == want.tobytes()
        # in place: out may be the input itself
        assert natural_to_mean(family, lam, out=lam) is lam
        assert lam.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind.value)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_before_out_is_written(self, family, bad):
        lam = np.array([0.5, bad, -1.0])
        out = np.full(3, 9.0)
        with pytest.raises(DomainError, match="natural parameter must be finite"):
            natural_to_mean(family, lam, out=out)
        assert np.all(out == 9.0)


class TestMeanToNatural:
    def test_bernoulli_at_half(self):
        assert mean_to_natural(BERN, 0.5) == pytest.approx(0.0)

    def test_poisson_at_one(self):
        assert mean_to_natural(POIS, 1.0) == pytest.approx(0.0)

    def test_inverts_logistic_of_one(self):
        mu = natural_to_mean(BERN, 1.0)  # 0.7310585786300049
        assert mean_to_natural(BERN, mu) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
    def test_round_trip(self, family):
        lam = np.linspace(-3.0, 3.0, 25)
        mu = natural_to_mean(family, lam)
        np.testing.assert_allclose(mean_to_natural(family, mu), lam, atol=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.1])
    def test_bernoulli_boundary_rejected(self, mu):
        with pytest.raises(DomainError):
            mean_to_natural(BERN, mu)

    def test_poisson_boundary_rejected(self):
        with pytest.raises(DomainError):
            mean_to_natural(POIS, 0.0)

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, family, mu):
        with pytest.raises(DomainError, match="^mean must be finite$"):
            mean_to_natural(family, np.array([0.5, mu]))


class TestVariance:
    def test_bernoulli_maximum(self):
        assert unit_variance(BERN, 0.5) == pytest.approx(0.25)

    def test_gaussian_constant(self):
        # unit-dispersion scale: sigma^2 is carried by the family, not the variance function
        assert unit_variance(Family(FamilyKind.GAUSSIAN, 2.0), -17.3) == pytest.approx(1.0)

    def test_poisson_identity(self):
        assert unit_variance(POIS, 3.7) == pytest.approx(3.7)

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
    def test_positive_on_open_domain(self, family):
        mu = np.linspace(0.05, 0.95, 13)
        assert np.all(np.asarray(unit_variance(family, mu)) > 0.0)

    def test_positive_dispersion_required(self):
        with pytest.raises(ValueError):
            Family(FamilyKind.GAUSSIAN, 0.0)


class TestCheckOutcomes:
    @pytest.mark.parametrize("family, y", [
        (BERN, [0.0, 0.5, 1.0]),
        (BERN, [0.0, -1.0]),
        (POIS, [0.0, 3.0, -0.5]),
    ])
    def test_outside_support_rejected(self, family, y):
        with pytest.raises(DomainError, match=family.kind.value):
            check_outcomes(family, y)

    @pytest.mark.parametrize("family, y", [
        (BERN, [0.0, 1.0, 1.0]),
        (POIS, [0.0, 2.5, 7.0]),
        (GAUSS, [-3.0, 0.5, 1e9]),
    ])
    def test_inside_support_accepted(self, family, y):
        check_outcomes(family, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind.value)
    def test_non_finite_outcome_rejected(self, family, bad):
        with pytest.raises(DomainError, match=f"^{family.kind.value} outcomes must be finite$"):
            check_outcomes(family, [0.0, bad, 1.0])


class TestLossQ:
    def test_squared_error(self):
        assert loss_q(Loss(LossKind.SQUARED_ERROR), 3.0, 1.0) == pytest.approx(4.0)

    def test_bernoulli_deviance_at_half(self):
        got = loss_q(Loss(LossKind.DEVIANCE, BERN), 1.0, 0.5)
        assert got == pytest.approx(2.0 * math.log(2.0))

    def test_poisson_deviance(self):
        got = loss_q(Loss(LossKind.DEVIANCE, POIS), 2.0, 1.0)
        assert got == pytest.approx(2.0 * (2.0 * math.log(2.0) - 1.0))

    def test_bernoulli_boundary_is_inf_sentinel(self):
        dev = Loss(LossKind.DEVIANCE, BERN)
        assert loss_q(dev, 1.0, 0.0) == np.inf
        assert loss_q(dev, 0.0, 1.0) == np.inf

    def test_bernoulli_boundary_match_is_zero(self):
        dev = Loss(LossKind.DEVIANCE, BERN)
        assert loss_q(dev, 0.0, 0.0) == pytest.approx(0.0)
        assert loss_q(dev, 1.0, 1.0) == pytest.approx(0.0)

    def test_binary_bernoulli_deviance_bit_identical_to_four_terms(self):
        # the 0/1 path drops y log y and (1-y) log(1-y); it must give the
        # four-term sum's bits, signed zeros and infinities included.  The
        # sum is built from the package's own xlogy, so both sides take the
        # same log (numpy's may differ from libm's by an ulp)
        xlogy = families._xlogy
        rng = np.random.default_rng(15)
        mu = np.concatenate([rng.uniform(size=400), [0.0, 1.0, 0.0, 1.0, 1e-300, 1 - 1e-16]])
        y = np.concatenate([(rng.random(400) < 0.5).astype(float), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]])
        four = 2.0 * (xlogy(y, y) - xlogy(y, mu)
                      + xlogy(1.0 - y, 1.0 - y) - xlogy(1.0 - y, 1.0 - mu))
        got = np.asarray(loss_q(Loss(LossKind.DEVIANCE, BERN), y, mu))
        assert [float.hex(v) for v in got] == [float.hex(v) for v in four]
        Y = np.stack([y, 1.0 - y])  # a block of outcome rows takes the same path
        got = np.asarray(loss_q(Loss(LossKind.DEVIANCE, BERN), Y, mu))
        assert [float.hex(v) for v in got[0]] == [float.hex(v) for v in four]

    def test_xlogy_follows_scipy(self):
        # scipy's conventions exactly: 0 where x == 0 and y is not NaN (so
        # 0 log 0 = +0, 0 log inf = +0, 0 log(-1) = +0), NaN for a NaN
        # argument, x log 0 = -inf for x > 0; values within one ulp
        edge = np.array([0.0, -0.0, 1.0, 2.5, -1.5, np.inf, -np.inf, np.nan, 0.3, 1e-300])
        x, y = (a.ravel() for a in np.meshgrid(edge, edge))
        got = families._xlogy(x, y)
        with np.errstate(all="ignore"):
            want = special.xlogy(x, y)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 5.0, size=20_000)
        y = np.exp(rng.uniform(-700.0, 700.0, size=x.size))
        got, want = families._xlogy(x, y), special.xlogy(x, y)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_bernoulli_deviance_endpoints_bit_identical_to_masked_four_terms(self):
        # +inf at an endpoint prediction comes from log(0) after the clip, not
        # from a mask: the four-term sum with the endpoint mask applied is the
        # oracle, fractional and out-of-range predictions included.  An
        # outcome outside [0, 1] is NaN at every prediction.
        mu = np.array([-np.inf, -0.5, -0.0, 0.0, 5e-324, 0.3, 1.0, 1.0 + 1e-16, 1.5,
                       np.inf, np.nan])
        Y = np.array([0.0, 1.0, 0.25, 1e-300, 1.0 - 1e-16])
        dev = Loss(LossKind.DEVIANCE, BERN)
        for y in Y:
            yy = np.full_like(mu, y)
            m = np.clip(mu, 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                four = 2.0 * (special.xlogy(yy, yy) - special.xlogy(yy, m)
                              + special.xlogy(1.0 - yy, 1.0 - yy) - special.xlogy(1.0 - yy, 1.0 - m))
            bad = ((mu <= 0.0) & (yy > 0.0)) | ((mu >= 1.0) & (yy < 1.0))
            oracle = np.where(bad, np.inf, four)
            got = np.asarray(loss_q(dev, yy, mu))
            assert [float.hex(v) for v in got] == [float.hex(v) for v in oracle], y
            scalar = [loss_q(dev, y, v) for v in mu]
            assert [float.hex(v) for v in scalar] == [float.hex(v) for v in oracle], y
        got = np.asarray(loss_q(dev, np.full((3, mu.size), [[-0.5], [1.5], [2.0]]), mu))
        assert np.isnan(got).all()

    def test_zero_one(self):
        zo = Loss(LossKind.ZERO_ONE)
        assert loss_q(zo, 1.0, 0.4) == 1.0
        assert loss_q(zo, 1.0, 0.6) == 0.0

    def test_deviance_requires_family(self):
        with pytest.raises(ValueError):
            Loss(LossKind.DEVIANCE)

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
    def test_nonnegative_zero_iff_equal(self, family):
        rng = np.random.default_rng(7)
        dev = Loss(LossKind.DEVIANCE, family)
        mu = rng.uniform(0.1, 0.9, size=50)
        y = rng.uniform(0.1, 0.9, size=50)
        q = np.asarray(loss_q(dev, y, mu))
        assert np.all(q > 0.0)
        assert np.allclose(loss_q(dev, mu, mu), 0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "loss",
        [
            Loss(LossKind.SQUARED_ERROR),
            Loss(LossKind.DEVIANCE, GAUSS),
            Loss(LossKind.DEVIANCE, Family(FamilyKind.GAUSSIAN, 3.0)),
            Loss(LossKind.DEVIANCE, BERN),
            Loss(LossKind.DEVIANCE, POIS),
        ],
    )
    def test_concave_construction_agrees(self, loss):
        rng = np.random.default_rng(11)
        mu = rng.uniform(0.1, 0.9, size=40)
        if loss.family is not None and loss.family.kind is FamilyKind.BERNOULLI:
            y = rng.integers(0, 2, size=40).astype(float)
        elif loss.family is not None and loss.family.kind is FamilyKind.POISSON:
            y = rng.poisson(1.0, size=40).astype(float)
        else:
            y = rng.normal(size=40)
        np.testing.assert_allclose(
            loss_q(loss, y, mu), loss_q_from_concave(loss, y, mu), atol=1e-10
        )

    @pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
    def test_deviance_equals_likelihood_ratio(self, family):
        rng = np.random.default_rng(3)
        mu = rng.uniform(0.2, 0.8, size=30)
        if family.kind is FamilyKind.BERNOULLI:
            y = rng.integers(0, 2, size=30).astype(float)
            sat = np.zeros(30)  # log density of y at its own mean on {0,1}
        elif family.kind is FamilyKind.POISSON:
            y = rng.poisson(2.0, size=30).astype(float) + 1.0
            sat = np.asarray(log_likelihood(family, y, y))
        else:
            y = rng.normal(size=30)
            sat = np.asarray(log_likelihood(family, y, y))
        lr = 2.0 * (sat - np.asarray(log_likelihood(family, y, mu)))
        np.testing.assert_allclose(
            loss_q(Loss(LossKind.DEVIANCE, family), y, mu), lr, atol=1e-10
        )


class TestLambdaHat:
    def test_zero_one_below_half(self):
        assert lambda_hat(Loss(LossKind.ZERO_ONE), 0.3) == -1.0

    def test_zero_one_at_half(self):
        assert lambda_hat(Loss(LossKind.ZERO_ONE), 0.5) == 1.0

    def test_squared_error_identity(self):
        assert lambda_hat(Loss(LossKind.SQUARED_ERROR), 1.7) == pytest.approx(1.7)

    @pytest.mark.parametrize("family", [BERN, POIS])
    def test_deviance_equals_natural_parameter(self, family):
        mu = np.linspace(0.1, 0.9, 9)
        np.testing.assert_array_equal(
            lambda_hat(Loss(LossKind.DEVIANCE, family), mu),
            np.asarray(mean_to_natural(family, mu)),
        )

    def test_gaussian_deviance_divides_by_dispersion(self):
        f = Family(FamilyKind.GAUSSIAN, 4.0)
        assert lambda_hat(Loss(LossKind.DEVIANCE, f), 2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
def test_psi_derivative_matches_mean(family):
    h = 1e-6
    for lam in np.linspace(-2.5, 2.5, 21):
        fd = (psi(family, lam + h) - psi(family, lam - h)) / (2.0 * h)
        assert fd == pytest.approx(natural_to_mean(family, lam), abs=1e-6)


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS])
def test_unit_variance_is_mean_derivative(family):
    h = 1e-6
    for lam in np.linspace(-2.0, 2.0, 15):
        fd = (natural_to_mean(family, lam + h) - natural_to_mean(family, lam - h)) / (2.0 * h)
        mu = natural_to_mean(family, lam)
        assert fd == pytest.approx(unit_variance(family, mu), abs=1e-5)
