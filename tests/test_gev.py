import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from blockmax import (
    GevParams,
    gev_cdf,
    gev_loglik,
    gev_loglik3,
    gev_loglik_gradient,
    gev_loglik_max,
    gev_mode,
    gev_quantile,
    gev_sample,
    params_support,
    gev_reference,
    norm_constants,
    support_interval,
)
from blockmax.gev import (SERIES_CUTOFF, _dphi, _phi, gev_loglik_x_derivative,
                          gev_upper_quantile)

EULER = 0.5772156649015329


def numeric_argmax(gamma):
    """Stationary point of the shape-gamma log-likelihood, found by
    root-finding the x-derivative inside the support (independent of the
    closed-form mode expression)."""
    span = support_interval(gamma)
    lo = span.lower + 1e-9 if math.isfinite(span.lower) else -30.0
    hi = span.upper - 1e-9 if math.isfinite(span.upper) else 30.0
    return brentq(lambda x: gev_loglik_x_derivative(gamma, x), lo, hi, xtol=1e-13)


class TestCdf:
    def test_gumbel_origin(self):
        assert gev_cdf(0.0, 0.0) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_frechet_point(self):
        assert gev_cdf(1.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_total_outside_support(self):
        assert gev_cdf(-1.0, 2.0) == 1.0          # beyond right endpoint
        assert gev_cdf(1.0, -2.0) == 0.0          # below left endpoint
        assert gev_cdf(-0.5, 2.0) == 1.0          # boundary point itself
        assert gev_cdf(0.5, -2.0) == 0.0

    @pytest.mark.parametrize("gamma", [-0.5, -0.25, 0.0, 1e-9, 0.5, 1.0, 2.0])
    def test_nondecreasing_and_quantile_inverse(self, gamma):
        u = np.linspace(0.01, 0.99, 99)
        x = gev_quantile(gamma, u)
        assert np.all(np.diff(x) > 0)
        back = gev_cdf(gamma, x)
        assert np.max(np.abs(back - u)) < 1e-10
        cdf_grid = gev_cdf(gamma, np.linspace(x[0], x[-1], 500))
        assert np.all(np.diff(cdf_grid) >= 0)


class TestQuantile:
    def test_zero_at_exp_minus_one(self):
        for gamma in (-0.7, -0.2, 0.0, 0.3, 1.5):
            assert gev_quantile(gamma, math.exp(-1)) == pytest.approx(0.0, abs=1e-14)

    def test_gumbel_median(self):
        assert gev_quantile(0.0, 0.5) == pytest.approx(-math.log(math.log(2)), abs=1e-15)

    def test_frechet_upper_tail_roundtrip(self):
        value = gev_quantile(1.0, 0.9)
        assert value == pytest.approx(1.0 / (-math.log(0.9)) - 1.0, rel=1e-13)
        assert gev_cdf(1.0, value) == pytest.approx(0.9, abs=1e-12)

    def test_domain_error(self):
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValueError):
                gev_quantile(0.3, bad)


class TestSampling:
    def test_reproducible(self):
        theta = GevParams(0.0, 0.0, 1.0)
        a = gev_sample(theta, 3, seed=42)
        b = gev_sample(theta, 3, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_gumbel_ks(self):
        x = np.sort(gev_sample(GevParams(0.0, 0.0, 1.0), 100_000, seed=7))
        n = x.size
        f = gev_cdf(0.0, x)
        ks = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
        assert ks < 0.01

    def test_support_bounds(self):
        heavy = gev_sample(GevParams(1.0, 0.0, 1.0), 100_000, seed=11)
        assert np.all(heavy > -1.0)
        bounded = gev_sample(GevParams(-0.5, 0.0, 1.0), 100_000, seed=11)
        assert np.all(bounded < 2.0)


class TestLoglik:
    def test_gumbel_origin(self):
        assert gev_loglik(0.0, 0.0) == -1.0

    def test_paper_maximum_value(self):
        # shape 1 at its mode -1/2
        assert gev_loglik(1.0, -0.5) == pytest.approx(2 * (math.log(2) - 1), abs=1e-14)

    def test_outside_support(self):
        assert gev_loglik(1.0, -2.0) == -math.inf
        assert gev_loglik(1.0, -1.0) == -math.inf      # boundary point exactly
        assert gev_loglik(-0.5, 2.0) == -math.inf

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_density_integrates_to_one(self, gamma):
        span = support_interval(gamma)
        total, err = quad(
            lambda x: math.exp(gev_loglik(gamma, x)),
            span.lower, span.upper, limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("gamma", [-0.5, -0.25, 0.3, 1.0, 2.0])
    def test_unimodal_shape(self, gamma):
        mode = gev_mode(gamma)
        span = support_interval(gamma)
        lo = span.lower if math.isfinite(span.lower) else mode - 20.0
        hi = span.upper if math.isfinite(span.upper) else mode + 20.0
        up = gev_loglik(gamma, np.linspace(lo + 1e-6 * (mode - lo), mode, 400))
        down = gev_loglik(gamma, np.linspace(mode, hi - 1e-6 * (hi - mode), 400))
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)

    @pytest.mark.parametrize("gamma", [-1.0, -1.5, -2.0])
    def test_increasing_when_no_interior_maximum(self, gamma):
        hi = -1.0 / gamma
        grid = np.linspace(hi - 40.0, hi - 1e-9 * abs(hi), 600)
        values = gev_loglik(gamma, grid)
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.3, 1.0])
    def test_diverges_at_endpoints(self, gamma):
        span = support_interval(gamma)
        distances = 10.0 ** -np.arange(4, 13)  # approaching the boundary
        if math.isfinite(span.lower):
            values = gev_loglik(gamma, span.lower + distances)
            assert values[-1] < -50
            assert np.all(np.diff(values) < 0)
        else:
            assert gev_loglik(gamma, -40.0) < -25
        if math.isfinite(span.upper):
            values = gev_loglik(gamma, span.upper - distances)
            assert values[-1] < -20
            assert np.all(np.diff(values) < 0)
        else:
            # heavy tails decay only logarithmically, so go far out
            assert gev_loglik(gamma, 1e13) < -25


class TestLoglik3:
    def test_reduces_to_standardized(self):
        assert gev_loglik3(GevParams(0.0, 0.0, 1.0), 0.0) == -1.0

    def test_composition(self):
        value = gev_loglik3(GevParams(1.0, 0.0, 2.0), -0.5)
        assert value == pytest.approx(gev_loglik(1.0, -0.25) - math.log(2), abs=1e-14)

    def test_scaling_identity(self):
        # l_(g,mu,sigma)((x-b)/a) = l_(g,a*mu+b,a*sigma)(x) + log(a)
        rng = np.random.default_rng(314)
        for _ in range(100):
            gamma = rng.uniform(-0.9, 2.0)
            mu = rng.uniform(-3, 3)
            sigma = rng.uniform(0.1, 3.0)
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-5, 5)
            u = rng.uniform(0.02, 0.98)
            z = gev_quantile(gamma, u)
            x = a * (mu + sigma * z) + b  # interior of the transformed support
            lhs = gev_loglik3(GevParams(gamma, mu, sigma), (x - b) / a)
            rhs = gev_loglik3(GevParams(gamma, a * mu + b, a * sigma), x) + math.log(a)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGradient:
    def test_gumbel_origin_mu_partial(self):
        grad = gev_loglik_gradient(GevParams(0.0, 0.0, 1.0), 0.0)
        assert grad[1] == pytest.approx(0.0, abs=1e-12)

    def test_stationary_at_mode(self):
        for gamma in (-0.5, 0.0, 0.7, 2.0):
            assert gev_loglik_x_derivative(gamma, gev_mode(gamma)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(100):
            gamma = rng.uniform(-0.9, 3.0)
            theta = GevParams(gamma, rng.uniform(-5, 5), rng.uniform(0.2, 4.0))
            u = rng.uniform(0.05, 0.95)
            x = theta.mu + theta.sigma * gev_quantile(gamma, u)
            analytic = gev_loglik_gradient(theta, x)
            fd = np.empty(3)
            for i in range(3):
                h = 1e-6 * (1.0 + abs(theta.as_array()[i]))
                up = theta.as_array()
                dn = theta.as_array()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    gev_loglik3(GevParams.from_array(up), x)
                    - gev_loglik3(GevParams.from_array(dn), x)
                ) / (2 * h)
            worst = max(worst, np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))))
        assert worst <= 1e-5

    def test_boundary_raises(self):
        with pytest.raises(ValueError):
            gev_loglik_gradient(GevParams(1.0, 0.0, 1.0), -1.0)
        with pytest.raises(ValueError):
            gev_loglik_gradient(GevParams(1.0, 0.0, 1.0), -3.0)

    def test_tiny_shape_is_continuous_with_gumbel_branch(self):
        theta_zero = GevParams(0.0, 0.0, 1.0)
        for x in (-1.0, 0.4, 2.5):
            g0 = gev_loglik_gradient(theta_zero, x)
            g_eps = gev_loglik_gradient(GevParams(1e-7, 0.0, 1.0), x)
            assert np.max(np.abs(g0 - g_eps)) < 1e-6


def test_phi_derivative_matches_differences():
    def phi(u):  # with w and log w formed as _tail forms them
        u = np.array([u])
        return _phi(u, 1.0 + u, np.log1p(u))

    # both sides of the series cutoff, and far from it
    for u in (-0.9, -0.2, -1.5 * SERIES_CUTOFF, -0.5 * SERIES_CUTOFF, 0.0,
              1e-6, 0.5 * SERIES_CUTOFF, 1.5 * SERIES_CUTOFF, 0.2, 3.0):
        h = 1e-5
        fd = (phi(u + h) - phi(u - h)) / (2 * h)
        dphi = _dphi(np.array([u]), np.array([(1.0 + u) * (1.0 + u)]), phi(u))
        assert float(dphi[0]) == pytest.approx(float(fd[0]), rel=1e-7, abs=1e-7)


class TestExtremeArguments:
    """The Gumbel limit is as quiet as gamma != 0 where e = w^(-1/gamma) overflows."""

    # where the log-density is finite; elsewhere e overflows or x is outside the support
    @pytest.mark.parametrize("gamma, finite", [
        (0.0, [1000.0, 1e300]), (1e-9, [1000.0, 1e300]), (0.3, [1000.0, 1e300]),
        (-0.3, [-1000.0])])
    def test_cdf_and_loglik_quiet_at_extremes(self, gamma, finite):
        x = np.array([-np.inf, -1e300, -1000.0, 1000.0, 1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = gev_cdf(gamma, x)
            loglik = gev_loglik(gamma, x)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        expected_finite = np.isin(x, finite)
        assert np.all(np.isfinite(loglik[expected_finite]))
        assert np.all(loglik[~expected_finite] == -np.inf)

    # -1e8 lies inside the gamma = 1e-9 support, whose lower end is -1e9
    @pytest.mark.parametrize("gamma, points", [
        (0.0, [-1e300, -1000.0]), (1e-9, [-1e8, -1000.0]), (-0.3, [-1e300])])
    def test_x_derivative_diverges_quietly(self, gamma, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gev_loglik_x_derivative(gamma, np.array(points))
        assert np.all(values == np.inf)

    def test_x_derivative_raises_below_a_tiny_shape_support(self):
        with pytest.raises(ValueError, match="outside the support"):
            gev_loglik_x_derivative(1e-9, np.array([-1e300]))

    def test_gumbel_infinite_arguments(self):
        # w = 1 for every x at gamma = 0, also at x = -inf and inf
        x = np.array([-np.inf, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gev_loglik_x_derivative(0.0, x).tolist() == [np.inf, -1.0]
            assert gev_cdf(0.0, x).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("func", [
    gev_cdf, gev_loglik, gev_loglik_x_derivative, gev_quantile, gev_upper_quantile])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_scalar_in_float_out(func, gamma):
    # repr of a float is what `blockmax fit` and the study CSVs write
    for scalar in (0.4, np.float64(0.4), np.array(0.4)):
        value = func(gamma, scalar)
        assert type(value) is float
        assert repr(value) == repr(float(func(gamma, np.array([0.4]))[0]))
    for shape in ((1,), (3,), (2, 3), (0,), (2, 0)):
        out = func(gamma, np.full(shape, 0.4))
        assert isinstance(out, np.ndarray) and out.shape == shape


class TestModeAndMax:
    def test_values(self):
        assert gev_mode(0.0) == 0.0
        assert gev_mode(1.0) == pytest.approx(-0.5, abs=1e-15)
        assert gev_mode(-0.5) == pytest.approx(2 - math.sqrt(2), abs=1e-12)
        assert gev_loglik_max(0.0) == -1.0
        assert gev_loglik_max(1.0) == pytest.approx(2 * (math.log(2) - 1), abs=1e-15)

    @pytest.mark.parametrize("gamma", [-0.5, -0.25, 0.0, 0.3, 0.5, 1.0, 2.0])
    def test_against_numeric_maximization(self, gamma):
        x_star = numeric_argmax(gamma)
        assert x_star == pytest.approx(gev_mode(gamma), abs=1e-8)
        assert gev_loglik(gamma, x_star) == pytest.approx(gev_loglik_max(gamma), abs=1e-8)
        # independent second route: bounded scalar minimization
        span = support_interval(gamma)
        lo = span.lower + 1e-6 if math.isfinite(span.lower) else -20.0
        hi = span.upper - 1e-6 if math.isfinite(span.upper) else 20.0
        res = minimize_scalar(
            lambda x: -gev_loglik(gamma, x), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        assert -res.fun == pytest.approx(gev_loglik_max(gamma), abs=1e-8)

    def test_domain_errors(self):
        for gamma in (-1.0, -1.5):
            with pytest.raises(ValueError):
                gev_mode(gamma)
            with pytest.raises(ValueError):
                gev_loglik_max(gamma)


class TestSupport:
    def test_three_cases(self):
        assert support_interval(0.5).lower == -2.0
        assert support_interval(0.5).upper == math.inf
        assert support_interval(-0.5).lower == -math.inf
        assert support_interval(-0.5).upper == 2.0
        assert support_interval(0.0).lower == -math.inf
        assert support_interval(0.0).upper == math.inf

    def test_data_units(self):
        span = params_support(GevParams(0.5, 10.0, 2.0))
        assert span.lower == pytest.approx(10.0 - 2.0 / 0.5)
        assert span.upper == math.inf


class TestGumbelThreshold:
    """Every function takes the Gumbel branch at gamma == 0 and at no other
    normal shape, however small."""

    U = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-9])
    X = np.array([-3.0, -0.5, 1.5, 10.0])  # not 0, where both branches give -1

    @staticmethod
    def _constants(gamma):
        # a sentinel gumbel_scale shows whether norm_constants reads it
        dist = dataclasses.replace(gev_reference(gamma), gumbel_scale=lambda m: 7.0)
        return dist, norm_constants(dist, 1000)

    @pytest.mark.parametrize("gamma", [0.0, -0.0])
    def test_zero_takes_gumbel_branch(self, gamma):
        assert support_interval(gamma) == support_interval(0.0)
        assert support_interval(gamma).lower == -math.inf
        assert support_interval(gamma).upper == math.inf
        assert gev_reference(gamma).gumbel_scale is not None
        assert self._constants(gamma)[1].a_m == 7.0
        assert gev_mode(gamma) == 0.0
        assert np.array_equal(gev_quantile(gamma, self.U), gev_quantile(0.0, self.U))
        assert np.array_equal(gev_loglik(gamma, self.X), gev_loglik(0.0, self.X))

    @pytest.mark.parametrize("gamma", [0.5e-8, -0.5e-8, 0.99e-8, -0.99e-8,
                                       1.01e-8, -1.01e-8, 2e-8, -2e-8])
    def test_outside_keeps_the_shape(self, gamma):
        span = support_interval(gamma)
        assert (span.lower, span.upper) == ((-1.0 / gamma, math.inf) if gamma > 0
                                            else (-math.inf, -1.0 / gamma))
        assert gev_reference(gamma).gumbel_scale is None
        dist, c = self._constants(gamma)
        assert c.a_m == (gamma * c.b_m if gamma > 0 else -gamma * (dist.right_endpoint - c.b_m))
        assert c.a_m != 7.0
        assert gev_mode(gamma) != 0.0
        assert np.all(gev_quantile(gamma, self.U) != gev_quantile(0.0, self.U))
        assert np.all(gev_loglik(gamma, self.X) != gev_loglik(0.0, self.X))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(gamma=st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300])
       | st.floats(-1e-6, 1e-6), z=st.floats(-20.0, 50.0))
def test_loglik_is_continuous_through_zero(gamma, z):
    # ll(gamma) = ll(0) + gamma g_gamma + gamma^2 g_gg / 2 + ... at gamma = 0, where
    # g_gamma = (1 - e) z^2/2 - z and |g_gg| <= z^2 + e z^4/4 + 2/3 |1 - e| |z|^3
    # with e = exp(-z); the rounding of e = exp(-z L) grows with e |z|
    ll0 = gev_loglik(0.0, z)
    e = math.exp(-z)
    g_gamma = (1.0 - e) * z * z / 2 - z
    g_gg = z * z + e * z ** 4 / 4 + 2 / 3 * abs(1.0 - e) * abs(z) ** 3
    rounding = 8 * sys.float_info.epsilon * (1.0 + abs(z)) * (1.0 + e)
    ll = gev_loglik(gamma, z)
    assert abs(ll - ll0 - gamma * g_gamma) <= gamma * gamma * g_gg + rounding
    if abs(gamma) < sys.float_info.min:  # gamma * z underflows: the Gumbel value
        assert abs(ll - ll0) <= 4e-16 * abs(ll0)


def test_params_require_positive_scale():
    with pytest.raises(ValueError):
        GevParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GevParams(0.0, 0.0, -1.0)
