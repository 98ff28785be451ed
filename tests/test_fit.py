import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import blockmax
from blockmax import (
    FitResult,
    GevParams,
    block_maxima,
    catalog,
    feasibility_margin,
    fit_mle,
    gev_loglik3,
    gev_loglik_grad_hess,
    gev_quantile,
    gev_sample,
    is_feasible,
    kl_divergence,
    norm_constants,
    normalize,
    numeric_hessian,
    params_support,
    pareto,
    pwm_init,
    sample_iid,
    sample_loglik,
    sample_loglik_gradient,
)
from blockmax import fit as fit_module
from blockmax.fit import _repair
from blockmax.gev import SERIES_CUTOFF


class TestSampleLoglik:
    def test_single_observation(self):
        assert sample_loglik(GevParams(0.0, 0.0, 1.0), [0.0]) == -1.0

    def test_infeasible_observation(self):
        assert sample_loglik(GevParams(1.0, 0.0, 1.0), [0.5, -2.0]) == -math.inf

    @pytest.mark.parametrize("name", [
        "sample_loglik", "is_feasible", "empirical_mean_loglik", "ks_distance",
        "feasibility_margin", "numeric_hessian", "sample_loglik_gradient",
        "gev_loglik_grad_hess", "pwm_init", "block_maxima"])
    def test_empty_series_refused(self, name):
        # every one-series function refuses an empty series, and anything else
        # that is not one series of numbers, through one gate that names it;
        # no RuntimeWarning first
        theta = GevParams(0.5, 0.0, 1.0)
        call = {"empirical_mean_loglik": lambda f, x: f(x, theta),
                "ks_distance": lambda f, x: f(x, 0.5),
                "pwm_init": lambda f, x: f(x),
                "block_maxima": lambda f, x: f(x, 2)}.get(name, lambda f, x: f(theta, x))
        for series, message in [
                ([], "empty series"),
                (np.arange(1, 13).reshape(3, 4), f"{name} takes one series, got 2-d input"),
                (1.5, f"{name} takes one series, got 0-d input"),
                ([1.0, math.nan, 2.0, 3.0], "1 NaN and 0 infinite values among 4 observations")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(getattr(blockmax, name), series)

    def test_matches_normalized_likelihood(self):
        # L_n(g,mu,sigma) = normalized L_n(g,(mu-b)/a,sigma/a) - log(a)
        rng = np.random.default_rng(100)
        dist = pareto(1.0)
        data = sample_iid(dist, 20_000, seed=41)
        maxima = block_maxima(data, 200)
        constants = norm_constants(dist, 200)
        normalized = normalize(maxima, constants)
        for _ in range(20):
            theta = GevParams(rng.uniform(0.2, 2.0), rng.uniform(100, 300), rng.uniform(50, 300))
            lhs = sample_loglik(theta, maxima)
            rhs = sample_loglik(
                GevParams(
                    theta.gamma,
                    (theta.mu - constants.b_m) / constants.a_m,
                    theta.sigma / constants.a_m,
                ),
                normalized,
            ) - math.log(constants.a_m)
            if math.isfinite(lhs) or math.isfinite(rhs):
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPwmInit:
    def test_recovers_shape_roughly(self):
        x = gev_sample(GevParams(0.5, 0.0, 1.0), 10_000, seed=51)
        init = pwm_init(x)
        assert abs(init.gamma - 0.5) < 0.2

    def test_two_value_sample_location_between_extremes(self):
        c = 3.0
        init = pwm_init([-c, c, -c, c])
        assert abs(init.mu) < c

    def test_always_feasible(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            x = rng.choice(
                [rng.normal(size=20), rng.pareto(0.5, size=20), -rng.pareto(1.0, size=20)]
            )
            init = pwm_init(x)
            assert is_feasible(init, x)
            assert init.gamma > -1.0
            assert init.sigma > 0

    def test_degenerate_data(self):
        with pytest.raises(ValueError):
            pwm_init([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            pwm_init([1.0, 2.0])
        # fit_mle's input checks: bad values are named, with no RuntimeWarning on the way
        with pytest.raises(ValueError, match="1 NaN and 0 infinite values among 4 observations"):
            pwm_init([1.0, 2.0, math.nan, 4.0])
        with pytest.raises(ValueError, match="0 NaN and 1 infinite values among 3 observations"):
            pwm_init([1.0, 2.0, math.inf])
        with pytest.raises(ValueError, match="one series, got 2-d input"):
            pwm_init([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0]])

    @pytest.mark.parametrize("x", [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0] * 99 + [1.0]],
                             ids=["low-pair", "high-pair", "99-zeros"])
    def test_extreme_skewness_start_is_feasible(self, x):
        # L-skewness t3 = +-1 puts the shape at the ends of its reachable range
        init = pwm_init(x)
        assert all(math.isfinite(v) for v in init.as_array())
        assert init.gamma > -1.0 and init.sigma > 0
        assert feasibility_margin(init, x) > 0 and is_feasible(init, x)

    def test_gamma_function_matches_scipy_on_reachable_range(self):
        # |t3| <= 1 keeps k = -shape within (-0.98, 3.3), clipped below 0.95,
        # so the start evaluates Gamma(1 + k) on about [0.02, 1.95)
        from scipy.special import gamma as scipy_gamma

        a = np.linspace(0.02, 1.95, 2001)
        ours = np.array([math.gamma(v) for v in a])
        np.testing.assert_allclose(ours, scipy_gamma(a), rtol=2e-15, atol=0)

    def test_gamma_pole_takes_the_moment_fallback(self, monkeypatch):
        x = gev_sample(GevParams(0.2, 0.0, 1.0), 200, seed=53)

        def pole(arg):
            raise ValueError("math domain error")

        monkeypatch.setattr(fit_module.math, "gamma", pole)
        init = pwm_init(x)
        assert init.gamma == 0.0
        assert init.mu == float(np.median(x))
        assert init.sigma == float(np.std(x))


class TestFitMle:
    def test_exact_model_recovery(self):
        data = gev_sample(GevParams(0.5, 10.0, 2.0), 10_000, seed=61)
        res = fit_mle(data)
        assert res.converged
        assert abs(res.theta_hat.gamma - 0.5) <= 0.05
        assert abs(res.theta_hat.mu - 10.0) <= 0.1
        assert abs(res.theta_hat.sigma - 2.0) <= 0.1
        assert res.grad_norm <= 1e-8
        assert res.hessian_negdef

    def test_few_loglik_evaluations(self, monkeypatch):
        # every log-likelihood of a fit, the stencil's included, is a row of _loglik_rows
        data = gev_sample(GevParams(0.5, 10.0, 2.0), 10_000, seed=61)
        rows = []
        evaluate = fit_module._loglik_rows

        def counted(theta, *args, **kwargs):
            rows.append(len(theta))
            return evaluate(theta, *args, **kwargs)

        monkeypatch.setattr(fit_module, "_loglik_rows", counted)
        fit_mle(data)
        assert 0 < sum(rows) < 200
        rows.clear()
        fit_mle(np.stack([data, 2.0 * data + 1.0, data[::-1]]))
        assert 0 < sum(rows) < 3 * 200

    def test_one_numeric_hessian_per_fit(self, monkeypatch):
        # the ascent steps on the closed-form Hessian; the stencil only judges the result
        data = gev_sample(GevParams(0.5, 10.0, 2.0), 10_000, seed=61)
        rows = []
        stencil = fit_module._stencil_hessians

        def counted(theta, *args):
            rows.append(len(theta))
            return stencil(theta, *args)

        monkeypatch.setattr(fit_module, "_stencil_hessians", counted)
        fit_mle(data)
        assert rows == [1]
        rows.clear()
        fit_mle(np.stack([data, 2.0 * data + 1.0, data[::-1]]))
        assert rows == [3]

    def test_affine_equivariance(self):
        # Gumbel and GEV(0.3) data; `converged` is not asserted because
        # GRAD_TOL is absolute, so the verdict is not unit-free
        for gamma in (0.0, 0.3):
            data = gev_sample(GevParams(gamma, 1.0, 1.5), 3_000, seed=62)
            base = fit_mle(data)
            for a, b in ((1e-6, 0.0), (1e6, 0.0), (1.0, 1e8), (1e3, -1e8),
                         (1e-3, 1e3), (1e6, 1e8), (0.37, -3.1), (1e300, 0.0), (1e-300, 0.0)):
                moved = fit_mle(a * data + b).theta_hat
                assert moved.gamma == pytest.approx(base.theta_hat.gamma, abs=1e-6)
                assert (moved.mu - b) / a == pytest.approx(base.theta_hat.mu, rel=1e-6)
                assert moved.sigma / a == pytest.approx(base.theta_hat.sigma, rel=1e-6)

    def test_uniform_maxima_stay_above_minus_one(self):
        # data whose true index is -1: the estimate must stay inside the
        # admissible region whatever the data say
        rng = np.random.default_rng(64)
        data = rng.random(20_000).reshape(400, 50).max(axis=1)
        res = fit_mle(data)
        assert res.theta_hat.gamma > -1.0
        assert is_feasible(res.theta_hat, data)

    def test_ascent_from_init(self):
        data = gev_sample(GevParams(1.0, 0.0, 1.0), 500, seed=65)
        res = fit_mle(data)
        assert res.loglik >= sample_loglik(pwm_init(data), data) - 1e-10

    def test_degenerate_data_raises(self):
        with pytest.raises(ValueError):
            fit_mle(np.ones(10))
        with pytest.raises(ValueError):
            fit_mle([1.0, 2.0])

    def test_non_finite_data_counted(self):
        data = gev_sample(GevParams(0.5, 0.0, 1.0), 50, seed=69)
        data[[3, 17]] = np.nan
        data[40] = -np.inf
        with pytest.raises(ValueError, match="2 NaN and 1 infinite values among 50"):
            fit_mle(data)

    def test_iteration_cap_returns_nonconverged(self, monkeypatch):
        data = gev_sample(GevParams(0.5, 0.0, 1.0), 2_000, seed=66)
        monkeypatch.setattr(fit_module, "MAX_ITERS", 3)
        res = fit_mle(data)
        assert res.iterations >= 3
        assert isinstance(res.converged, bool)

    def test_nan_gradient_is_reported(self, monkeypatch):
        # the verdict's gradient is the one _loglik_rows call with the scalar floor -inf
        data = gev_sample(GevParams(0.5, 0.0, 1.0), 200, seed=70)
        verdicts = []
        evaluate = fit_module._loglik_rows

        def nan_gradient(theta, X, rows=None, floor=None):
            values, means = evaluate(theta, X, rows, floor)
            if np.ndim(floor) == 0 and floor == -np.inf:
                verdicts.append(len(theta))
                means[:] = np.nan
            return values, means

        monkeypatch.setattr(fit_module, "_loglik_rows", nan_gradient)
        res = fit_mle(data)
        assert verdicts == [1]
        assert not res.converged
        assert "gradient norm nan above tolerance" in res.diagnostic

    def test_repair_makes_infeasible_init_finite(self):
        data = gev_sample(GevParams(0.5, 0.0, 1.0), 500, seed=68)
        bad = GevParams(2.0, float(np.max(data)), 0.01)  # everything below mu is infeasible
        theta, values, _ = _repair(bad.as_array()[None], data[None])
        repaired = GevParams.from_array(theta[0])
        assert is_feasible(repaired, data)
        assert values[0] == sample_loglik(repaired, data)


def _mixed_block():
    """Rows of 500 maxima that end in different ways: after 3 to 7 steps,
    at a plateau (data scaled by 1e-300), a Gumbel sample, and two rows
    that take more than 20 steps."""
    n = 500
    return np.stack([
        gev_sample(GevParams(0.3, 1.0, 1.5), n, seed=3),
        gev_sample(GevParams(0.3, 1.0, 1.5), n, seed=3) * 1e-300,
        gev_sample(GevParams(0.0, 0.0, 1.0), n, seed=5),
        sample_iid(pareto(1.0), n, seed=6, m=30),
        gev_sample(GevParams(-0.4, 0.0, 1.0), n, seed=7),
        gev_sample(GevParams(2.5, 0.0, 1.0), n, seed=8),
        np.random.default_rng(9).random((n, 50)).max(axis=1),
    ])


class TestBatchedFit:
    @pytest.mark.parametrize("block_values", [1, 10**9, fit_module.BLOCK_VALUES],
                             ids=["one-row-chunks", "whole-matrix", "default"])
    def test_each_row_is_its_lone_fit(self, monkeypatch, block_values):
        X = _mixed_block()
        monkeypatch.setattr(fit_module, "MAX_ITERS", 20)
        lone = [fit_mle(x) for x in X]
        monkeypatch.setattr(fit_module, "BLOCK_VALUES", block_values)
        assert fit_mle(X) == lone
        assert fit_mle(X[::-1]) == lone[::-1]
        # the block mixes every way an ascent ends
        assert len({r.iterations for r in lone}) >= 5
        assert any(r.diagnostic.startswith("plateau") for r in lone)
        assert sum(r.iterations == 20 and r.diagnostic.startswith("Newton iteration limit")
                   for r in lone) == 2
        assert any(r.converged for r in lone) and not all(r.converged for r in lone)

    def test_kernel_is_the_one_series_functions(self):
        # one chunk mixing the Gumbel limit (0 and 1e-9), ordinary shapes, rows
        # where e = w^(-1/gamma) overflows inside the support and an infeasible
        # row gives each row the bits of sample_loglik and gev_loglik_grad_hess
        x = gev_sample(GevParams(0.2, 0.0, 1.0), 300, seed=73)
        lo, hi = float(np.min(x)), float(np.max(x))
        thetas = [GevParams(0.0, 0.1, 1.2), GevParams(0.3, -0.1, 0.9), GevParams(1e-9, 0.0, 1.0),
                  GevParams(-0.4, 0.2, 1.1),
                  GevParams(1e-3, lo + 6.0, 0.01),            # z >= -600: e = 0.4^-1000
                  GevParams(0.0, lo + 7.2, 0.01),             # z >= -720: e = exp(720)
                  GevParams(-0.01, hi, (hi - lo) / 2e5),      # z >= -2e5: e = 2001^100
                  GevParams(2.0, hi, 0.05)]
        values, means = fit_module._loglik_rows(
            np.array([t.as_array() for t in thetas]), x[None], np.zeros(len(thetas), dtype=int),
            floor=-np.inf)
        for theta, value, row in zip(thetas, values, means):
            assert value == sample_loglik(theta, x)
            if math.isfinite(value):
                grad, hess = gev_loglik_grad_hess(theta, x)
                assert row[:3].tolist() == grad.tolist()
                assert row[[3, 4, 5, 4, 6, 7, 5, 7, 8]].tolist() == hess.ravel().tolist()
        assert values[-1] == -math.inf

    def test_one_series_is_the_one_row_matrix(self):
        x = _mixed_block()[3]
        assert fit_mle(x[None]) == [fit_mle(x)]

    def test_nan_or_inf_row_named(self):
        X = _mixed_block()
        X[4, [7, 9]] = np.nan
        X[4, 11] = np.inf
        with pytest.raises(ValueError, match="row 4: 2 NaN and 1 infinite values among 500"):
            fit_mle(X)

    def test_constant_row_named(self):
        X = _mixed_block()
        X[2] = 3.0
        with pytest.raises(ValueError, match="row 2: degenerate data"):
            fit_mle(X)

    def test_too_few_columns(self):
        with pytest.raises(ValueError, match="at least 3 observations per row"):
            fit_mle(np.array([[1.0, 2.0], [3.0, 5.0]]))

    @pytest.mark.parametrize("shape", [(0, 10), (0, 0)])
    def test_empty_matrix(self, shape):
        with pytest.raises(ValueError, match="no series to fit"):
            fit_mle(np.empty(shape))

    def test_three_dimensional_input(self):
        with pytest.raises(ValueError, match="3-d input"):
            fit_mle(_mixed_block().reshape(7, 20, 25))

    def test_refused_before_any_row_is_fitted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fit_module, "_loglik_rows", lambda *args, **kw: calls.append(1))
        X = _mixed_block()
        X[-1, 0] = np.nan
        with pytest.raises(ValueError, match="row 6"):
            fit_mle(X)
        assert calls == []


def test_fit_result_rejects_shape_at_minus_one():
    with pytest.raises(ValueError, match="> -1"):
        FitResult(GevParams(-1.0, 0.0, 1.0), loglik=0.0, grad_norm=0.0,
                  hessian_negdef=True, n_blocks=10, converged=False, iterations=0)


@pytest.fixture(scope="module")
def fitted():
    data = gev_sample(GevParams(0.2, 0.0, 1.0), 5_000, seed=71)
    return data, fit_mle(data)


class TestNumericHessian:
    def test_negative_definite_at_optimum(self, fitted):
        data, res = fitted
        eigs = np.linalg.eigvalsh(numeric_hessian(res.theta_hat, data))
        assert np.all(eigs < 0)

    def test_exact_symmetry(self, fitted):
        data, res = fitted
        h = numeric_hessian(res.theta_hat, data)
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_matches_differenced_analytic_gradient(self, fitted):
        # cross-validate second derivatives in (mu, sigma) against central
        # differences of the analytic gradient
        data, res = fitted
        theta = res.theta_hat
        h = numeric_hessian(theta, data)
        vec = theta.as_array()
        for i in (1, 2):
            step = 1e-5 * (1.0 + abs(vec[i]))
            up = vec.copy()
            dn = vec.copy()
            up[i] += step
            dn[i] -= step
            fd_row = (
                sample_loglik_gradient(GevParams.from_array(up), data)
                - sample_loglik_gradient(GevParams.from_array(dn), data)
            ) / (2 * step)
            np.testing.assert_allclose(h[i, 1:], fd_row[1:], rtol=1e-4, atol=1e-4)

    def test_infeasible_point_rejected(self, fitted):
        data, _ = fitted
        with pytest.raises(ValueError):
            numeric_hessian(GevParams(3.0, float(np.max(data)) + 1.0, 0.05), data)


SHAPES = (0.0, 1e-9, 5e-4, 0.3, -0.3, -0.8, 1.2)  # 5e-4: the series branch


def _grad_hess_case(gamma):
    data = gev_sample(GevParams(gamma, 0.5, 1.3), 300, seed=72)
    return GevParams(gamma, 0.4, 1.5), data  # every observation well inside the support


class TestClosedFormHessian:
    @pytest.mark.parametrize("gamma", SHAPES)
    def test_matches_differenced_analytic_gradient(self, gamma):
        theta, data = _grad_hess_case(gamma)
        _, hess = gev_loglik_grad_hess(theta, data)
        vec = theta.as_array()
        fd = np.empty((3, 3))
        for i in range(3):
            step = 1e-5 * (1.0 + abs(vec[i]))
            up = vec.copy()
            dn = vec.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (
                sample_loglik_gradient(GevParams.from_array(up), data)
                - sample_loglik_gradient(GevParams.from_array(dn), data)
            ) / (2 * step)
        np.testing.assert_allclose(hess, fd, rtol=0, atol=1e-6)
        assert np.array_equal(hess, hess.T)

    @pytest.mark.parametrize("gamma", SHAPES)
    def test_gradient_is_the_sample_gradient(self, gamma):
        theta, data = _grad_hess_case(gamma)
        grad, _ = gev_loglik_grad_hess(theta, data)
        np.testing.assert_allclose(grad, sample_loglik_gradient(theta, data), rtol=0, atol=1e-14)

    def test_boundary_raises(self):
        with pytest.raises(ValueError):
            gev_loglik_grad_hess(GevParams(1.0, 0.0, 1.0), [0.5, -1.0])


def _mp_grad_hess(theta, x):
    """Mean gradient and Hessian of the log-likelihood by mpmath at 50 digits,
    differentiating the density itself (mpmath.diff), not the kernel's formulas."""
    mp = pytest.importorskip("mpmath")
    xs = [mp.mpf(v) for v in x.tolist()]

    def mean_loglik(g, m, s):
        total = []
        for xi in xs:
            z = (xi - m) / s
            if g == 0:
                total.append(-mp.log(s) - z - mp.exp(-z))
            else:
                log_w = mp.log1p(g * z)
                total.append(-mp.log(s) - (1 + 1 / g) * log_w - mp.exp(-log_w / g))
        return mp.fsum(total) / len(xs)

    with mp.workdps(50):
        point = [mp.mpf(v) for v in theta]
        grad = [float(mp.diff(mean_loglik, point, tuple(int(i == j) for j in range(3))))
                for i in range(3)]
        hess = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                order = tuple(int(i == k) + int(j == k) for k in range(3))
                hess[i, j] = hess[j, i] = float(mp.diff(mean_loglik, point, order))
    return np.array(grad), hess


def _mp_rows():
    """(name, theta, x): the shapes of SHAPES and more tiny ones around 0, then
    rows whose |gamma z| lies all below, all above and on both sides of
    SERIES_CUTOFF."""
    rows = [(f"gamma={g}", (g, 0.4, 1.5), gev_sample(GevParams(g, 0.5, 1.3), 40, seed=72))
            for g in SHAPES + (-1e-9, 1e-12, -1e-12)]
    rng = np.random.default_rng(74)
    return rows + [
        ("below", (2e-4, 0.0, 1.0), rng.uniform(-4.0, 4.0, 40)),
        ("above", (0.3, 0.0, 1.0), np.concatenate([rng.uniform(-3.0, -0.01, 20),
                                                   rng.uniform(0.01, 8.0, 20)])),
        ("both", (2e-4, 0.0, 1.0), rng.uniform(-4.0, 20.0, 40)),
    ]


class TestKernelAgainstMpmath:
    @pytest.mark.parametrize("name,theta,x", _mp_rows(), ids=[r[0] for r in _mp_rows()])
    def test_mean_gradient_and_hessian(self, name, theta, x):
        # one kernel chunk holds every row, the row under test among them
        rows = _mp_rows()
        thetas = np.array([r[1] for r in rows])
        k = [r[0] for r in rows].index(name)
        _, means = fit_module._loglik_rows(thetas, np.stack([r[2] for r in rows]),
                                           floor=-np.inf)
        grad, hess = means[k, :3], means[k, [3, 4, 5, 4, 6, 7, 5, 7, 8]].reshape(3, 3)
        want_grad, want_hess = _mp_grad_hess(theta, x)
        gamma, mu, sigma = theta
        u = gamma * (x - mu) / sigma
        if np.any((1e-5 < np.abs(u)) & (np.abs(u) < SERIES_CUTOFF)):
            band = 2e-10   # the phi' series is cut after its u^3 term
        else:
            band = 4e-15   # no series, or one whose u^4 term is below rounding
        assert np.max(np.abs(grad - want_grad)) <= band * np.max(np.abs(want_grad))
        assert np.max(np.abs(hess - want_hess)) <= band * np.max(np.abs(want_hess))


def test_verdict_gradient_is_the_sample_gradient():
    # the verdict's gradient norm is the norm of sample_loglik_gradient, bit for bit
    checked = 0
    for i, member in enumerate(catalog()):
        for n in (100, 1600):
            x = sample_iid(member, n, seed=90 + i, m=math.ceil(math.log(n) ** 2))
            res = fit_mle(x)
            if res.converged:
                assert res.grad_norm == math.hypot(*sample_loglik_gradient(res.theta_hat, x))
                checked += 1
    assert checked >= 10


def _kl_by_quad(theta0, theta):
    """scipy's adaptive quadrature of the same integrand over u in (0, 1)."""
    s0, s1 = params_support(theta0), params_support(theta)
    if s0.lower < s1.lower or s0.upper > s1.upper:
        return math.inf

    def integrand(u):
        point = theta0.mu + theta0.sigma * gev_quantile(theta0.gamma, u)
        return gev_loglik3(theta0, point) - gev_loglik3(theta, point)

    value, _ = quad(integrand, 0.0, 1.0, limit=200, epsabs=1e-10, epsrel=1e-10)
    return max(float(value), 0.0)


def _criterion_10_theta(rng):
    return GevParams(rng.uniform(-0.8, 2.0), rng.uniform(-3, 3), rng.uniform(0.2, 3.0))


class TestKlDivergence:
    def test_zero_on_diagonal(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            theta = _criterion_10_theta(rng)
            assert kl_divergence(theta, theta) == 0.0

    def test_matches_adaptive_quadrature(self, monkeypatch):
        # pairs drawn as in criterion 10
        rng = np.random.default_rng(83)
        pairs = []
        for _ in range(300):
            theta0 = _criterion_10_theta(rng)
            pairs.append((theta0, GevParams(
                theta0.gamma + rng.choice([-1, 1]) * rng.uniform(0.01, 0.5),
                theta0.mu + rng.choice([-1, 0, 1]) * rng.uniform(0.01, 1.0),
                theta0.sigma * rng.uniform(0.5, 2.0),
            )))
        expected = [_kl_by_quad(theta0, theta) for theta0, theta in pairs]
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)  # the rule needs no quad
        n_inf = 0
        for (theta0, theta), want in zip(pairs, expected):
            got = kl_divergence(theta0, theta)
            if want == math.inf:
                assert got == math.inf, (theta0, theta)
                n_inf += 1
            else:
                assert 0.0 < got and abs(got - want) <= 1e-8 * want + 1e-10, (theta0, theta, got)
        assert 0 < n_inf < len(pairs)

    def test_positive_for_shifted_gumbel(self):
        assert kl_divergence(GevParams(0.0, 0.0, 1.0), GevParams(0.0, 1.0, 1.0)) > 0.01

    def test_infinite_when_support_leaks(self):
        # base law has mass below the other law's left endpoint
        assert kl_divergence(GevParams(0.0, 0.0, 1.0), GevParams(0.5, 0.0, 1.0)) == math.inf
        assert kl_divergence(GevParams(0.5, 0.0, 1.0), GevParams(0.5, 0.5, 1.0)) == math.inf

    def test_matches_monte_carlo(self):
        theta0 = GevParams(0.0, 0.0, 1.0)
        theta = GevParams(0.0, 0.0, 2.0)
        draws = gev_sample(theta0, 1_000_000, seed=82)
        gaps = gev_loglik3(theta0, draws) - gev_loglik3(theta, draws)
        mc = float(np.mean(gaps))
        se = float(np.std(gaps, ddof=1) / math.sqrt(draws.size))
        assert kl_divergence(theta0, theta) == pytest.approx(mc, abs=3 * se)

    def test_near_coincident_pairs_distinguished(self):
        theta0 = GevParams(0.2, 0.0, 1.0)
        for delta in (1e-2, 3e-2):
            nearby = GevParams(0.2, 0.0, 1.0 + delta)  # same support, nudged scale
            value = kl_divergence(theta0, nearby)
            assert value > 1e-8
            assert value < 1e-2


class TestInvariants:
    def test_margin_and_flags_consistent(self):
        data = gev_sample(GevParams(-0.3, 0.0, 1.0), 2_000, seed=91)
        res = fit_mle(data)
        assert feasibility_margin(res.theta_hat, data) > 0
        if res.converged:
            assert res.grad_norm <= 1e-8
            assert res.hessian_negdef

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(gamma=st.floats(-0.45, 1.5), n=st.integers(30, 400),
           seed=st.integers(0, 2**64 - 1))
    def test_estimate_feasible_and_independent_of_block_order(self, gamma, n, seed):
        data = gev_sample(GevParams(gamma, 0.0, 1.0), n, seed)
        theta = fit_mle(data).theta_hat
        assert theta.gamma > -1.0
        assert feasibility_margin(theta, data) > 0
        shuffled = fit_mle(np.random.default_rng(seed).permutation(data)).theta_hat
        assert shuffled.as_array() == pytest.approx(theta.as_array(), rel=1e-6, abs=0)

    def test_infeasible_points_score_minus_infinity(self):
        # Points placed within 3 ulp of the support boundary: is_feasible must
        # hold exactly where the log-likelihood is finite.  There every
        # w = 1 + gamma*z can be positive while e = w^(-1/gamma) overflows
        # (small gamma > 0), which makes the log-likelihood -inf.
        rng = np.random.default_rng(2026)
        disagreements = []
        for _ in range(400):
            gamma = max(float(rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 0.5)), -0.95)
            sigma = float(10 ** rng.uniform(-2, 2))
            x = rng.normal(size=12) * 10 ** rng.uniform(-2, 2)
            x += rng.normal() * 10 ** rng.uniform(-1, 3)
            mu = (x.min() if gamma > 0 else x.max()) + sigma / gamma
            for direction in (-np.inf, np.inf):
                nudged = mu
                for _ in range(4):
                    theta = GevParams(gamma, float(nudged), sigma)
                    if is_feasible(theta, x) != math.isfinite(sample_loglik(theta, x)):
                        disagreements.append(theta)
                    nudged = np.nextafter(nudged, direction)
        assert disagreements == []

    def test_overflowing_sum_is_infeasible_and_quiet(self):
        # every block scores about -1.74e308, finite, but the two tied
        # smallest blocks sum past -DBL_MAX, so the mean is -inf
        gamma = 0.05176
        z = (-1.0 + 2.0**-53) / gamma
        theta, x = GevParams(gamma, 0.0, 1.0), np.array([z, z, 1.0])
        assert np.all(np.isfinite(gev_loglik3(theta, x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_loglik(theta, x) == -math.inf
            assert not is_feasible(theta, x)
        with pytest.raises(ValueError, match="infeasible"):
            numeric_hessian(theta, x)

    @pytest.mark.parametrize("theta,x", [
        (GevParams(0.0, 0.0, 1.0), [-800.0, 0.0, 1.0]),       # Gumbel: e = exp(800)
        (GevParams(-0.001, 0.0, 1.0), [-1e5, 0.0, 1.0]),      # w = 101, e = 101^1000
        (GevParams(0.01, 100.0, 1.0), [1e-13, 1.0, 2.0]),     # margin 1e-15, e = 1e1500
    ], ids=["gumbel", "negative-shape", "positive-shape"])
    def test_overflowing_point_is_infeasible(self, theta, x):
        assert sample_loglik(theta, x) == -math.inf
        assert not is_feasible(theta, x)
        assert feasibility_margin(theta, x) > 0
        with pytest.raises(ValueError, match="infeasible"):
            numeric_hessian(theta, x)
