import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, ks_2samp

from blockmax import (
    beta_tail,
    block_maxima,
    catalog,
    cauchy,
    check_norm_equivalence,
    exponential,
    from_spec,
    gev_quantile,
    gev_reference,
    norm_constants,
    pareto,
    quantile_matched_constants,
    sample_iid,
)


class TestNormConstants:
    def test_pareto_unit(self):
        c = norm_constants(pareto(1.0), 100)
        assert c.a_m == pytest.approx(100.0, rel=1e-12)
        assert c.b_m == pytest.approx(100.0, rel=1e-12)

    def test_exponential(self):
        c = norm_constants(exponential(), 100)
        assert c.a_m == pytest.approx(1.0, rel=1e-12)
        assert c.b_m == pytest.approx(math.log(100), rel=1e-12)

    def test_bounded_tail(self):
        c = norm_constants(beta_tail(2.0), 100)
        assert c.a_m == pytest.approx(0.05, rel=1e-12)
        assert c.b_m == pytest.approx(0.9, rel=1e-12)

    def test_exponential_scale_matches_integral_definition(self):
        # a(m) = U(m) - (1/m) int_0^m U(s) ds, integrated numerically here
        member = exponential()
        for m in (10, 1000):
            exact = norm_constants(member, m)
            integral, _ = quad(lambda s: member.quantile(1.0 - 1.0 / s), 0.0, float(m),
                               points=[1.0], limit=200, epsabs=1e-10)
            assert exact.a_m == 1.0
            assert exact.b_m - integral / m == pytest.approx(exact.a_m, abs=1e-8)

    def test_index_zero_member_needs_gumbel_scale(self):
        bare = dataclasses.replace(exponential(), gumbel_scale=None)
        with pytest.raises(ValueError, match="'exponential'.*gumbel_scale"):
            norm_constants(bare, 10)

    def test_gumbel_member_has_admissible_scale(self):
        # the exact Gumbel member uses the closed-form scale 1
        c = norm_constants(gev_reference(0.0), 1000)
        assert c.a_m == 1.0
        assert c.b_m == pytest.approx(gev_quantile(0.0, 1 - 1e-3), rel=1e-12)

    def test_degenerate_scale_rejected(self):
        # Cauchy tail quantile vanishes at m = 2: the printed formula
        # gives scale 0 there, which must be reported, not returned
        with pytest.raises(ValueError):
            norm_constants(cauchy(), 2)


class TestTailQuantile:
    def test_identity_with_quantile(self):
        rng = np.random.default_rng(5)
        for dist in catalog():
            t = np.exp(rng.uniform(0.2, 12.0, size=50))
            lhs = dist.tail_quantile(t)
            rhs = dist.quantile(1.0 - 1.0 / t)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_nondecreasing(self):
        t = np.linspace(1.5, 1e4, 400)
        for dist in catalog():
            np.testing.assert_array_less(-1e-12, np.diff(dist.tail_quantile(t)))

    def test_requires_t_above_one(self):
        with pytest.raises(ValueError):
            pareto(1.0).tail_quantile(0.5)

    def test_cauchy_tail_asymptotics(self):
        # U(t) ~ t / pi for large t
        for t in (1e4, 1e6, 1e8):
            ratio = cauchy().tail_quantile(t) / (t / math.pi)
            assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_cauchy_far_lower_tail(self):
        # F^-1(u) = -1/tan(pi*u) ~ -1/(pi*u) for small u, to ~(pi*u)^2/3
        q = cauchy().quantile
        for u in (1e-20, 1e-17, 1e-10):
            assert float(q(u)) == pytest.approx(-1.0 / (math.pi * u), rel=1e-12)
        u = np.array([0.5 - 1e-9, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.5 + 1e-9])
        assert np.all(np.diff(q(u)) > 0)


class TestSampling:
    def test_pareto_support(self):
        x = sample_iid(pareto(1.0), 100_000, seed=3)
        assert np.all(x >= 1.0)

    def test_exponential_mean(self):
        x = sample_iid(exponential(), 100_000, seed=3)
        assert abs(x.mean() - 1.0) < 0.02

    def test_cauchy_full_line(self):
        x = sample_iid(cauchy(), 100_000, seed=3)
        assert np.any(x < 0) and np.any(x > 0)

    def test_deterministic(self):
        a = sample_iid(exponential(), 1000, seed=99)
        b = sample_iid(exponential(), 1000, seed=99)
        np.testing.assert_array_equal(a, b)


MEMBERS = catalog()
MEMBER_IDS = [dist.name for dist in MEMBERS]


class TestBlockMaximumDraws:
    """sample_iid(dist, n, seed, m) draws n maxima of blocks of m exactly."""

    N = 5_000
    LEVEL = 1e-3

    @staticmethod
    def _seed(dist, m, stream):
        return np.random.SeedSequence(2024, spawn_key=(stream, MEMBER_IDS.index(dist.name), m))

    @pytest.mark.parametrize("m", [3, 48, 133])
    @pytest.mark.parametrize("dist", MEMBERS, ids=MEMBER_IDS)
    def test_law_is_power_of_cdf(self, dist, m):
        x = sample_iid(dist, self.N, self._seed(dist, m, 0), m)
        assert kstest(x, lambda t: np.asarray(dist.cdf(t)) ** m).pvalue > self.LEVEL

    @pytest.mark.parametrize("m", [3, 48, 133])
    @pytest.mark.parametrize("dist", MEMBERS, ids=MEMBER_IDS)
    def test_law_matches_blocked_draws(self, dist, m):
        # the reference path: n*m plain draws, cut into blocks of m
        x = sample_iid(dist, self.N, self._seed(dist, m, 1), m)
        reference = block_maxima(sample_iid(dist, self.N * m, self._seed(dist, m, 2)), m)
        assert ks_2samp(x, reference.values).pvalue > self.LEVEL

    @pytest.mark.parametrize("dist", MEMBERS, ids=MEMBER_IDS)
    def test_unit_block_is_the_plain_quantile(self, dist):
        rng = np.random.default_rng(17)
        u = rng.random(10_000)
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        expected = np.asarray(dist.quantile(u), dtype=float)
        for drawn in (sample_iid(dist, 10_000, 17), sample_iid(dist, 10_000, 17, 1)):
            assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dist", MEMBERS, ids=MEMBER_IDS)
    def test_upper_quantile_where_one_minus_p_is_exact(self, dist):
        p = 2.0 ** -np.arange(1, 21)
        np.testing.assert_allclose(dist.upper_quantile(p), dist.quantile(1.0 - p),
                                   rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("dist", MEMBERS, ids=MEMBER_IDS)
    def test_no_runtime_warning(self, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for m in (1, 3, 133):
                assert np.all(np.isfinite(sample_iid(dist, 100_000, 5, m)))

    def test_member_without_upper_quantile_rejected(self):
        plain = dataclasses.replace(cauchy(), upper_quantile=None)
        assert sample_iid(plain, 10, 1).shape == (10,)
        with pytest.raises(ValueError, match="'cauchy'"):
            sample_iid(plain, 10, 1, 3)

    def test_block_length_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            sample_iid(cauchy(), 10, 1, 0)


class TestCatalog:
    def test_spans_required_indices(self):
        members = catalog()
        assert len(members) >= 5
        indices = {m.gamma0 for m in members}
        for required in (-0.5, 0.0, 0.5, 1.0):
            assert required in indices

    def test_pareto_two_reports_half(self):
        assert pareto(2.0).gamma0 == 0.5

    def test_all_members_admissible(self):
        assert all(m.gamma0 > -1.0 for m in catalog())

    def test_convergence_witness(self):
        # F^m(a_m x + b_m) -> limit CDF on a fixed grid, error decreasing in m
        u_grid = np.linspace(0.1, 0.9, 9)
        for dist in catalog():
            x_grid = gev_quantile(dist.gamma0, u_grid)
            errors = []
            for m in (100, 1_000, 10_000):
                c = norm_constants(dist, m)
                approx = np.asarray(dist.cdf(c.a_m * x_grid + c.b_m)) ** m
                errors.append(np.max(np.abs(approx - u_grid)))
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] < 0.01


class TestFromSpec:
    def test_roundtrip_specs(self):
        for spec, g0 in [
            ("pareto:alpha=1", 1.0),
            ("pareto:alpha=2", 0.5),
            ("exponential", 0.0),
            ("beta-tail:beta=2", -0.5),
            ("cauchy", 1.0),
            ("gev:gamma=0.5", 0.5),
        ]:
            dist = from_spec(spec)
            assert dist.gamma0 == pytest.approx(g0)
            assert dist.spec == spec

    def test_uniform_rejected(self):
        with pytest.raises(ValueError, match="index -1"):
            from_spec("uniform")
        with pytest.raises(ValueError):
            beta_tail(1.0)

    def test_bad_specs(self):
        for bad in ("nope", "pareto:beta=1", "pareto:alpha=abc", "gev"):
            with pytest.raises(ValueError):
                from_spec(bad)

    def test_bad_value_and_repeated_key_name_the_spec(self):
        with pytest.raises(ValueError, match="'alpha'.*'pareto:alpha=abc'"):
            from_spec("pareto:alpha=abc")
        with pytest.raises(ValueError, match="repeated key 'alpha'"):
            from_spec("pareto:alpha=1,alpha=2")


class TestNormalizingEquivalence:
    def test_shifted_location(self):
        # b' = U(m) + 1 with the exact scale: gap = 1/m -> 0
        dist = pareto(1.0)
        rows = check_norm_equivalence(
            dist,
            lambda m: (norm_constants(dist, m).a_m, norm_constants(dist, m).b_m + 1.0),
            [100, 1_000, 10_000, 100_000],
        )
        for row in rows:
            assert row.ratio == 1.0
            assert row.gap == pytest.approx(1.0 / row.m, rel=1e-9)

    def test_inflated_scale(self):
        dist = pareto(1.0)
        rows = check_norm_equivalence(
            dist,
            lambda m: (
                norm_constants(dist, m).a_m * (1.0 + 1.0 / math.log(m)),
                norm_constants(dist, m).b_m,
            ),
            [100, 1_000, 10_000, 100_000],
        )
        ratios = [abs(r.ratio - 1.0) for r in rows]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] == pytest.approx(1.0 / math.log(100_000), rel=1e-9)

    def test_exponential_quantile_matched(self):
        # constants calibrated on exact quantiles of the m-th power CDF,
        # using its median as the scale reference point
        dist = exponential()
        median_x = gev_quantile(0.0, 0.5)

        def alt(m):
            b_alt = dist.quantile(math.exp(-1.0 / m))
            b_med = dist.quantile(0.5 ** (1.0 / m))
            return (b_med - b_alt) / median_x, b_alt

        rows = check_norm_equivalence(dist, alt, [100, 1_000, 10_000, 100_000])
        ratio_errs = [abs(r.ratio - 1.0) for r in rows]
        gap_errs = [abs(r.gap) for r in rows]
        assert ratio_errs == sorted(ratio_errs, reverse=True)
        assert gap_errs == sorted(gap_errs, reverse=True)
        assert ratio_errs[-1] < 1e-4 and gap_errs[-1] < 1e-4

    def test_pareto_quantile_matched_small_at_large_m(self):
        dist = pareto(1.0)
        rows = check_norm_equivalence(
            dist, lambda m: quantile_matched_constants(dist, m), [100_000],
        )
        assert abs(rows[0].ratio - 1.0) < 0.01
        assert abs(rows[0].gap) < 0.01
