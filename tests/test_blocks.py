import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmax import (
    GevParams,
    NormalizingConstants,
    block_maxima,
    empirical_mean_loglik,
    gev_loglik_max,
    gev_sample,
    ks_distance,
    normalize,
    norm_constants,
    pareto,
    read_values,
    sample_iid,
    sample_loglik,
    write_values,
)


class TestBlockMaxima:
    def test_by_hand(self):
        maxima = block_maxima([1, 3, 2, 5, 4, 0], 2)  # integer input, float maxima
        assert isinstance(maxima, np.ndarray) and maxima.dtype == np.float64
        np.testing.assert_array_equal(maxima, [3, 5, 4])

    def test_remainder_dropped(self):
        np.testing.assert_array_equal(block_maxima([1, 3, 2, 5, 4, 0], 4), [5])

    def test_block_one_is_identity(self):
        data = np.array([2.0, -1.0, 7.5])
        np.testing.assert_array_equal(block_maxima(data, 1), data)

    @pytest.mark.parametrize("data, m, ndim", [
        (5.0, 1, 0),
        (np.ones((3, 4)), 5, 2),
        (np.ones((3, 4)), 2, 2),  # divisible, so a reshape would flatten it silently
    ])
    def test_one_series_only(self, data, m, ndim):
        with pytest.raises(ValueError, match=f"block_maxima takes one series, got {ndim}-d input"):
            block_maxima(data, m)

    def test_too_short(self):
        with pytest.raises(ValueError):
            block_maxima([1.0, 2.0], 3)

    def test_non_finite_data_refused(self):
        with pytest.raises(ValueError, match="1 NaN and 1 infinite values among 6 observations"):
            block_maxima([1.0, np.nan, 2.0, 3.0, np.inf, 4.0], 2)

    def test_permutation_within_blocks_invariant(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=60)
        base = block_maxima(data, 5)
        shuffled = data.reshape(12, 5).copy()
        for row in shuffled:
            rng.shuffle(row)
        np.testing.assert_array_equal(block_maxima(shuffled.ravel(), 5), base)

    def test_monotone_in_data(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=60)
        base = block_maxima(data, 6)
        for idx in rng.integers(0, 60, size=12):
            bumped = data.copy()
            bumped[idx] += abs(rng.normal()) + 0.1
            assert np.all(block_maxima(bumped, 6) >= base)


class TestNormalize:
    def test_elementwise(self):
        maxima = block_maxima([3.0, 5.0, 4.0], 1)
        constants = NormalizingConstants(a_m=2.0, b_m=3.0, m=1)
        np.testing.assert_allclose(normalize(maxima, constants), [0.0, 1.0, 0.5])

    def test_identity_constants(self):
        maxima = block_maxima([3.0, 5.0, 4.0], 1)
        constants = NormalizingConstants(a_m=1.0, b_m=0.0, m=1)
        np.testing.assert_array_equal(normalize(maxima, constants), maxima)

    def test_pareto_exact_constants(self):
        data = sample_iid(pareto(1.0), 5000, seed=21)
        maxima = block_maxima(data, 100)
        normalized = normalize(maxima, norm_constants(pareto(1.0), 100))
        np.testing.assert_allclose(normalized, (maxima - 100.0) / 100.0, rtol=1e-12)


class TestEmpiricalCdf:
    def test_empty_rejected(self):
        for functional in (lambda x: ks_distance(x, 0.0),
                           lambda x: empirical_mean_loglik(x, GevParams(0.0, 0.0, 1.0))):
            with pytest.raises(ValueError, match="^empty series$"):
                functional(np.array([]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5.0, 50.0), min_size=1, max_size=40), st.randoms())
    def test_functionals_ignore_the_order_of_the_points(self, points, random):
        shuffled = list(points)
        random.shuffle(shuffled)
        theta = GevParams(0.4, 0.5, 1.5)
        for x in (shuffled, np.array(shuffled)):
            assert ks_distance(x, 0.4).hex() == ks_distance(points, 0.4).hex()
            assert (empirical_mean_loglik(x, theta).hex()
                    == empirical_mean_loglik(points, theta).hex())


class TestKsDistance:
    def test_single_point(self):
        expected = max(math.exp(-1), 1 - math.exp(-1))
        assert ks_distance([0.0], 0.0) == pytest.approx(expected, abs=1e-12)

    def test_exact_sample_small(self):
        x = gev_sample(GevParams(0.5, 0.0, 1.0), 100_000, seed=6)
        assert ks_distance(x, 0.5) < 0.01

    def test_misspecified_sample_large(self):
        x = gev_sample(GevParams(0.5, 0.0, 1.0), 100_000, seed=6)
        assert ks_distance(x, 2.0) > 0.05

    def test_sup_realized_on_both_sides(self):
        # one point far left: the gap just before the jump dominates
        assert ks_distance([5.0], 0.0) == pytest.approx(math.exp(-math.exp(-5.0)), abs=1e-12)


class TestEmpiricalMeanLoglik:
    def test_single_point(self):
        assert empirical_mean_loglik([0.0], GevParams(0.0, 0.0, 1.0)) == -1.0

    def test_infeasible_point(self):
        assert empirical_mean_loglik([-2.0, 0.0], GevParams(1.0, 0.0, 1.0)) == -math.inf
        # an infinite point scores -inf at every shape, in the Gumbel limit too;
        # a NaN point is refused there and away from it alike
        for gamma in (0.0, 0.3):
            theta = GevParams(gamma, 0.0, 1.0)
            for mean_loglik in (empirical_mean_loglik, lambda x, t: sample_loglik(t, x)):
                assert mean_loglik([-math.inf, 1.0], theta) == -math.inf
                assert mean_loglik([math.inf, 1.0], theta) == -math.inf
                with pytest.raises(ValueError,
                                   match="1 NaN and 0 infinite values among 2 observations"):
                    mean_loglik([math.nan, 1.0], theta)

    def test_limit_value_for_exact_draws(self):
        from blockmax import expected_loglik

        x = gev_sample(GevParams(0.0, 0.0, 1.0), 100_000, seed=12)
        value = empirical_mean_loglik(x, GevParams(0.0, 0.0, 1.0))
        assert value == pytest.approx(expected_loglik(0.0), abs=0.02)

    def test_bounded_by_max_loglik(self):
        rng = np.random.default_rng(13)
        x = gev_sample(GevParams(0.3, 0.0, 1.0), 500, seed=14)
        for _ in range(50):
            theta = GevParams(rng.uniform(-0.9, 2.0), rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
            bound = gev_loglik_max(theta.gamma) - math.log(theta.sigma)
            assert empirical_mean_loglik(x, theta) <= bound + 1e-12


class TestGlivenkoCantelliSurrogate:
    def test_ks_medians_shrink_for_every_catalog_member(self):
        from blockmax import catalog, poly_log_growth

        growth = poly_log_growth()
        for dist in catalog():
            medians = []
            for cell, n in enumerate((200, 800, 3200)):
                m = growth.block_length(n)
                constants = norm_constants(dist, m)
                distances = []
                for rep in range(50):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(77, spawn_key=(cell, rep)))
                    data = sample_iid(dist, n * m, rng)
                    normalized = normalize(block_maxima(data, m), constants)
                    distances.append(ks_distance(normalized, dist.gamma0))
                medians.append(float(np.median(distances)))
            assert medians[0] > medians[1] > medians[2], (dist.name, medians)


class TestDataFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "values.txt"
        values = np.array([1.5, -2.25, 3.875, 1e-17, 12345.6789012345])
        write_values(path, values, header_lines=["demo file", "seed: 1"])
        back = read_values(path)
        np.testing.assert_array_equal(back, values)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# comment\n\n1.0\n  \n2.5\n# other\n3\n")
        np.testing.assert_array_equal(read_values(path), [1.0, 2.5, 3.0])

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="not-a-number"):
            read_values(path)

    def test_non_finite_values_refused(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1.0\nnan\ninf\n-inf\n2.0\n")
        with pytest.raises(ValueError, match="1 NaN and 2 infinite values among 5 observations"):
            read_values(path)
