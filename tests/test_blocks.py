import math

import numpy as np
import pytest

from blockmax import (
    EmpiricalMeasure,
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
    write_values,
)


class TestBlockMaxima:
    def test_by_hand(self):
        series = block_maxima([1, 3, 2, 5, 4, 0], 2)
        np.testing.assert_array_equal(series.values, [3, 5, 4])
        assert series.block_length == 2
        assert series.source_length == 6

    def test_remainder_dropped(self):
        series = block_maxima([1, 3, 2, 5, 4, 0], 4)
        np.testing.assert_array_equal(series.values, [5])

    def test_block_one_is_identity(self):
        data = np.array([2.0, -1.0, 7.5])
        np.testing.assert_array_equal(block_maxima(data, 1).values, data)

    def test_too_short(self):
        with pytest.raises(ValueError):
            block_maxima([1.0, 2.0], 3)

    def test_non_finite_data_refused(self):
        with pytest.raises(ValueError, match="1 NaN and 1 infinite values among 6 observations"):
            block_maxima([1.0, np.nan, 2.0, 3.0, np.inf, 4.0], 2)

    def test_permutation_within_blocks_invariant(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=60)
        base = block_maxima(data, 5).values
        shuffled = data.reshape(12, 5).copy()
        for row in shuffled:
            rng.shuffle(row)
        np.testing.assert_array_equal(block_maxima(shuffled.ravel(), 5).values, base)

    def test_monotone_in_data(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=60)
        base = block_maxima(data, 6).values
        for idx in rng.integers(0, 60, size=12):
            bumped = data.copy()
            bumped[idx] += abs(rng.normal()) + 0.1
            assert np.all(block_maxima(bumped, 6).values >= base)


class TestNormalize:
    def test_elementwise(self):
        series = block_maxima([3.0, 5.0, 4.0], 1)
        constants = NormalizingConstants(a_m=2.0, b_m=3.0, m=1)
        np.testing.assert_allclose(normalize(series, constants).values, [0.0, 1.0, 0.5])

    def test_identity_constants(self):
        series = block_maxima([3.0, 5.0, 4.0], 1)
        constants = NormalizingConstants(a_m=1.0, b_m=0.0, m=1)
        np.testing.assert_array_equal(normalize(series, constants).values, series.values)

    def test_block_length_mismatch(self):
        series = block_maxima(np.arange(10.0), 2)
        with pytest.raises(ValueError):
            normalize(series, NormalizingConstants(a_m=1.0, b_m=0.0, m=3))

    def test_pareto_exact_constants(self):
        data = sample_iid(pareto(1.0), 5000, seed=21)
        series = block_maxima(data, 100)
        normalized = normalize(series, norm_constants(pareto(1.0), 100))
        np.testing.assert_allclose(
            normalized.values, (series.values - 100.0) / 100.0, rtol=1e-12,
        )


class TestEmpiricalCdf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure.from_values([])


class TestKsDistance:
    def test_single_point(self):
        measure = EmpiricalMeasure.from_values([0.0])
        expected = max(math.exp(-1), 1 - math.exp(-1))
        assert ks_distance(measure, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_exact_sample_small(self):
        x = gev_sample(GevParams(0.5, 0.0, 1.0), 100_000, seed=6)
        measure = EmpiricalMeasure.from_values(x)
        assert ks_distance(measure, 0.5) < 0.01

    def test_misspecified_sample_large(self):
        x = gev_sample(GevParams(0.5, 0.0, 1.0), 100_000, seed=6)
        measure = EmpiricalMeasure.from_values(x)
        assert ks_distance(measure, 2.0) > 0.05

    def test_sup_realized_on_both_sides(self):
        # one point far left: the gap just before the jump dominates
        measure = EmpiricalMeasure.from_values([5.0])
        assert ks_distance(measure, 0.0) == pytest.approx(math.exp(-math.exp(-5.0)), abs=1e-12)


class TestEmpiricalMeanLoglik:
    def test_single_point(self):
        measure = EmpiricalMeasure.from_values([0.0])
        assert empirical_mean_loglik(measure, GevParams(0.0, 0.0, 1.0)) == -1.0

    def test_infeasible_point(self):
        measure = EmpiricalMeasure.from_values([-2.0, 0.0])
        assert empirical_mean_loglik(measure, GevParams(1.0, 0.0, 1.0)) == -math.inf

    def test_limit_value_for_exact_draws(self):
        from blockmax import expected_loglik

        x = gev_sample(GevParams(0.0, 0.0, 1.0), 100_000, seed=12)
        measure = EmpiricalMeasure.from_values(x)
        value = empirical_mean_loglik(measure, GevParams(0.0, 0.0, 1.0))
        assert value == pytest.approx(expected_loglik(0.0), abs=0.02)

    def test_bounded_by_max_loglik(self):
        rng = np.random.default_rng(13)
        x = gev_sample(GevParams(0.3, 0.0, 1.0), 500, seed=14)
        measure = EmpiricalMeasure.from_values(x)
        for _ in range(50):
            theta = GevParams(rng.uniform(-0.9, 2.0), rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
            bound = gev_loglik_max(theta.gamma) - math.log(theta.sigma)
            assert empirical_mean_loglik(measure, theta) <= bound + 1e-12


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
                    distances.append(ks_distance(
                        EmpiricalMeasure.from_values(normalized.values), dist.gamma0))
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
