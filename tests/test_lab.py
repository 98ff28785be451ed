import math
import multiprocessing
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.stats import beta

from blockmax import (
    GevParams,
    GrowthRule,
    cauchy,
    check_crucial_lemma,
    check_slow_growth_obstruction,
    empirical_mean_loglik,
    exponential,
    expected_loglik,
    fit_mle,
    gev_loglik,
    gev_loglik_max,
    gev_reference,
    gev_sample,
    ks_distance,
    norm_constants,
    pareto,
    parse_study_config,
    poly_log_growth,
    run_consistency_study,
    sample_iid,
    slow_growth,
    validate_study_config,
)
from blockmax import lab
from blockmax.lab import (CrucialLemmaRow, ObstructionRow, StudyRow, _error_boxes, csv_lines,
                          read_csv)

EULER = 0.5772156649015329


class TestGrowthRules:
    def test_poly_log_values(self):
        rule = poly_log_growth()
        assert [rule.block_length(n) for n in (100, 400, 1600)] == [22, 36, 55]
        assert rule.satisfies_growth_condition

    def test_power_rule(self):
        rule = GrowthRule("power", a=0.5)
        assert rule.block_length(400) == 20
        assert rule.satisfies_growth_condition

    def test_fixed_rule(self):
        rule = GrowthRule("fixed", c=7)
        assert rule.block_length(100_000) == 7
        assert not rule.satisfies_growth_condition

    def test_slow_rule(self):
        rule = slow_growth()
        assert [rule.block_length(n) for n in (1_000, 10_000, 100_000)] == [3, 4, 4]
        assert not rule.satisfies_growth_condition

    def test_poly_log_with_unit_exponent_is_not_fast_enough(self):
        assert not GrowthRule("poly_log", a=1.0).satisfies_growth_condition

    def test_spec_roundtrip(self):
        for text in ("poly_log:c=1,a=2", "power:a=0.5", "fixed:c=12", "slow:c=1,offset=1"):
            rule = GrowthRule.from_spec(text)
            assert GrowthRule.from_spec(rule.describe()) == rule
        with pytest.raises(ValueError):
            GrowthRule.from_spec("warp:q=1")

    def test_parameter_outside_kind_rejected(self):
        # fixed reads only c and power only a; neither may be set silently
        for bad in ("fixed:a=5", "power:c=5", "slow:a=3"):
            with pytest.raises(ValueError, match="bad parameter"):
                GrowthRule.from_spec(bad)

    def test_bad_value_names_spec(self):
        with pytest.raises(ValueError, match="'power:a=abc'"):
            GrowthRule.from_spec("power:a=abc")

    @pytest.mark.parametrize("rule, shown", [
        (GrowthRule("power", a=1e10), "power:a=1e+10"),             # n ** a overflows
        (GrowthRule("poly_log", c=1e308), "poly_log:c=1e+308,a=2"),  # ceil(inf)
        (GrowthRule("power", a=math.nan), "power:a=nan"),            # ceil(nan)
    ], ids=["power-overflow", "poly-log-inf", "power-nan"])
    def test_non_finite_block_length_names_rule(self, rule, shown):
        with pytest.raises(ValueError, match=re.escape(
                f"growth '{shown}' has no finite block length at n=100")):
            rule.block_length(100)

    def test_direct_construction_refuses_ignored_parameter(self):
        # fixed:a=5 would run with m = 1 and power:c=5 describe itself as power:a=2
        with pytest.raises(ValueError, match="'fixed' takes no parameter 'a'"):
            GrowthRule("fixed", a=5)
        with pytest.raises(ValueError, match="'power' takes no parameter 'c'"):
            GrowthRule("power", c=5)


class TestExpectedLoglik:
    def test_domain(self):
        with pytest.raises(ValueError):
            expected_loglik(-1.0)
        with pytest.raises(ValueError):
            expected_loglik(-1.5)

    @pytest.mark.parametrize("gamma0", [-0.5, 0.0, 0.5, 1.0])
    def test_closed_form(self, gamma0):
        # mean of the standardized log-density under its own law is
        # -(1+gamma)*euler - 1 (unit-exponential representation)
        assert expected_loglik(gamma0) == pytest.approx(-(1 + gamma0) * EULER - 1.0, abs=1e-9)

    @pytest.mark.parametrize("gamma0", [-0.5, 0.0, 0.5])
    def test_monte_carlo_cross_check(self, gamma0):
        draws = gev_sample(GevParams(gamma0, 0.0, 1.0), 1_000_000, seed=550)
        values = gev_loglik(gamma0, draws)
        se = float(np.std(values, ddof=1) / math.sqrt(draws.size))
        assert expected_loglik(gamma0) == pytest.approx(float(np.mean(values)), abs=3 * se)

    def test_below_max(self):
        for gamma0 in (-0.5, 0.0, 0.5, 1.0, 3.0):
            assert expected_loglik(gamma0) < gev_loglik_max(gamma0)


@pytest.fixture(scope="module")
def small_report():
    return run_consistency_study(
        exponential(), [100, 400], poly_log_growth(), 40, seed=1234,
    )


class TestConsistencyStudy:
    def test_rows_complete(self, small_report):
        assert len(small_report.rows) == 2 * 40
        assert {r.n for r in small_report.rows} == {100, 400}
        assert all(r.m == poly_log_growth().block_length(r.n) for r in small_report.rows)

    def test_errors_shrink(self, small_report):
        s100, s400 = small_report.summary
        assert s400.gamma_err_quartiles[1] < s100.gamma_err_quartiles[1]
        assert s400.mu_err_quartiles[1] < s100.mu_err_quartiles[1]
        assert s400.sigma_err_quartiles[1] < s100.sigma_err_quartiles[1]

    def test_convergence_fraction(self, small_report):
        for s in small_report.summary:
            if s.n >= 400:
                assert s.frac_converged >= 0.95

    def test_summary_is_the_middle_of_the_plot_box(self, small_report):
        # summary.txt and the plot are two views of one per-n distribution
        for s in small_report.summary:
            rows = [r for r in small_report.rows if r.n == s.n]
            boxes = _error_boxes(rows, small_report.gamma0)
            errors = [[abs(r.gamma_hat - small_report.gamma0) for r in rows],
                      [abs(r.mu_err) for r in rows], [abs(r.sigma_ratio - 1.0) for r in rows]]
            triples = (s.gamma_err_quartiles, s.mu_err_quartiles, s.sigma_err_quartiles)
            for triple, box, values in zip(triples, boxes, errors, strict=True):
                assert (box[0], box[4]) == (min(values), max(values))
                assert list(box) == sorted(box)
                assert [q.hex() for q in triple] == [q.hex() for q in box[1:4]]

    def test_deterministic_bytes(self, small_report):
        again = run_consistency_study(
            exponential(), [100, 400], poly_log_growth(), 40, seed=1234,
        )
        assert "\n".join(again.csv_lines()) == "\n".join(small_report.csv_lines())

    def test_rows_do_not_depend_on_the_block_size(self, monkeypatch, small_report):
        # replications are fitted in blocks of BLOCK_VALUES // n; each fit is the lone fit
        for block_values in (1, 10**9):
            monkeypatch.setattr(lab, "BLOCK_VALUES", block_values)
            again = run_consistency_study(
                exponential(), [100, 400], poly_log_growth(), 40, seed=1234,
            )
            assert again.rows == small_report.rows

    def test_exact_gev_member_with_fixed_blocks(self):
        # block maxima of exact GEV data are exactly GEV whatever m is,
        # so the shape error shrinks even with m frozen
        report = run_consistency_study(
            gev_reference(0.5), [100, 1_600], GrowthRule("fixed", c=5), 40, seed=4321,
        )
        s_small, s_big = report.summary
        assert s_big.gamma_err_quartiles[1] < s_small.gamma_err_quartiles[1]

    def test_rejects_inadmissible_member(self):
        with pytest.raises(ValueError):
            run_consistency_study(
                gev_reference(-1.5), [100], poly_log_growth(), 2, seed=1,
            )


def _small_study(n_grid=(100, 400)):
    return run_consistency_study(exponential(), n_grid, poly_log_growth(), 40, seed=1234)


class TestPooledFits:
    """A study fits its blocks in forked workers; nothing it returns may
    depend on how many (``tests/conftest.py`` also checks that none is
    left running)."""

    BLOCKS = 4 + 14

    @pytest.fixture(autouse=True)
    def uneven_blocks(self, monkeypatch):
        # blocks of 13, 13, 13 and 1 series at n = 100, and 13 blocks of 3 and one of 1 at n = 400
        monkeypatch.setattr(lab, "BLOCK_VALUES", 1_300)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch, workers, small_report):
        monkeypatch.setattr(lab, "_worker_count", lambda: workers)
        report = _small_study()
        assert report.rows == small_report.rows
        assert report.csv_lines() == small_report.csv_lines()
        assert report.summary_lines() == small_report.summary_lines()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_local_wrapping_closure_runs_pooled(self, monkeypatch, workers, small_report):
        # benchmarks/tracing.py wraps lab.fit_mle in a closure, which cannot be
        # pickled; the workers run their forked copy of it, so this process sees
        # no call
        calls = []

        def wrapped(values):
            calls.append(len(values))
            return fit_mle(values)

        monkeypatch.setattr(lab, "fit_mle", wrapped)
        monkeypatch.setattr(lab, "_worker_count", lambda: workers)
        assert _small_study().csv_lines() == small_report.csv_lines()
        assert calls == []

    def test_a_raising_fit_surfaces_as_in_the_inline_run(self, monkeypatch):
        def failing(values):
            if len(values) == 1:  # the fourth block, the last of cell n = 100
                raise RuntimeError(f"no fit for a block of shape {values.shape}")
            return fit_mle(values)

        monkeypatch.setattr(lab, "fit_mle", failing)
        raised = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(lab, "_worker_count", lambda: workers)
            with pytest.raises(RuntimeError) as info:
                _small_study()
            raised.append((type(info.value), str(info.value)))
        assert raised == [(RuntimeError, "no fit for a block of shape (1, 100)")] * 3

    def test_a_dying_worker_raises_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()

        def dying(values):
            if len(values) == 1 and os.getpid() != parent:
                os._exit(3)
            return fit_mle(values)

        monkeypatch.setattr(lab, "fit_mle", dying)
        monkeypatch.setattr(lab, "_worker_count", lambda: 2)
        with pytest.raises(BrokenProcessPool):
            _small_study()

    def test_workers_ignore_sigint(self, monkeypatch):
        parent = os.getpid()

        def checked(values):
            handler = signal.getsignal(signal.SIGINT)
            if os.getpid() == parent or handler is not signal.SIG_IGN:
                raise AssertionError(f"fitted in pid {os.getpid()} with SIGINT handler {handler!r}")
            return fit_mle(values)

        monkeypatch.setattr(lab, "fit_mle", checked)
        monkeypatch.setattr(lab, "_worker_count", lambda: 2)
        _small_study()

    @pytest.mark.parametrize("case", ["one cpu", "one block", "no fork", "daemonic caller"])
    def test_fits_in_this_process_without_a_pool(self, monkeypatch, case, small_report):
        calls = []

        def counted(values):
            calls.append(len(values))
            return fit_mle(values)

        monkeypatch.setattr(lab, "fit_mle", counted)
        monkeypatch.setattr(lab, "_worker_count", lambda: 1 if case == "one cpu" else 2)
        n_grid, blocks, rows = (100, 400), self.BLOCKS, small_report.rows
        if case == "one block":
            monkeypatch.setattr(lab, "BLOCK_VALUES", 10**9)
            n_grid, blocks, rows = [100], 1, rows[:40]
        elif case == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        elif case == "daemonic caller":
            daemon = type("Daemon", (), {"daemon": True})()
            monkeypatch.setattr(multiprocessing, "current_process", lambda: daemon)
        assert _small_study(n_grid).rows == rows
        assert (len(calls), sum(calls)) == (blocks, len(rows))


class TestCrucialLemma:
    def test_exponential_gap_shrinks(self):
        rows = check_crucial_lemma(
            exponential(), [100, 400, 1600], poly_log_growth(), 50, seed=31,
        )
        gaps = [r.median_gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert all(r.n_infeasible == 0 for r in rows)

    def test_exact_gev_member_gap_shrinks(self):
        rows = check_crucial_lemma(
            gev_reference(0.5), [100, 1600], poly_log_growth(), 50, seed=31,
        )
        assert rows[-1].median_gap < rows[0].median_gap

    def test_cauchy_infeasibility_contrast(self):
        # with a slowly growing block length the smallest normalized
        # maxima leave the support, so the empirical mean at the truth is
        # -inf; fast growth keeps every replication feasible
        slow_rows = check_crucial_lemma(cauchy(), [1_000, 10_000], slow_growth(), 50, seed=31)
        fast_rows = check_crucial_lemma(cauchy(), [1_000, 10_000], poly_log_growth(), 50, seed=31)
        assert all(r.n_infeasible > 40 for r in slow_rows)
        assert all(math.isinf(r.median_gap) for r in slow_rows)
        assert all(r.n_infeasible == 0 for r in fast_rows)
        assert all(math.isfinite(r.median_gap) for r in fast_rows)

    def test_pareto_never_infeasible(self):
        # the unit Pareto's normalized maxima satisfy 1 + x > 0 always
        # (block maxima stay above 0 after normalization), so no growth
        # rule can produce -inf here
        for rule in (slow_growth(), poly_log_growth()):
            rows = check_crucial_lemma(pareto(1.0), [1_000, 10_000], rule, 50, seed=31)
            assert all(r.n_infeasible == 0 for r in rows)


def _draw_by_hand(dist, n, m, seed, stream, cell, rep):
    """One replication's maxima and normalized maxima, from the documented stream key."""
    values = sample_iid(dist, n, np.random.SeedSequence(seed, spawn_key=(stream, cell, rep)), m)
    constants = norm_constants(dist, m)
    return values, (values - constants.b_m) / constants.a_m, constants


class TestCellLoop:
    @pytest.mark.parametrize("check", [
        lambda reps: run_consistency_study(pareto(1.0), [100], poly_log_growth(), reps, 1),
        lambda reps: check_crucial_lemma(pareto(1.0), [100], poly_log_growth(), reps, 1),
        lambda reps: check_slow_growth_obstruction(
            cauchy(), [1_000], slow_growth(), poly_log_growth(), reps, 1),
    ], ids=["consistency", "crucial_lemma", "obstruction"])
    @pytest.mark.parametrize("replications", [0, -1])
    def test_every_check_refuses_no_replications(self, check, replications):
        with pytest.raises(ValueError, match="replications"):
            check(replications)

    def test_consistency_rows_follow_stream_zero(self):
        dist, truth, m = pareto(1.0), GevParams(1.0, 0.0, 1.0), poly_log_growth().block_length(120)
        report = run_consistency_study(dist, [50, 120], poly_log_growth(), 3, seed=17)
        for rep in range(3):
            values, normalized, constants = _draw_by_hand(dist, 120, m, 17, 0, 1, rep)
            fit = fit_mle(values)
            assert report.rows[3 + rep] == StudyRow(
                n=120, m=m, rep=rep, gamma_hat=fit.theta_hat.gamma,
                mu_err=(fit.theta_hat.mu - constants.b_m) / constants.a_m,
                sigma_ratio=fit.theta_hat.sigma / constants.a_m, converged=fit.converged,
                ks=ks_distance(normalized, 1.0),
                mean_ll_truth=empirical_mean_loglik(normalized, truth),
            )

    def test_crucial_lemma_row_follows_stream_one(self):
        dist, m = exponential(), poly_log_growth().block_length(150)
        rows = check_crucial_lemma(dist, [60, 150], poly_log_growth(), 4, seed=5)
        values = [empirical_mean_loglik(_draw_by_hand(dist, 150, m, 5, 1, 1, rep)[1],
                                        GevParams(0.0, 0.0, 1.0)) for rep in range(4)]
        gaps = [abs(v - expected_loglik(0.0)) for v in values]
        assert rows[1] == CrucialLemmaRow(n=150, m=m, median_gap=float(np.median(gaps)),
                                          n_infeasible=0)

    def test_obstruction_row_follows_streams_two_and_three(self):
        dist, slow, fast = cauchy(), slow_growth(), poly_log_growth()
        rows = check_slow_growth_obstruction(dist, [1_000, 3_000], slow, fast, 3, seed=9)
        medians = [float(np.median([float(np.min(_draw_by_hand(
            dist, 3_000, rule.block_length(3_000), 9, stream, 1, rep)[1])) for rep in range(3)]))
            for stream, rule in ((2, slow), (3, fast))]
        assert rows[1] == ObstructionRow(
            n=3_000, m_slow=slow.block_length(3_000), median_min_slow=medians[0],
            m_fast=fast.block_length(3_000), median_min_fast=medians[1],
        )

    @pytest.mark.parametrize("check,expected", [
        (run_consistency_study, {"normalize": 6, "ks_distance": 6, "empirical_mean_loglik": 6}),
        (check_crucial_lemma, {"normalize": 6, "ks_distance": 0, "empirical_mean_loglik": 6}),
    ], ids=["consistency", "crucial_lemma"])
    def test_every_replication_passes_the_traced_bindings(self, monkeypatch, check, expected):
        # the benchmark's blocks.*.busy_s metrics wrap these names in blockmax.lab;
        # a replication that reached them another way would go untimed
        counts = dict.fromkeys(expected, 0)

        def counting(name):
            original = getattr(lab, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(lab, name, counted)

        for name in expected:
            counting(name)
        check(pareto(1.0), [50, 120], poly_log_growth(), 3, 4)  # 2 cells x 3 replications
        assert counts == expected


class TestObstruction:
    def test_mechanism_with_grid_constant_slow_rule(self):
        # this slow rule keeps m = 3 across the grid (while still growing
        # to infinity asymptotically), so the runaway of the smallest
        # normalized maximum is visible without discretization jumps
        mech_slow = GrowthRule("slow", c=0.65, offset=1)
        assert [mech_slow.block_length(n) for n in (1_000, 10_000, 100_000)] == [3, 3, 3]
        rows = check_slow_growth_obstruction(
            cauchy(), [1_000, 10_000, 100_000], mech_slow, poly_log_growth(), 50, seed=2024,
        )
        slow_medians = [r.median_min_slow for r in rows]
        fast_medians = [r.median_min_fast for r in rows]
        assert slow_medians[0] > slow_medians[1] > slow_medians[2]
        slow_drop = slow_medians[0] - slow_medians[-1]
        assert slow_drop > 1.0
        assert max(fast_medians) - min(fast_medians) < slow_drop

    @staticmethod
    def _cauchy_min_quantile(q, n, m):
        # quantile q of the smallest of n normalized maxima of m Cauchy
        # draws: P(min <= x) = 1 - (1 - F^m(x))^n, solved for x
        dist = cauchy()
        p = math.exp(math.log(-math.expm1(math.log1p(-q) / n)) / m)
        constants = norm_constants(dist, m)
        return (float(dist.quantile(p)) - constants.b_m) / constants.a_m

    def test_criterion_7_medians_follow_their_exact_law(self):
        # criterion 7's call, same member, grid, rules, replication count
        # and seed, so both columns are the ones criterion 7 sees.  Each
        # column is checked against the exact law of its own rule.  The
        # sample median of 50 lies between the 25th and 26th order
        # statistics, whose uniform images are Beta(25, 26) and Beta(26, 25).
        grid, replications, level = (1_000, 10_000, 100_000), 50, 1e-4
        slow, fast = slow_growth(), poly_log_growth()
        assert [slow.block_length(n) for n in grid] == [3, 4, 4]
        assert [fast.block_length(n) for n in grid] == [48, 85, 133]
        for m in (3, 4):
            constants = norm_constants(cauchy(), m)
            assert constants.a_m == pytest.approx(1.0 / math.tan(math.pi / m))
            assert constants.b_m == pytest.approx(1.0 / math.tan(math.pi / m))

        def bands(rule):
            ms = [rule.block_length(n) for n in grid]
            exact = [self._cauchy_min_quantile(0.5, n, m) for n, m in zip(grid, ms)]
            lower = [self._cauchy_min_quantile(beta.ppf(level / 2, 25, 26), n, m)
                     for n, m in zip(grid, ms)]
            upper = [self._cauchy_min_quantile(beta.isf(level / 2, 26, 25), n, m)
                     for n, m in zip(grid, ms)]
            return exact, lower, upper

        slow_exact, slow_lower, slow_upper = bands(slow)
        fast_exact, fast_lower, fast_upper = bands(fast)
        # the exact slow median rises at the m step and falls once m is
        # fixed, and the bands at 1e3 and 1e4 are disjoint: a strictly
        # decreasing chain of sample medians on this grid has probability
        # below 1e-4.  The exact fast medians stay inside the limit support.
        assert slow_exact[0] < slow_exact[1] and slow_exact[1] > slow_exact[2]
        assert slow_upper[0] < slow_lower[1]
        assert [round(v, 2) for v in fast_exact] == [-0.86, -0.89, -0.91]
        rows = check_slow_growth_obstruction(
            cauchy(), grid, slow, fast, replications, seed=20240811,
        )
        for row, lo, hi in zip(rows, slow_lower, slow_upper):
            assert lo < row.median_min_slow < hi, (row, lo, hi)
        for row, lo, hi in zip(rows, fast_lower, fast_upper):
            assert lo < row.median_min_fast < hi, (row, lo, hi)

    def test_min_is_below_every_single_element(self):
        from blockmax import block_maxima, normalize, sample_iid

        dist = cauchy()
        m = slow_growth().block_length(1_000)
        constants = norm_constants(dist, m)
        data = sample_iid(dist, 1_000 * m, seed=7)
        normalized = normalize(block_maxima(data, m), constants)
        assert np.min(normalized) <= normalized[0]

    def test_requires_unbounded_left_tail(self):
        # the exact GEV(1) member has finite left endpoint, so the
        # obstruction hypotheses fail and the check refuses to run
        with pytest.raises(ValueError):
            check_slow_growth_obstruction(
                gev_reference(1.0), [1_000], slow_growth(), poly_log_growth(), 5, seed=7,
            )

    def test_bounded_support_keeps_minima_bounded(self):
        # direct version of the support-bound fact for the GEV(1) member
        dist = gev_reference(1.0)
        for rule in (slow_growth(), poly_log_growth()):
            m = rule.block_length(10_000)
            constants = norm_constants(dist, m)
            data = gev_sample(GevParams(1.0, 0.0, 1.0), 10_000 * m, seed=88)
            maxima = data[: (10_000 * m // m) * m].reshape(-1, m).max(axis=1)
            normalized = (maxima - constants.b_m) / constants.a_m
            lower_bound = (dist.left_endpoint - constants.b_m) / constants.a_m
            assert np.min(normalized) > lower_bound


class TestRemainingCatalogMembers:
    @pytest.mark.parametrize("dist", [cauchy(), gev_reference(0.5)], ids=["cauchy", "gev"])
    def test_error_medians_shrink_at_full_replication_count(self, dist):
        # the four members the acceptance suite covers are exercised
        # there; this closes the loop over the rest of the catalog
        report = run_consistency_study(
            dist, [100, 400, 1600], poly_log_growth(), 200, seed=20240811,
        )
        for pick in (
            lambda s: s.gamma_err_quartiles[1],
            lambda s: s.mu_err_quartiles[1],
            lambda s: s.sigma_err_quartiles[1],
        ):
            medians = [pick(s) for s in report.summary]
            assert medians[0] > medians[1] > medians[2], (dist.name, medians)
        for s in report.summary:
            if s.n >= 400:
                assert s.frac_converged >= 0.95


class TestRemarkTwoProbe:
    def test_pareto_consistent_under_slow_growth_cauchy_not(self):
        # For the unit Pareto the theorem's conclusion survives a growth
        # rule violating the block-length condition, while the Cauchy
        # (unbounded below) does not: same rule, same seeds, order-of-
        # magnitude gap in shape error.
        slow = slow_growth()
        pareto_rep = run_consistency_study(pareto(1.0), [1_000, 100_000], slow, 50, seed=77)
        assert pareto_rep.summary[-1].gamma_err_quartiles[1] < \
            pareto_rep.summary[0].gamma_err_quartiles[1]
        assert pareto_rep.summary[-1].gamma_err_quartiles[1] < 0.05
        cauchy_rep = run_consistency_study(cauchy(), [10_000], slow, 50, seed=77)
        assert cauchy_rep.summary[0].gamma_err_quartiles[1] > 0.3


class TestStudyConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "study.cfg"
        path.write_text(text)
        return path

    def test_parse_and_validate(self, tmp_path):
        path = self.write(tmp_path, """
# demo
dist = pareto:alpha=1
n_grid = 100, 400
growth = poly_log:c=1,a=2
replications = 10
seed = 5
checks = consistency, crucial_lemma
""")
        config = parse_study_config(path)
        assert config.n_grid == (100, 400)
        dist = validate_study_config(config)
        assert dist.gamma0 == 1.0

    def test_missing_keys(self, tmp_path):
        path = self.write(tmp_path, "dist = cauchy\n")
        with pytest.raises(ValueError, match="missing required"):
            parse_study_config(path)

    def test_budget_violation_listed(self, tmp_path):
        path = self.write(tmp_path, """
dist = pareto:alpha=1
n_grid = 200000
growth = poly_log:c=1,a=2
replications = 2
seed = 5
""")
        with pytest.raises(ValueError, match="budget"):
            validate_study_config(parse_study_config(path))

    def test_uniform_member_rejected(self, tmp_path):
        path = self.write(tmp_path, """
dist = uniform
n_grid = 100
growth = poly_log:c=1,a=2
replications = 2
seed = 5
""")
        with pytest.raises(ValueError, match="index -1"):
            validate_study_config(parse_study_config(path))

    def test_crucial_lemma_needs_fast_growth(self, tmp_path):
        path = self.write(tmp_path, """
dist = exponential
n_grid = 100
growth = slow:c=1,offset=1
replications = 2
seed = 5
checks = crucial_lemma
""")
        with pytest.raises(ValueError, match="growth"):
            validate_study_config(parse_study_config(path))

    def test_obstruction_needs_slow_rule_and_heavy_left_tail(self, tmp_path):
        path = self.write(tmp_path, """
dist = pareto:alpha=1
n_grid = 1000
growth = poly_log:c=1,a=2
replications = 2
seed = 5
checks = obstruction
""")
        with pytest.raises(ValueError, match="obstruction"):
            validate_study_config(parse_study_config(path))

    def test_unit_block_cells_listed(self, tmp_path):
        # m = 1 has no exact constants; every such cell is named with its rule
        path = self.write(tmp_path, """
dist = cauchy
n_grid = 100, 1000
growth = fixed:c=1
replications = 2
seed = 5
checks = consistency, obstruction
slow_growth = slow:c=0.1,offset=0
""")
        with pytest.raises(ValueError) as err:
            validate_study_config(parse_study_config(path))
        message = str(err.value)
        for n in (100, 1000):
            assert f"cell n={n}, m=1 under growth 'fixed:c=1'" in message
            assert f"cell n={n}, m=1 under growth 'slow:c=0.1,offset=0'" in message
        assert message.count("exact constants need m >= 2") == 4

    def test_seed_grid_and_overflowing_growth_listed(self, tmp_path):
        # a repeated n would give two cells that share report rows and one plot box
        path = self.write(tmp_path, """
dist = pareto:alpha=1
n_grid = 100, 400, 100
growth = power:a=1e10
replications = 2
seed = -1
""")
        with pytest.raises(ValueError) as err:
            validate_study_config(parse_study_config(path))
        message = str(err.value)
        assert "n_grid repeats 100" in message
        assert "seed must be >= 0, got -1" in message
        for n in (100, 400):
            assert f"growth 'power:a=1e+10' has no finite block length at n={n}" in message

    def test_checks_that_do_nothing_listed(self, tmp_path):
        # a repeated check and a slow rule that no check reads, both named in one pass
        path = self.write(tmp_path, """
dist = cauchy
n_grid = 100
growth = poly_log:c=1,a=2
replications = 2
seed = 5
checks = consistency, crucial_lemma, consistency
slow_growth = slow:c=1,offset=1
""")
        with pytest.raises(ValueError) as err:
            validate_study_config(parse_study_config(path))
        problems = str(err.value).splitlines()[1:]
        assert problems == ["  - checks repeats consistency",
                            "  - slow_growth is set but the obstruction check is not requested"]

    def test_unknown_key_names_line(self, tmp_path):
        path = self.write(tmp_path, """dist = cauchy
n_grid = 1000
growth = poly_log:c=1,a=2
replications = 2
seed = 5
check = obstruction
""")
        with pytest.raises(ValueError, match=re.escape(f"'check = obstruction' in {path}:6")):
            parse_study_config(path)

    def test_repeated_key_names_line(self, tmp_path):
        path = self.write(tmp_path, """dist = cauchy
n_grid = 1000
growth = poly_log:c=1,a=2
replications = 2
seed = 5
seed = 6
""")
        with pytest.raises(ValueError, match=re.escape(f"repeated key 'seed' in {path}:6")):
            parse_study_config(path)


class TestCsvRows:
    ROWS = [
        (StudyRow, [StudyRow(100, 22, 0, 0.97, -0.0125, 1.03125, True, 0.0625, -2.15),
                    StudyRow(100, 22, 1, 1.2e-17, 3e300, 0.1, False, 1.0, -math.inf)]),
        (CrucialLemmaRow, [CrucialLemmaRow(100, 22, 0.015625, 0),
                           CrucialLemmaRow(400, 36, math.inf, 7)]),
        (ObstructionRow, [ObstructionRow(1000, 3, -7.07, 48, -0.5)]),
    ]

    @pytest.mark.parametrize("row_type,rows", ROWS, ids=[t.__name__ for t, _ in ROWS])
    def test_round_trip(self, tmp_path, row_type, rows):
        path = tmp_path / "rows.csv"
        lines = ["# blockmax v0", "# gamma0: 0.5"] + csv_lines(row_type, rows)
        path.write_text("\n".join(lines) + "\n")
        meta, back = read_csv(path, row_type)
        assert back == rows
        assert [type(v) for v in vars(back[-1]).values()] == \
            [type(v) for v in vars(rows[-1]).values()]
        assert meta["gamma0"] == "0.5"
        assert csv_lines(row_type, back) == csv_lines(row_type, rows)

    def test_header_is_field_names(self):
        assert csv_lines(CrucialLemmaRow, [])[0] == "n,m,median_gap,n_infeasible"
        assert csv_lines(StudyRow, [StudyRow(3, 1, 0, 0.5, 0.0, 1.0, False, 0.25, -1.0)])[1] \
            == "3,1,0,0.5,0.0,1.0,false,0.25,-1.0"

    @pytest.mark.parametrize("row,problem", [
        ("3,1,0,0.5,0.0,1.0,yes,0.25,-1.0", "true or false"),
        ("3,1,0,0.5,0.0,1.0,true,0.25", "shorter"),
        ("3,1,0,0.5,0.0,1.0,true,0.25,-1.0,7", "longer"),
        ("3,1,0,half,0.0,1.0,true,0.25,-1.0", "half"),
    ])
    def test_malformed_row_names_file(self, tmp_path, row, problem):
        path = tmp_path / "rows.csv"
        path.write_text(csv_lines(StudyRow, [])[0] + "\n" + row + "\n")
        with pytest.raises(ValueError, match=f"rows.csv: malformed row .*{problem}"):
            read_csv(path, StudyRow)
