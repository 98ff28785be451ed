import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockmax
from blockmax import read_values
from blockmax.cli import main
from blockmax.lab import ObstructionRow, csv_lines

STUDY_CFG = """
dist = pareto:alpha=1
n_grid = 50, 100
growth = poly_log:c=1,a=2
replications = 5
seed = 3
checks = consistency, crucial_lemma
"""


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_n_values_with_support(self, tmp_path):
        out = tmp_path / "sim.txt"
        assert run("simulate", "--dist", "pareto:alpha=1", "--n", 1000, "--seed", 7,
                   "--out", out) == 0
        values = read_values(out)
        assert values.size == 1000
        assert np.all(values >= 1.0)

    def test_deterministic_bytes(self, tmp_path):
        out = tmp_path / "a.txt"
        argv = ("simulate", "--dist", "gev:gamma=0.5", "--n", 200, "--seed", 11, "--out", out)
        assert run(*argv) == 0
        first = out.read_bytes()
        assert run(*argv) == 0
        assert out.read_bytes() == first

    def test_uniform_rejected(self, tmp_path, capsys):
        code = run("simulate", "--dist", "uniform", "--n", 10, "--seed", 1,
                   "--out", tmp_path / "u.txt")
        assert code == 2
        assert "index -1" in capsys.readouterr().err

    def test_unknown_dist_exit_two(self, tmp_path, capsys):
        code = run("simulate", "--dist", "lognormalish", "--n", 10, "--seed", 1,
                   "--out", tmp_path / "x.txt")
        assert code == 2
        assert "unknown distribution" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["gev:gamma=nan", "gev:gamma=inf", "pareto:alpha=nan"])
    def test_non_finite_parameter_exit_two(self, tmp_path, capsys, spec):
        out = tmp_path / "x.txt"
        assert run("simulate", "--dist", spec, "--n", 10, "--seed", 1, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        key = spec.split(":")[1].split("=")[0]
        assert err == [f"blockmax: error: '{key}' must be finite in spec '{spec}', "
                       f"got {spec.split('=')[1]}"]
        assert not out.exists()

    def test_negative_seed_names_flag(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run("simulate", "--dist", "cauchy", "--n", 10, "--seed", -1, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [
            "blockmax: error: --seed must be >= 0, got -1"]
        assert not out.exists()

    def test_auto_seed_recorded(self, tmp_path):
        out = tmp_path / "auto.txt"
        assert run("simulate", "--dist", "exponential", "--n", 5, "--out", out) == 0
        header = out.read_text().splitlines()
        assert any(line.startswith("# seed:") for line in header)

    def test_metadata_header(self, tmp_path):
        out = tmp_path / "sim.txt"
        run("simulate", "--dist", "exponential", "--n", 5, "--seed", 2, "--out", out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# blockmax v")
        assert lines[1].startswith("# command: simulate")


class TestBlocks:
    def test_roundtrip(self, tmp_path):
        sim = tmp_path / "sim.txt"
        blk = tmp_path / "blk.txt"
        run("simulate", "--dist", "exponential", "--n", 100, "--seed", 5, "--out", sim)
        assert run("blocks", "--in", sim, "--block-size", 10, "--out", blk) == 0
        data = read_values(sim)
        maxima = read_values(blk)
        np.testing.assert_array_equal(maxima, data.reshape(10, 10).max(axis=1))

    def test_non_finite_exit_two(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1.0\nnan\n2.0\ninf\n")
        blk = tmp_path / "blk.txt"
        assert run("blocks", "--in", data, "--block-size", 2, "--out", blk) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "1 NaN and 1 infinite values among 4 observations" in err[0]
        assert not blk.exists()

    def test_header_counts_input_values(self, tmp_path):
        sim = tmp_path / "sim.txt"
        blk = tmp_path / "blk.txt"
        run("simulate", "--dist", "exponential", "--n", 103, "--seed", 5, "--out", sim)
        assert run("blocks", "--in", sim, "--block-size", 10, "--out", blk) == 0
        header = [line for line in blk.read_text().splitlines() if line.startswith("#")]
        assert "# block_size: 10" in header
        assert "# n_blocks: 10" in header
        assert "# source_length: 103" in header


class TestFit:
    def test_pareto_block_fit(self, tmp_path, capsys):
        sim = tmp_path / "sim.txt"
        m = math.ceil(math.log(10_000) ** 2)
        run("simulate", "--dist", "pareto:alpha=1", "--n", 10_000 * m, "--seed", 13,
            "--out", sim)
        out = tmp_path / "fit.txt"
        assert run("fit", "--in", sim, "--block-size", m, "--out", out) == 0
        record = dict(
            line.split(" = ", 1) for line in out.read_text().splitlines()
            if " = " in line and not line.startswith("#")
        )
        assert abs(float(record["gamma_hat"]) - 1.0) < 0.1
        assert record["converged"] == "true"
        assert int(record["n_blocks"]) == 10_000

    def test_block_size_one_recovers_exact_gev(self, tmp_path, capsys):
        sim = tmp_path / "sim.txt"
        run("simulate", "--dist", "gev:gamma=0.5", "--n", 5_000, "--seed", 17, "--out", sim)
        out = tmp_path / "fit.txt"
        assert run("fit", "--in", sim, "--block-size", 1, "--out", out) == 0
        record = dict(
            line.split(" = ", 1) for line in out.read_text().splitlines()
            if " = " in line and not line.startswith("#")
        )
        assert abs(float(record["gamma_hat"]) - 0.5) < 0.1
        assert abs(float(record["mu_hat"])) < 0.1
        assert abs(float(record["sigma_hat"]) - 1.0) < 0.1
        # without --out the same record goes to stdout; only the command line differs
        assert run("fit", "--in", sim, "--block-size", 1) == 0
        printed = capsys.readouterr().out.splitlines()
        written = out.read_text().splitlines()
        assert f"# command: fit --in {sim} --block-size 1" in printed
        assert ([line for line in printed if not line.startswith("# command: ")]
                == [line for line in written if not line.startswith("# command: ")])

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        assert run("fit", "--in", empty, "--block-size", 1) == 2

    def test_too_few_blocks(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1.0\n2.0\n3.0\n4.0\n")
        assert run("fit", "--in", data, "--block-size", 2) == 2
        assert "at least 3" in capsys.readouterr().err

    @pytest.mark.parametrize("block_size", [0, -2])
    def test_block_size_below_one_refused(self, tmp_path, capsys, block_size):
        data = tmp_path / "data.txt"
        data.write_text("1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n")
        assert run("fit", "--in", data, "--block-size", block_size) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["blockmax: error: block length m must be >= 1"]

    def test_nan_value_exit_two(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1.0\n2.5\nnan\n0.3\n4.0\n")
        assert run("fit", "--in", data, "--block-size", 1) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "1 NaN and 0 infinite values among 5 observations" in err[0]

    def test_missing_file(self, tmp_path):
        assert run("fit", "--in", tmp_path / "nope.txt", "--block-size", 2) == 2

    def test_fit_off_the_region_is_a_record(self, tmp_path, capsys):
        # three maxima whose ascent ends past the smallest one: a non-converged fit
        data = tmp_path / "three.txt"
        data.write_text("0.60378158\n-1.51780969\n7.67094783\n")
        assert run("fit", "--in", data, "--block-size", 1) == 0
        record = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                      if " = " in line and not line.startswith("#"))
        assert record["converged"] == "false"
        assert record["loglik"] == "-inf"
        assert "feasibility boundary" in record["diagnostic"]

    def test_unstandardizable_maxima_exit_two(self, tmp_path, capsys):
        data = tmp_path / "wide.txt"
        data.write_text("0\n1\n2\n3\n1e308\n")
        assert run("fit", "--in", data, "--block-size", 1) == 2
        assert capsys.readouterr().err.startswith(
            "blockmax: error: cannot standardize: spread 1e+308 over scale 2.0 (")

    def test_tied_block_maxima_name_the_file(self, tmp_path, capsys):
        # the raw values differ, but every block of two has maximum 5
        data = tmp_path / "ties.txt"
        data.write_text("".join(f"{v}\n" for v in (1, 5, 2, 5, 3, 5, 4, 5, 0, 5)))
        assert run("fit", "--in", data, "--block-size", 2) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"blockmax: error: {data}: all 5 block maxima of length 2 equal 5.0; "
            "a GEV fit needs at least two distinct maxima"]


class TestGof:
    def test_one_point(self, tmp_path, capsys):
        data = tmp_path / "one.txt"
        data.write_text("0.0\n")
        assert run("gof", "--in", data, "--gamma", 0.0, "--mu", 0.0, "--sigma", 1.0) == 0
        out = capsys.readouterr().out
        ks = float(out.splitlines()[-1].split("=")[1])
        assert ks == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_right_parameters_beat_wrong_gamma(self, tmp_path, capsys):
        sim = tmp_path / "sim.txt"
        run("simulate", "--dist", "gev:gamma=0.5", "--n", 20_000, "--seed", 23, "--out", sim)
        run("gof", "--in", sim, "--gamma", 0.5)
        ks_right = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
        run("gof", "--in", sim, "--gamma", 2.0)
        ks_wrong = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
        assert ks_right < 0.02
        assert ks_wrong > ks_right

    def test_non_finite_exit_two(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        for text, problem in (
                ("0.5\nnan\n-inf\n", "1 NaN and 1 infinite values among 3 observations"),
                ("# nothing here\n", f"{data}: no data values found")):
            data.write_text(text)
            assert run("gof", "--in", data, "--gamma", 0.0) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1
            assert problem in err[0]

    @pytest.mark.parametrize("flag,value", [("--gamma", "nan"), ("--mu", "inf"),
                                            ("--sigma", "nan"), ("--sigma", "inf")])
    def test_non_finite_parameter_exit_two(self, tmp_path, capsys, flag, value):
        data = tmp_path / "six.txt"
        data.write_text("0.1\n0.4\n-0.3\n1.2\n0.8\n2.5\n")
        args = {"--gamma": "0", "--mu": "0", "--sigma": "1", flag: value}
        assert run("gof", "--in", data, *(item for pair in args.items() for item in pair)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert f"{flag} must be finite" in err[0]


    @pytest.mark.parametrize("flag,value", [("--mu", "-1e5"), ("--gamma", "-2.5e-1"),
                                            ("--mu", "-.5")])
    def test_negative_exponent_values_parse(self, tmp_path, capsys, flag, value):
        data = tmp_path / "six.txt"
        data.write_text("0.1\n0.4\n-0.3\n1.2\n0.8\n2.5\n")
        args = {"--gamma": "0", "--mu": "0", "--sigma": "1", flag: value}
        assert run("gof", "--in", data, *(item for pair in args.items() for item in pair)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("n = 6\nks = ")

    def test_space_separated_value_matches_equals_form(self, tmp_path, capsys):
        data = tmp_path / "six.txt"
        data.write_text("0.1\n0.4\n-0.3\n1.2\n0.8\n2.5\n")
        assert run("gof", "--in", data, "--gamma", "-2.5e-1", "--mu", "-1e-1") == 0
        spaced = capsys.readouterr().out
        assert run("gof", "--in", data, "--gamma=-0.25", "--mu=-0.1") == 0
        assert capsys.readouterr().out == spaced

    @pytest.mark.parametrize("flag", ["--gamma", "--mu", "--sigma"])
    def test_negative_infinity_reaches_finiteness_check(self, tmp_path, capsys, flag):
        data = tmp_path / "six.txt"
        data.write_text("0.1\n0.4\n-0.3\n1.2\n0.8\n2.5\n")
        args = {"--gamma": "0", "--mu": "0", "--sigma": "1", flag: "-inf"}
        assert run("gof", "--in", data, *(item for pair in args.items() for item in pair)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"blockmax: error: {flag} must be finite, got -inf"]


class TestStudy:
    def test_runs_and_reruns_identically(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG)
        out = tmp_path / "out"
        argv = ("study", "--config", cfg, "--out", out)
        assert run(*argv) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("report.csv", "summary.txt", "crucial_lemma.csv")
        }
        assert run(*argv) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload

    def test_tiny_blocks_study_writes_its_files(self, tmp_path):
        # 3 and 4 maxima of blocks of two: many fits do not converge, and none raises
        cfg = tmp_path / "study.cfg"
        cfg.write_text("dist = pareto:alpha=1\nn_grid = 3, 4\ngrowth = fixed:c=2\n"
                       "replications = 100\nseed = 5\n")
        out = tmp_path / "out"
        assert run("study", "--config", cfg, "--out", out) == 0
        lines = (out / "report.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 200 and any(row.split(",")[6] == "false" for row in rows)
        assert (out / "summary.txt").read_text().count("\nn=") == 2

    def test_obstruction_file_is_the_check(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("dist = cauchy\nn_grid = 30, 60\ngrowth = poly_log:c=1,a=2\n"
                       "slow_growth = slow:c=1,offset=1\nreplications = 20\nseed = 4\n"
                       "checks = obstruction\n")
        out = tmp_path / "out"
        argv = ("study", "--config", cfg, "--out", out)
        assert run(*argv) == 0
        assert [p.name for p in out.iterdir()] == ["obstruction.csv"]
        payload = (out / "obstruction.csv").read_bytes()
        config = blockmax.parse_study_config(cfg)
        rows = blockmax.check_slow_growth_obstruction(
            blockmax.from_spec(config.dist_spec), config.n_grid, config.slow_growth,
            config.growth, config.replications, config.seed,
        )
        lines = payload.decode("utf-8").splitlines()
        assert [line for line in lines if not line.startswith("#")] == csv_lines(
            ObstructionRow, rows)
        assert run(*argv) == 0
        assert (out / "obstruction.csv").read_bytes() == payload

    def test_summary_text_is_the_report_summary(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG)
        out = tmp_path / "out"
        assert run("study", "--config", cfg, "--out", out) == 0
        config = blockmax.parse_study_config(cfg)
        report = blockmax.run_consistency_study(
            blockmax.from_spec(config.dist_spec), config.n_grid, config.growth,
            config.replications, config.seed,
        )
        lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        header = [line for line in lines if line.startswith("#")]
        assert lines[:len(header)] == header and len(header) > 0
        assert lines[len(header):] == report.summary_lines()

    def test_report_schema(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG)
        out = tmp_path / "out"
        run("study", "--config", cfg, "--out", out)
        lines = [
            line for line in (out / "report.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert lines[0] == "n,m,rep,gamma_hat,mu_err,sigma_ratio,converged,ks,mean_ll_truth"
        assert len(lines) == 1 + 2 * 5

    def test_budget_violation(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("""
dist = pareto:alpha=1
n_grid = 200000
growth = poly_log:c=1,a=2
replications = 2
seed = 3
""")
        assert run("study", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("growth", ["poly_log:c=inf", "power:a=inf", "poly_log:c=nan"])
    def test_non_finite_growth_exit_two(self, tmp_path, capsys, growth):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG.replace("poly_log:c=1,a=2", growth))
        assert run("study", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err.splitlines()
        key = growth.split(":")[1].split("=")[0]
        assert err == [f"blockmax: error: bad value for 'growth' in {cfg}:4: "
                       f"'{key}' must be finite in growth spec '{growth}', got {growth.split('=')[1]}"]

    @pytest.mark.parametrize("growth", ["fixed:c=1", "poly_log:c=0,a=2"])
    def test_unit_block_length_exit_two(self, tmp_path, capsys, growth):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG.replace("poly_log:c=1,a=2", growth))
        assert run("study", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"cell n=50, m=1 under growth '{growth}'" in err
        assert f"cell n=100, m=1 under growth '{growth}'" in err

    @pytest.mark.parametrize("growth, shown", [("power:a=1e10", "power:a=1e+10"),
                                               ("poly_log:c=1e308,a=2", "poly_log:c=1e+308,a=2")])
    def test_overflowing_growth_exit_two(self, tmp_path, capsys, growth, shown):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG.replace("poly_log:c=1,a=2", growth))
        assert run("study", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        for n in (50, 100):
            assert f"growth '{shown}' has no finite block length at n={n}" in err

    def test_invalid_config_lists_violations(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("""
dist = uniform
n_grid = 100
growth = poly_log:c=1,a=2
replications = 0
seed = -1
""")
        assert run("study", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "index -1" in err and "replications" in err
        assert "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("checks, problem", [
        ("checks =\n", "checks is empty"),
        ("checks = consistency, consistency\n", "checks repeats consistency"),
        ("checks = consistency\nslow_growth = slow:c=1,offset=1\n",
         "slow_growth is set but the obstruction check is not requested"),
    ])
    def test_checks_that_do_nothing_exit_two(self, tmp_path, capsys, checks, problem):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG.replace("checks = consistency, crucial_lemma\n", checks))
        out = tmp_path / "out"
        assert run("study", "--config", cfg, "--out", out) == 2
        assert f"  - {problem}" in capsys.readouterr().err.splitlines()
        assert not out.exists()


class TestPlot:
    @pytest.fixture()
    def report_csv(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(STUDY_CFG)
        out = tmp_path / "out"
        run("study", "--config", cfg, "--out", out)
        return out / "report.csv"

    def test_three_panels(self, tmp_path, report_csv):
        svg = tmp_path / "plot.svg"
        assert run("plot", "--report", report_csv, "--out", svg) == 0
        text = svg.read_text()
        assert text.count('class="panel"') == 3
        assert text.startswith("<svg")

    def test_byte_identical(self, tmp_path, report_csv):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run("plot", "--report", report_csv, "--out", a)
        run("plot", "--report", report_csv, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("# gamma0: 1.0\nn,m,rep,gamma_hat,mu_err,sigma_ratio,converged,ks,mean_ll_truth\n")
        assert run("plot", "--report", bad, "--out", tmp_path / "p.svg") == 2

    def test_schema_mismatch_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# gamma0: 1.0\nn,gamma_hat\n100,1.0\n")
        assert run("plot", "--report", bad, "--out", tmp_path / "p.svg") == 2
        assert "header" in capsys.readouterr().err

    @staticmethod
    def _with_cell(report_csv, path, column, value):
        """Copy of ``report_csv`` with ``column`` of the second data row set to ``value``."""
        lines = report_csv.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("n,"))
        cells = lines[at + 2].split(",")
        cells[lines[at].split(",").index(column)] = value
        lines[at + 2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["gamma_hat", "mu_err", "sigma_ratio"])
    def test_non_finite_error_column_rejected(self, tmp_path, capsys, report_csv, column, value):
        bad = self._with_cell(report_csv, tmp_path / "bad.csv", column, value)
        svg = tmp_path / "p.svg"
        assert run("plot", "--report", bad, "--out", svg) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "row 2 " in err and f"non-finite {column}" in err
        assert not svg.exists()

    def test_infinite_mean_loglik_plots(self, tmp_path, report_csv):
        report = self._with_cell(report_csv, tmp_path / "r.csv", "mean_ll_truth", "-inf")
        assert run("plot", "--report", report, "--out", tmp_path / "p.svg") == 0

    @pytest.mark.parametrize("gamma0", ["abc", "nan", "inf"])
    def test_bad_gamma0_named(self, tmp_path, capsys, report_csv, gamma0):
        text = report_csv.read_text()
        assert "# gamma0: 1.0\n" in text
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace("# gamma0: 1.0\n", f"# gamma0: {gamma0}\n"))
        svg = tmp_path / "p.svg"
        assert run("plot", "--report", bad, "--out", svg) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "gamma0" in err and gamma0 in err
        assert not svg.exists()


def test_unknown_command_exit_two():
    assert run("frobnicate") == 2


def test_bundled_study_config_validates():
    from pathlib import Path

    from blockmax import parse_study_config, validate_study_config

    bundled = Path(__file__).parent.parent / "study_configs" / "pareto_study.cfg"
    config = parse_study_config(bundled)
    dist = validate_study_config(config)
    assert dist.gamma0 == 1.0
    assert config.replications == 200


# Runs in a fresh interpreter where every scipy import raises ImportError.
NO_SCIPY_RUN = """
import sys
from pathlib import Path


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
import blockmax
from blockmax.cli import main

out = Path(sys.argv[1])
(out / "study.cfg").write_text(
    "dist = cauchy\\nn_grid = 30, 60\\ngrowth = poly_log:c=1,a=2\\n"
    "slow_growth = slow:c=1,offset=1\\nreplications = 3\\nseed = 4\\n"
    "checks = consistency, crucial_lemma, obstruction\\n")
commands = [
    ["simulate", "--dist", "pareto:alpha=1", "--n", "2000", "--seed", "7", "--out", out / "x.txt"],
    ["blocks", "--in", out / "x.txt", "--block-size", "40", "--out", out / "bm.txt"],
    ["fit", "--in", out / "x.txt", "--block-size", "40", "--out", out / "fit.txt"],
    ["gof", "--in", out / "bm.txt", "--gamma", "1", "--mu", "30", "--sigma", "30"],
    ["study", "--config", out / "study.cfg", "--out", out / "study"],
    ["plot", "--report", out / "study" / "report.csv", "--out", out / "plot.svg"],
]
for argv in commands:
    code = main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
print(sorted(p.name for p in (out / "study").iterdir()))
print(repr(blockmax.kl_divergence(blockmax.GevParams(0, 0, 1), blockmax.GevParams(0, 0, 2))))
print(sum(1 for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _python(*args):
    src = str(Path(blockmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


class TestWithoutScipy:
    def test_every_command_runs_without_scipy(self, tmp_path):
        proc = _python("-c", NO_SCIPY_RUN, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        files, kl, scipy_modules = proc.stdout.splitlines()[-3:]
        assert files == "['crucial_lemma.csv', 'obstruction.csv', 'report.csv', 'summary.txt']"
        assert float(kl) == blockmax.kl_divergence(blockmax.GevParams(0, 0, 1),
                                                   blockmax.GevParams(0, 0, 2))
        assert scipy_modules == "0"
        assert (tmp_path / "plot.svg").read_text().startswith("<svg")

    def test_import_loads_no_scipy(self):
        proc = _python("-c", "import sys, blockmax, blockmax.cli; "
                             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
