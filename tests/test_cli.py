import ast
import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oatsqueeze
from oatsqueeze import analytic, cli, inhomogeneous, oracle, verify
from oatsqueeze.cli import FLAGS, SUBCOMMANDS, _csv, _parse_sweep, main
from oatsqueeze.core import DecoherenceRates, theta_big


def read_csv(path):
    echo, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            echo.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return echo, header, rows


def test_squeeze_curve_columns(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["squeeze-curve", "--n", "100", "--p", "1", "--j", "1e-3",
               "--gamma-par", "0.02", "--gamma-perp", "0.03",
               "--sweep", "t:0.1:10:50:log", "--out", str(out)])
    assert rc == 0
    echo, header, rows = read_csv(out)
    assert echo and echo[0].startswith("# oatsqueeze squeeze-curve")
    assert header == ["t", "theta_big", "xi2_decoherence", "xi2_pure",
                      "effective_polarization", "theta_min_angle"]
    assert len(rows) == 50
    for row in rows:
        assert all(math.isfinite(v) for v in row)
        t, theta_big = row[0], row[1]
        assert theta_big == pytest.approx(2.0 * 0.05 * t, rel=1e-12)


def test_squeeze_curve_rate_free_columns_coincide(tmp_path):
    out = tmp_path / "pure.csv"
    rc = main(["squeeze-curve", "--n", "100", "--p", "0.9", "--j", "1e-3",
               "--sweep", "t:0.5:5:20:lin", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out)
    for row in rows:
        assert row[2] == row[3]  # no relaxation: both xi2 columns identical
        assert row[4] == 0.9


def test_squeeze_curve_minimum_brackets_optimizer(tmp_path):
    out = tmp_path / "grid.csv"
    n, p, j = 100, 1.0, 1e-3
    gpar, gperp = 0.02, 0.03
    rc = main(["squeeze-curve", "--n", str(n), "--p", str(p), "--j", str(j),
               "--gamma-par", str(gpar), "--gamma-perp", str(gperp),
               "--sweep", "t:0.5:40:400:log", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out)
    ts = [r[0] for r in rows]
    vals = [r[2] for r in rows]
    k = int(np.argmin(vals))
    from oatsqueeze.core import DecoherenceRates
    theta, _, _ = analytic.optimal_theta_squeezing(n, p, DecoherenceRates(gpar, gperp), j)
    t_star = theta / (2.0 * (gpar + gperp))
    assert ts[max(k - 1, 0)] <= t_star <= ts[min(k + 1, len(ts) - 1)]


def test_optimal_point_squeezing_decoherence_dominated(tmp_path):
    out = tmp_path / "opt.json"
    rc = main(["optimal-point", "--objective", "squeezing", "--n", "50",
               "--p", "1", "--j", "1e-5", "--gamma-par", "0.015",
               "--gamma-perp", "0.015", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["regime_flag"] == "decoherence_dominated"
    assert abs(payload["theta_star"] - 2.0 / 3.0) <= 1e-4
    assert payload["reference_constants"]["theta_max"] == 0.727


def test_optimal_point_metrology(tmp_path):
    out = tmp_path / "opt.json"
    rc = main(["optimal-point", "--objective", "metrology", "--n", "50",
               "--p", "1", "--j", "1e-5", "--gamma-par", "0.02",
               "--gamma-perp", "0.03", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert abs(payload["theta_star"] - 0.727) <= 1e-3
    assert payload["regime_flag"] == "decoherence_dominated"


def test_optimal_point_pure_squeezing_matches_closed_form(tmp_path):
    out = tmp_path / "opt.json"
    rc = main(["optimal-point", "--objective", "squeezing", "--n", "100",
               "--p", "1", "--j", "1.0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    # independent check: minimize the small-angle form numerically
    cfg = analytic.OptimizerConfig(bracket=(1e-3, 1.0), abs_tol=1e-13)
    t_num, _ = analytic.optimize_scalar(
        lambda t: analytic.xi2_min_approx(100, 1.0, 1.0, t), cfg, "min")
    assert payload["t_star"] == pytest.approx(t_num, rel=1e-8)
    assert payload["theta_star"] is None


def test_metrology_linearity_and_peak(tmp_path):
    args = ["metrology", "--n", "50", "--p", "1", "--j", "1e-5",
            "--gamma-par", "0.02", "--gamma-perp", "0.03",
            "--sweep", "theta_big:0.05:3:200:lin"]
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    assert main(args + ["--b-y", "0.01", "--out", str(out1)]) == 0
    assert main(args + ["--b-y", "0.02", "--out", str(out2)]) == 0
    _, header, rows1 = read_csv(out1)
    _, _, rows2 = read_csv(out2)
    assert header == ["theta_big", "t", "snr",
                      "sensitivity_c_derived", "sensitivity_c_reference"]
    for r1, r2 in zip(rows1, rows2):
        assert r2[2] == pytest.approx(2.0 * r1[2], rel=1e-14)
        assert r2[3] == r1[3]  # sensitivity is field-free
    thetas = [r[0] for r in rows1]
    sens = [r[3] for r in rows1]
    grid_step = thetas[1] - thetas[0]
    assert abs(thetas[int(np.argmax(sens))] - 0.727) <= grid_step
    assert all(r[3] > 0 and r[4] > 0 for r in rows1)


def test_metrology_t_sweep_prints_the_swept_time(tmp_path):
    sweep = "t:0.1:10:4:lin"
    out = tmp_path / "m.csv"
    assert main(["metrology", "--n", "50", "--j", "1e-5", "--gamma-par", "0.02",
                 "--gamma-perp", "0.03", "--sweep", sweep, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[:2] == ["theta_big", "t"]
    assert [r[1] for r in rows] == _parse_sweep(sweep)[1]  # exactly, no round trip
    rates = DecoherenceRates(0.02, 0.03)
    assert [r[0] for r in rows] == [theta_big(rates, t) for t in _parse_sweep(sweep)[1]]


def test_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["inhomo-mc", "--n", "8", "--theta0", "0.05", "--kappa", "0.1",
            "--samples", "100", "--seed", "7"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() == \
        (tmp_path / "b.csv.summary.json").read_bytes()


def test_inhomo_mc_summary_contents(tmp_path):
    out = tmp_path / "mc.csv"
    rc = main(["inhomo-mc", "--n", "10", "--theta0", "0.05", "--kappa", "0.0",
               "--samples", "10", "--seed", "1", "--theta", "0.9",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "mc.csv.summary.json").read_text())
    assert payload["stderr"] == 0.0  # concentrated disorder
    assert payload["mean"] == pytest.approx(payload["analytic_mean"], rel=1e-12)
    assert payload["suppression_factors"]["negligible"] is True
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 10 + 1


def test_inhomo_mc_summary_out_without_out_writes_the_file(tmp_path, capsys):
    # regression: --summary-out without --out was ignored; the summary went
    # to stdout and no file was written
    summary = tmp_path / "s.json"
    argv = ["inhomo-mc", "--n", "6", "--samples", "5", "--kappa", "0.1"]
    assert main(argv + ["--summary-out", str(summary)]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(argv) == 0
    assert summary.read_text(encoding="utf-8") == capsys.readouterr().out


def test_inhomo_mc_exact_match_has_zero_z_score(capsys):
    # every sample identical: the standard error is rounding noise, not a
    # reason for a z-score of 100
    assert main(["inhomo-mc", "--kappa", "0", "--samples", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stderr"] == 0.0
    assert payload["stderr_at_rounding_level"] is True
    assert payload["z_score"] == 0.0


@pytest.mark.parametrize("size", [["--n", "100000", "--samples", "1"],
                                  ["--samples", str(10 ** 9)]])
def test_inhomo_mc_oversized_run_exits_1_before_allocating(size, monkeypatch, capsys):
    def no_allocation(*args):
        raise AssertionError("allocated coupling samples")

    monkeypatch.setattr(inhomogeneous, "_coupling_stack", no_allocation)
    assert main(["inhomo-mc", "--kappa", "0.1", *size]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "GiB" in err


def test_validation_exit_code(tmp_path):
    rc = main(["squeeze-curve", "--n", "0", "--j", "1e-3",
               "--sweep", "t:0.1:1:5:lin", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    rc = main(["squeeze-curve", "--n", "10", "--j", "1e-3",
               "--sweep", "t:1:0.1:5:lin", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    rc = main(["metrology", "--n", "10", "--j", "1e-3",
               "--sweep", "theta_big:0.1:2:5:lin"])  # no rates
    assert rc == 1


def test_numerical_exit_code():
    # theta0 = pi/8 makes every sample's denominator degenerate
    rc = main(["inhomo-mc", "--n", "6", "--theta0", str(math.pi / 8.0),
               "--kappa", "0.0", "--samples", "10", "--seed", "1",
               "--theta", "0.4"])
    assert rc == 2


def test_verify_constants_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "constants", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "squeezing_coefficients_consistent" in names
    for check in payload["checks"]:
        assert check["tolerance"] > 0.0
        assert check["margin"] == check["value"] / check["tolerance"]
        assert check["passed"] == (check["margin"] <= 1.0)
    # the wall time is in the console summary and the report, not the file
    assert "elapsed_s" not in payload
    assert capsys.readouterr().out.startswith("constants: pass in ")
    # a suite ignores keywords it does not read, such as variable_coupling's trials
    report = verify.run_suite("constants", n=3, trials=100)
    assert 0.0 < report["elapsed_s"] < 60.0
    assert [[c["name"], c["value"]] for c in report["checks"]] == \
        [[c["name"], c["value"]] for c in payload["checks"]]
    assert verify._check("pass_fail", 0.0, 0.0, passed=True)["margin"] is None
    table = payload["constants"]
    assert table["squeezing_decoherence_coeff"]["ratio_derived_over_reference"] \
        == pytest.approx(4.0, abs=1e-3)
    assert table["sensitivity_peak_prefactor"]["ratio_derived_over_reference"] \
        == pytest.approx(0.499, abs=2e-3)


def test_verify_dephasing_suite(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "dephasing", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    # deviation of the quoted form is reported, not asserted
    assert payload["quoted_form_deviation_p1"] > 0.01


def test_verify_metrology_suite(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "metrology", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])
    assert [check["name"] for check in payload["checks"]] == [
        "single_spin_rotation_slope", "zero_field_zero_signal",
        "effective_field_transverse_only", "effective_field_mixed_rates",
        "snr_vs_formula_factor2", "sensitivity_equals_snr_limit"]


def test_verify_failing_check_exits_2(tmp_path, monkeypatch, capsys):
    def failing_suite():
        return verify._finish("constants", [verify._check("always_fails", 1.0, 0.5)])

    monkeypatch.setitem(verify._SUITE_TABLE, "constants", (failing_suite, {}, ()))
    out = tmp_path / "report.json"
    assert main(["verify", "constants", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "failing checks: always_fails\n"
    assert json.loads(out.read_text())["passed"] is False


def test_verify_lindblad_eigenvalue_floor_is_never_negative_zero():
    # regression: -min(0.0, lowest) reported -0.0 for a non-negative spectrum
    report = verify.run_suite("lindblad", n=3)
    (check,) = [c for c in report["checks"] if c["name"] == "min_eigenvalue_floor"]
    assert math.copysign(1.0, check["value"]) == 1.0
    assert math.copysign(1.0, check["margin"]) == 1.0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# archived run\n"
        "n = 100\n"
        "p = 1.0\n"
        "j = 1e-3\n"
        "gamma-par = 0.02\n"
        "gamma-perp = 0.03\n"
        "sweep = t:0.5:5:10:lin\n"
    )
    out1 = tmp_path / "c1.csv"
    assert main(["squeeze-curve", "--config", str(cfg), "--out", str(out1)]) == 0
    _, _, rows = read_csv(out1)
    assert len(rows) == 10
    out2 = tmp_path / "c2.csv"
    assert main(["squeeze-curve", "--config", str(cfg), "--p", "0.5",
                 "--out", str(out2)]) == 0
    _, _, rows2 = read_csv(out2)
    assert rows2[0][4] != rows[0][4]  # flag overrode the file polarization


def test_verify_defaults_independent_of_other_subcommands(tmp_path):
    # regression: shared argparse actions once leaked inhomo-mc's default
    # spin count into verify, pushing the oracle over its size cap
    out = tmp_path / "vc.json"
    rc = main(["verify", "variable_coupling", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True


def test_squeeze_curve_without_coupling_exits_1(capsys):
    # regression: the default --j 0 ended in a ZeroDivisionError traceback
    rc = main(["squeeze-curve", "--n", "10", "--p", "0.9", "--sweep", "t:0.1:1:3:lin"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "coupling" in err


def test_squeeze_curve_names_the_first_row_outside_the_domain(capsys):
    # regression: cos(4*J*t) <= 0 at one row aborted the sweep with exit 2
    # and did not say which row; t = 5.05 is the first with 4*J*t > pi/2
    rc = main(["squeeze-curve", "--n", "100", "--j", "0.1", "--sweep", "t:0.1:10:5:lin"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("validation error: sweep t=5.05 ")


def test_optimal_point_at_the_bracket_edge_exits_2(capsys):
    # regression: the lower end of the Theta bracket was reported as the optimum
    rc = main(["optimal-point", "--n", "100", "--j", "1", "--gamma-par", "0.01"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "edge of the search bracket" in captured.err


def test_config_equals_form_is_read(tmp_path, capsys):
    # regression: --config=PATH was silently ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 100\nj = 1e-3\nsweep = t:0.5:5:10:lin\n")
    split, joined = tmp_path / "split.csv", tmp_path / "joined.csv"
    assert main(["squeeze-curve", "--config", str(cfg), "--out", str(split)]) == 0
    assert main(["squeeze-curve", f"--config={cfg}", "--out", str(joined)]) == 0
    assert joined.read_bytes() == split.read_bytes()
    cfg.write_text("n = 10\n")  # no coupling: a one-line validation error
    assert main(["squeeze-curve", f"--config={cfg}", "--sweep", "t:0.1:1:3:lin"]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_config_non_numeric_value_exits_1(tmp_path, capsys):
    # regression: a non-numeric value ended in a ValueError traceback
    cfg = tmp_path / "bad.cfg"
    for line in ("n = abc\n", "p = high\n"):
        cfg.write_text(line)
        assert main(["squeeze-curve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and line.split()[0] in err


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    rc = main(["squeeze-curve", "--config", str(cfg), "--sweep", "t:0.5:5:10:lin"])
    assert rc == 1


def test_verify_notes_flags_the_suite_does_not_read(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "factorization", "--seed", "3", "--n-range", "2..3",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "--seed" in err and "--n-range" not in err
    assert len(err.splitlines()) == 1
    assert main(["verify", "variable_coupling", "--seed", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("seed = 5\n")
    assert main(["verify", "constants", "--config", str(cfg), "--out", str(out)]) == 0
    assert "--seed" in capsys.readouterr().err
    # closed-form flags and config keys are named too; the exit code stays
    cfg.write_text("gamma-perp = 0.1\nobjective = metrology\n")
    assert main(["verify", "constants", "--p", "0.3", "--j", "5", "--samples", "10",
                 "--format", "csv", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    for flag in ("--p", "--j", "--samples", "--format", "--gamma-perp", "--objective"):
        assert flag + "," in err or flag + ";" in err


def test_verify_notes_clamped_spin_count(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "dephasing", "--n", "9", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "--n 9" in err and "dephasing runs n=6" in err
    assert main(["verify", "dephasing", "--n", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["metrology", "--n", "50", "--j", "1e-5", "--gamma-par", "0.02",
     "--gamma-perp", "0.03", "--sweep", "theta_big:1:1500:3:lin"],
    ["metrology", "--n", "100", "--j", "1e300", "--gamma-par", "0.1"],
    ["squeeze-curve", "--n", "100", "--p", "1e-200", "--j", "1e-3",
     "--sweep", "t:0.1:1:3:lin"],
    ["squeeze-curve", "--n", "100", "--j", "1e-3", "--sweep", "t:1e-320:1:3:lin"],
    ["inhomo-mc", "--n", "8", "--samples", "10", "--alpha", "1e-320", "--theta0", "0.01"],
])
def test_arithmetic_faults_exit_2(argv, capsys):
    # regression: OverflowError and ZeroDivisionError ended in a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical error:")


@pytest.mark.parametrize("kappa", ["1e200", "1e300"])
def test_inhomo_mc_overflowing_kappa_theta0_exits_1(kappa, capsys):
    # regression: kappa^2 theta0^2 = inf gave alpha = 0.0, and the draw then
    # failed with "float division by zero" and exit 2
    assert main(["inhomo-mc", "--n", "20", "--samples", "2", "--theta0", "0.05",
                 "--kappa", kappa]) == 1
    err = capsys.readouterr().err
    assert err == f"validation error: kappa^2 theta0^2 finite (kappa = {float(kappa)!r}, " \
                  "theta0 = 0.05)\n"


def test_inhomo_mc_underflowing_kappa_theta0_runs_concentrated(capsys):
    # regression: kappa^2 theta0^2 = 0 by underflow raised ZeroDivisionError
    assert main(["inhomo-mc", "--n", "20", "--samples", "2", "--theta0", "1e-200",
                 "--kappa", "1e-200"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["mean"], summary["analytic_mean"], summary["stderr"]) == (1.0, 1.0, 0.0)


def test_inhomo_mc_degenerate_average_fails_before_the_monte_carlo(monkeypatch, capsys):
    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("ran the Monte Carlo")

    monkeypatch.setattr(cli, "monte_carlo_mean_xi2", no_monte_carlo)
    assert main(["inhomo-mc", "--n", "20", "--samples", "20000", "--theta0", "0.05",
                 "--alpha", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical error: degenerate averaged quadrature denominator")


def test_non_integer_oat_seed_exits_1(monkeypatch, capsys):
    # regression: the parser read OAT_SEED while it was built, so every
    # subcommand ended in a ValueError traceback
    monkeypatch.setenv("OAT_SEED", "abc")
    assert main(["inhomo-mc", "--n", "4", "--samples", "3", "--kappa", "0.1"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "OAT_SEED" in err
    assert main(["inhomo-mc", "--n", "4", "--samples", "3", "--kappa", "0.1",
                 "--seed", "2"]) == 0
    assert main(["optimal-point", "--n", "50", "--j", "1e-5"]) == 0
    assert capsys.readouterr().err == ""


def test_unwritable_output_paths_exit_1(tmp_path, capsys):
    # regression: an unopenable --out ended in a FileNotFoundError traceback
    missing = tmp_path / "no" / "such"
    assert main(["squeeze-curve", "--j", "1e-3", "--out", str(missing / "x.csv")]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert main(["inhomo-mc", "--n", "4", "--samples", "3", "--kappa", "0.1",
                 "--out", str(tmp_path / "mc.csv"),
                 "--summary-out", str(missing / "s.json")]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "variable_coupling", "--n", "1"],
    ["verify", "uniform_coupling", "--n", "1"],
    ["verify", "factorization", "--n-range", "5..2"],
    ["verify", "factorization", "--n-range", "1..2"],
    ["verify", "factorization", "--n-range", "3..3"],
])
def test_verify_sizes_that_check_nothing_exit_1(argv, capsys):
    # regression: these raised ValueError, passed with nothing checked, or
    # failed on the trivial one-spin gap
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("validation error:")


def test_verify_factorization_refuses_spin_count_above_cap_up_front(monkeypatch, capsys):
    # regression: the gap table ran n = 2..12, a dense 4096^2 RK4 run
    # included, before it reached the ResourceError at n = 13
    def no_leg(*args, **kwargs):
        raise AssertionError("a gap was computed before every spin count was checked")

    monkeypatch.setattr(oracle, "factorization_gap", no_leg)
    assert main(["verify", "factorization", "--n-range", f"2..{oracle.SPIN_CAP + 1}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "SPIN_CAP" in err


@pytest.mark.parametrize("extra", [
    ["--theta", "inf"], ["--theta0", "inf"], ["--kappa", "nan"], ["--seed", "-1"],
])
def test_out_of_domain_disorder_inputs_exit_1(extra, capsys):
    # regression: an infinite angle or a negative seed ended in a traceback,
    # and kappa = nan gave a NaN summary
    argv = ["inhomo-mc", "--n", "4", "--samples", "3", "--kappa", "0.1"]
    assert main(argv + extra) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_config_value_is_checked_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 10\nj = 1e-3\nsweep = t:0.1:1:3:lin\nformat = xml\n")
    assert main(["squeeze-curve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "xml" in err and str(cfg) in err


def test_subcommands_name_the_flags_they_do_not_read(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["squeeze-curve", "--n", "10", "--j", "1e-3", "--sweep", "t:0.1:1:3:lin",
            "--out", str(out)]
    assert main(argv + ["--samples", "5", "--theta0", "3", "--kappa", "1"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("note: squeeze-curve")
    for flag in ("--samples", "--theta0", "--kappa"):
        assert flag in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("objective = metrology\nsummary-out = s.json\n")
    assert main(argv + ["--config", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("note: squeeze-curve")
    assert "--objective" in err and "--summary-out" in err
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_argument_errors_are_one_line_exit_1(capsys):
    for argv in (["squeeze-curve", "--n", "abc"],
                 ["squeeze-curve", "--n", "10", "--j", "1e-3", "--t", "1"],
                 ["frobnicate"], []):
        assert main(argv) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
    main(["squeeze-curve", "--n", "10", "--j", "1e-3", "--t", "1"])
    assert "unrecognized arguments: --t" in capsys.readouterr().err


def test_metrology_total_time_below_unit_squeeze_time(capsys):
    # regression: a dead --t flag fixed the squeeze time at 1, so tau < 1 failed
    argv = ["metrology", "--n", "50", "--j", "1e-5", "--gamma-par", "0.02",
            "--gamma-perp", "0.03", "--sweep", "t:0.1:0.4:3:lin"]
    assert main(argv + ["--tau", "0.5"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 3
    # regression: tau = nan passed the tau >= t check and wrote NaN rows, and
    # tau = inf wrote NaN in every snr row at the default B_y = 0
    for tau in ("nan", "inf"):
        assert main(argv + ["--tau", tau]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "--tau" in err


@pytest.mark.parametrize("sweep", [
    "t:0.1:inf:3:lin", "t:nan:1:3:lin", "t:0.1:1e308:3:log", "t:-1e308:1e308:3:lin",
    "t:0:1e308:3:lin", f"t:1:{sys.float_info.max!r}:48:log",
])
def test_sweeps_beyond_the_largest_double_exit_1(sweep, capsys):
    # regression: these built NaN or inf points, and squeeze-curve then blamed
    # the polarization; exp rounding past the largest double raised exit 2
    assert main(["squeeze-curve", "--j", "1e-3", "--sweep", sweep]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "--sweep" in err


@pytest.mark.parametrize("argv, row", [
    # cos^999(4 theta0) underflows to 0 and xi2_min_finite_polarization divides by it
    (["squeeze-curve", "--n", "1000", "--p", "1", "--j", "1e-3",
      "--sweep", "t:1:316:2:lin"], "t=316.0"),
    # e^{2 Gs t} overflows in xi2_min_decoherence
    (["squeeze-curve", "--n", "1000", "--p", "1", "--j", "1e-3", "--gamma-par", "0.05",
      "--sweep", "t:1:1e5:2:lin"], "t=100000.0"),
    (["metrology", "--n", "50", "--p", "1", "--j", "1e-5", "--gamma-par", "0.02",
      "--sweep", "t:1:1e5:2:lin"], "t=100000.0"),
])
def test_rows_beyond_a_double_name_the_row_and_exit_2(argv, row, capsys):
    # regression: these printed only "float division by zero" or "math range error"
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert f"sweep {row} gives a value beyond a double" in err


def test_oversized_sweep_exits_1_before_building_a_point(monkeypatch, capsys):
    def no_point(x):
        raise AssertionError("built a sweep point")

    monkeypatch.setattr(math, "exp", no_point)  # the log sweep's point formula
    assert main(["squeeze-curve", "--j", "1e-3",
                 "--sweep", "t:0.1:10:10000000000:log"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "MAX_SWEEP_POINTS" in err
    assert cli.MAX_SWEEP_POINTS >= 100 * 4000  # far above the benchmark's sweeps


def test_csv_rows_match_one_number_per_cell():
    # the row template gives the bytes of formatting each cell on its own
    def reference(header, rows):
        lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    edge = [-0.0, 0.0, 5e-324, sys.float_info.max, -sys.float_info.max, math.inf,
            -math.inf, math.nan, 0.1, 1.0 / 3.0, 1e-300, 123456789012345678.0]
    rows = [edge[:6], edge[6:], [np.float64(x) for x in edge[:6]],
            [0, 7, 10 ** 20, np.int64(3), np.int64(-9), np.float64(2.5)]]
    header = list("abcdef")
    assert _csv(header, rows) == reference(header, rows)
    assert _csv(header, []) == "a,b,c,d,e,f\n"
    # _mc_csv's rows: Python int sample indices and numpy float64 values
    header = ["sample_index", "xi2"]
    indexed = list(zip([0, 2, 10 ** 6], np.array([0.25, -0.0, 1e-310])))
    assert _csv(header, indexed) == reference(header, indexed)


@pytest.mark.parametrize("first, then", [
    (["metrology", "--n", "50", "--j", "1e-5", "--gamma-par", "0.02",
      "--sweep", "t:0.1:0.4:3:lin", "--tau", "40"],
     ["metrology", "--n", "50", "--j", "1e-5", "--gamma-par", "0.02",
      "--sweep", "t:0.1:0.4:3:lin"]),
    (["squeeze-curve", "--config", "{cfg}"],
     ["squeeze-curve", "--j", "1e-3", "--sweep", "t:0.1:1:3:lin"]),
    (["squeeze-curve", "--n", "abc"],
     ["squeeze-curve", "--j", "1e-3", "--sweep", "t:0.1:1:3:lin", "--kappa", "1"]),
])
def test_successive_runs_share_no_state(first, then, tmp_path, capsys):
    # the parser is built once per process, so a run must leave nothing in it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 10\np = 0.5\nj = 2e-3\ngamma-par = 0.1\nsweep = t:0.2:2:4:log\n")
    first = [arg.format(cfg=cfg) for arg in first]
    cli.build_parser.cache_clear()
    want = main(then), capsys.readouterr()
    assert want[0] == 0
    cli.build_parser.cache_clear()
    main(first)
    capsys.readouterr()
    assert (main(then), capsys.readouterr()) == want


# ---------------------------------------------------------------------------
# property test over the flag table: no input ends in a traceback
# ---------------------------------------------------------------------------

EDGE_VALUES = ("0", "-1", "1e-300", "1e300", "nan", "inf", "abc")


def _flag_values(key, base):
    # edge values, and ordinary ones so that runs also get past validation
    edge = st.sampled_from(EDGE_VALUES) | st.sampled_from(("0.01", "1"))
    if key == "n":
        return edge | st.integers(1, 40).map(str)
    if key == "samples":
        return edge | st.integers(1, 20).map(str)
    if key == "seed":
        return edge | st.integers(0, 5).map(str)
    if key == "sweep":
        return st.builds("{}:{}:{}:{}:{}".format,
                         st.sampled_from(("t", "theta_big", "x")), edge, edge,
                         st.integers(-1, 50).map(str) | st.just("abc"),
                         st.sampled_from(("lin", "log", "abc")))
    if key == "n_range":
        return st.builds("{}..{}".format, st.integers(0, 4), st.integers(0, 4)) | edge
    if key in ("out", "summary_out"):
        return st.sampled_from((str(base / "out.csv"), str(base / "no" / "x.csv")))
    kind = FLAGS[key][0]
    if isinstance(kind, tuple):
        return st.sampled_from(kind) | edge
    return edge


@st.composite
def cli_runs(draw, base):
    subcommand = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [subcommand] + (["constants"] if subcommand == "verify" else [])
    keys = [key for key in FLAGS if key != "config"]
    rarely = st.integers(0, 7).map(lambda k: k == 0)
    for key in draw(st.lists(st.sampled_from(keys), max_size=5, unique=True)):
        argv += ["--" + key.replace("_", "-"), draw(_flag_values(key, base))]
    if draw(rarely):
        argv += ["--frobnicate", "1"]
    entries = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    if entries:
        lines = [f"{key} = {draw(_flag_values(key, base))}" for key in entries]
        if draw(rarely):
            lines.append("not a key value line")
        cfg = base / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(cfg)]
    return argv


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_properties")


@settings(max_examples=1000)
@given(data=st.data())
def test_every_input_exits_with_a_code_and_one_line(cli_dir, data):
    argv = data.draw(cli_runs(cli_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    event(f"exit {rc}")
    assert rc in (0, 1, 2)
    if rc:
        assert len(lines) == 1
    else:
        assert len(lines) <= 1  # at most the note on flags the run does not read
        assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE)


@settings(max_examples=200)
@given(data=st.data())
def test_metrology_with_a_drawn_tau_exits_with_a_code_and_one_line(cli_dir, data):
    # the table-wide property test seldom reaches a metrology run that gets
    # past validation with --tau set; this one always builds such a run
    argv = ["metrology", "--j", data.draw(st.sampled_from(("1e-3", "0.01", "0.3"))),
            data.draw(st.sampled_from(("--gamma-par", "--gamma-perp"))),
            data.draw(st.sampled_from(("0.01", "0.1", "10"))),
            "--tau", data.draw(_flag_values("tau", cli_dir) | st.floats(0.01, 1e6).map(repr))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    event(f"exit {rc}")
    assert rc in (0, 1, 2)
    assert len(lines) == (1 if rc else 0)
    assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE)


def test_only_the_cli_writes_artifacts():
    # the numerics modules return values; cli.py formats and writes every
    # CSV and JSON artifact
    src = Path(oatsqueeze.__file__).parent
    for name in ("core", "analytic", "inhomogeneous", "oracle", "verify"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "json" not in [alias.name for alias in node.names], name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "json", name
            elif isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert called != "open", name


def test_verify_has_no_closed_forms_of_its_own():
    # closed forms live in analytic and inhomogeneous: verify checks the
    # shipped kernels against the oracle, not a private copy of them
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"}
    assert not called & {"cos", "sin", "prod"}
