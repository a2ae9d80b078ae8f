import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oatsqueeze import analytic, inhomogeneous
from oatsqueeze.cli import FLAGS, SUBCOMMANDS, main


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
    ["inhomo-mc", "--n", "8", "--samples", "10", "--kappa", "1e300", "--theta0", "0.01"],
])
def test_arithmetic_faults_exit_2(argv, capsys):
    # regression: OverflowError and ZeroDivisionError ended in a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("numerical error:")


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
    # regression: tau = nan passed the tau >= t check and wrote NaN rows
    assert main(argv + ["--tau", "nan"]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


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
