"""Golden CLI outputs: the exact bytes of each subcommand for a short argv.

The files under ``tests/golden`` hold what the CLI printed for these
arguments.  Every number is written with 17 significant digits, so a
change that moves any result by one ulp fails here.  Rewrite a file only
for an intended change of output, and say why in the change log.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oatsqueeze
from oatsqueeze.cli import main

GOLDEN = Path(__file__).parent / "golden"

_CLOSED_FORM = ["--p", "0.9", "--gamma-par", "0.02", "--gamma-perp", "0.03"]

CASES = {
    "squeeze_curve.csv": ["squeeze-curve", "--n", "100", "--j", "1e-3", *_CLOSED_FORM,
                          "--sweep", "t:0.1:10:5:log"],
    "squeeze_curve.json": ["squeeze-curve", "--n", "100", "--j", "1e-3", *_CLOSED_FORM,
                           "--sweep", "t:0.1:10:5:log", "--format", "json"],
    "metrology.csv": ["metrology", "--n", "50", "--j", "1e-5", *_CLOSED_FORM,
                      "--b-y", "0.01", "--tau", "40", "--sweep", "theta_big:0.05:3:5:lin"],
    "metrology.json": ["metrology", "--n", "50", "--j", "1e-5", *_CLOSED_FORM,
                       "--b-y", "0.01", "--tau", "40", "--sweep", "theta_big:0.05:3:5:lin",
                       "--format", "json"],
    "optimal_point_squeezing.json": ["optimal-point", "--n", "100", "--j", "1e-5",
                                     *_CLOSED_FORM],
    "optimal_point_squeezing_no_rates.json": ["optimal-point", "--n", "100", "--p", "0.9",
                                              "--j", "1e-3"],
    "optimal_point_metrology.json": ["optimal-point", "--objective", "metrology",
                                     "--n", "50", "--j", "1e-5", *_CLOSED_FORM],
    "inhomo_mc.summary.json": ["inhomo-mc", "--n", "12", "--samples", "40", "--seed", "3",
                               "--kappa", "0.2"],
    "verify_constants.json": ["verify", "constants"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_inhomo_mc_files_match_golden(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(CASES["inhomo_mc.summary.json"] + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == \
        (GOLDEN / "inhomo_mc.csv").read_text(encoding="utf-8")
    assert (tmp_path / "mc.csv.summary.json").read_text(encoding="utf-8") == \
        (GOLDEN / "inhomo_mc.summary.json").read_text(encoding="utf-8")


def test_inhomo_mc_fresh_process_matches_golden(tmp_path):
    # the CLI in a new interpreter, whose Monte Carlo may start pool workers:
    # it exits within the timeout, so no worker holds up interpreter exit, and
    # every byte it writes matches
    out = tmp_path / "mc.csv"
    src = str(Path(oatsqueeze.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    proc = subprocess.run(
        [sys.executable, "-m", "oatsqueeze", *CASES["inhomo_mc.summary.json"], "--out", str(out)],
        env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr
    assert out.read_bytes() == (GOLDEN / "inhomo_mc.csv").read_bytes()
    assert (tmp_path / "mc.csv.summary.json").read_bytes() == \
        (GOLDEN / "inhomo_mc.summary.json").read_bytes()
