"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.

Two criteria were first stated as claims that the exact numerics falsify;
they now assert what holds (details in README and the in-test comments):

* criterion 2 (N part) was quoted as N^(-4/3).  The minimum over t of
  P^-1 [P^-2/(16 N^2 J^2 t^2) + (32/3) N^2 J^4 t^4] is
  (9/32)^(1/3) P^(-7/3) N^(-2/3), so the test asserts a slope of -2/3,
  the Kitagawa-Ueda exponent;
* criterion 6 was quoted as a strictly decreasing raw trace-distance
  factorization gap at fixed N*J*T.  The raw gap rises toward saturation
  with N, already at N = 2 -> 3 under an exact matrix exponential
  (``test_factorization_gap_matches_exact_exponential``), so the test
  asserts a strictly decreasing per-spin gap and still reports the raw one.
"""

import json
import math
import time

import numpy as np
import pytest

from oatsqueeze import analytic
from oatsqueeze.cli import main
from oatsqueeze.core import DecoherenceRates, EnsembleParams, ProtocolParams
from oatsqueeze.inhomogeneous import (
    DisorderSpec,
    mean_xi2_analytic,
    monte_carlo_mean_xi2,
)
from oatsqueeze.oracle import (
    IntegratorConfig,
    build_initial_state,
    evolve,
    factorization_gap_table,
)
from oatsqueeze.verify import (
    suite_constants,
    suite_dephasing,
    suite_uniform_coupling,
    suite_variable_coupling,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status}  {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_01_theta_optima():
    start = time.perf_counter()
    cfg = analytic.OptimizerConfig(bracket=(0.01, 10.0))
    theta_min, _ = analytic.optimize_scalar(
        lambda t: math.exp(3.0 * t) / (t * t), cfg, "min")
    theta_max, _ = analytic.optimize_scalar(
        lambda t: t ** 1.5 * math.exp(-3.0 * t) * (1.0 - math.exp(-t)), cfg, "max")
    elapsed = time.perf_counter() - start
    err_min = abs(theta_min - 2.0 / 3.0)
    err_max = abs(theta_max - 0.727)
    ok = err_min <= 1e-8 and err_max <= 1e-3 and elapsed < 1.0
    assert report(1, "theta optima", ok,
                  f"theta_min err={err_min:.2e} theta_max err={err_max:.2e} "
                  f"elapsed={elapsed:.2f}s")


def test_criterion_02_scaling_law_in_p():
    start = time.perf_counter()
    ps = np.linspace(0.2, 1.0, 9)
    vals = [analytic.optimal_time_pure(1000, p, 1.0)[1] for p in ps]
    slope = float(np.polyfit(np.log(ps), np.log(vals), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope + 7.0 / 3.0) <= 0.02 * 7.0 / 3.0 and elapsed < 1.0
    assert report(2, "P scaling -7/3", ok, f"slope={slope:.6f} elapsed={elapsed:.2f}s")


def test_criterion_02_scaling_law_in_n():
    # Quoted as N^(-4/3).  The stationary point of
    # P^-1 [P^-2/(16 N^2 J^2 t^2) + (32/3) N^2 J^4 t^4] sits at
    # t* = (3/1024)^{1/6} P^{-1/3} / (J N^{2/3}), where the two terms scale
    # as N^{-2/3} each, so the minimum is (9/32)^{1/3} P^{-7/3} N^{-2/3}.
    # An N^{-4/3} law would need an N-independent over-squeezing term,
    # which contradicts the formula.  Asserted: slope -2/3 +- 2%.
    start = time.perf_counter()
    ns = [int(round(10.0 ** e)) for e in (2.0, 2.5, 3.0, 3.5, 4.0)]
    vals = [analytic.optimal_time_pure(n, 1.0, 1.0)[1] for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope + 2.0 / 3.0) <= 0.02 * 2.0 / 3.0 and elapsed < 1.0
    report(2, "N scaling -2/3", ok, f"slope={slope:.6f} elapsed={elapsed:.2f}s")
    assert ok, f"measured log-log slope {slope:.6f}, expected -2/3 +- 2% in < 1 s"


def test_criterion_03_uniform_coupling_oracle_equivalence():
    start = time.perf_counter()
    rep = suite_uniform_coupling(n=10)
    elapsed = time.perf_counter() - start
    worst = max(c["value"] for c in rep["checks"])
    ok = rep["passed"] and elapsed < 60.0
    assert report(3, "uniform-coupling closed form vs oracle", ok,
                  f"max rel err={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_04_variable_coupling_oracle_equivalence():
    start = time.perf_counter()
    rep = suite_variable_coupling(n=6, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(c["value"] for c in rep["checks"])
    ok = rep["passed"] and elapsed < 120.0
    assert report(4, "variable-coupling closed forms vs oracle", ok,
                  f"max err={worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_05_lindblad_properties():
    start = time.perf_counter()
    problems = []

    # longitudinal decay at N = 8 against the closed-form rate
    params = EnsembleParams(8, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.0, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=0.01, t_final=2.0, checkpoint_every=50)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                  check_positivity=True)
    decay_err = abs(traj.moments[-1].mean_z / 8.0 - math.exp(-0.2)) / math.exp(-0.2)
    if decay_err > 1e-8:
        problems.append(f"decay err {decay_err:.2e}")

    # trace / hermiticity / positivity along a twisting + relaxation run
    params = EnsembleParams(6, 0.9)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0)
    finals = []
    for dt in (0.004, 0.002):
        cfg = IntegratorConfig(dt=dt, t_final=2.0, checkpoint_every=100)
        traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                      check_positivity=True)
        finals.append(traj)
    # the worst margins over the run's checkpoints
    trace_drift = finals[1].max_trace_defect
    herm = finals[1].max_hermiticity_defect
    min_eig = finals[1].min_eigenvalue
    if trace_drift > 1e-12:
        problems.append(f"trace drift {trace_drift:.2e}")
    if herm > 1e-12:
        problems.append(f"hermiticity {herm:.2e}")
    if min_eig < -1e-10:
        problems.append(f"min eigenvalue {min_eig:.2e}")

    a, b = finals[0].moments[-1], finals[1].moments[-1]
    dt_change = max(abs(a.mean_z - b.mean_z) / abs(b.mean_z),
                    abs(a.yy2 - b.yy2) / abs(b.yy2))
    if dt_change > 1e-8:
        problems.append(f"dt halving change {dt_change:.2e}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 300.0
    assert report(5, "Lindblad integrator properties", ok,
                  f"decay err={decay_err:.2e} trace={trace_drift:.2e} "
                  f"herm={herm:.2e} min_eig={min_eig:.2e} dt={dt_change:.2e} "
                  f"elapsed={elapsed:.1f}s{'; ' + '; '.join(problems) if problems else ''}")


def test_criterion_06_factorization_gap_monotone():
    # Quoted as a strictly decreasing raw trace-distance gap over N = 2..8
    # at fixed N*J*T and Gs*T.  The raw gap rises toward saturation
    # (0.0232, 0.0296, 0.0321, ... at N = 2, 3, 4), and an exact matrix
    # exponential of the Liouvillian reproduces those values, so the claim
    # fails at N = 2 -> 3 for the quantity as defined.  Asserted: the
    # per-spin gap decreases strictly; the raw table is still reported.
    start = time.perf_counter()
    ns = list(range(2, 9))
    table = factorization_gap_table(ns, njt=0.2, gamma_sum_t=0.2, dt=1e-2)
    raw = [g for _, g in table]
    per_spin = [g / n for n, g in table]
    raw_dec = all(a > b for a, b in zip(raw, raw[1:]))
    spin_dec = all(a > b for a, b in zip(per_spin, per_spin[1:]))
    elapsed = time.perf_counter() - start
    detail = (f"raw={['%.3e' % g for g in raw]} (decreasing={raw_dec}) "
              f"per-spin decreasing={spin_dec} elapsed={elapsed:.1f}s")
    ok = spin_dec and elapsed < 600.0
    report(6, "per-spin factorization gap strictly decreasing", ok, detail)
    assert ok, (
        f"per-spin gap at fixed NJT=0.2, GsT=0.2: {per_spin} "
        f"(strictly decreasing={spin_dec}, elapsed={elapsed:.1f}s); "
        f"raw gap {raw} (decreasing={raw_dec})"
    )


def test_criterion_07_dephasing_channel():
    start = time.perf_counter()
    rep = suite_dephasing(n=6)
    elapsed = time.perf_counter() - start
    exact_errs = [c["value"] for c in rep["checks"] if c["name"].startswith("exact_identity")]
    ok = rep["passed"] and max(exact_errs) <= 1e-10 and elapsed < 60.0
    assert report(7, "dephasing channel vs closed form", ok,
                  f"exact-identity err={max(exact_errs):.2e} "
                  f"quoted-form deviation at P=1: {rep['quoted_form_deviation_p1']:.3e}, "
                  f"at P=0.7: {rep['quoted_form_deviation_p0.7']:.3e} "
                  f"(known inconsistency, reported not asserted) "
                  f"elapsed={elapsed:.1f}s")


def test_criterion_08_monte_carlo_vs_analytic():
    start = time.perf_counter()
    theta = 8.0 * 0.05 + math.pi / 2.0
    within = 0
    zs = []
    configs = [(kappa, seed) for seed in range(7) for kappa in (0.05, 0.1, 0.2)][:20]
    for kappa, seed in configs:
        spec = DisorderSpec(theta0=0.05, kappa=kappa, n_samples=10000, master_seed=seed)
        mc = monte_carlo_mean_xi2(spec, 20, 1.0, theta)
        an = mean_xi2_analytic(spec, 20, theta)
        z = (mc.mean - an) / mc.stderr
        zs.append(z)
        if abs(z) <= 3.0:
            within += 1
    elapsed = time.perf_counter() - start
    ok = within >= 18 and elapsed < 300.0
    assert report(8, "Monte Carlo vs analytic disorder average", ok,
                  f"{within}/20 within 3 sigma; |z|max={max(abs(z) for z in zs):.2f} "
                  f"elapsed={elapsed:.1f}s")


def test_criterion_09_constant_adjudication():
    start = time.perf_counter()
    rep = suite_constants()
    elapsed = time.perf_counter() - start
    table = rep["constants"]
    lines = ", ".join(
        f"{k}: derived={v['derived']:.6g} ref={v['reference']:.6g} "
        f"ratio={v['ratio_derived_over_reference']:.4g}"
        for k, v in sorted(table.items()))
    ok = rep["passed"]
    assert report(9, "constant adjudication", ok, f"{lines} elapsed={elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    runs = {
        "squeeze-curve": ["squeeze-curve", "--n", "100", "--p", "1", "--j", "1e-3",
                          "--gamma-par", "0.02", "--gamma-perp", "0.03",
                          "--sweep", "t:0.1:10:25:log"],
        "optimal-point": ["optimal-point", "--objective", "metrology", "--n", "50",
                          "--p", "1", "--j", "1e-5", "--gamma-par", "0.02",
                          "--gamma-perp", "0.03"],
        "metrology": ["metrology", "--n", "50", "--p", "1", "--j", "1e-5",
                      "--gamma-par", "0.02", "--gamma-perp", "0.03",
                      "--b-y", "0.01", "--sweep", "theta_big:0.05:3:25:lin"],
        "verify": ["verify", "constants", "--seed", "3"],
        "inhomo-mc": ["inhomo-mc", "--n", "10", "--theta0", "0.05",
                      "--kappa", "0.1", "--samples", "200", "--seed", "11"],
    }
    identical = {}
    for name, args in runs.items():
        outputs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}-{tag}.out"
            rc = main(args + ["--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            blob = out.read_bytes()
            summary = out.with_suffix(out.suffix + ".summary.json")
            if summary.exists():
                blob += summary.read_bytes()
            outputs.append(blob)
        identical[name] = outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    ok = all(identical.values())
    assert report(10, "CLI determinism", ok,
                  f"{identical} elapsed={elapsed:.1f}s")
