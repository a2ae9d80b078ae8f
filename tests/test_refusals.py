"""Refusals and branches that no other test reaches, one case each.

A library case calls a public function and expects one exception type and
its one-line message; a CLI case runs ``cli.main`` and expects exit code 1
and the one line on stderr.  Each case fails if its refusal is deleted.
"""

import itertools
import math

import numpy as np
import pytest

from oatsqueeze import analytic, inhomogeneous, oracle, verify
from oatsqueeze.cli import main
from oatsqueeze.core import (
    DECOHERENCE_DOMINATED,
    MIXED,
    VERIFY_SUITES,
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    ProtocolParams,
    ResourceError,
    ValidationError,
    validate,
)

_SPEC = dict(theta0=0.05, kappa=0.1)

LIBRARY = {
    "optimal_time_pure_zero_coupling": (
        lambda: analytic.optimal_time_pure(10, 1.0, 0.0),
        DomainError, "coupling > 0 required for a finite optimal time"),
    "optimize_scalar_sense": (
        lambda: analytic.optimize_scalar(math.exp, analytic.OptimizerConfig((0.1, 1.0)), "mean"),
        ValidationError, "sense must be 'min' or 'max'"),
    "squeezing_report_zero_coupling": (
        lambda: analytic.squeezing_report(10, 1.0, DecoherenceRates(0.01, 0.01), 0.0),
        DomainError, "coupling > 0 required for a squeezing optimum"),
    "xi2_after_dephasing_xi2_0": (
        lambda: analytic.xi2_after_dephasing(0.0, 1.0, 0.5),
        DomainError, "xi2_0 > 0 required"),
    "xi2_after_dephasing_exact_survival": (
        lambda: analytic.xi2_after_dephasing_exact(1.0, 1.0, 1.5),
        DomainError, "survival amplitude must lie in [0, 1]"),
    "xi2_after_dephasing_exact_polarization": (
        lambda: analytic.xi2_after_dephasing_exact(1.0, 0.0, 0.5),
        DomainError, "polarization must lie in (0, 1]"),
    "coupling_matrix_not_square": (
        lambda: inhomogeneous.CouplingMatrix(np.zeros(3)),
        ValidationError, "couplings must be a square matrix"),
    "disorder_spec_alpha": (
        lambda: inhomogeneous.DisorderSpec(theta0=0.05, alpha=0.0),
        ValidationError, "alpha > 0"),
    "quadrature_components_one_spin": (
        lambda: inhomogeneous.quadrature_components(np.zeros((1, 1)), 1.0, 0.0),
        ValidationError, "n_spins >= 2 for pair couplings"),
    "sample_couplings_one_spin": (
        lambda: inhomogeneous.sample_couplings(inhomogeneous.DisorderSpec(**_SPEC), 1, 0),
        ValidationError, "n_spins >= 2 for pair couplings"),
    "monte_carlo_one_spin": (
        lambda: inhomogeneous.monte_carlo_mean_xi2(inhomogeneous.DisorderSpec(**_SPEC),
                                                   1, 1.0, 0.0),
        ValidationError, "n_spins >= 2 for pair couplings"),
    "bool_spin_count": (
        lambda: validate(EnsembleParams(True), DecoherenceRates(), ProtocolParams(1.0, 1.0)),
        ValidationError, "n_spins an integer >= 1, not True"),
    "float_spin_count": (
        lambda: validate(EnsembleParams(5.0), DecoherenceRates(), ProtocolParams(1.0, 1.0)),
        ValidationError, "n_spins an integer >= 1, not 5.0"),
    "xi2_without_z_polarization": (
        lambda: oracle.CollectiveMoments(0.0, 0.0, 0.0, 1.0, 1.0, 0.0).xi2(0.0),
        DomainError, "vanishing total z polarization"),
    "steps_zero_dt": (
        lambda: oracle.IntegratorConfig(dt=0.0, t_final=1.0).steps(),
        ValidationError, "0 < dt <= t_final"),
    "steps_infinite_t_final": (
        lambda: oracle.IntegratorConfig(dt=1.0, t_final=math.inf).steps(),
        ValidationError, "t_final / dt finite, not inf"),
    "steps_infinite_dt_and_t_final": (
        lambda: oracle.IntegratorConfig(dt=math.inf, t_final=math.inf).steps(),
        ValidationError, "t_final / dt finite, not nan"),
    "steps_beyond_the_step_cap": (
        lambda: oracle.IntegratorConfig(dt=1e-300, t_final=1.0).steps(),
        ResourceError, "t_final / dt asks for 1e+300 RK4 steps, above STEP_CAP = 10000000; "
                       "dt = 1e-07 would pass"),
    "run_suite_unknown_name": (
        lambda: verify.run_suite("everything"),
        ValueError, f"unknown verification suite 'everything'; choose from {VERIFY_SUITES}"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_refusal_raises_its_one_line_reason(case):
    call, kind, message = LIBRARY[case]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


_SQUEEZE = ["squeeze-curve", "--j", "1e-3", "--sweep"]

CLI = {
    "sweep_fields": (_SQUEEZE + ["t:1:2"], "--sweep expects param:lo:hi:points:lin|log"),
    "log_sweep_from_zero": (_SQUEEZE + ["t:0:1:5:log"], "log sweep requires lo > 0"),
    "sweep_scale": (_SQUEEZE + ["t:0.1:1:5:cubic"], "sweep scale must be lin or log"),
    "squeeze_curve_sweep_name": (_SQUEEZE + ["theta_big:0.1:1:5:lin"],
                                 "squeeze-curve sweeps over t"),
    "squeeze_curve_without_coupling": (["squeeze-curve", "--j", "0"],
                                       "coupling > 0 required (--j)"),
    "squeezing_optimum_without_coupling": (
        ["optimal-point", "--objective", "squeezing", "--j", "0"],
        "coupling > 0 required (--j)"),
    "metrology_optimum_without_rates": (
        ["optimal-point", "--objective", "metrology", "--j", "1e-3"],
        "gamma_par + gamma_perp > 0 required for metrology"),
    "metrology_optimum_without_coupling": (
        ["optimal-point", "--objective", "metrology", "--gamma-par", "0.01"],
        "coupling > 0 required (--j)"),
    "metrology_sweep_without_rates": (["metrology", "--j", "1e-3"],
                                      "gamma_par + gamma_perp > 0 required for metrology"),
    "metrology_sweep_without_coupling": (["metrology", "--gamma-par", "0.01"],
                                         "coupling > 0 required (--j)"),
    "metrology_sweep_name": (["metrology", "--sweep", "n:1:2:5:lin"],
                             "metrology sweeps over theta_big or t"),
    "metrology_infinite_probe": (
        ["metrology", "--j", "1e-5", "--gamma-par", "0.02", "--b-y", "inf"],
        "signal_field finite"),
}


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_refusal_exits_1_with_its_one_line_reason(case, capsys):
    argv, message = CLI[case]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"validation error: {message}\n")


def test_minimum_angle_wraps_into_the_half_period():
    # 2 theta = atan2(-1/2, -0) = -pi/2 is brought into [0, pi) as 3 pi/4
    theta, value = oracle.CollectiveMoments(0.0, 0.0, 1.0, 1.0, 1.0, 1.0) \
        .minimize_second_moment()
    assert (theta, value) == (-math.pi / 4.0 + math.pi, 0.5)


def test_optima_with_rates_stay_under_their_oversqueezing_bounds():
    # at an interior squeezing optimum O/D = (2 - 3 Theta)/(Theta + 4) <= 1/2, and
    # at a sensitivity optimum the correction is below (5/2 - 3 Theta)/(7/2 + Theta)
    # < 5/7 (analytic._regime), so no optimum with rates reads oversqueezing_dominated
    ratios, corrections, flags = [], [], set()
    for n, p, j, gamma_par in itertools.product((10, 1000), (0.3, 1.0), (1e-4, 1e-2, 1e-1),
                                                (0.01, 0.1)):
        rates = DecoherenceRates(gamma_par, 0.01)
        theta, _, flag = analytic.optimal_theta_squeezing(n, p, rates, j)
        _, deco, over = analytic._theta_terms_curve(n, p, rates, j)(theta)
        ratios.append(over / deco)
        flags.add(flag)
        theta, _, flag = analytic.max_sensitivity(n, p, rates, j)
        corrections.append(analytic._correction_curve(n, p, rates, j)(theta))
        flags.add(flag)
    assert max(ratios) <= 0.5
    assert max(corrections) < 5.0 / 7.0
    assert flags == {DECOHERENCE_DOMINATED, MIXED}
