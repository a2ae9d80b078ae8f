import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatsqueeze import analytic
from oatsqueeze.core import (
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
    ProtocolParams,
    ValidationError,
)
from oatsqueeze.oracle import evolve_variable_coupling


def uniform_couplings(n, theta0):
    mat = np.full((n, n), theta0)
    np.fill_diagonal(mat, 0.0)
    return mat


# ---------------------------------------------------------------------------
# effective polarization
# ---------------------------------------------------------------------------

def test_effective_polarization_zero_time():
    assert analytic.effective_polarization(0.8, DecoherenceRates(0.3, 0.9), 0.0) == 0.8


def test_effective_polarization_unit_exponent():
    got = analytic.effective_polarization(1.0, DecoherenceRates(0.25, 0.25), 1.0)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-14)


# ---------------------------------------------------------------------------
# exact uniform-coupling quadratures
# ---------------------------------------------------------------------------

def test_xi2_theta_coherent_state_baseline():
    for theta in (0.0, 0.3, 1.5):
        assert analytic.xi2_theta_finite_polarization(10, 1.0, 0.0, theta) == pytest.approx(1.0)
        assert analytic.xi2_theta_finite_polarization(10, 0.5, 0.0, theta) == pytest.approx(2.0)


def test_xi2_theta_matches_oracle():
    mom = evolve_variable_coupling(uniform_couplings(6, 0.05), 1.0)
    want = mom.xi2(0.2)
    got = analytic.xi2_theta_finite_polarization(6, 1.0, 0.05, 0.2)
    assert got == pytest.approx(want, rel=1e-10)


def test_xi2_theta_domain_error():
    with pytest.raises(DomainError):
        analytic.xi2_theta_finite_polarization(6, 1.0, 0.5, 0.1)  # cos(4*0.5) < 0


def test_xi2_theta_periodicity():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(0.0, math.pi, 25):
        a = analytic.xi2_theta_finite_polarization(7, 0.8, 0.04, theta)
        # adding float pi costs one rounding of the angle, so demand ulp-level
        # agreement rather than bit equality
        b = analytic.xi2_theta_finite_polarization(7, 0.8, 0.04, theta + math.pi)
        assert b == pytest.approx(a, rel=4e-15)
        # identical canonical angles give bit-identical results
        assert analytic.xi2_theta_finite_polarization(7, 0.8, 0.04, theta - math.pi) \
            == analytic.xi2_theta_finite_polarization(7, 0.8, 0.04, theta - math.pi)


def test_xi2_theta_rejects_bad_polarization():
    with pytest.raises(ValidationError):
        analytic.xi2_theta_finite_polarization(6, 0.0, 0.05, 0.2)
    with pytest.raises(ValidationError):
        analytic.xi2_theta_finite_polarization(1, 1.0, 0.05, 0.2)


@pytest.mark.parametrize("theta", (math.inf, -math.inf, math.nan))
def test_xi2_theta_refuses_a_non_finite_angle(theta):
    with pytest.raises(ValidationError, match="quadrature angle finite"):
        analytic.xi2_theta_finite_polarization(4, 1.0, 0.05, theta)


def test_xi2_min_unsqueezed_limit():
    assert analytic.xi2_min_finite_polarization(37, 1.0, 0.0) == (1.0, 0.0)
    xi2, theta = analytic.xi2_min_finite_polarization(37, 0.4, 0.0)
    assert xi2 == pytest.approx(2.5) and theta == 0.0


def test_xi2_min_matches_dense_angle_scan():
    xi2, theta_min = analytic.xi2_min_finite_polarization(6, 1.0, 0.05)
    grid = np.linspace(0.0, math.pi, 200001)
    vals = [analytic.xi2_theta_finite_polarization(6, 1.0, 0.05, t) for t in grid]
    assert xi2 == pytest.approx(min(vals), rel=1e-9)
    assert theta_min == pytest.approx(grid[int(np.argmin(vals))], abs=2e-4)


def test_xi2_min_is_global_minimum_property():
    rng = np.random.default_rng(11)
    xi2, _ = analytic.xi2_min_finite_polarization(9, 0.7, 0.03)
    for theta in rng.uniform(0.0, math.pi, 1000):
        assert xi2 <= analytic.xi2_theta_finite_polarization(9, 0.7, 0.03, theta) + 1e-12


def test_exact_vs_small_angle_minimum_at_large_n():
    # The small-angle form underestimates the exact optimum even at N=1000
    # (its own minimum sits ~70% below the exact value there); pin the
    # measured ratio window rather than asserting close agreement.
    t_star, xi2_approx = analytic.optimal_time_pure(1000, 1.0, 1.0)
    xi2_exact, _ = analytic.xi2_min_finite_polarization(1000, 1.0, t_star)
    assert 1.0 < xi2_exact / xi2_approx < 2.5


# ---------------------------------------------------------------------------
# small-angle approximations
# ---------------------------------------------------------------------------

def test_xi2_min_approx_hand_value():
    # N=100, P=1, J*t = 1e-2: 1/16 + (32/3)*1e-4
    want = 1.0 / 16.0 + (32.0 / 3.0) * 1e-4
    assert analytic.xi2_min_approx(100, 1.0, 1.0, 1e-2) == pytest.approx(want, rel=1e-13)
    assert analytic.xi2_min_approx(100, 1.0, 0.5, 2e-2) == pytest.approx(want, rel=1e-13)


def test_xi2_min_approx_monotone_beyond_optimum():
    t_star, _ = analytic.optimal_time_pure(100, 1.0, 1.0)
    ts = np.linspace(1.5 * t_star, 20 * t_star, 40)
    vals = [analytic.xi2_min_approx(100, 1.0, 1.0, t) for t in ts]
    assert all(np.diff(vals) > 0.0)


def test_xi2_min_approx_zero_time_domain_error():
    with pytest.raises(DomainError):
        analytic.xi2_min_approx(100, 1.0, 1.0, 0.0)


def test_optimal_time_pure_closed_form_and_stationarity():
    for n, p, j in [(100, 1.0, 1.0), (1000, 1.0, 1.0), (1000, 0.5, 2.0)]:
        t_star, xi2_star = analytic.optimal_time_pure(n, p, j)
        want = (3.0 / 1024.0) ** (1.0 / 6.0) * p ** (-1.0 / 3.0) / (j * n ** (2.0 / 3.0))
        assert t_star == pytest.approx(want, rel=1e-14)
        # stationarity: central finite difference, step 1e-6 * t_star
        h = 1e-6 * t_star
        grad = (analytic.xi2_min_approx(n, p, j, t_star + h)
                - analytic.xi2_min_approx(n, p, j, t_star - h)) / (2.0 * h)
        assert abs(grad) * t_star / xi2_star < 1e-6
        # cross-check against 1-D minimization
        cfg = analytic.OptimizerConfig(bracket=(t_star / 20, t_star * 20), abs_tol=1e-14)
        t_num, _ = analytic.optimize_scalar(
            lambda t: analytic.xi2_min_approx(n, p, j, t), cfg, "min")
        assert t_num == pytest.approx(t_star, rel=1e-7)


def test_optimal_time_scaling_laws():
    t1, x1 = analytic.optimal_time_pure(1000, 1.0, 1.0)
    t8, _ = analytic.optimal_time_pure(8000, 1.0, 1.0)
    # t* ~ N^{-2/3}: doubling N three times quarters the optimal time
    assert t8 / t1 == pytest.approx(0.25, rel=1e-12)
    _, x_low = analytic.optimal_time_pure(1000, 1.0 / 8.0, 1.0)
    assert x_low / x1 == pytest.approx(8.0 ** (7.0 / 3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# squeezing under decoherence
# ---------------------------------------------------------------------------

def test_xi2_min_decoherence_rate_free_limit_is_exact():
    rates = DecoherenceRates(0.0, 0.0)
    got = analytic.xi2_min_decoherence(100, 0.9, rates, 1e-3, 2.0)
    assert got == analytic.xi2_min_approx(100, 0.9, 1e-3, 2.0)


def test_dual_form_identity_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(10000):
        n = int(rng.integers(2, 1000))
        p = float(rng.uniform(0.1, 1.0))
        gs = float(rng.uniform(1e-3, 1.0))
        split = float(rng.uniform(0.0, 1.0))
        rates = DecoherenceRates(gs * split, gs * (1.0 - split))
        j = float(rng.uniform(1e-4, 1.0))
        theta = float(rng.uniform(0.01, 5.0))
        t = theta / (2.0 * rates.gamma_sum)
        a = analytic.xi2_min_decoherence(n, p, rates, j, t)
        b = analytic.xi2_min_decoherence_theta(n, p, rates, j, theta)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_xi2_min_decoherence_zero_time_rejected():
    with pytest.raises(DomainError):
        analytic.xi2_min_decoherence(100, 1.0, DecoherenceRates(0.01, 0.0), 1e-3, 0.0)
    with pytest.raises(DomainError):
        analytic.xi2_min_decoherence_theta(100, 1.0, DecoherenceRates(), 1e-3, 0.5)


def test_small_rate_limits_collapse():
    # approach gamma_sum -> 0 from 1e-3 down to 1e-9
    by, t, p = 0.01, 2.0, 0.8
    for k in range(3, 10):
        gs = 10.0 ** -k
        rates = DecoherenceRates(gs / 2.0, gs / 2.0)
        assert analytic.effective_field(by, rates, t) == pytest.approx(by * t, rel=4.0 * gs * t)
        assert analytic.effective_polarization(p, rates, t) == pytest.approx(p, rel=4.0 * gs * t)
        got = analytic.xi2_min_decoherence(100, p, rates, 1e-3, t)
        want = analytic.xi2_min_approx(100, p, 1e-3, t)
        assert got == pytest.approx(want, rel=20.0 * gs * t)


# ---------------------------------------------------------------------------
# scalar optimizer
# ---------------------------------------------------------------------------

def test_optimizer_finds_decoherence_optimum():
    cfg = analytic.OptimizerConfig(bracket=(0.01, 10.0))
    x, _ = analytic.optimize_scalar(lambda t: math.exp(3.0 * t) / t ** 2, cfg, "min")
    assert abs(x - 2.0 / 3.0) <= 1e-8


def test_optimizer_finds_sensitivity_optimum():
    cfg = analytic.OptimizerConfig(bracket=(0.01, 10.0))
    x, _ = analytic.optimize_scalar(
        lambda t: t ** 1.5 * math.exp(-3.0 * t) * (1.0 - math.exp(-t)), cfg, "max")
    assert abs(x - 0.727) <= 1e-3


def test_optimizer_quadratic_exact():
    cfg = analytic.OptimizerConfig(bracket=(0.01, 10.0))
    x, fx = analytic.optimize_scalar(lambda t: (t - 1.0) ** 2, cfg, "min")
    assert abs(x - 1.0) <= 1e-10
    assert fx <= 1e-20


def test_optimizer_deterministic():
    cfg = analytic.OptimizerConfig(bracket=(0.05, 4.0))
    runs = {analytic.optimize_scalar(lambda t: math.exp(3 * t) / t ** 2, cfg, "min")
            for _ in range(3)}
    assert len(runs) == 1


def test_optimizer_rejects_an_optimum_at_the_bracket_edge():
    # regression: a monotone objective returned the bracket's end as its optimum
    cfg = analytic.OptimizerConfig(bracket=(0.1, 2.0))
    with pytest.raises(NumericalError, match="edge"):
        analytic.optimize_scalar(lambda t: t, cfg, "min")
    with pytest.raises(NumericalError, match="edge"):
        analytic.optimize_scalar(lambda t: t, cfg, "max")


def test_optimizer_rejects_non_finite():
    cfg = analytic.OptimizerConfig(bracket=(0.1, 2.0))
    with pytest.raises(NumericalError):
        analytic.optimize_scalar(lambda t: math.inf if t > 1.0 else t, cfg, "min")


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        analytic.OptimizerConfig(bracket=(1.0, 0.5))
    with pytest.raises(ValidationError):
        analytic.OptimizerConfig(bracket=(0.1, 1.0), abs_tol=0.0)


# ---------------------------------------------------------------------------
# metrology closed forms
# ---------------------------------------------------------------------------

def test_effective_field_series_limit_branch():
    rates = DecoherenceRates(0.0, 0.0)
    assert analytic.effective_field(0.3, rates, 2.0) == 0.6


def test_effective_field_saturation():
    rates = DecoherenceRates(0.2, 0.3)
    want = 0.01 / (2.0 * rates.gamma_sum)
    assert analytic.effective_field(0.01, rates, 1e4) == pytest.approx(want, rel=1e-12)


def test_effective_field_hand_value():
    rates = DecoherenceRates(0.25, 0.25)
    want = 0.01 * (1.0 - math.exp(-1.0))  # B/(2*0.5) * (1 - e^-1)
    assert analytic.effective_field(0.01, rates, 1.0) == pytest.approx(want, rel=1e-13)


def test_signal_to_noise_zero_field_and_linearity():
    params = EnsembleParams(100, 0.9)
    rates = DecoherenceRates(0.02, 0.03)
    base = ProtocolParams(coupling=1e-3, squeeze_time=2.0, signal_field=0.0, total_time=6.0)
    assert analytic.signal_to_noise(params, rates, base) == 0.0
    one = analytic.signal_to_noise(
        params, rates, ProtocolParams(1e-3, 2.0, signal_field=0.01, total_time=6.0))
    two = analytic.signal_to_noise(
        params, rates, ProtocolParams(1e-3, 2.0, signal_field=0.02, total_time=6.0))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_sensitivity_vanishes_at_origin_and_matches_snr_limit():
    rates = DecoherenceRates(0.02, 0.03)
    assert analytic.sensitivity(0.0, 80, 0.9, rates, 0.004) == 0.0
    for theta in (0.2, 0.7, 2.0):
        t = theta / (2.0 * rates.gamma_sum)
        proto = ProtocolParams(coupling=0.004, squeeze_time=t,
                               signal_field=1e-9, total_time=5.0 * t)
        snr = analytic.signal_to_noise(EnsembleParams(80, 0.9), rates, proto)
        lim = snr / (1e-9 * math.sqrt(5.0 * t))
        got = analytic.sensitivity(theta, 80, 0.9, rates, 0.004)
        assert got == pytest.approx(lim, rel=1e-10)


def test_sensitivity_peak_location_and_reference_ratio():
    # decoherence-dominated: denominator correction ~ 1e-10 here
    rates = DecoherenceRates(0.02, 0.03)
    theta, sens, flag = analytic.max_sensitivity(50, 1.0, rates, 1e-5)
    assert flag == "decoherence_dominated"
    assert abs(theta - 0.727) <= 1e-3
    pref = 2.0 ** 1.5 * 50 ** 2 * 1e-10 / rates.gamma_sum ** 2.5
    peak_coeff = sens / (50 ** 2 * 1e-10 / rates.gamma_sum ** 2.5)
    # quoted peak value 0.205 is twice the direct evaluation
    assert peak_coeff / 0.205 == pytest.approx(0.5, abs=0.01)
    assert pref > 0.0


def test_max_sensitivity_matches_dense_grid():
    rates = DecoherenceRates(0.02, 0.03)
    theta_star, sens_star, _ = analytic.max_sensitivity(30, 0.8, rates, 0.003)
    grid = np.linspace(1e-3, 10.0, 100001)
    vals = [analytic.sensitivity(t, 30, 0.8, rates, 0.003) for t in grid]
    assert sens_star == pytest.approx(max(vals), rel=1e-6)


def test_max_sensitivity_monotone_in_n():
    rates = DecoherenceRates(0.02, 0.03)
    best = [analytic.max_sensitivity(n, 1.0, rates, 1e-5)[1] for n in (10, 40, 160)]
    assert best[0] < best[1] < best[2]


# ---------------------------------------------------------------------------
# dephasing closed forms
# ---------------------------------------------------------------------------

def test_dephasing_quoted_form_values():
    assert analytic.xi2_after_dephasing(0.1, 1.0, 1.0) == pytest.approx(0.1)
    assert analytic.xi2_after_dephasing(0.1, 1.0, 0.0) == pytest.approx(1.0)
    want = 1.0 - 0.9 * math.exp(-2.0)
    assert analytic.xi2_after_dephasing(0.1, 1.0, math.exp(-1.0)) == pytest.approx(want, rel=1e-13)
    with pytest.raises(DomainError):
        analytic.xi2_after_dephasing(0.1, 1.0, 1.5)


def test_dephasing_exact_form_self_consistency():
    # s = 1 returns the input at every polarization (the quoted form does
    # not once P < 1)
    for p in (1.0, 0.6, 0.3):
        assert analytic.xi2_after_dephasing_exact(0.37, p, 1.0) == pytest.approx(0.37)
    assert analytic.xi2_after_dephasing_exact(0.37, 0.5, 0.0) == pytest.approx(2.0)
    assert analytic.xi2_after_dephasing(0.37, 0.5, 1.0) != pytest.approx(0.37)


def test_squeezing_report_bundles_the_optimum():
    rates = DecoherenceRates(0.015, 0.015)
    rep = analytic.squeezing_report(50, 1.0, rates, 1e-5)
    assert rep.regime_flag == "decoherence_dominated"
    assert rep.theta_star == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert 0.0 < rep.effective_polarization <= 1.0
    assert rep.xi2_min > 0.0
    assert rep.t_star == rep.theta_star / (2.0 * rates.gamma_sum)
    assert rep.effective_polarization == pytest.approx(math.exp(-2.0 * 0.03 * rep.t_star))
    pure = analytic.squeezing_report(100, 1.0, DecoherenceRates(), 1.0)
    assert pure.regime_flag == "oversqueezing_dominated"
    assert pure.theta_star is None
    assert pure.t_star == pytest.approx(analytic.optimal_time_pure(100, 1.0, 1.0)[0])


def test_derived_constants_structure():
    d = analytic.derived_constants()
    assert d["squeezing_prefactor"] == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)
    assert d["squeezing_oversqueezing_coeff"] == pytest.approx(32.0 / 243.0, rel=1e-12)
    assert d["squeezing_decoherence_coeff"] == pytest.approx(2.25 * math.exp(4.0 / 3.0), rel=1e-12)
    assert abs(d["theta_max"] - 0.727) < 1e-3


# ---------------------------------------------------------------------------
# curve builders: each closed form is written once, as a curve over its
# per-point argument, and the public scalar function is that curve at one point
# ---------------------------------------------------------------------------

def _outcome(f, *args):
    """A call's result as text that keeps every bit, or its refusal."""
    try:
        value = f(*args)
    except (ArithmeticError, ValueError, NumericalError) as exc:  # DomainError too
        return f"{type(exc).__name__}: {exc}"
    return value.hex() if isinstance(value, float) else repr(value)


# name -> (curve from the invariants (n, p, rates, j), the curve at point (x, y),
#          the public scalar function at (n, p, rates, j, x, y)); the reference
#          sensitivity and the correction term have no public function, so
#          their third entry builds the curve at the point, which the recorded
#          digests pin
_CURVES = {
    "xi2_theta_finite_polarization": (
        lambda n, p, rates, j: analytic._quadrature_curve(n, p, j),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic.xi2_theta_finite_polarization(n, p, j, x)),
    "xi2_min_decoherence": (
        lambda n, p, rates, j: analytic._decoherence_curve(n, p, rates, j),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic.xi2_min_decoherence(n, p, rates, j, x)),
    "xi2_min_approx": (
        lambda n, p, rates, j: analytic._decoherence_curve(n, p, DecoherenceRates(), j),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic.xi2_min_approx(n, p, j, x)),
    "xi2_min_decoherence_theta": (
        lambda n, p, rates, j: analytic._theta_curve(n, p, rates, j),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic.xi2_min_decoherence_theta(n, p, rates, j, x)),
    "sensitivity": (
        lambda n, p, rates, j: analytic._sensitivity_curve(n, p, rates, j),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic.sensitivity(x, n, p, rates, j)),
    "sensitivity_reference": (
        lambda n, p, rates, j: analytic._sensitivity_curve(
            n, p, rates, j, analytic.SENSITIVITY_COEFF_REFERENCE),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic._sensitivity_curve(
            n, p, rates, j, analytic.SENSITIVITY_COEFF_REFERENCE)(x)),
    "sensitivity_denominator_correction": (
        lambda n, p, rates, j: analytic._correction_curve(
            n, p, rates, j, analytic.SENSITIVITY_COEFF_DERIVED),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic._correction_curve(n, p, rates, j)(x)),
    "effective_field": (
        lambda n, p, rates, j: analytic._effective_field_curve(j, rates),
        lambda curve, x, y: curve(x),
        lambda n, p, rates, j, x, y: analytic.effective_field(j, rates, x)),
    "signal_to_noise": (
        lambda n, p, rates, j: analytic._snr_curve(EnsembleParams(n, p), rates, j, 0.01),
        lambda curve, x, y: curve(x, y),
        lambda n, p, rates, j, x, y: analytic.signal_to_noise(
            EnsembleParams(n, p), rates,
            ProtocolParams(coupling=j, squeeze_time=x, signal_field=0.01, total_time=y))),
}

_RATE = st.just(0.0) | st.floats(0.0, 1.0) | st.floats(0.0, 1e300)
_POINT = st.just(0.0) | st.floats(-1.0, 20.0) | st.floats(allow_nan=True, allow_infinity=True)


# the forms without a public function: the test below would compare their
# curve with itself
_PRIVATE_CURVES = {"sensitivity_reference", "sensitivity_denominator_correction"}


@pytest.mark.parametrize("name", sorted(set(_CURVES) - _PRIVATE_CURVES))
@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10 ** 7) | st.just(10 ** 400), p=st.floats(0.0, 1.0),
       rates=st.builds(DecoherenceRates, _RATE, _RATE),
       j=st.just(0.0) | st.floats(0.0, 0.3) | st.floats(0.0, 1e300),
       points=st.lists(st.tuples(_POINT, _POINT), min_size=1, max_size=6))
def test_curve_built_once_is_its_scalar_function_at_every_point(name, n, p, rates, j, points):
    # the same bits at every point, and where the scalar function refuses a
    # point (or the invariants), the same error with the same text
    build, point, scalar = _CURVES[name]
    try:
        curve = build(n, p, rates, j)
    except (ArithmeticError, ValueError) as exc:
        refused = f"{type(exc).__name__}: {exc}"
        for x, y in points:
            assert _outcome(scalar, n, p, rates, j, x, y) == refused
        return
    for x, y in points:
        assert _outcome(point, curve, x, y) == _outcome(scalar, n, p, rates, j, x, y)


RECORDED = json.loads((Path(__file__).parent / "data" / "closed_form_values.json")
                      .read_text())["digests"]

_GRID_X = (-0.5, 0.0, 1e-4, 0.02, 0.7, 3.5, 40.0)


def _grid_invariants():
    """200 seeded draws of (n, p, rates, j), spread so that a reordered
    product rounds differently at a good share of them."""
    rng = random.Random(27)
    out = []
    for _ in range(200):
        rate = [rng.uniform(1e-3, 0.1), rng.uniform(1e-3, 0.1)]
        for i in range(2):
            if rng.random() < 0.3:
                rate[i] = 0.0
        out.append((rng.choice((2, 3, 7, 50, 100, 1000, 12345, 10 ** 6)),
                    1.0 if rng.random() < 0.2 else rng.uniform(0.05, 1.0),
                    DecoherenceRates(*rate), 10 ** rng.uniform(-6.0, -1.0)))
    return out


def _grid_outcomes(name):
    """The public function ``name`` over a fixed grid: every value's bits or refusal."""
    invariants = _grid_invariants()
    if name in _CURVES:
        scalar = _CURVES[name][2]
        return [_outcome(scalar, *inv, x, abs(x) + 1.0) for inv in invariants for x in _GRID_X]
    return [_outcome(getattr(analytic, name), *inv) for inv in invariants]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_closed_forms_keep_their_recorded_bits(name):
    # digests recorded before the closed forms became curves: hoisting the
    # constant factors of a curve moved no bit of any value or refusal
    text = "\n".join(_grid_outcomes(name))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED[name]
