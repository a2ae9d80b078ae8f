"""Named verification suites driving the oracle against the closed forms.

Each suite returns a report dict {suite, checks: [...], passed}; a check
is {name, value, tolerance, passed} plus optional context.  Two measured
quantities contradict commonly quoted claims and are reported without
being asserted (see README): the raw factorization gap at fixed N*J*T
rises with N instead of decreasing, and the quoted dephasing form
deviates from the exact channel for any genuinely twisted state.  They
appear as extra report keys and do not count towards ``passed``.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic
from .core import DecoherenceRates, EnsembleParams, ProtocolParams, ValidationError
from .inhomogeneous import xi2_theta_couplings
from .oracle import (
    DensityMatrix,
    IntegratorConfig,
    apply_dephasing,
    build_initial_state,
    compute_moments,
    evolve,
    evolve_variable_coupling,
    factorization_gap,
    factorization_gap_table,
    lindblad_rhs,
    simulate_metrology,
    variable_coupling_state,
)

SUITES = (
    "lindblad",
    "factorization",
    "variable_coupling",
    "uniform_coupling",
    "dephasing",
    "metrology",
    "constants",
)


# largest spin counts a suite runs (the dense oracle is 4^n in memory); a
# larger requested n is clamped to them
_N_CAPS = {
    "lindblad": (8, 4, 5),  # main checks, polarization decay, twisting energy
    "variable_coupling": (12,),
    "uniform_coupling": (12,),
    "dephasing": (6,),
}


def suite_sizes(name: str, n: int) -> tuple[int, ...]:
    """The spin counts suite ``name`` runs when asked for ``n`` (its n_max)."""
    return tuple(min(n, cap) for cap in _N_CAPS.get(name, ()))


def _check(name, value, tolerance, passed=None, **context):
    if passed is None:
        passed = bool(value <= tolerance)
    entry = {"name": name, "value": float(value), "tolerance": tolerance,
             "passed": bool(passed)}
    entry.update(context)
    return entry


def _finish(suite, checks, **extra):
    report = {"suite": suite, "checks": checks,
              "passed": all(c["passed"] for c in checks)}
    report.update(extra)
    return report


def _random_couplings(rng, n):
    theta = rng.normal(0.05, 0.1, size=(n, n))
    theta = (theta + theta.T) / 2.0
    np.fill_diagonal(theta, 0.0)
    return theta


# ---------------------------------------------------------------------------

def suite_lindblad(n: int = 6) -> dict:
    """Master-equation properties: trace/hermiticity/positivity, decay rate,
    dt convergence, energy conservation, and the uniform-coupling cross-check.

    Runs at most 8 spins, and at most 4 and 5 in the decay and energy checks
    (``suite_sizes``)."""
    n, n_decay, n_energy = suite_sizes("lindblad", n)
    checks = []

    params = EnsembleParams(n_decay, 0.9)
    rates = DecoherenceRates(0.03, 0.07)
    proto = ProtocolParams(coupling=0.0, squeeze_time=5.0)
    cfg = IntegratorConfig(dt=0.01, t_final=5.0, checkpoint_every=100)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                  check_positivity=True)
    want = params.n_spins * analytic.effective_polarization(0.9, rates, 5.0)
    checks.append(_check("polarization_decay_rate",
                         abs(traj.moments[-1].mean_z - want) / abs(want), 1e-8))
    checks.append(_check("purity_never_increases_dissipative",
                         max(np.diff(traj.purities).max(), 0.0), 1e-12))

    params = EnsembleParams(n, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0)
    finals = []
    for dt in (0.004, 0.002):
        cfg = IntegratorConfig(dt=dt, t_final=2.0, checkpoint_every=100)
        traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                      check_positivity=True)
        finals.append(traj)
    drift = max(abs(tr - 1.0) for tr in finals[-1].traces)
    checks.append(_check("trace_drift", drift, 1e-12))
    checks.append(_check("min_eigenvalue_floor",
                         -min(0.0, finals[-1].final.min_eigenvalue()), 1e-10))
    checks.append(_check("hermiticity", finals[-1].final.hermiticity_defect(), 1e-12))
    a, b = finals[0].moments[-1], finals[1].moments[-1]
    rel = max(
        abs(a.mean_z - b.mean_z) / abs(b.mean_z),
        abs(a.yy2 - b.yy2) / abs(b.yy2),
        abs(a.xy_sym - b.xy_sym) / max(abs(b.xy_sym), 1.0),
    )
    checks.append(_check("dt_halving_stability", rel, 1e-8))

    state = build_initial_state(EnsembleParams(3, 0.0))
    rhs = lindblad_rhs(state, EnsembleParams(3, 0.0), DecoherenceRates(0.1, 0.2),
                       ProtocolParams(coupling=0.0, squeeze_time=1.0))
    checks.append(_check("maximally_mixed_fixed_point",
                         float(np.max(np.abs(rhs.entries))), 1e-13))

    params = EnsembleParams(n_energy, 1.0)
    proto = ProtocolParams(coupling=0.05, squeeze_time=1.0)
    cfg = IntegratorConfig(dt=0.002, t_final=1.0, checkpoint_every=100)
    traj = evolve(build_initial_state(params), cfg, params, DecoherenceRates(), proto)
    energy_drift = max(abs(m.xx2 - traj.moments[0].xx2) for m in traj.moments)
    checks.append(_check("twisting_energy_conserved", energy_drift, 1e-10))
    mom = traj.moments[-1]
    theta0 = proto.coupling * proto.squeeze_time
    err = max(
        abs(mom.xi2(th) - analytic.xi2_theta_finite_polarization(
            params.n_spins, 1.0, theta0, th))
        for th in np.linspace(0.0, math.pi, 7)
    )
    checks.append(_check("unitary_quadrature_vs_closed_form", err, 1e-10))
    return _finish("lindblad", checks)


def suite_factorization(n_range=range(2, 7)) -> dict:
    """Joint vs factorized evolution: exact-split limits and gap tables.

    Asserts that the per-spin gap decreases at fixed N*J*T and the raw gap
    at fixed N^2*J*T.  The raw gap at fixed N*J*T rises toward saturation
    instead; its table and trend are reported as ``raw_gap_fixed_njt`` and
    ``gap_decreases_fixed_njt`` but not asserted.
    """
    ns = list(n_range)
    if len(ns) < 2 or min(ns) < 2:
        raise ValidationError(["factorization needs at least two spin counts, each >= 2"])
    checks = []
    params = EnsembleParams(4, 0.9)
    cfg = IntegratorConfig(dt=5e-3, t_final=1.0)
    g = factorization_gap(params, DecoherenceRates(0.05, 0.1),
                          ProtocolParams(coupling=0.0, squeeze_time=1.0), cfg)
    checks.append(_check("gap_vanishes_without_twisting", g, 1e-10))
    g = factorization_gap(params, DecoherenceRates(),
                          ProtocolParams(coupling=0.3, squeeze_time=1.0), cfg)
    checks.append(_check("gap_vanishes_without_dissipation", g, 1e-10))

    njt, gst, t_final = 0.2, 0.2, 1.0
    raw = [g for _, g in factorization_gap_table(ns, njt, gst, t_final, dt=1e-2)]
    per_spin = [g / n for g, n in zip(raw, ns)]
    raw_dec = all(raw[i] > raw[i + 1] for i in range(len(raw) - 1))
    spin_dec = all(per_spin[i] > per_spin[i + 1] for i in range(len(per_spin) - 1))
    checks.append(_check("per_spin_gap_decreases_fixed_njt", 0.0, 0.0, passed=spin_dec,
                         table=[[n, g] for n, g in zip(ns, per_spin)]))

    n2jt = 0.8
    rates = DecoherenceRates(gst / (2 * t_final), gst / (2 * t_final))
    cfg = IntegratorConfig(dt=1e-2, t_final=t_final)
    raw2 = []
    for n in ns:
        proto = ProtocolParams(coupling=n2jt / (n * n * t_final), squeeze_time=t_final)
        raw2.append(factorization_gap(EnsembleParams(n, 1.0), rates, proto, cfg))
    dec2 = all(raw2[i] > raw2[i + 1] for i in range(len(raw2) - 1))
    checks.append(_check("gap_decreases_fixed_n2jt", 0.0, 0.0, passed=dec2,
                         table=[[n, g] for n, g in zip(ns, raw2)]))
    return _finish("factorization", checks, gap_decreases_fixed_njt=raw_dec,
                   raw_gap_fixed_njt=[[n, g] for n, g in zip(ns, raw)])


def suite_variable_coupling(n_max: int = 6, trials: int = 100, seed: int = 0) -> dict:
    """Closed-form moments and quadrature ratio vs the exact pair unitary."""
    (n_max,) = suite_sizes("variable_coupling", n_max)
    if n_max < 2:
        raise ValidationError(["variable_coupling needs n >= 2: it checks spin pairs"])
    rng = np.random.default_rng(seed)
    worst = {"site_polarization": 0.0, "pair_xx_zero": 0.0, "pair_yy": 0.0,
             "pair_xy": 0.0, "quadrature_ratio": 0.0}
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        theta = _random_couplings(rng, n)
        pols = rng.uniform(0.3, 1.0, size=n)
        mom = evolve_variable_coupling(theta, pols)
        c = np.cos(4 * theta)
        s = np.sin(4 * theta)
        np.fill_diagonal(c, 1.0)
        np.fill_diagonal(s, 0.0)
        for k in range(n):
            mask = np.ones(n, bool)
            mask[k] = False
            want_z = pols[k] * np.prod(c[mask, k])
            worst["site_polarization"] = max(worst["site_polarization"],
                                             abs(mom.site_z[k] - want_z))
            for l in range(n):
                if l == k:
                    continue
                m2 = mask.copy()
                m2[l] = False
                plus = np.prod(c[m2, k] * c[m2, l] + s[m2, k] * s[m2, l])
                minus = np.prod(c[m2, k] * c[m2, l] - s[m2, k] * s[m2, l])
                yy = 0.5 * pols[k] * pols[l] * (plus - minus)
                xy = -pols[l] * s[k, l] * np.prod(c[m2, l])
                worst["pair_yy"] = max(worst["pair_yy"], abs(mom.pair_yy[k, l] - yy))
                worst["pair_xy"] = max(worst["pair_xy"], abs(mom.pair_xy[k, l] - xy))
                worst["pair_xx_zero"] = max(worst["pair_xx_zero"], abs(mom.pair_xx[k, l]))
        for th in rng.uniform(0.0, math.pi, 3):
            got = xi2_theta_couplings(theta, pols, th)
            worst["quadrature_ratio"] = max(worst["quadrature_ratio"],
                                            abs(got - mom.xi2(th)) / abs(mom.xi2(th)))
    checks = [_check(name, val, 1e-10) for name, val in worst.items()]
    return _finish("variable_coupling", checks, trials=trials)


def suite_uniform_coupling(n_max: int = 10) -> dict:
    """Uniform-coupling closed form vs the exact unitary over a grid."""
    (n_max,) = suite_sizes("uniform_coupling", n_max)
    if n_max < 2:
        raise ValidationError(["uniform_coupling needs n >= 2: it checks spin pairs"])
    worst_theta = 0.0
    worst_min = 0.0
    angles = np.linspace(0.0, math.pi, 16, endpoint=False)
    for n in range(2, n_max + 1):
        for p in (0.5, 1.0):
            for theta0 in (0.01, 0.05, 0.1):
                mat = np.full((n, n), theta0)
                np.fill_diagonal(mat, 0.0)
                mom = evolve_variable_coupling(mat, p)
                for th in angles:
                    want = mom.xi2(th)
                    got = analytic.xi2_theta_finite_polarization(n, p, theta0, th)
                    worst_theta = max(worst_theta, abs(got - want) / abs(want))
                xi2_min, _ = analytic.xi2_min_finite_polarization(n, p, theta0)
                theta_scan, second = mom.minimize_second_moment()
                worst_min = max(worst_min,
                                abs(xi2_min - second / mom.mean_z) / (second / mom.mean_z))
    checks = [
        _check("quadrature_ratio_vs_oracle", worst_theta, 1e-10),
        _check("minimum_vs_oracle", worst_min, 1e-10),
    ]
    return _finish("uniform_coupling", checks)


def suite_dephasing(n: int = 6, seed: int = 0) -> dict:
    """Product dephasing channel vs the closed forms.

    Asserts the exact identity (s^2 xi2 + (1-s^2)/P) to 1e-10 and channel
    CPTP properties; records the deviation of the quoted form
    1 - (P - xi2) s^2, which is nonzero for any twisted state because the
    quoted normalization drops a 1/P factor.
    """
    (n,) = suite_sizes("dephasing", n)
    rng = np.random.default_rng(seed)
    checks = []
    surviving = (0.0, 0.3, math.exp(-1.0), 1.0)
    deviations = {}
    for p0 in (1.0, 0.7):
        theta = np.full((n, n), 0.05)
        np.fill_diagonal(theta, 0.0)
        rho = variable_coupling_state(theta, p0)
        mom0 = compute_moments(rho)
        p_state = mom0.mean_z / n
        worst_exact = 0.0
        worst_quoted = 0.0
        for s in surviving:
            mom_s = compute_moments(apply_dephasing(rho, s))
            for th in np.linspace(0.0, math.pi, 9):
                xi0 = mom0.xi2(th)
                want = mom_s.xi2(th)
                worst_exact = max(worst_exact, abs(
                    analytic.xi2_after_dephasing_exact(xi0, p_state, s) - want))
                worst_quoted = max(worst_quoted, abs(
                    analytic.xi2_after_dephasing(xi0, p0, s) - want))
        checks.append(_check(f"exact_identity_p{p0:g}", worst_exact, 1e-10))
        deviations[f"quoted_form_deviation_p{p0:g}"] = worst_quoted

    worst_trace = 0.0
    worst_eig = 0.0
    dim = 1 << 3
    for _ in range(200):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho = DensityMatrix(rho / np.trace(rho), 3)
        out = apply_dephasing(rho, float(rng.uniform()))
        worst_trace = max(worst_trace, out.trace_defect())
        worst_eig = max(worst_eig, -min(out.min_eigenvalue(), 0.0))
    checks.append(_check("channel_trace_preserving", worst_trace, 1e-12))
    checks.append(_check("channel_positivity", worst_eig, 1e-12))
    return _finish("dephasing", checks, **deviations)


def suite_metrology() -> dict:
    """Probe-field linear response vs the effective-field and SNR forms."""
    checks = []

    proto = ProtocolParams(coupling=0.0, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=2e-3, t_final=2.0)
    res = simulate_metrology(EnsembleParams(1, 1.0), DecoherenceRates(), proto, cfg,
                             measure_angle=0.0)
    checks.append(_check("single_spin_rotation_slope",
                         abs(res.signal_slope - 2.0 * proto.squeeze_time) / (2 * proto.squeeze_time),
                         1e-6))

    # no field: identical +/- runs, so the central difference vanishes exactly
    params0 = EnsembleParams(2, 1.0)
    rates0 = DecoherenceRates(0.02, 0.03)
    proto0 = ProtocolParams(coupling=0.02, squeeze_time=1.0, signal_field=0.0)
    cfg0 = IntegratorConfig(dt=2e-3, t_final=1.0)
    rho0 = build_initial_state(params0)
    plus = evolve(rho0, cfg0, params0, rates0, proto0).final
    minus = evolve(rho0, cfg0, params0, rates0, proto0).final
    slope0 = (compute_moments(plus).quadrature_mean(0.3)
              - compute_moments(minus).quadrature_mean(0.3)) / 2e-6
    checks.append(_check("zero_field_zero_slope", abs(slope0), 1e-10))

    def rotation_slope(gp, gt, t=2.0):
        params = EnsembleParams(2, 1.0)
        rates = DecoherenceRates(gp, gt)
        res = simulate_metrology(params, rates,
                                 ProtocolParams(coupling=0.0, squeeze_time=t),
                                 IntegratorConfig(dt=2e-3, t_final=t),
                                 measure_angle=0.0)
        p_t = math.exp(-2.0 * rates.gamma_sum * t)
        return res.signal_slope / params.n_spins / (2.0 * p_t), \
            analytic.effective_field(1.0, rates, t)

    got, want = rotation_slope(0.0, 0.05)
    checks.append(_check("effective_field_transverse_only",
                         abs(got - want) / want, 1e-6))
    got, want = rotation_slope(0.02, 0.03)
    dev_mixed = abs(got - want) / want
    checks.append(_check("effective_field_mixed_rates", dev_mixed, 0.12,
                         note="exact only when gamma_par = 0; deviation reported"))

    params = EnsembleParams(6, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0, total_time=2.0)
    res = simulate_metrology(params, rates, proto,
                             IntegratorConfig(dt=4e-3, t_final=2.0))
    snr_oracle = res.signal_slope / res.noise
    snr_formula = analytic.signal_to_noise(
        params, rates, ProtocolParams(coupling=0.05, squeeze_time=2.0,
                                      signal_field=1.0, total_time=2.0))
    ratio = snr_oracle / snr_formula
    checks.append(_check("snr_vs_formula_factor2", max(ratio, 1.0 / ratio), 2.0,
                         ratio=ratio))

    worst = 0.0
    rates = DecoherenceRates(0.02, 0.03)
    for theta in (0.3, 0.7, 1.5):
        t = theta / (2.0 * rates.gamma_sum)
        protoB = ProtocolParams(coupling=0.004, squeeze_time=t, signal_field=1e-9,
                                total_time=3.0 * t)
        snr = analytic.signal_to_noise(EnsembleParams(80, 0.9), rates, protoB)
        lim = snr / (1e-9 * math.sqrt(3.0 * t))
        s = analytic.sensitivity(theta, 80, 0.9, rates, 0.004)
        worst = max(worst, abs(s - lim) / lim)
    checks.append(_check("sensitivity_equals_snr_limit", worst, 1e-10))
    return _finish("metrology", checks)


def suite_constants() -> dict:
    """Independently computed optimum coefficients vs the quoted values.

    Passes when the derived values are internally consistent with direct
    formula evaluation to 1e-10; agreement with the quoted numbers is
    reported (ratios), not asserted.
    """
    derived = analytic.derived_constants()
    ref = analytic.REFERENCE_CONSTANTS
    checks = []

    n, p, coupling = 50, 0.8, 0.01
    rates = DecoherenceRates(0.015, 0.025)
    gs = rates.gamma_sum
    direct = analytic.xi2_min_decoherence_theta(n, p, rates, coupling, 2.0 / 3.0)
    rebuilt = (derived["squeezing_prefactor"] / p) * (
        derived["squeezing_decoherence_coeff"] * gs * gs
        / (p * p * 4.0 * n * n * coupling * coupling)
        + derived["squeezing_oversqueezing_coeff"] * n * n * coupling ** 4 / gs ** 4)
    checks.append(_check("squeezing_coefficients_consistent",
                         abs(direct - rebuilt) / direct, 1e-10))

    theta_max = derived["theta_max"]
    direct = analytic.sensitivity(theta_max, n, p, rates, coupling)
    pref = n * n * coupling * coupling * p ** 3 / gs ** 2.5
    rebuilt = pref * derived["sensitivity_peak_prefactor"] / (
        1.0 + derived["sensitivity_peak_denominator"]
        * p * p * n ** 4 * coupling ** 6 / gs ** 6)
    checks.append(_check("sensitivity_coefficients_consistent",
                         abs(direct - rebuilt) / direct, 1e-10))

    cfg = analytic.OptimizerConfig(bracket=(0.01, 10.0))
    theta_min, _ = analytic.optimize_scalar(
        lambda t: math.exp(3.0 * t) / (t * t), cfg, "min")
    checks.append(_check("theta_min_two_thirds", abs(theta_min - 2.0 / 3.0), 1e-8))
    checks.append(_check("theta_max_reference", abs(theta_max - ref["theta_max"]), 1e-3))

    table = {}
    for key in ("squeezing_prefactor", "squeezing_decoherence_coeff",
                "squeezing_oversqueezing_coeff", "sensitivity_peak_prefactor",
                "sensitivity_peak_denominator"):
        table[key] = {
            "derived": derived[key],
            "reference": ref[key],
            "ratio_derived_over_reference": derived[key] / ref[key],
        }
    table["sensitivity_denominator_coefficient"] = {
        "derived": analytic.SENSITIVITY_COEFF_DERIVED,
        "reference": analytic.SENSITIVITY_COEFF_REFERENCE,
        "ratio_derived_over_reference":
            analytic.SENSITIVITY_COEFF_DERIVED / analytic.SENSITIVITY_COEFF_REFERENCE,
    }
    return _finish("constants", checks, constants=table)


# suite -> (function, {run_suite keyword: parameter it sets}); a suite
# reads only the keywords listed for it
_SUITE_FUNCS = {
    "lindblad": (suite_lindblad, {"n": "n"}),
    "factorization": (suite_factorization, {"n_range": "n_range"}),
    "variable_coupling": (suite_variable_coupling,
                          {"n": "n_max", "trials": "trials", "seed": "seed"}),
    "uniform_coupling": (suite_uniform_coupling, {"n": "n_max"}),
    "dephasing": (suite_dephasing, {"n": "n", "seed": "seed"}),
    "metrology": (suite_metrology, {}),
    "constants": (suite_constants, {}),
}


def suite_inputs(name: str) -> tuple[str, ...]:
    """The run_suite keywords that suite ``name`` reads; it ignores all others."""
    return tuple(_SUITE_FUNCS[name][1])


def run_suite(name: str, **kwargs) -> dict:
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown verification suite {name!r}; choose from {SUITES}")
    func, inputs = _SUITE_FUNCS[name]
    return func(**{param: kwargs[key] for key, param in inputs.items() if key in kwargs})
