"""Named verification suites driving the oracle against the closed forms.

Each suite returns a report dict {suite, checks: [...], passed}, and
``run_suite`` adds its wall time as ``elapsed_s``; a check is {name, value,
tolerance, margin, passed} plus optional context, with margin =
value/tolerance (None for pass/fail checks of tolerance 0).  The two
pair-unitary suites run each spin count's matrices as one stack and check
the oracle's side with array operations, with no Python loop per trial or
angle.  Two measured quantities contradict commonly quoted claims and are
reported without being asserted (see README): the raw factorization gap
at fixed N*J*T rises with N instead of decreasing, and the quoted
dephasing form deviates from the exact channel for any genuinely twisted
state; they are extra report keys and do not count towards ``passed``.
"""

from __future__ import annotations

import inspect
import math
import time

import numpy as np

from . import analytic
from .core import (
    VERIFY_SUITES,
    DecoherenceRates,
    EnsembleParams,
    ProtocolParams,
    ValidationError,
)
from .inhomogeneous import _components, _libm, _pair_terms, _sums
from .oracle import (
    SPIN_CAP,
    IntegratorConfig,
    _pauli_channel,
    _moments,
    _second_moment,
    _variable_coupling_stack,
    apply_dephasing,
    build_initial_state,
    compute_moments,
    evolve,
    factorization_gap,
    factorization_gap_table,
    lindblad_rhs,
    simulate_metrology,
    variable_coupling_state,
)

_TRIALS = 100  # random coupling matrices per variable_coupling run


def suite_sizes(name: str, n: int) -> tuple[int, ...]:
    """The spin counts suite ``name`` runs when asked for ``n``."""
    return tuple(min(n, cap) for cap in _SUITE_TABLE[name][1])


def _check(name, value, tolerance, passed=None, **context):
    if passed is None:
        passed = bool(value <= tolerance)
    entry = {"name": name, "value": float(value), "tolerance": tolerance,
             "margin": float(value) / tolerance if tolerance else None,
             "passed": bool(passed)}
    entry.update(context)
    return entry


def _finish(suite, checks, **extra):
    report = {"suite": suite, "checks": checks,
              "passed": all(c["passed"] for c in checks)}
    report.update(extra)
    return report


# ---------------------------------------------------------------------------

def suite_lindblad(n: int = 6) -> dict:
    """Master-equation properties: trace/hermiticity/positivity, decay rate,
    energy conservation, and the uniform-coupling cross-check.  Halving dt
    (``dt_halving_stability``) only refines the checkpoint grid of an exact
    propagator, so that check reads roundoff.

    Runs at most SPIN_CAP spins, and at most 4 and 5 in the decay and energy
    checks (``suite_sizes``)."""
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
    # the worst margins over the run's checkpoints
    checks.append(_check("trace_drift", finals[-1].max_trace_defect, 1e-12))
    checks.append(_check("min_eigenvalue_floor",
                         max(0.0, -finals[-1].min_eigenvalue), 1e-10))
    checks.append(_check("hermiticity", finals[-1].max_hermiticity_defect, 1e-12))
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
    raw2 = [factorization_gap_table([n], n2jt / n, gst, t_final, dt=1e-2)[0][1] for n in ns]
    dec2 = all(raw2[i] > raw2[i + 1] for i in range(len(raw2) - 1))
    checks.append(_check("gap_decreases_fixed_n2jt", 0.0, 0.0, passed=dec2,
                         table=[[n, g] for n, g in zip(ns, raw2)]))
    return _finish("factorization", checks, gap_decreases_fixed_njt=raw_dec,
                   raw_gap_fixed_njt=[[n, g] for n, g in zip(ns, raw)])


def suite_variable_coupling(n: int = 6, seed: int = 0) -> dict:
    """The shipped kernel's per-site and per-pair terms (``_pair_terms``,
    weighted by the polarizations) and quadrature ratio vs the exact pair
    unitary, on _TRIALS random coupling matrices and polarizations of 2 to n spins.

    Every trial is drawn first (n, couplings, polarizations, three quadrature
    angles); each spin count's T trials then run as one stack, checked as
    (T, n[, n]) tables and one (T, 3) array of ratios.  A matrix's values do
    not depend on its stack, so they are those of one call per trial."""
    (n_max,) = suite_sizes("variable_coupling", n)
    if n_max < 2:
        raise ValidationError(["variable_coupling needs n >= 2: it checks spin pairs"])
    rng = np.random.default_rng(seed)
    groups = {}  # n -> its trials, each (couplings, polarizations, quadrature angles)
    for _ in range(_TRIALS):
        n = int(rng.integers(2, n_max + 1))
        groups.setdefault(n, []).append((rng.normal(0.05, 0.1, (n, n)), rng.uniform(0.3, 1.0, n),
                                         rng.uniform(0.0, math.pi, 3)))
    worst = dict.fromkeys(("site_polarization", "pair_xx_zero", "pair_yy", "pair_xy",
                           "quadrature_ratio"), 0.0)
    for n, group in sorted(groups.items()):
        draws, pols, angles = map(np.array, zip(*group))
        thetas = (draws + draws.transpose(0, 2, 1)) / 2.0  # symmetric, zero diagonal
        thetas[:, range(n), range(n)] = 0.0
        terms = z, s, cross, diff = _pair_terms(thetas)
        _, _, mean_z, xx2, yy2, xy_sym, pair_xx, pair_xy, pair_yy, site_z = \
            _variable_coupling_stack(thetas, pols)
        a, b = _components([column[:, None] for column in _sums(terms, pols)], n, angles)
        exact = _second_moment(xx2[:, None], yy2[:, None], xy_sym[:, None],
                               _libm(math.cos, angles), _libm(math.sin, angles)) / mean_z[:, None]
        for name, deviation in (
                ("site_polarization", np.abs(site_z - pols * z)),
                ("pair_xx_zero", np.abs(pair_xx)),
                ("pair_yy", np.abs(pair_yy - 0.5 * pols[:, :, None] * pols[:, None] * diff)),
                ("pair_xy", np.abs(pair_xy - (-pols[:, None] * s * cross))),
                ("quadrature_ratio", np.abs(a / b - exact) / np.abs(exact))):
            worst[name] = max(worst[name], float(np.max(deviation)))
    checks = [_check(name, val, 1e-10) for name, val in worst.items()]
    return _finish("variable_coupling", checks, trials=_TRIALS)


def suite_uniform_coupling(n: int = 10) -> dict:
    """Uniform-coupling closed form vs the exact unitary over a grid of 2 to
    n spins: the six (P, theta0) cases of each spin count run as one stack,
    the oracle's ratios at the 16 angles as one (6, 16) array."""
    (n_max,) = suite_sizes("uniform_coupling", n)
    if n_max < 2:
        raise ValidationError(["uniform_coupling needs n >= 2: it checks spin pairs"])
    worst_theta = worst_min = 0.0
    angles = np.linspace(0.0, math.pi, 16, endpoint=False)
    cos, sin = _libm(math.cos, angles), _libm(math.sin, angles)
    cases = [(p, theta0) for p in (0.5, 1.0) for theta0 in (0.01, 0.05, 0.1)]
    for n in range(2, n_max + 1):
        off_diagonal = 1.0 - np.eye(n)
        thetas = np.array([theta0 * off_diagonal for _, theta0 in cases])
        stack = _variable_coupling_stack(thetas, [p for p, _ in cases])
        _, _, mean_z, xx2, yy2, xy_sym = (field[:, None] for field in stack[:6])
        exact = _second_moment(xx2, yy2, xy_sym, cos, sin) / mean_z  # (case, angle)
        closed = [list(map(analytic._quadrature_curve(n, p, theta0), angles.tolist()))
                  for p, theta0 in cases]
        worst_theta = max(worst_theta, float(np.max(np.abs(closed - exact) / np.abs(exact))))
        for (p, theta0), mom in zip(cases, _moments(stack, pair_correlations=False)):
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
    quoted normalization drops a 1/P factor.  The CPTP checks draw 200
    random 3-spin states and survival amplitudes first and then run the
    channel, trace and eigenvalues once over the stack.
    """
    (n,) = suite_sizes("dephasing", n)
    if n < 1:
        raise ValidationError(["dephasing needs n >= 1"])
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

    dim = 1 << 3
    a = np.empty((200, dim, dim), dtype=complex)
    survival = np.empty(200)
    for i in range(200):
        a[i] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        survival[i] = rng.uniform()
    rho = a @ a.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    # the channel takes the stack along a trailing axis; back in C order,
    # each trace sums one matrix's diagonal as it does alone
    out = np.ascontiguousarray(_pauli_channel(rho.transpose(1, 2, 0), 3, survival, survival,
                                              np.ones_like(survival)).transpose(2, 0, 1))
    trace_defects = np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)
    low = np.linalg.eigvalsh((out + out.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
    checks.append(_check("channel_trace_preserving", float(trace_defects.max()), 1e-12))
    checks.append(_check("channel_positivity", max(0.0, float(-low.min())), 1e-12))
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

    # no field, no signal: a pi rotation about z leaves J*SX^2, all three
    # channels and the z-polarized initial state unchanged, so the
    # transverse mean vanishes
    params0 = EnsembleParams(2, 1.0)
    proto0 = ProtocolParams(coupling=0.02, squeeze_time=1.0, signal_field=0.0)
    traj0 = evolve(build_initial_state(params0), IntegratorConfig(dt=2e-3, t_final=1.0),
                   params0, DecoherenceRates(0.02, 0.03), proto0)
    checks.append(_check("zero_field_zero_signal",
                         abs(traj0.moments[-1].quadrature_mean(0.3)), 1e-10))

    def rotation_slope(gp, gt, t=2.0):
        params = EnsembleParams(2, 1.0)
        rates = DecoherenceRates(gp, gt)
        res = simulate_metrology(params, rates,
                                 ProtocolParams(coupling=0.0, squeeze_time=t),
                                 IntegratorConfig(dt=2e-3, t_final=t),
                                 measure_angle=0.0)
        p_t = analytic.effective_polarization(params.polarization, rates, t)
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


# suite -> (function, largest spin counts it runs), in the order of the names
# in core.VERIFY_SUITES; suite "x" runs suite_x.  A larger requested n is
# clamped to its caps: SPIN_CAP where the suite holds no 4^n array (pair-type
# evolve, block spectra, eigenphase moments), 6 for dephasing's dense states.
_SUITE_TABLE = dict(zip(VERIFY_SUITES, (
    # lindblad caps: main checks, polarization decay, twisting energy
    (suite_lindblad, (SPIN_CAP, 4, 5)),
    (suite_factorization, ()),
    (suite_variable_coupling, (SPIN_CAP,)),
    (suite_uniform_coupling, (SPIN_CAP,)),
    (suite_dephasing, (6,)),
    (suite_metrology, ()),
    (suite_constants, ()),
), strict=True))


def suite_inputs(name: str) -> tuple[str, ...]:
    """The run_suite keywords that suite ``name`` reads: the parameters of
    the table's function (which a rebound module attribute leaves as is)."""
    return tuple(inspect.signature(_SUITE_TABLE[name][0]).parameters)


def run_suite(name: str, **kwargs) -> dict:
    if name not in _SUITE_TABLE:
        raise ValueError(f"unknown verification suite {name!r}; choose from {VERIFY_SUITES}")
    start = time.perf_counter()
    report = _SUITE_TABLE[name][0](**{k: kwargs[k] for k in suite_inputs(name) if k in kwargs})
    report["elapsed_s"] = time.perf_counter() - start
    return report
