import io
import math
from dataclasses import replace

import numpy as np
import pytest

from oatsqueeze import analytic
from oatsqueeze.core import (
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    ProtocolParams,
    ResourceError,
    ValidationError,
)
from oatsqueeze.oracle import (
    SPIN_CAP,
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
    trace_distance,
    variable_coupling_state,
)

PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_site(alpha, i, n):
    """sigma_alpha on site i of n as a dense Kronecker product (site 0 leftmost).

    Shares no code with the oracle's frame change or index gathers, so it
    serves as an independent reference for them.
    """
    out = np.eye(1, dtype=complex)
    for j in range(n):
        out = np.kron(out, PAULIS[alpha] if j == i else np.eye(2))
    return out


def kron_collective(alpha, n):
    return sum(kron_site(alpha, i, n) for i in range(n))


def _expm(a):
    """Matrix exponential by scaling and squaring of a truncated Taylor series."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.0 else 0
    a = a / 2.0 ** squarings
    term = np.eye(len(a), dtype=complex)
    out = term.copy()
    for k in range(1, 20):  # ||a|| <= 1/2: remainder below 1e-24
        term = term @ a / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def uniform_couplings(n, theta0):
    mat = np.full((n, n), theta0)
    np.fill_diagonal(mat, 0.0)
    return mat


def random_density_matrix(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho), n)


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

def test_initial_state_pure_spin_up():
    rho = build_initial_state(EnsembleParams(1, 1.0))
    want = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(rho.entries, want)


def test_initial_state_maximally_mixed():
    rho = build_initial_state(EnsembleParams(2, 0.0))
    assert np.allclose(rho.entries, np.eye(4) / 4.0)


def test_initial_state_product_moments():
    rho = build_initial_state(EnsembleParams(3, 0.6))
    mom = compute_moments(rho, pair_correlations=True)
    assert np.allclose(mom.site_z, 0.6)
    assert mom.mean_x == pytest.approx(0.0, abs=1e-14)
    assert mom.mean_y == pytest.approx(0.0, abs=1e-14)
    for table in (mom.pair_xx, mom.pair_xy, mom.pair_yx, mom.pair_yy):
        assert np.max(np.abs(table)) < 1e-14  # products of zero transverse means
    assert rho.trace_defect() < 1e-15


def test_initial_state_cap():
    with pytest.raises(ResourceError):
        build_initial_state(EnsembleParams(SPIN_CAP + 1, 1.0))


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_rhs_maximally_mixed_is_fixed_point():
    state = build_initial_state(EnsembleParams(3, 0.0))
    rhs = lindblad_rhs(state, EnsembleParams(3, 0.0), DecoherenceRates(0.1, 0.2),
                       ProtocolParams(coupling=0.0, squeeze_time=1.0))
    assert np.max(np.abs(rhs.entries)) < 1e-13


def test_rhs_single_spin_longitudinal_decay():
    # d<sz>/dt = -2 (gamma_par + gamma_perp) <sz>
    state = build_initial_state(EnsembleParams(1, 0.8))
    rates = DecoherenceRates(0.03, 0.07)
    rhs = lindblad_rhs(state, EnsembleParams(1, 0.8), rates,
                       ProtocolParams(coupling=0.0, squeeze_time=1.0))
    got = compute_moments(rhs).mean_z  # trace-linear, valid for any matrix
    assert got == pytest.approx(-2.0 * rates.gamma_sum * 0.8, rel=1e-12)


def test_rhs_is_traceless():
    rng = np.random.default_rng(0)
    state = random_density_matrix(rng, 3)
    rhs = lindblad_rhs(state, EnsembleParams(3, 1.0), DecoherenceRates(0.05, 0.1),
                       ProtocolParams(coupling=0.2, squeeze_time=1.0, signal_field=0.3))
    assert abs(np.trace(rhs.entries)) < 1e-13


def test_rhs_matches_kronecker_generator():
    # every term on, probe included, against dense Kronecker-product operators
    coupling, gamma_par, gamma_perp, field = 0.3, 0.05, 0.1, 0.2
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        dim = 1 << n
        sx, sy = kron_collective("x", n), kron_collective("y", n)
        ham = coupling * sx @ sx + field * sy
        general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for rho in (random_density_matrix(rng, n).entries, general):
            want = -1j * (ham @ rho - rho @ ham)
            for i in range(n):
                for alpha, gamma in (("x", gamma_par), ("y", gamma_perp), ("z", gamma_perp)):
                    op = kron_site(alpha, i, n)
                    want += gamma * (op @ rho @ op - rho)
            got = lindblad_rhs(DensityMatrix(rho, n), EnsembleParams(n, 1.0),
                               DecoherenceRates(gamma_par, gamma_perp),
                               ProtocolParams(coupling=coupling, squeeze_time=1.0,
                                              signal_field=field))
            assert np.max(np.abs(got.entries - want)) <= 1e-12, f"n={n}"


def test_moments_match_kronecker_expectations():
    # every field of compute_moments against tr(O rho) with Kronecker-built O,
    # on density matrices and on traceless Hermitian matrices (RHS-like input)
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 5):
        dim = 1 << n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + a.conj().T
        traceless = a - np.trace(a) / dim * np.eye(dim)
        site = {alpha: [kron_site(alpha, i, n) for i in range(n)] for alpha in "xyz"}
        sx, sy, sz = (sum(site[alpha]) for alpha in "xyz")
        for rho in (random_density_matrix(rng, n).entries, traceless):
            def ev(op):
                return float(np.real(np.trace(op @ rho)))

            mom = compute_moments(DensityMatrix(rho, n), pair_correlations=True)
            want = {"mean_x": ev(sx), "mean_y": ev(sy), "mean_z": ev(sz),
                    "xx2": ev(sx @ sx), "yy2": ev(sy @ sy), "xy_sym": ev(sx @ sy + sy @ sx)}
            for name, value in want.items():
                assert abs(getattr(mom, name) - value) <= 1e-12, f"n={n} {name}"
            assert np.max(np.abs(mom.site_z - [ev(op) for op in site["z"]])) <= 1e-12
            for name, (alpha, beta) in (("pair_xx", "xx"), ("pair_xy", "xy"),
                                        ("pair_yx", "yx"), ("pair_yy", "yy")):
                table = np.array([[0.0 if k == l else ev(site[alpha][k] @ site[beta][l])
                                   for l in range(n)] for k in range(n)])
                assert np.max(np.abs(getattr(mom, name) - table)) <= 1e-12, f"n={n} {name}"


def test_rhs_conserves_twisting_energy():
    rng = np.random.default_rng(1)
    state = random_density_matrix(rng, 3)
    rhs = lindblad_rhs(state, EnsembleParams(3, 1.0), DecoherenceRates(),
                       ProtocolParams(coupling=0.2, squeeze_time=1.0))
    assert compute_moments(rhs).xx2 == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_longitudinal_decay_closed_form():
    params = EnsembleParams(4, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.0, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=0.01, t_final=2.0, checkpoint_every=50)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto)
    got = traj.moments[-1].mean_z / params.n_spins
    assert got == pytest.approx(math.exp(-0.2), rel=1e-8)


def test_evolve_unitary_quadratures_match_closed_form():
    params = EnsembleParams(4, 1.0)
    proto = ProtocolParams(coupling=0.05, squeeze_time=1.0)  # theta0 = 0.05
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    traj = evolve(build_initial_state(params), cfg, params, DecoherenceRates(), proto)
    mom = traj.moments[-1]
    for theta in (0.0, 0.35, 1.2, 2.9):
        want = analytic.xi2_theta_finite_polarization(4, 1.0, 0.05, theta)
        assert mom.xi2(theta) == pytest.approx(want, rel=1e-10)


def test_evolve_identity_for_trivial_generator():
    params = EnsembleParams(1, 0.7)
    proto = ProtocolParams(coupling=0.0, squeeze_time=3.0)
    cfg = IntegratorConfig(dt=0.01, t_final=3.0)
    state = build_initial_state(params)
    traj = evolve(state, cfg, params, DecoherenceRates(), proto)
    assert np.max(np.abs(traj.final.entries - state.entries)) < 1e-12


def test_evolve_invariants_along_trajectory():
    params = EnsembleParams(5, 0.9)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=2e-3, t_final=2.0, checkpoint_every=100)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                  check_positivity=True)  # raises on violation
    assert max(abs(tr - 1.0) for tr in traj.traces) < 1e-12
    assert traj.final.hermiticity_defect() < 1e-12
    assert traj.final.min_eigenvalue() > -1e-10


def test_evolve_purity_non_increasing_without_hamiltonian():
    params = EnsembleParams(4, 0.9)
    rates = DecoherenceRates(0.05, 0.08)
    proto = ProtocolParams(coupling=0.0, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=5e-3, t_final=2.0, checkpoint_every=40)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto)
    assert np.all(np.diff(traj.purities) <= 1e-12)


def test_evolve_dt_halving_stability():
    params = EnsembleParams(4, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0)
    results = []
    for dt in (0.01, 0.005):
        cfg = IntegratorConfig(dt=dt, t_final=2.0)
        traj = evolve(build_initial_state(params), cfg, params, rates, proto)
        m = traj.moments[-1]
        results.append((m.mean_z, m.yy2, m.xy_sym))
    for a, b in zip(*results):
        assert abs(a - b) <= 1e-8 * max(abs(b), 1e-3)


def test_pair_convention_pin():
    # Hamiltonian evolution at J*t = theta0 must equal the explicit pair
    # unitary with theta_12 = theta0: fixes the 2J-per-unordered-pair
    # weight of the ordered-pair sum.
    for n in (2, 3):
        params = EnsembleParams(n, 1.0)
        proto = ProtocolParams(coupling=0.04, squeeze_time=1.0)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        traj = evolve(build_initial_state(params), cfg, params, DecoherenceRates(), proto)
        got = traj.moments[-1]
        want = evolve_variable_coupling(uniform_couplings(n, 0.04), 1.0)
        for attr in ("mean_z", "xx2", "yy2", "xy_sym"):
            assert getattr(got, attr) == pytest.approx(getattr(want, attr), abs=1e-12)


# ---------------------------------------------------------------------------
# variable-coupling unitary
# ---------------------------------------------------------------------------

def test_variable_coupling_identity():
    n = 4
    mom = evolve_variable_coupling(np.zeros((n, n)), 0.7)
    assert np.allclose(mom.site_z, 0.7)
    assert mom.xx2 == pytest.approx(n, rel=1e-12)
    assert mom.yy2 == pytest.approx(n, rel=1e-12)


def test_variable_coupling_closed_form_tables():
    rng = np.random.default_rng(4)
    n = 5
    theta = rng.normal(0.05, 0.12, size=(n, n))
    theta = (theta + theta.T) / 2.0
    np.fill_diagonal(theta, 0.0)
    mom = evolve_variable_coupling(theta, 1.0)
    c = np.cos(4.0 * theta)
    s = np.sin(4.0 * theta)
    np.fill_diagonal(c, 1.0)
    np.fill_diagonal(s, 0.0)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            mask = np.ones(n, bool)
            mask[[k, l]] = False
            plus = np.prod(c[mask, k] * c[mask, l] + s[mask, k] * s[mask, l])
            minus = np.prod(c[mask, k] * c[mask, l] - s[mask, k] * s[mask, l])
            assert mom.pair_yy[k, l] == pytest.approx(0.5 * (plus - minus), abs=1e-12)
            assert mom.pair_xy[k, l] == pytest.approx(
                -s[k, l] * np.prod(c[mask, l]), abs=1e-12)
            assert abs(mom.pair_xx[k, l]) < 1e-12


def test_variable_coupling_state_matches_kronecker_unitary():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        theta = rng.normal(0.05, 0.12, size=(n, n))
        theta = (theta + theta.T) / 2.0
        np.fill_diagonal(theta, 0.0)
        gen = sum(theta[i, j] * kron_site("x", i, n) @ kron_site("x", j, n)
                  for i in range(n) for j in range(n) if i != j) + np.zeros((1 << n, 1 << n))
        u = _expm(-1j * gen)
        for pols in (np.ones(n), rng.uniform(0.0, 1.0, size=n)):
            rho0 = np.eye(1)
            for p in pols:
                rho0 = np.kron(rho0, np.diag([(1.0 + p) / 2.0, (1.0 - p) / 2.0]))
            got = variable_coupling_state(theta, pols)
            assert np.max(np.abs(got.entries - u @ rho0 @ u.conj().T)) <= 1e-12, f"n={n}"


def test_variable_coupling_validation():
    bad = np.zeros((3, 3))
    bad[0, 1] = 0.1  # asymmetric
    with pytest.raises(ValidationError):
        evolve_variable_coupling(bad, 1.0)
    diag = np.zeros((3, 3))
    diag[1, 1] = 0.2
    with pytest.raises(ValidationError):
        evolve_variable_coupling(diag, 1.0)
    with pytest.raises(ResourceError):
        evolve_variable_coupling(np.zeros((SPIN_CAP + 1, SPIN_CAP + 1)), 1.0)


def test_variable_coupling_rejects_out_of_range_polarization():
    # regression: P = 1.5 once produced mean_z = 4.5 for three spins
    with pytest.raises(ValidationError):
        evolve_variable_coupling(np.zeros((3, 3)), 1.5)
    with pytest.raises(ValidationError):
        evolve_variable_coupling(np.zeros((3, 3)), [1.0, -0.5, 0.5])
    with pytest.raises(ValidationError):
        evolve_variable_coupling(np.zeros((3, 3)), [1.0, 0.5])


# ---------------------------------------------------------------------------
# dephasing channel
# ---------------------------------------------------------------------------

def test_dephasing_identity_channel():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, 3)
    out = apply_dephasing(rho, 1.0)
    assert np.array_equal(out.entries, rho.entries)


def test_dephasing_full_kills_coherences():
    rng = np.random.default_rng(6)
    rho = random_density_matrix(rng, 3)
    out = apply_dephasing(rho, 0.0)
    off = out.entries - np.diag(np.diagonal(out.entries))
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(np.diagonal(out.entries), np.diagonal(rho.entries))


def test_dephasing_cptp_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rho = random_density_matrix(rng, 3)
        out = apply_dephasing(rho, float(rng.uniform()))
        assert out.trace_defect() < 1e-12
        assert out.min_eigenvalue() > -1e-12


def test_dephasing_scales_transverse_moments():
    mom0 = evolve_variable_coupling(uniform_couplings(4, 0.05), 1.0)
    rho = build_initial_state(EnsembleParams(4, 1.0))
    # re-create the twisted state through evolve to get a DensityMatrix
    proto = ProtocolParams(coupling=0.05, squeeze_time=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    twisted = evolve(rho, cfg, EnsembleParams(4, 1.0), DecoherenceRates(), proto).final
    s = math.exp(-0.5)
    mom_s = compute_moments(apply_dephasing(twisted, s), pair_correlations=True)
    assert mom_s.mean_z == pytest.approx(mom0.mean_z, rel=1e-9)
    assert mom_s.pair_yy[0, 1] == pytest.approx(s * s * mom0.pair_yy[0, 1], rel=1e-8)
    assert mom_s.pair_xy[0, 1] == pytest.approx(s * s * mom0.pair_xy[0, 1], rel=1e-8)


def test_dephasing_matches_exact_closed_form_on_squeezed_input():
    n, theta0 = 6, 0.05
    proto = ProtocolParams(coupling=theta0, squeeze_time=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    twisted = evolve(build_initial_state(EnsembleParams(n, 1.0)), cfg,
                     EnsembleParams(n, 1.0), DecoherenceRates(), proto).final
    mom0 = compute_moments(twisted)
    p_state = mom0.mean_z / n
    s = math.exp(-0.5)
    mom_s = compute_moments(apply_dephasing(twisted, s))
    for theta in (0.0, 0.4, 1.1, 2.5):
        want = mom_s.xi2(theta)
        got = analytic.xi2_after_dephasing_exact(mom0.xi2(theta), p_state, s)
        assert got == pytest.approx(want, rel=1e-10)


def test_dephasing_rejects_bad_survival():
    rho = build_initial_state(EnsembleParams(2, 1.0))
    with pytest.raises(DomainError):
        apply_dephasing(rho, -0.1)


# ---------------------------------------------------------------------------
# trace distance and factorization
# ---------------------------------------------------------------------------

def test_trace_distance_basics():
    up = build_initial_state(EnsembleParams(1, 1.0))
    down = DensityMatrix(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex), 1)
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2.0, 1)
    assert trace_distance(up, up) == 0.0
    assert trace_distance(up, down) == pytest.approx(1.0, rel=1e-14)
    assert trace_distance(up, mixed) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValidationError):
        trace_distance(up, build_initial_state(EnsembleParams(2, 1.0)))


def test_factorization_gap_trivial_limits():
    params = EnsembleParams(4, 0.9)
    cfg = IntegratorConfig(dt=5e-3, t_final=1.0)
    g = factorization_gap(params, DecoherenceRates(0.05, 0.1),
                          ProtocolParams(coupling=0.0, squeeze_time=1.0), cfg)
    assert g <= 1e-10
    g = factorization_gap(params, DecoherenceRates(),
                          ProtocolParams(coupling=0.3, squeeze_time=1.0), cfg)
    assert g <= 1e-10


def test_factorization_gap_ignores_the_probe_field():
    # the gap compares L_H and L_D only: a probe in proto changes no bit
    params = EnsembleParams(3, 0.9)
    rates = DecoherenceRates(0.05, 0.1)
    cfg = IntegratorConfig(dt=1e-2, t_final=0.5)
    proto = ProtocolParams(coupling=0.1, squeeze_time=0.5)
    without = factorization_gap(params, rates, proto, cfg)
    assert without > 1e-6
    assert factorization_gap(params, rates, replace(proto, signal_field=0.2), cfg) == without


def test_factorization_per_spin_gap_decreases():
    # The raw trace-distance gap at fixed N*J*T saturates upward with N;
    # the per-spin gap is the quantity that decreases monotonically.
    table = factorization_gap_table(range(2, 6), njt=0.2, gamma_sum_t=0.2, dt=1e-2)
    per_spin = [g / n for n, g in table]
    assert all(a > b for a, b in zip(per_spin, per_spin[1:]))


def _exact_factorization_gap(n, njt, gamma_sum_t, t_final=1.0):
    """Trace distance of exp[T(L_H+L_D)] rho0 and exp[T L_H] exp[T L_D] rho0.

    Built from Kronecker-product Paulis and a dense Liouvillian in the
    row-major vectorization vec(A rho B) = (A kron B^T) vec(rho); shares no
    code with the oracle's RK4 integrator.
    """
    dim = 1 << n
    eye = np.eye(dim)
    sx = kron_collective("x", n)
    ham = (njt / (n * t_final)) * (sx @ sx - n * eye)
    l_ham = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))

    def lindblad(op):
        ldl = op.conj().T @ op
        return np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))

    gamma = gamma_sum_t / (2.0 * t_final)  # split evenly between the channels
    l_diss = sum(gamma * lindblad(kron_site("x", i, n))
                 + gamma * (lindblad(kron_site("y", i, n)) + lindblad(kron_site("z", i, n)))
                 for i in range(n))
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0  # P = 1: every spin up along z
    vec = rho0.reshape(-1)
    joint = _expm(t_final * (l_ham + l_diss)) @ vec
    factored = _expm(t_final * l_ham) @ (_expm(t_final * l_diss) @ vec)
    return 0.5 * float(np.linalg.norm((joint - factored).reshape(dim, dim), "nuc"))


def test_factorization_gap_matches_exact_exponential():
    # An independent exact computation reproduces the RK4 gap and shows the
    # raw gap at fixed N*J*T rising with N (0.0232, 0.0296, 0.0321).
    ns = [2, 3, 4]
    table = factorization_gap_table(ns, njt=0.2, gamma_sum_t=0.2, t_final=1.0, dt=1e-2)
    exact = [_exact_factorization_gap(n, njt=0.2, gamma_sum_t=0.2) for n in ns]
    for (n, got), want in zip(table, exact):
        assert got == pytest.approx(want, rel=1e-8), f"N={n}"
    assert exact[0] < exact[1] < exact[2]


# ---------------------------------------------------------------------------
# metrology oracle
# ---------------------------------------------------------------------------

def test_metrology_zero_field_zero_slope():
    params = EnsembleParams(2, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.02, squeeze_time=1.0, signal_field=0.0)
    cfg = IntegratorConfig(dt=2e-3, t_final=1.0)
    rho0 = build_initial_state(params)
    a = evolve(rho0, cfg, params, rates, proto).final
    b = evolve(rho0, cfg, params, rates, proto).final
    slope = np.max(np.abs(a.entries - b.entries))
    assert slope <= 1e-10


def test_metrology_noise_run_ignores_the_probe_field():
    # the B_y = 0 run zeroes proto.signal_field, so noise and measured angle
    # are those of a zero-field call bit for bit; only the probe step differs
    params = EnsembleParams(3, 0.9)
    rates = DecoherenceRates(0.02, 0.03)
    cfg = IntegratorConfig(dt=5e-3, t_final=0.5)
    proto = ProtocolParams(coupling=0.05, squeeze_time=0.5)
    zero = simulate_metrology(params, rates, proto, cfg)
    probed = simulate_metrology(params, rates, replace(proto, signal_field=0.01), cfg)
    assert (probed.noise, probed.theta_min) == (zero.noise, zero.theta_min)
    assert (probed.b_step, zero.b_step) == (0.01, 1e-6 * rates.gamma_sum)


def test_metrology_single_spin_rotation():
    proto = ProtocolParams(coupling=0.0, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=1e-3, t_final=2.0)
    res = simulate_metrology(EnsembleParams(1, 1.0), DecoherenceRates(), proto, cfg,
                             measure_angle=0.0)
    assert res.signal_slope == pytest.approx(2.0 * proto.squeeze_time, rel=1e-6)


def test_metrology_effective_field():
    def slope_ratio(gp, gt, t=2.0):
        params = EnsembleParams(2, 1.0)
        rates = DecoherenceRates(gp, gt)
        res = simulate_metrology(params, rates,
                                 ProtocolParams(coupling=0.0, squeeze_time=t),
                                 IntegratorConfig(dt=2e-3, t_final=t),
                                 measure_angle=0.0)
        beta = res.signal_slope / params.n_spins / (2.0 * math.exp(-2.0 * rates.gamma_sum * t))
        return beta / analytic.effective_field(1.0, rates, t)

    # exact when the longitudinal channel is off
    assert slope_ratio(0.0, 0.05) == pytest.approx(1.0, rel=1e-6)
    # gamma_par breaks the interaction-picture factorization; measured ~8%
    assert abs(slope_ratio(0.02, 0.03) - 1.0) < 0.12


def test_metrology_snr_within_factor_two_of_formula():
    params = EnsembleParams(6, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0, total_time=2.0)
    res = simulate_metrology(params, rates, proto, IntegratorConfig(dt=4e-3, t_final=2.0))
    formula = analytic.signal_to_noise(
        params, rates,
        ProtocolParams(coupling=0.05, squeeze_time=2.0, signal_field=1.0, total_time=2.0))
    ratio = (res.signal_slope / res.noise) / formula
    assert 0.5 < ratio < 2.0


def test_decoherence_minimum_formula_vs_oracle_is_loose_at_small_n():
    # The closed form for the minimum under relaxation is a large-N
    # small-angle approximation; at N=6 it undershoots the oracle by ~50%
    # (measured), so pin agreement within a factor of two only.
    n = 6
    params = EnsembleParams(n, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=4e-3, t_final=2.0)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto)
    mom = traj.moments[-1]
    _, second = mom.minimize_second_moment()
    oracle_min = second / mom.mean_z
    formula = analytic.xi2_min_decoherence(n, 1.0, rates, 0.05, 2.0)
    assert 0.5 < formula / oracle_min < 2.0


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def test_trajectory_csv_export():
    params = EnsembleParams(3, 1.0)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=1.0)
    cfg = IntegratorConfig(dt=0.01, t_final=1.0, checkpoint_every=25)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto)
    buf = io.StringIO()
    traj.to_csv(buf, thetas=(0.0, 0.5))
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["t", "mean_x", "mean_y", "mean_z"]
    assert header[-2:] == ["trace", "purity"]
    assert len(lines) - 1 == len(traj.times)
    values = [float(x) for x in lines[-1].split(",")]
    assert all(math.isfinite(v) for v in values)
