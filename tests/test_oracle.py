import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oatsqueeze import analytic, oracle
from oatsqueeze.core import (
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
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

    Shares no code with the oracle's index gathers, so it serves as an
    independent reference for them.
    """
    out = np.eye(1, dtype=complex)
    for j in range(n):
        out = np.kron(out, PAULIS[alpha] if j == i else np.eye(2))
    return out


def kron_collective(alpha, n):
    return sum(kron_site(alpha, i, n) for i in range(n))


def hadamard_w(n):
    """W = H^{kron n}, the z basis to the oracle's collective-x frame (W = W^-1)."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = np.eye(1)
    for _ in range(n):
        out = np.kron(out, h)
    return out


def to_x_frame(z_matrix):
    """A z-basis reference matrix written in the oracle's x frame, W M W."""
    w = hadamard_w(int(math.log2(len(z_matrix))))
    return w @ z_matrix @ w


def flip_bits(rho, mask):
    """rho[a ^ mask, b ^ mask]: sigma_x on the sites of ``mask``, conjugating."""
    idx = np.arange(len(rho)) ^ mask
    return rho[np.ix_(idx, idx)]


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
    want = to_x_frame(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
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
    for table in (mom.pair_xx, mom.pair_xy, mom.pair_yy):
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
    # every term on, probe included, against dense Kronecker-product operators:
    # the uniform coupling through lindblad_rhs, and a disordered coupling
    # matrix theta through the dense generator that lindblad_rhs calls
    coupling, gamma_par, gamma_perp, field = 0.3, 0.05, 0.1, 0.2
    rates = DecoherenceRates(gamma_par, gamma_perp)
    rng, disorder = np.random.default_rng(11), np.random.default_rng(14)
    for n in (1, 2, 3, 4):
        dim = 1 << n
        sx = [to_x_frame(kron_site("x", i, n)) for i in range(n)]
        sy = to_x_frame(kron_collective("y", n))
        theta = disorder.normal(scale=0.3, size=(n, n))
        theta += theta.T
        np.fill_diagonal(theta, 0.0)
        general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for rho in (random_density_matrix(rng, n).entries, general):
            dissipator = np.zeros((dim, dim), dtype=complex)
            for i in range(n):
                for alpha, gamma in (("x", gamma_par), ("y", gamma_perp), ("z", gamma_perp)):
                    op = to_x_frame(kron_site(alpha, i, n))
                    dissipator += gamma * (op @ rho @ op - rho)
            uniform = lindblad_rhs(DensityMatrix(rho, n), EnsembleParams(n, 1.0), rates,
                                   ProtocolParams(coupling=coupling, squeeze_time=1.0,
                                                  signal_field=field)).entries
            disordered = oracle._dense_rhs(rho, n,
                                           *oracle._dense_generator(theta, rates, field))
            for couplings, got in ((coupling * (1.0 - np.eye(n)), uniform),
                                   (theta, disordered)):
                ham = field * sy + sum(couplings[i, j] * sx[i] @ sx[j]
                                       for i in range(n) for j in range(n) if i != j)
                want = -1j * (ham @ rho - rho @ ham) + dissipator
                assert np.max(np.abs(got - want)) <= 1e-12, f"n={n}"


def test_moments_match_kronecker_expectations():
    # every field of compute_moments against tr(O rho) with Kronecker-built O,
    # on density matrices and on traceless Hermitian matrices (RHS-like input)
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 5):
        dim = 1 << n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + a.conj().T
        traceless = a - np.trace(a) / dim * np.eye(dim)
        site = {alpha: [to_x_frame(kron_site(alpha, i, n)) for i in range(n)]
                for alpha in "xyz"}
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
            # <sy_k sx_l> is read as pair_xy.T
            for (alpha, beta), got in (("xx", mom.pair_xx), ("xy", mom.pair_xy),
                                       ("yx", mom.pair_xy.T), ("yy", mom.pair_yy)):
                table = np.array([[0.0 if k == l else ev(site[alpha][k] @ site[beta][l])
                                   for l in range(n)] for k in range(n)])
                assert np.max(np.abs(got - table)) <= 1e-12, f"n={n} {alpha}{beta}"


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
    assert traj.max_trace_defect < 1e-12
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
# pair-type basis
# ---------------------------------------------------------------------------

def symmetrized(rho, n):
    """The average of rho over every permutation of the sites, built from
    bit permutations of the basis indices alone."""
    idx = np.arange(1 << n)
    bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
    out = np.zeros_like(rho)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        moved = sum(bits[perm[i]] << (n - 1 - i) for i in range(n))
        out += rho[np.ix_(moved, moved)]
    return out / len(perms)


def random_symmetric_state(rng, n):
    rho = symmetrized(random_density_matrix(rng, n).entries, n)
    return (rho + rho.conj().T) / 2.0


def first_of_each_type(n):
    """Flat position a * 2**n + b of one dense entry of each pair type."""
    return np.unique(oracle._type_index(n).ravel(), return_index=True)[1]


def product_state(polarizations, n):
    """The dense product of (I + P_i sx)/2 by the rule rho[a, b] = row[a ^ b]."""
    idx = np.arange(1 << n)
    return oracle._product_row(polarizations, n).astype(complex)[idx[:, None] ^ idx]


def test_pair_type_tables():
    # C(n+3, 3) types, each on some entry; each dense entry's type has the
    # site-kind counts of (bit_i(a), bit_i(b)) read bit by bit, and the
    # transposed entry has the mirrored type
    for n in range(1, 7):
        types, index = oracle._pair_types(n), oracle._type_index(n)
        assert len(types.counts) == math.comb(n + 3, 3)
        dim = 1 << n
        a, b = np.divmod(np.arange(dim * dim), dim)
        kinds = np.zeros((dim * dim, 4), dtype=int)
        for i in range(n):
            kinds[np.arange(dim * dim), 2 * ((a >> i) & 1) + ((b >> i) & 1)] += 1
        assert np.array_equal(types.counts[index.reshape(-1)], kinds), f"n={n}"
        values, first = np.unique(index.ravel(), return_index=True)
        assert np.array_equal(values, np.arange(len(types.counts)))
        assert np.array_equal(index.T[first // dim, first % dim], types.mirror)


def test_type_weight_tables():
    # the entries of each type, counted from the dense index table; the
    # tables of n > 8 are large, so the caches are emptied afterwards
    try:
        for n in range(1, 13):
            types = oracle._pair_types(n)
            diagonal = np.flatnonzero(types.counts[:, 1] + types.counts[:, 2] == 0)
            assert types.mult.sum() == 4 ** n, f"n={n}"
            assert types.mult[diagonal].sum() == 2 ** n, f"n={n}"
            assert np.array_equal(types.mult, np.bincount(oracle._type_index(n).reshape(-1))), \
                f"n={n}"
            assert not types.counts[diagonal, 1:3].any(), f"n={n}"
    finally:
        for cache in (oracle._bit_tables, oracle._pair_types, oracle._type_index):
            cache.cache_clear()


@pytest.mark.parametrize("n", [56, 57, 60])
def test_pair_type_tables_hold_every_type_number_past_int16(n):
    # regression: the lookup was int16, so from n = 57 (K = 34220 > 32767)
    # type numbers wrapped and mirror and row_moves held -32768; built
    # uncached, since only the tables are checked
    types = oracle._pair_types.__wrapped__(n)
    k = len(types.counts)
    _, n01, n10, n11 = types.counts.T
    assert np.array_equal(types.lookup[n10 + n11, n01 + n11, n01 + n10], np.arange(k))
    assert np.array_equal(types.mirror[types.mirror], np.arange(k))
    for moves in (types.mirror, types.local_moves, types.row_moves):
        assert moves.min() >= 0 and moves.max() < k


@pytest.mark.parametrize("rates, field", [
    (DecoherenceRates(), 0.0), (DecoherenceRates(), 1e-3),
    (DecoherenceRates(0.02, 0.03), 0.0), (DecoherenceRates(0.02, 0.03), 1e-3),
])
def test_checkpoints_match_the_dense_owners(monkeypatch, rates, field):
    # check_positivity reads every checkpoint's lowest eigenvalue, t = 0
    # included, from its Dicke blocks; that eigenvalue, and the moments,
    # purity and trace defect each checkpoint reads from the coordinates, are
    # those of the checkpoint's dense matrix
    states, traces, lows = [], [], []
    min_eigenvalue, record = oracle._SymmetricState.min_eigenvalue, oracle.Trajectory._record

    def expanded(self):
        states.append(self)
        lows.append(min_eigenvalue(self))
        return lows[-1]

    def margins(self, herm, trace, t, low=None):
        traces.append(trace)
        return record(self, herm, trace, t, low)

    for n in range(1, 9):
        params = EnsembleParams(n, 0.9)
        proto = ProtocolParams(coupling=0.07, squeeze_time=0.1, signal_field=field)
        cfg = IntegratorConfig(dt=0.01, t_final=0.1, checkpoint_every=1)
        plain = evolve(build_initial_state(params), cfg, params, rates, proto)
        with monkeypatch.context() as patch:
            patch.setattr(oracle._SymmetricState, "min_eigenvalue", expanded)
            patch.setattr(oracle.Trajectory, "_record", margins)
            states.clear()
            traces.clear()
            lows.clear()
            traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                          check_positivity=True)
        assert traj.moments == plain.moments and traj.purities == plain.purities
        # one per checkpoint
        assert len(states) == len(traces) == len(traj.times) == 11, f"n={n}"
        assert traj.final is states[-1] and traj.min_eigenvalue == min(lows)
        for t, state, mom, purity, trace, low in zip(traj.times, states, traj.moments,
                                                     traj.purities, traces, lows):
            assert abs(low - DensityMatrix.min_eigenvalue(state)) <= 1e-12, f"n={n} t={t}"
            dense = compute_moments(state)
            names = ("mean_x", "mean_y", "mean_z", "xx2", "yy2", "xy_sym")
            got = {name: getattr(mom, name) for name in names}
            want = {name: getattr(dense, name) for name in names}
            got.update(purity=purity, trace_defect=trace)
            want.update(purity=DensityMatrix.purity(state),
                        trace_defect=DensityMatrix.trace_defect(state))
            for name, value in want.items():
                assert abs(got[name] - value) <= 1e-14 * max(abs(value), 1.0), \
                    f"n={n} t={t} {name}"


@pytest.mark.parametrize("rates, field", [
    (DecoherenceRates(), 0.0), (DecoherenceRates(), 0.2),
    (DecoherenceRates(0.05, 0.1), 0.0), (DecoherenceRates(0.05, 0.1), 0.2),
])
def test_pair_type_rhs_matches_dense_generator(rates, field):
    rng = np.random.default_rng(13)
    proto = ProtocolParams(coupling=0.3, squeeze_time=1.0, signal_field=field)
    for n in range(1, 7):
        rho = random_symmetric_state(rng, n)
        want = lindblad_rhs(DensityMatrix(rho, n), EnsembleParams(n, 1.0), rates, proto)
        got = oracle._raw_rhs(rho.reshape(-1)[first_of_each_type(n)],
                              *oracle._type_generator(n, rates, proto))
        assert np.max(np.abs(got[oracle._type_index(n)] - want.entries)) <= 1e-15, f"n={n}"


@pytest.mark.parametrize("field", [0.0, 0.2])
def test_evolve_matches_dense_rk4(field):
    # a dense RK4 loop over lindblad_rhs, the integrator evolve replaced
    rates = DecoherenceRates(0.03, 0.05)
    for n in range(1, 7):
        params = EnsembleParams(n, 0.9)
        proto = ProtocolParams(coupling=0.07, squeeze_time=0.5, signal_field=field)
        cfg = IntegratorConfig(dt=0.01, t_final=0.5, checkpoint_every=25)
        rho = build_initial_state(params)
        traj = evolve(rho, cfg, params, rates, proto)
        for step in range(1, 51):
            def rhs(x):
                return lindblad_rhs(DensityMatrix(x, n), params, rates, proto).entries

            k1 = rhs(rho.entries)
            k2 = rhs(rho.entries + 0.005 * k1)
            k3 = rhs(rho.entries + 0.005 * k2)
            k4 = rhs(rho.entries + 0.01 * k3)
            rho = DensityMatrix(rho.entries + (0.01 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), n)
            if step % 25 == 0:
                want = compute_moments(rho)
                got = traj.moments[step // 25]
                for name in ("mean_x", "mean_y", "mean_z", "xx2", "yy2", "xy_sym"):
                    assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14, \
                        f"n={n} step={step} {name}"
        assert np.max(np.abs(traj.final.entries - rho.entries)) <= 1e-14, f"n={n}"
        assert traj.max_hermiticity_defect == 0.0, f"n={n}"


@pytest.mark.parametrize("rates, field", [
    (DecoherenceRates(), 0.0), (DecoherenceRates(), 0.2),
    (DecoherenceRates(0.03, 0.05), 0.0), (DecoherenceRates(0.03, 0.05), 0.2),
])
def test_evolve_matches_stagewise_rk4_beyond_the_dense_test(rates, field):
    # four _raw_rhs stages per step on the complex type values, at the spin
    # counts where the dense reference loop is too slow; 50 steps at n = 7
    # and 8 take the increment form
    for n in (7, 8):
        params = EnsembleParams(n, 0.9)
        proto = ProtocolParams(coupling=0.07, squeeze_time=0.5, signal_field=field)
        cfg = IntegratorConfig(dt=0.01, t_final=0.5, checkpoint_every=25)
        traj = evolve(build_initial_state(params), cfg, params, rates, proto)
        gen = oracle._type_generator(n, rates, proto)
        r = build_initial_state(params).entries.reshape(-1)[first_of_each_type(n)]
        for step in range(1, 51):
            k1 = oracle._raw_rhs(r, *gen)
            k2 = oracle._raw_rhs(r + 0.005 * k1, *gen)
            k3 = oracle._raw_rhs(r + 0.005 * k2, *gen)
            k4 = oracle._raw_rhs(r + 0.01 * k3, *gen)
            r = r + (0.01 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step % 25 == 0:
                want = compute_moments(DensityMatrix(r[oracle._type_index(n)], n))
                got = traj.moments[step // 25]
                for name in ("mean_x", "mean_y", "mean_z", "xx2", "yy2", "xy_sym"):
                    assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14, \
                        f"n={n} step={step} {name}"


def rk4_form(monkeypatch, form):
    """Make ``evolve`` take the named RK4 form whatever the run's length."""
    monkeypatch.setattr(oracle, "_increment_pays", lambda n_steps, k: form == "increment")


def test_rk4_form_rule_picks_by_steps_against_k_cubed():
    def k(n):
        return math.comb(n + 3, 3)

    # the benchmark's evolve at n = 8 (6 steps) and a long run at n = 12
    assert not oracle._increment_pays(6, k(8))
    assert not oracle._increment_pays(100, k(12))
    # the factorization gap table at n = 2..6 (dt = 0.01, t_final = 1)
    for n in range(2, 7):
        assert oracle._increment_pays(100, k(n)), f"n={n}"


@pytest.mark.parametrize("rates, field", [
    (DecoherenceRates(), 0.0), (DecoherenceRates(0.05, 0.1), 0.2),
])
def test_gather_form_is_the_stagewise_rk4_bit_for_bit(monkeypatch, rates, field):
    rk4_form(monkeypatch, "gather")
    for n in (8, 12):
        params = EnsembleParams(n, 0.9)
        proto = ProtocolParams(coupling=0.07, squeeze_time=0.1, signal_field=field)
        cfg = IntegratorConfig(dt=0.01, t_final=0.1)
        traj = evolve(build_initial_state(params), cfg, params, rates, proto)
        gen = oracle._type_generator(n, rates, proto)
        dt = cfg.t_final / cfg.steps()
        r = build_initial_state(params).values
        for _ in range(cfg.steps()):
            k1 = oracle._raw_rhs(r, *gen)
            k2 = oracle._raw_rhs(r + (dt / 2.0) * k1, *gen)
            k3 = oracle._raw_rhs(r + (dt / 2.0) * k2, *gen)
            k4 = oracle._raw_rhs(r + dt * k3, *gen)
            r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(traj.final.values, r), f"n={n}"


@pytest.mark.parametrize("rates", [DecoherenceRates(), DecoherenceRates(0.02, 0.03)])
@pytest.mark.parametrize("field", [0.0, 1e-3])
def test_the_two_rk4_forms_agree(monkeypatch, rates, field):
    names = ("mean_x", "mean_y", "mean_z", "xx2", "yy2", "xy_sym")
    for n in range(2, SPIN_CAP + 1):
        params = EnsembleParams(n, 0.9)
        proto = ProtocolParams(coupling=0.07, squeeze_time=0.2, signal_field=field)
        cfg = IntegratorConfig(dt=0.01, t_final=0.2, checkpoint_every=5)
        runs = {}
        for form in ("increment", "gather"):
            rk4_form(monkeypatch, form)
            runs[form] = evolve(build_initial_state(params), cfg, params, rates, proto)
        got, want = runs["gather"], runs["increment"]
        assert got.times == want.times
        for t, mom, ref, purity, ref_purity in zip(got.times, got.moments, want.moments,
                                                   got.purities, want.purities):
            pairs = [(getattr(mom, name), getattr(ref, name)) for name in names]
            for name, (a, b) in zip(names + ("purity",), pairs + [(purity, ref_purity)]):
                assert abs(a - b) <= 1e-13 * max(abs(b), 1.0), f"n={n} t={t} {name}"


def test_both_rk4_forms_refuse_the_same_unstable_step(monkeypatch):
    params = EnsembleParams(8, 0.9)
    messages = []
    for form in ("increment", "gather"):
        rk4_form(monkeypatch, form)
        with pytest.raises(ValidationError, match="outside RK4's stability region") as info:
            evolve(build_initial_state(params), IntegratorConfig(dt=0.01, t_final=0.06), params,
                   DecoherenceRates(1e5, 0.0), ProtocolParams(coupling=0.05, squeeze_time=0.06))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("field", [0.0, 1e-3])
def test_gather_form_is_exactly_hermitian_at_every_step(monkeypatch, field):
    # the checkpoints read the stepped type values, never re-symmetrized
    rk4_form(monkeypatch, "gather")
    for n in (3, 8, 12):
        params = EnsembleParams(n, 0.9)
        cfg = IntegratorConfig(dt=0.01, t_final=1.0, checkpoint_every=1)
        proto = ProtocolParams(coupling=0.05, squeeze_time=1.0, signal_field=field)
        traj = evolve(build_initial_state(params), cfg, params,
                      DecoherenceRates(0.02, 0.03), proto)
        assert len(traj.times) == 101
        assert traj.max_hermiticity_defect == 0.0, f"n={n}"


def test_hermiticity_defect_is_the_direct_expression():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6, 8):
        dim = 1 << n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        want = float(np.max(np.abs(m - m.conj().T)))
        assert DensityMatrix(m, n).hermiticity_defect() == want, f"n={n}"


def test_evolve_refuses_a_state_that_is_not_permutation_symmetric():
    params = EnsembleParams(2, 0.9)
    state = oracle.variable_coupling_state(np.zeros((2, 2)), [0.9, 0.5])
    cfg = IntegratorConfig(dt=0.01, t_final=0.01)
    with pytest.raises(ValidationError, match="build_initial_state") as info:
        evolve(state, cfg, params, DecoherenceRates(), ProtocolParams(0.0, 0.01))
    assert len(str(info.value).splitlines()) == 1


@pytest.mark.parametrize("polarization", [0.0, 1e-3, 0.37, 0.9, 1.0])
def test_product_types_are_the_dense_entries_bit_for_bit(polarization):
    # evolve's closed-form start, the values build_initial_state stores,
    # against the dense state: expanded, up to n = 10; beyond, against one
    # entry per type, row[a ^ b] for a ^ b with ones at the n01 + n10 sites
    # that follow the type's n00 sites
    try:
        for n in range(1, 13):
            types = oracle._pair_types(n)
            got = build_initial_state(EnsembleParams(n, polarization)).values
            _, n01, n10, n11 = types.counts.T
            want = oracle._product_row(polarization, n)[((1 << (n01 + n10)) - 1) << n11]
            assert not got.imag.any(), f"n={n}"
            assert [x.hex() for x in got.real.tolist()] == [x.hex() for x in want.tolist()], \
                f"n={n}"
            if n <= 10:
                assert np.array_equal(got[oracle._type_index(n)], product_state(polarization, n))
    finally:
        for cache in (oracle._bit_tables, oracle._pair_types, oracle._type_index):
            cache.cache_clear()


def test_pair_types_and_generator_build_no_dense_array_at_twenty_spins():
    # the tables and the generator are O(K): K = 1771 at n = 20, where one
    # array of 4**n entries would take terabytes; the peak stays below even
    # one byte per basis index (measured: 0.79 of 1 MB)
    n = 20
    oracle._pair_types.cache_clear()
    tracemalloc.start()
    try:
        types = oracle._pair_types(n)
        oracle._type_generator(n, DecoherenceRates(0.02, 0.05),
                               ProtocolParams(coupling=0.07, squeeze_time=1.0, signal_field=1e-3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        oracle._pair_types.cache_clear()
    assert len(types.counts) == math.comb(n + 3, 3) == 1771
    assert peak < 2 ** n


def test_a_run_that_reads_only_moments_forms_no_dense_state():
    # one dense state at n = 12 takes 256 MB; the product state, a 6-step
    # evolve with every term of the generator and its moments stay on the
    # pair types, and a run this short takes the gather form, so it holds no
    # K x K matrix either (one takes 1.6 MB at K = 455)
    params = EnsembleParams(12, 0.9)
    oracle._type_index.cache_clear()
    tracemalloc.start()
    try:
        state = build_initial_state(params)
        traj = evolve(state, IntegratorConfig(dt=1e-3, t_final=6e-3, checkpoint_every=2),
                      params, DecoherenceRates(0.02, 0.05),
                      ProtocolParams(coupling=0.07, squeeze_time=6e-3, signal_field=1e-3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.moments) == 4
    assert "entries" not in vars(state) and "entries" not in vars(traj.final)
    assert oracle._type_index.cache_info().currsize == 0
    assert peak < 2 ** 20


@pytest.mark.parametrize("polarization", [0.0, 0.37, 1.0])
def test_first_read_of_the_entries_gives_the_dense_product_bits(polarization):
    # the entries of build_initial_state, and those of a final state that
    # never moved (no twisting, no rates), are row[a ^ b], formed on first
    # read, kept and read-only; the final state's imaginary parts are zeros,
    # negative on the mirrored types as the type values have them
    try:
        for n in range(1, 11):
            params = EnsembleParams(n, polarization)
            want = product_state(polarization, n)
            state = build_initial_state(params)
            final = evolve(state, IntegratorConfig(dt=0.1, t_final=0.1), params,
                           DecoherenceRates(), ProtocolParams(0.0, 0.1)).final
            assert "entries" not in vars(state) and "entries" not in vars(final)
            assert state.entries.tobytes() == want.tobytes(), f"n={n}"
            assert state.entries is state.entries and state.entries.dtype == want.dtype
            assert final.entries.real.tobytes() == want.real.tobytes(), f"n={n}"
            assert not final.entries.imag.any(), f"n={n}"
            with pytest.raises(ValueError, match="read-only"):
                final.entries[0, 0] = 1.0
    finally:
        oracle._type_index.cache_clear()


def test_initial_state_entries_are_read_only():
    # evolve reads the recorded P, not the entries: neither may change
    state = build_initial_state(EnsembleParams(3, 0.8))
    assert isinstance(state, oracle.ProductState) and state.polarization == 0.8
    with pytest.raises(ValueError, match="read-only"):
        state.entries[0, 0] = 1.0
    with pytest.raises(AttributeError):
        state.polarization = 0.5


def test_states_compare_by_identity():
    # == and hash() of two states with equal values raised on their array field
    a, b = (build_initial_state(EnsembleParams(3, 0.8)) for _ in range(2))
    pairs = [(a, b), tuple(oracle._SymmetricState(3, a.values.copy()) for _ in range(2)),
             tuple(DensityMatrix(state.entries, 3) for state in (a, b))]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y, x}) == 2


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
            want = to_x_frame(u @ rho0 @ u.conj().T)
            assert np.max(np.abs(got.entries - want)) <= 1e-12, f"n={n}"


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


@pytest.mark.parametrize("pols", [np.full((3, 3), 0.5), np.full((1, 3), 0.5)])
def test_variable_coupling_state_refuses_a_stack_of_polarization_rows(pols):
    # regression: _product_row takes a stack, and variable_coupling_state
    # passed one on and failed with numpy's broadcast ValueError
    with pytest.raises(ValidationError, match="polarizations must be scalar or length n_spins"):
        oracle.variable_coupling_state(np.zeros((3, 3)), pols)


MOMENT_FIELDS = ("mean_x", "mean_y", "mean_z", "xx2", "yy2", "xy_sym",
                 "pair_xx", "pair_xy", "pair_yy", "site_z")


def assert_same_moments(got, want, label):
    for name in MOMENT_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), f"{label} {name}"


def random_couplings(rng, n, count=None):
    shape = (n, n) if count is None else (count, n, n)
    theta = rng.normal(0.05, 0.1, size=shape)
    theta = (theta + np.swapaxes(theta, -1, -2)) / 2.0
    theta[..., np.arange(n), np.arange(n)] = 0.0
    return theta


def test_phase_read_moments_equal_the_dense_state_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in range(1, 11):
        for theta in (random_couplings(rng, n), np.zeros((n, n))):
            for pols in (0.7, rng.uniform(0.0, 1.0, size=n), 0.0, 1.0):
                want = compute_moments(variable_coupling_state(theta, pols),
                                       pair_correlations=True)
                assert_same_moments(evolve_variable_coupling(theta, pols), want, f"n={n}")


def test_variable_coupling_moments_do_not_depend_on_the_stack():
    rng = np.random.default_rng(22)
    for n, count in ((2, 9), (5, 4), (8, 6), (9, 3), (12, 2)):
        theta = random_couplings(rng, n, count)
        pols = [rng.uniform(0.3, 1.0, size=n) if i % 2 else float(rng.uniform())
                for i in range(count)]
        stacked = oracle._moments(oracle._variable_coupling_stack(theta, pols),
                                  pair_correlations=True)
        for i in range(count):
            assert_same_moments(stacked[i], evolve_variable_coupling(theta[i], pols[i]),
                                f"n={n} matrix {i}")


@given(st.integers(1, 10).flatmap(lambda n: st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=6)))
def test_stacked_product_rows_are_the_single_row_calls(pols):
    stack = np.array(pols)
    n = stack.shape[1]
    rows = oracle._product_row(stack, n)
    assert rows.shape == (len(stack), 1 << n)
    for row, single in zip(rows, stack):
        assert row.tobytes() == oracle._product_row(single, n).tobytes()


def test_product_row_is_row_zero_of_the_product_state():
    rng = np.random.default_rng(23)
    for n in range(1, SPIN_CAP + 1):
        pols = rng.uniform(0.0, 1.0, size=n)
        row = oracle._product_row(pols, n)
        state = oracle.variable_coupling_state(np.zeros((n, n)), pols)
        assert np.array_equal(state.entries[0], row), f"n={n}"
    rho = oracle.variable_coupling_state(np.zeros((3, 3)), [0.9, 0.4, 0.7]).entries
    idx = np.arange(8)
    assert np.array_equal(rho, rho[0][idx[:, None] ^ idx])  # rho[a, b] = row[a ^ b]


def test_variable_coupling_state_entries_are_row_of_a_xor_b_bit_for_bit():
    # the rows written in place are copies of row[a ^ b], then phased
    rng = np.random.default_rng(29)
    for n in range(1, 11):
        pols = rng.uniform(0.0, 1.0, size=n)
        theta = np.triu(rng.uniform(-0.2, 0.2, size=(n, n)), 1)
        theta += theta.T
        rho0 = product_state(pols, n)
        assert np.array_equal(variable_coupling_state(np.zeros((n, n)), pols).entries, rho0), \
            f"n={n}"
        phase = np.exp(-1j * oracle._coupling_phases(theta))
        want = rho0 * phase[:, None] * phase.conj()[None, :]
        assert np.array_equal(variable_coupling_state(theta, pols).entries, want), f"n={n}"


# ---------------------------------------------------------------------------
# per-site Pauli channels: dephasing and the exact dissipation leg
# ---------------------------------------------------------------------------

def test_stacked_pauli_channel_equals_each_matrix_alone():
    rng = np.random.default_rng(24)
    for n in (1, 3, 5):
        dim = 1 << n
        a = rng.normal(size=(7, dim, dim)) + 1j * rng.normal(size=(7, dim, dim))
        rho = a @ a.conj().transpose(0, 2, 1)
        survival = rng.uniform(size=7)
        out = oracle._pauli_channel(rho.transpose(1, 2, 0), n, survival, survival, np.ones(7))
        for i in range(7):
            want = apply_dephasing(DensityMatrix(rho[i], n), survival[i]).entries
            assert np.array_equal(out[..., i], want), f"n={n} matrix {i}"


def test_pauli_channel_matches_kraus_sum():
    # anisotropic (lx, ly, lz) inside the CPTP tetrahedron, against the
    # z-basis Kraus sum sum_alpha p_alpha sigma_alpha rho sigma_alpha taken
    # site by site with Kronecker-product Paulis
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        dim = 1 << n
        for _ in range(5):
            p0, px, py, pz = rng.dirichlet(np.ones(4))
            lx, ly, lz = p0 + px - py - pz, p0 - px + py - pz, p0 - px - py + pz
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T)
            want = rho
            for i in range(n):
                want = p0 * want + sum(p * kron_site(alpha, i, n) @ want @ kron_site(alpha, i, n)
                                       for alpha, p in (("x", px), ("y", py), ("z", pz)))
            entries = to_x_frame(rho)
            before = entries.copy()
            got = oracle._pauli_channel(entries, n, lx, ly, lz)
            assert np.max(np.abs(got - to_x_frame(want))) <= 1e-14, (n, lx, ly, lz)
            assert np.array_equal(entries, before)  # the kernel works on its own copy


def test_dephasing_identity_channel():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, 3)
    out = apply_dephasing(rho, 1.0)
    assert np.array_equal(out.entries, rho.entries)


def test_dephasing_full_kills_coherences():
    # at s = 0 only z populations survive: in the x frame the output is
    # invariant under every bit flip and is the flip average of the input
    rng = np.random.default_rng(6)
    rho = random_density_matrix(rng, 3)
    out = apply_dephasing(rho, 0.0).entries
    for i in range(3):
        assert np.array_equal(flip_bits(out, 1 << i), out)
    average = np.mean([flip_bits(rho.entries, mask) for mask in range(8)], axis=0)
    assert np.allclose(out, average)


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
    down = DensityMatrix(to_x_frame(np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)), 1)
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


def test_factorization_gap_commuting_limit():
    # sigma_x dephasing commutes with SX^2, so without gamma_perp the exact
    # gap is zero (2e-15 by dense expm).  What remains is the joint
    # leg's RK4 error, which falls as dt^4: about 1e-11 here, and 7e-10 at
    # J = 0.3 with the same dt.
    g = factorization_gap(EnsembleParams(4, 0.9), DecoherenceRates(0.1, 0.0),
                          ProtocolParams(coupling=0.1, squeeze_time=1.0),
                          IntegratorConfig(dt=5e-3, t_final=1.0))
    assert g <= 1e-10
    assert _exact_factorization_gap(4, 0.1, 0.1, 0.0, 0.9) <= 1e-13


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


def _kron_liouvillians(n, coupling, gamma_par, gamma_perp):
    """L_H for H = J (SX^2 - N) and L_D for the sigma_x channel at gamma_par
    and the sigma_y, sigma_z channels at gamma_perp, as dense z-basis
    superoperators in the row-major vectorization vec(A rho B) =
    (A kron B^T) vec(rho).  Built from Kronecker-product Paulis; shares no
    code with the oracle's RK4 integrator or its exact dissipation channel.
    """
    eye = np.eye(1 << n)
    sx = kron_collective("x", n)
    ham = coupling * (sx @ sx - n * eye)
    l_ham = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))

    def lindblad(op):
        ldl = op.conj().T @ op
        return np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))

    l_diss = sum(gamma_par * lindblad(kron_site("x", i, n))
                 + gamma_perp * (lindblad(kron_site("y", i, n)) + lindblad(kron_site("z", i, n)))
                 for i in range(n))
    return l_ham, l_diss


def _exact_factorization_gap(n, coupling, gamma_par, gamma_perp, polarization, t_final=1.0):
    """Trace distance of exp[T(L_H+L_D)] rho0 and exp[T L_H] exp[T L_D] rho0,
    rho0 the product of (I + P sigma_z)/2."""
    dim = 1 << n
    l_ham, l_diss = _kron_liouvillians(n, coupling, gamma_par, gamma_perp)
    rho0 = np.eye(1)
    for _ in range(n):
        rho0 = np.kron(rho0, np.diag([1.0 + polarization, 1.0 - polarization]) / 2.0)
    vec = rho0.astype(complex).reshape(-1)
    joint = _expm(t_final * (l_ham + l_diss)) @ vec
    factored = _expm(t_final * l_ham) @ (_expm(t_final * l_diss) @ vec)
    return 0.5 * float(np.linalg.norm((joint - factored).reshape(dim, dim), "nuc"))


@pytest.mark.parametrize("gamma_par, gamma_perp", [(0.0, 0.1), (0.04, 0.16)])
def test_exact_dissipation_leg_matches_dense_exponential(gamma_par, gamma_perp):
    # factorization_gap's dissipation-only leg: exp(T L_D) of the z-product
    # state at P is the product state at P exp(-2 (gamma_par + gamma_perp) T)
    n, t = 3, 0.7
    rates = DecoherenceRates(gamma_par, gamma_perp)
    _, l_diss = _kron_liouvillians(n, 0.0, gamma_par, gamma_perp)
    for polarization in (1.0, 0.7):
        rho = np.eye(1)
        for _ in range(n):
            rho = np.kron(rho, np.diag([1.0 + polarization, 1.0 - polarization]) / 2.0)
        want = to_x_frame((_expm(t * l_diss) @ rho.astype(complex).reshape(-1)).reshape(8, 8))
        decayed = polarization * math.exp(-2.0 * rates.gamma_sum * t)
        got = build_initial_state(EnsembleParams(n, decayed)).entries
        assert np.max(np.abs(got - want)) <= 1e-14, f"P={polarization}"


def test_factorization_gap_matches_exact_exponential():
    # An independent exact computation reproduces the RK4 gap and shows the
    # raw gap at fixed N*J*T rising with N (0.0232, 0.0296, 0.0321).
    ns = [2, 3, 4]
    table = factorization_gap_table(ns, njt=0.2, gamma_sum_t=0.2, t_final=1.0, dt=1e-2)
    exact = [_exact_factorization_gap(n, 0.2 / n, 0.1, 0.1, 1.0) for n in ns]
    for (n, got), want in zip(table, exact):
        assert got == pytest.approx(want, rel=1e-8), f"N={n}"
    assert exact[0] < exact[1] < exact[2]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("gamma_par, gamma_perp", [(0.0, 0.1), (0.04, 0.16)])
@pytest.mark.parametrize("polarization", [1.0, 0.7])
def test_factorization_gap_split_channels_match_exact_exponential(
        n, gamma_par, gamma_perp, polarization):
    # unequal rates and P < 1 against the dense exponential; measured
    # within 4.2e-10 relative
    coupling = 0.2 / n
    got = factorization_gap(EnsembleParams(n, polarization),
                            DecoherenceRates(gamma_par, gamma_perp),
                            ProtocolParams(coupling=coupling, squeeze_time=1.0),
                            IntegratorConfig(dt=1e-2, t_final=1.0))
    want = _exact_factorization_gap(n, coupling, gamma_par, gamma_perp, polarization)
    assert got == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# Dicke blocks of symmetric states
# ---------------------------------------------------------------------------

# (P, J, gamma_par, gamma_perp, B_y): every term of the generator, P = 1 and
# each channel alone
BLOCK_GRID = [(0.83, 0.07, 0.07, 0.05, 0.02), (1.0, 0.03, 0.02, 0.0, 0.0),
              (0.5, 0.1, 0.0, 0.08, 0.1)]


def dense_spectrum(state):
    return np.linalg.eigvalsh((state.entries + state.entries.conj().T) / 2.0)


@pytest.mark.parametrize("polarization, coupling, gamma_par, gamma_perp, field", BLOCK_GRID)
def test_block_spectra_match_the_dense_eigenvalues(monkeypatch, polarization, coupling,
                                                   gamma_par, gamma_perp, field):
    # the trace distance of two evolved finals and each checkpoint's lowest
    # eigenvalue from the Dicke blocks, against eigvalsh of the dense
    # entries; the block eigenvalues weighted by d_j sum to the dense trace
    lows = []
    min_eigenvalue = oracle._SymmetricState.min_eigenvalue

    def kept(self):
        lows.append((self, min_eigenvalue(self)))
        return lows[-1][1]

    monkeypatch.setattr(oracle._SymmetricState, "min_eigenvalue", kept)
    try:
        for n in range(1, 11):
            params = EnsembleParams(n, polarization)
            rates = DecoherenceRates(gamma_par, gamma_perp)
            cfg = IntegratorConfig(dt=0.01, t_final=0.2)
            lows.clear()
            joint = evolve(build_initial_state(params), cfg, params, rates,
                           ProtocolParams(coupling, 0.2, signal_field=field),
                           check_positivity=True)
            other = evolve(build_initial_state(replace(params, polarization=0.7)), cfg,
                           replace(params, polarization=0.7), DecoherenceRates(0.03, 0.01),
                           ProtocolParams(0.05, 0.2))
            got = trace_distance(joint.final, other.final)
            want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(
                (joint.final.entries - other.final.entries
                 + (joint.final.entries - other.final.entries).conj().T) / 2.0)))
            assert abs(got - want) <= 1e-12 * want, f"n={n}"
            assert len(lows) == 2, f"n={n}"  # t = 0 and t_final
            for state, low in lows:
                assert abs(low - dense_spectrum(state)[0]) <= 1e-12, f"n={n}"
            blocks = oracle._block_diagonal(joint.final.values, n)
            total = oracle._dicke_blocks(n).copies @ np.diagonal(blocks).real
            assert abs(total - np.trace(joint.final.entries).real) <= 1e-14, f"n={n}"
    finally:
        oracle._type_index.cache_clear()


def test_dicke_blocks_tile_the_pair_types():
    # sum_j (2j + 1)**2 = K: the entries reach each of the K positions inside
    # the diagonal blocks and none outside, and sum_j d_j (2j + 1) = 2**n;
    # built uncached, tables only, and the pair-type tables they read are
    # dropped afterwards
    try:
        for n in range(1, 61):
            blocks = oracle._dicke_blocks.__wrapped__(n)
            k = math.comb(n + 3, 3)
            assert list(blocks.sizes) == list(range(n % 2 + 1, n + 2, 2)), f"n={n}"
            assert int(np.sum(blocks.sizes ** 2)) == k, f"n={n}"
            width = int(blocks.sizes.sum())
            block_of_row = np.repeat(np.arange(len(blocks.sizes)), blocks.sizes)
            inside = np.flatnonzero(np.equal.outer(block_of_row, block_of_row))
            assert np.array_equal(np.unique(blocks.position), inside), f"n={n}"
            assert len(blocks.copies) == width, f"n={n}"
            assert math.isclose(blocks.copies.sum(), 2.0 ** n, rel_tol=1e-15), f"n={n}"
            assert blocks.copies[-1] == 1.0 and blocks.copies.min() >= 1.0, f"n={n}"
            assert blocks.type.min() >= 0 and blocks.type.max() < k, f"n={n}"
    finally:
        oracle._pair_types.cache_clear()


@pytest.mark.parametrize("polarization", [0.0, 0.37, 0.9, 1.0])
def test_product_state_blocks_have_the_binomial_spectrum(polarization):
    # the product state at P is a function of the collective z spin: in
    # block j its eigenvalues are ((1 + P)/2)**(n/2 + m) ((1 - P)/2)**(n/2 - m)
    # for m = -j .. j, independent of the dense reference
    up, down = (1.0 + polarization) / 2.0, (1.0 - polarization) / 2.0
    for n in range(1, SPIN_CAP + 1):
        state = build_initial_state(EnsembleParams(n, polarization))
        got = np.linalg.eigvalsh(oracle._block_diagonal(state.values, n))
        want = np.sort([up ** (n / 2.0 + m) * down ** (n / 2.0 - m)
                        for size in oracle._dicke_blocks(n).sizes.tolist()
                        for m in np.arange(-(size - 1) / 2.0, (size + 1) / 2.0)])
        assert np.max(np.abs(got - want)) <= 1e-15, f"n={n}"


def test_identical_symmetric_states_are_at_distance_exactly_zero():
    # the gap_vanishes_* checks of verify factorization read this zero
    params = EnsembleParams(6, 0.9)
    cfg = IntegratorConfig(dt=0.01, t_final=0.1)
    proto = ProtocolParams(coupling=0.3, squeeze_time=0.1, signal_field=0.05)
    final = evolve(build_initial_state(params), cfg, params, DecoherenceRates(0.02, 0.03),
                   proto).final
    again = evolve(build_initial_state(params), cfg, params, DecoherenceRates(0.02, 0.03),
                   proto).final
    assert trace_distance(final, final) == 0.0
    assert trace_distance(final, again) == 0.0
    assert trace_distance(build_initial_state(params), build_initial_state(params)) == 0.0
    assert factorization_gap(EnsembleParams(4, 0.9), DecoherenceRates(),
                             ProtocolParams(coupling=0.3, squeeze_time=1.0),
                             IntegratorConfig(dt=5e-3, t_final=1.0)) == 0.0


def test_symmetric_state_reads_form_no_dense_array(monkeypatch):
    # with the one 4**n table refused, positivity checks, the gap and every
    # read of a symmetric state still run, and give the dense values
    def refused(n):
        raise AssertionError("a symmetric state was made dense")

    rates = DecoherenceRates(0.02, 0.03)
    for n in range(1, 9):
        params = EnsembleParams(n, 0.9)
        proto = ProtocolParams(coupling=0.07, squeeze_time=0.2, signal_field=1e-3)
        cfg = IntegratorConfig(dt=0.01, t_final=0.2, checkpoint_every=5)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_type_index", refused)
            traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                          check_positivity=True)
            gap = factorization_gap(params, rates, proto, cfg)
            final = traj.final
            got = (final.min_eigenvalue(), final.purity(), final.trace_defect(),
                   final.hermiticity_defect())
            with pytest.raises(AssertionError, match="made dense"):
                final.entries
        dense = DensityMatrix(final.entries, n)
        want = (dense.min_eigenvalue(), dense.purity(), dense.trace_defect(),
                dense.hermiticity_defect())
        assert traj.min_eigenvalue is not None and gap > 0.0
        for name, a, b in zip(("min_eigenvalue", "purity", "trace_defect", "hermiticity"),
                              got, want):
            assert abs(a - b) <= 1e-14, f"n={n} {name}"


def test_symmetric_state_is_a_value_with_a_dense_view_formed_once(monkeypatch):
    # no DensityMatrix subclass: its entries are a read-only cached gather of
    # its values, one _type_index call per state however often they are read
    calls = []

    def counted(n):
        calls.append(n)
        return type_index(n)

    type_index = oracle._type_index
    monkeypatch.setattr(oracle, "_type_index", counted)
    rates = DecoherenceRates(0.02, 0.03)
    for n in range(1, 7):
        params = EnsembleParams(n, 0.8)
        start = build_initial_state(params)
        final = evolve(start, IntegratorConfig(dt=0.01, t_final=0.1), params, rates,
                       ProtocolParams(0.2, 0.1, signal_field=0.01)).final
        for state in (start, final):
            assert not isinstance(state, DensityMatrix)
            calls.clear()
            first = state.entries
            assert state.entries is first and calls == [n], f"n={n}"
            want = state.values[type_index(n)]
            assert (first.dtype, first.tobytes()) == (want.dtype, want.tobytes()), f"n={n}"
            with pytest.raises(ValueError, match="read-only"):
                first[0, 0] = 1.0


def test_trace_distance_mixes_symmetric_and_dense_states():
    # a symmetric state against a dense one reads its dense view, at the
    # dense-dense distance; only the spin counts must agree
    rng = np.random.default_rng(34)
    for n in range(1, 7):
        params = EnsembleParams(n, 0.9)
        symmetric = evolve(build_initial_state(params), IntegratorConfig(dt=0.01, t_final=0.2),
                           params, DecoherenceRates(0.02, 0.03),
                           ProtocolParams(0.3, 0.2, signal_field=0.05)).final
        dense, other = DensityMatrix(symmetric.entries, n), random_density_matrix(rng, n)
        want = trace_distance(dense, other)
        assert abs(trace_distance(symmetric, other) - want) <= 1e-14, f"n={n}"
        assert abs(trace_distance(other, symmetric) - want) <= 1e-14, f"n={n}"
        larger = random_density_matrix(rng, n + 1)
        for a, b in ((symmetric, larger), (larger, symmetric)):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                trace_distance(a, b)


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
    # simulate_metrology ignores proto.signal_field: its step is always
    # 1e-6 * gamma_sum, so a call with a field is a zero-field call bit for bit
    params = EnsembleParams(3, 0.9)
    rates = DecoherenceRates(0.02, 0.03)
    cfg = IntegratorConfig(dt=5e-3, t_final=0.5)
    proto = ProtocolParams(coupling=0.05, squeeze_time=0.5)
    zero = simulate_metrology(params, rates, proto, cfg)
    probed = simulate_metrology(params, rates, replace(proto, signal_field=0.01), cfg)
    assert probed == zero
    # the quadrature mean is odd in B_y, so the slope needs no -B_y run
    rho0 = build_initial_state(params)
    f_plus, f_minus = (
        evolve(rho0, cfg, params, rates, replace(proto, signal_field=b))
        .moments[-1].quadrature_mean(probed.theta_min) for b in (0.01, -0.01))
    assert abs(f_plus + f_minus) <= 1e-15


def test_metrology_single_spin_rotation():
    proto = ProtocolParams(coupling=0.0, squeeze_time=2.0)
    cfg = IntegratorConfig(dt=1e-3, t_final=2.0)
    res = simulate_metrology(EnsembleParams(1, 1.0), DecoherenceRates(), proto, cfg,
                             measure_angle=0.0)
    assert res.signal_slope == pytest.approx(2.0 * proto.squeeze_time, rel=1e-6)


@pytest.mark.parametrize("angle", (math.inf, -math.inf, math.nan))
@pytest.mark.parametrize("method", ("second_moment", "quadrature_mean", "xi2"))
def test_moment_methods_refuse_a_non_finite_angle(method, angle):
    # regression: second_moment(inf) raised a bare "math domain error", and
    # a NaN angle returned NaN
    moments = oracle.CollectiveMoments(0.0, 0.0, 4.0, 4.0, 4.0, 0.0)
    with pytest.raises(ValidationError, match="^quadrature angle finite$"):
        getattr(moments, method)(angle)


@pytest.mark.parametrize("angle", (math.inf, -math.inf, math.nan))
def test_metrology_refuses_a_non_finite_measure_angle(angle):
    with pytest.raises(ValidationError, match="quadrature angle finite"):
        simulate_metrology(EnsembleParams(2, 1.0), DecoherenceRates(0.01, 0.01),
                           ProtocolParams(coupling=0.1, squeeze_time=1.0),
                           IntegratorConfig(dt=1e-2, t_final=1.0), measure_angle=angle)


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
# the collective-x frame
# ---------------------------------------------------------------------------

def test_x_frame_product_state_matches_frame_change():
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for pols in (0.7, 1.0, 0.0, rng.uniform(0.0, 1.0, size=n)):
            diag = np.array([1.0])
            for p in np.broadcast_to(pols, (n,)):
                diag = np.kron(diag, [(1.0 + p) / 2.0, (1.0 - p) / 2.0])
            x = oracle.variable_coupling_state(np.zeros((n, n)), pols).entries
            assert np.max(np.abs(x - to_x_frame(np.diag(diag)))) <= 1e-15, f"n={n}"
    assert np.array_equal(oracle.variable_coupling_state(np.zeros((2, 2)), 0.6).entries,
                          [[0.25, 0.15, 0.15, 0.09], [0.15, 0.25, 0.09, 0.15],
                           [0.15, 0.09, 0.25, 0.15], [0.09, 0.15, 0.15, 0.25]])


def test_spin_count_mismatch_is_rejected():
    # regression: params of 5 spins with a 3-spin state once ran 3 spins silently
    state = build_initial_state(EnsembleParams(3, 0.9))
    params = EnsembleParams(5, 0.9)
    proto = ProtocolParams(coupling=0.05, squeeze_time=0.1)
    cfg = IntegratorConfig(dt=0.01, t_final=0.1)
    with pytest.raises(ValidationError, match="params.n_spins = 5 .* state.n_spins = 3"):
        evolve(state, cfg, params, DecoherenceRates(), proto)
    with pytest.raises(ValidationError, match="params.n_spins = 5 .* state.n_spins = 3"):
        lindblad_rhs(state, params, DecoherenceRates(), proto)


def test_polarization_mismatch_is_rejected():
    # regression: params at P = 0.5 with a P = 0.9 state once ran at P = 0.9 silently
    state = build_initial_state(EnsembleParams(3, 0.9))
    proto = ProtocolParams(coupling=0.05, squeeze_time=0.1)
    cfg = IntegratorConfig(dt=0.01, t_final=0.1)
    with pytest.raises(ValidationError,
                       match=r"^params.polarization = 0.5 does not match state.polarization = 0.9$"):
        evolve(state, cfg, EnsembleParams(3, 0.5), DecoherenceRates(), proto)
    evolve(state, cfg, EnsembleParams(3, 0.9), DecoherenceRates(), proto)


def test_evolve_variable_coupling_matches_recorded_values():
    # recorded from the z-basis implementation; relative 1e-14 with a floor of 1
    path = Path(__file__).parent / "data" / "variable_coupling_moments.json"
    cases = json.loads(path.read_text())["cases"]

    def unhex(value):
        return float.fromhex(value) if isinstance(value, str) else np.vectorize(
            float.fromhex, otypes=[float])(value)

    for key, case in cases.items():
        mom = evolve_variable_coupling(unhex(case["theta"]), unhex(case["pols"]))
        fields = ("mean_x", "mean_y", "mean_z", "xx2", "yy2", "xy_sym")
        got = {name: getattr(mom, name) for name in (*fields, "site_z")}
        got.update(pair_xx=mom.pair_xx, pair_xy=mom.pair_xy, pair_yx=mom.pair_xy.T,
                   pair_yy=mom.pair_yy)
        want = dict(zip(fields, map(unhex, case["scalars"])))
        want.update({name: unhex(table) for name, table in case["tables"].items()})
        want["site_z"] = unhex(case["site_z"])
        for name, value in want.items():
            err = np.abs(got[name] - value) / np.maximum(np.abs(value), 1.0)
            assert np.max(err) <= 1e-14, f"{key} {name}"


def test_trajectory_margins_from_checkpoints(monkeypatch):
    params = EnsembleParams(3, 0.9)
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=1.0)
    cfg = IntegratorConfig(dt=0.01, t_final=1.0, checkpoint_every=25)
    eig_calls = []
    min_eigenvalue = oracle._SymmetricState.min_eigenvalue

    def counted(self):
        eig_calls.append(self.n_spins)
        return min_eigenvalue(self)

    monkeypatch.setattr(oracle._SymmetricState, "min_eigenvalue", counted)
    traj = evolve(build_initial_state(params), cfg, params, rates, proto)
    assert eig_calls == [] and traj.min_eigenvalue is None
    assert 0.0 <= traj.max_hermiticity_defect <= 1e-12
    assert traj.final.trace_defect() <= traj.max_trace_defect <= 1e-12

    traj = evolve(build_initial_state(params), cfg, params, rates, proto,
                  check_positivity=True)
    assert len(eig_calls) == len(traj.times) == 5  # one block spectrum per checkpoint
    assert -1e-10 <= traj.min_eigenvalue <= min_eigenvalue(traj.final)
    assert traj.max_hermiticity_defect >= traj.final.hermiticity_defect()

    # the minimum over the block eigenvalues of every checkpoint, t = 0
    # included, each that of the checkpoint's dense matrix
    lows, dense = [], []

    def kept(self):
        lows.append(min_eigenvalue(self))
        dense.append(DensityMatrix.min_eigenvalue(self))
        return lows[-1]

    monkeypatch.setattr(oracle._SymmetricState, "min_eigenvalue", kept)
    traj = evolve(build_initial_state(params), replace(cfg, checkpoint_every=1), params,
                  rates, proto, check_positivity=True)
    assert len(lows) == len(traj.times) == 101
    assert traj.min_eigenvalue == min(lows)
    assert np.max(np.abs(np.subtract(lows, dense))) <= 1e-12


def test_rk4_keeps_hermiticity_without_resymmetrizing():
    # these runs take the increment form, which steps the real coordinates
    # of a Hermitian state and expands them with mirrored types conjugate,
    # so every checkpoint is exactly Hermitian, probe field included
    rates = DecoherenceRates(0.02, 0.03)
    for n in (4, 6):
        params = EnsembleParams(n, 0.9)
        cfg = IntegratorConfig(dt=0.01, t_final=0.99, checkpoint_every=33)  # 99 steps
        traj = evolve(build_initial_state(params), cfg, params, rates,
                      ProtocolParams(coupling=0.05, squeeze_time=0.99))
        assert traj.max_hermiticity_defect == 0.0, f"n={n}"
    params = EnsembleParams(3, 0.9)
    cfg = IntegratorConfig(dt=0.01, t_final=0.99, checkpoint_every=1)
    proto = ProtocolParams(coupling=0.05, squeeze_time=0.99, signal_field=1e-3)
    for run_rates, bound in ((DecoherenceRates(), 1e-18), (rates, 1e-16)):
        traj = evolve(build_initial_state(params), cfg, params, run_rates, proto)
        assert traj.max_hermiticity_defect <= bound, run_rates


def test_probe_run_is_exactly_hermitian_at_every_step():
    for n in (3, 6):
        params = EnsembleParams(n, 0.9)
        cfg = IntegratorConfig(dt=0.01, t_final=0.99, checkpoint_every=1)
        proto = ProtocolParams(coupling=0.05, squeeze_time=0.99, signal_field=1e-3)
        traj = evolve(build_initial_state(params), cfg, params,
                      DecoherenceRates(0.02, 0.03), proto)
        assert len(traj.times) == 100
        assert traj.max_hermiticity_defect == 0.0, f"n={n}"


def test_nan_margin_raises_one_line(monkeypatch):
    # a generator whose probe term is NaN (the step check bounds the probe
    # by B_y = 0) leaves NaN coordinates; every margin comparison with NaN is
    # False, and the checkpoint must still raise
    type_generator = oracle._type_generator

    def nan_probe(n, rates, proto):
        local, _, mirror = type_generator(n, rates, proto)
        types = oracle._pair_types(n)
        return local, (np.full(types.row_moves.shape, np.nan), types.row_moves), mirror

    monkeypatch.setattr(oracle, "_type_generator", nan_probe)
    params = EnsembleParams(3, 1.0)
    cfg = IntegratorConfig(dt=0.01, t_final=0.1)
    with pytest.raises(NumericalError, match=r"defect exceeds 1e-12 at t=0\.1$") as info:
        evolve(build_initial_state(params), cfg, params, DecoherenceRates(0.02, 0.03),
               ProtocolParams(coupling=0.05, squeeze_time=0.1))
    assert len(str(info.value).splitlines()) == 1
    nan = float("nan")
    for args in ((nan, 0.0, 1.0), (0.0, nan, 1.0), (0.0, 0.0, 1.0, lambda: nan)):
        with pytest.raises(NumericalError, match="at t=1$"):
            oracle.Trajectory()._record(*args)


def test_step_count_beyond_the_cap_is_refused_before_any_work(monkeypatch):
    # regression: dt = 1e-300 passed the stability check (dt is tiny), and
    # evolve went on to about 1e300 RK4 steps
    def no_work(*args, **kwargs):
        raise AssertionError("started the run")

    monkeypatch.setattr(oracle, "_type_generator", no_work)
    monkeypatch.setattr(oracle, "factorization_gap", no_work)
    params = EnsembleParams(3, 0.9)
    for t_final in (1.0, 1.0 / 3.0, 7.3):
        cfg = IntegratorConfig(dt=1e-300, t_final=t_final)
        with pytest.raises(ResourceError, match=r"^t_final / dt asks for \S+ RK4 steps, above "
                           r"STEP_CAP = 10000000; dt = \S+ would pass$") as info:
            evolve(build_initial_state(params), cfg, params, DecoherenceRates(),
                   ProtocolParams(coupling=0.05, squeeze_time=t_final))
        # the dt it names passes, at the cap
        step = float(str(info.value).split()[-3])
        assert IntegratorConfig(dt=step, t_final=t_final).steps() == oracle.STEP_CAP
    assert IntegratorConfig(dt=1.0 / oracle.STEP_CAP, t_final=1.0).steps() == oracle.STEP_CAP
    with pytest.raises(ResourceError, match="above STEP_CAP"):
        factorization_gap_table(range(2, 4), njt=0.2, gamma_sum_t=0.2, dt=1e-300)


def test_evolve_refuses_a_step_outside_rk4_stability():
    # regression: at dt * bound = 6000 the pair-type step once returned purity
    # 2.9e273 with trace and hermiticity defects exactly 0
    params = EnsembleParams(3, 0.9)
    rates = DecoherenceRates(1e5, 0.0)
    proto = ProtocolParams(coupling=0.05, squeeze_time=0.1)
    with pytest.raises(ValidationError, match=r"^dt = 0\.01 is outside RK4's stability region: "
                                              r"dt times the generator bound 600000 exceeds 2\.6; "
                                              r"dt = \S+ would pass$") as info:
        evolve(build_initial_state(params), IntegratorConfig(dt=0.01, t_final=0.1), params,
               rates, proto)
    assert len(str(info.value).splitlines()) == 1
    step = float(str(info.value).split()[-3])
    traj = evolve(build_initial_state(params), IntegratorConfig(dt=step, t_final=1e-3), params,
                  rates, proto)
    assert traj.purities[-1] <= 1.0


def test_step_bound_is_the_gershgorin_bound_of_the_generator():
    # the dense generator's spectral radius never exceeds the bound, and the
    # probe adds 2 |B_y| n
    for n, rates, field_y in ((2, DecoherenceRates(0.3, 0.7), 0.0),
                              (3, DecoherenceRates(0.02, 0.5), 0.4)):
        proto = ProtocolParams(coupling=0.9, squeeze_time=1.0, signal_field=field_y)
        generator = oracle._type_generator(n, rates, proto)
        dim = 1 << n
        columns = [lindblad_rhs(DensityMatrix(np.eye(dim * dim)[k].reshape(dim, dim), n),
                                EnsembleParams(n, 1.0), rates, proto).entries.reshape(-1)
                   for k in range(dim * dim)]
        radius = np.max(np.abs(np.linalg.eigvals(np.array(columns).T)))
        (weights, _), _, _ = generator
        bound = np.max(np.abs(weights).sum(axis=0)) + 2.0 * field_y * n
        assert radius <= bound * (1.0 + 1e-12)
        oracle._require_stable_step(0.999 * oracle.RK4_STABLE_STEP / bound, n, generator, field_y)
        with pytest.raises(ValidationError, match="outside RK4's stability region"):
            oracle._require_stable_step(1.01 * oracle.RK4_STABLE_STEP / bound, n, generator,
                                        field_y)


@pytest.mark.parametrize("rates, proto, message", [
    (DecoherenceRates(-0.05, -0.1), ProtocolParams(0.05, 0.1), "gamma_par >= 0; gamma_perp >= 0"),
    (DecoherenceRates(math.nan, 0.0), ProtocolParams(0.05, 0.1), "gamma_par >= 0"),
    (DecoherenceRates(0.0, math.inf), ProtocolParams(0.05, 0.1), "gamma_perp >= 0"),
    (DecoherenceRates(), ProtocolParams(math.inf, 0.1), "coupling finite"),
    (DecoherenceRates(), ProtocolParams(0.05, 0.1, signal_field=math.nan), "signal_field finite"),
])
def test_evolve_refuses_unphysical_rates_and_fields(rates, proto, message):
    # a negative rate is a channel that is not completely positive: at n = 3
    # DecoherenceRates(-0.05, -0.1) drives the purity above 1
    params = EnsembleParams(3, 0.9)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        evolve(build_initial_state(params), IntegratorConfig(dt=0.01, t_final=0.1), params,
               rates, proto)


def test_coordinate_checkpoint_raises_on_crossed_trace_margin(monkeypatch):
    # a generator that does not preserve the trace: the valid input passes
    # at t = 0, and the first coordinate checkpoint past TRACE_TOL raises
    type_generator = oracle._type_generator

    def leaky(n, rates, proto):
        (weights, moves), probe, mirror = type_generator(n, rates, proto)
        weights = weights.copy()
        weights[0] += 1e-10
        return (weights, moves), probe, mirror

    monkeypatch.setattr(oracle, "_type_generator", leaky)
    params = EnsembleParams(4, 0.9)
    cfg = IntegratorConfig(dt=0.01, t_final=0.2, checkpoint_every=5)
    with pytest.raises(NumericalError, match=r"trace defect exceeds 1e-12 at t=0\.05$") as info:
        evolve(build_initial_state(params), cfg, params, DecoherenceRates(0.02, 0.03),
               ProtocolParams(coupling=0.05, squeeze_time=0.2))
    assert len(str(info.value).splitlines()) == 1
