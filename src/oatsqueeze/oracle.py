"""Exact small-N quantum oracle for twisted spin ensembles.

Dense 2**n x 2**n density-matrix dynamics used as ground truth for every
closed form in :mod:`oatsqueeze.analytic` and
:mod:`oatsqueeze.inhomogeneous`:

* product-state preparation at partial polarization,
* master-equation integration (fixed-step RK4) of the twisting
  Hamiltonian, per-site relaxation channels and a weak probe field,
* exact unitary evolution for arbitrary pair couplings (the pair
  propagator is diagonal in the collective x basis, so no integrator is
  involved),
* an exact per-site dephasing channel,
* collective quadrature moments, pair correlations and trace distance.

Every public ``DensityMatrix`` is in the z basis (site 0 is the most
significant bit of a basis index; bit value 0 is spin up).  Dynamics run in
one internal collective-x frame, entered and left through ``_x_frame``,
the Hadamard on every site, which is its own inverse.  In that frame
sigma_x is diagonal, so the twisting Hamiltonian, the sigma_x channel and
the trace counterterm of the master equation form a single elementwise
factor; the sigma_y and sigma_z channels and the probe field are strided
adds over the matrix viewed per bit.  Moments are read from the z-basis
matrix by index gather: <A_k B_l> = sum_b c(b) rho[b, b ^ e_k ^ e_l] with
c = 1 for sigma_x and i*z(b) for sigma_y, which touches O(n^2 2**n)
entries instead of forming operator products.

Pair couplings are given as an ``inhomogeneous.CouplingMatrix`` or as a
plain matrix that passes its checks.  The oracle exists to validate
formulas, not to scale: everything is dense and the spin count is capped
at ``SPIN_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import _cos2_minimum
from .core import (
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
    ProtocolParams,
    ResourceError,
    ValidationError,
    _csv_number,
    text_output,
)
from .inhomogeneous import _as_couplings

SPIN_CAP = 12

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
RESYMMETRIZE_EVERY = 100  # steps between rho <- (rho + rho^dag)/2


# ---------------------------------------------------------------------------
# per-site tables and the collective-x frame
# ---------------------------------------------------------------------------

class _SiteOps:
    """Cached per-n tables: bit signs and their pairwise overlaps."""

    def __init__(self, n: int):
        self.n = n
        idx = np.arange(1 << n)
        bits = (idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
        self.z_signs = (1.0 - 2.0 * bits.T).copy()       # z_signs[i, a] = (-1)**bit_i(a)
        # sum_i z_i[a] z_i[b] = n - 2 * hamming(a, b), exact in float
        self.z_conj_weight = self.z_signs.T @ self.z_signs


_SITE_CACHE: dict[int, _SiteOps] = {}


def _site_ops(n: int) -> _SiteOps:
    if n not in _SITE_CACHE:
        _SITE_CACHE[n] = _SiteOps(n)
    return _SITE_CACHE[n]


def _x_frame(rho: np.ndarray) -> np.ndarray:
    """W rho W with W the Hadamard on every site; W is its own inverse.

    Applied as an unnormalized butterfly on each of the 2n bits of the
    flattened index (n row bits, then n column bits), followed by one exact
    power-of-two rescale.  Returns a new C-contiguous complex array.
    """
    out = np.array(rho, dtype=complex, order="C")
    flat = out.reshape(-1)
    scratch = np.empty(flat.size // 2, dtype=complex)
    lead = 1
    while lead < flat.size:
        pair = flat.reshape(lead, 2, -1)
        lo, hi = pair[:, 0], pair[:, 1]
        diff = scratch.reshape(lo.shape)
        np.subtract(lo, hi, out=diff)
        lo += hi
        hi[...] = diff
        lead *= 2
    out /= out.shape[0]
    return out


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

@dataclass
class DensityMatrix:
    """Dense complex density matrix for ``n_spins`` spin-1/2 particles."""

    entries: np.ndarray
    n_spins: int

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    def trace_defect(self) -> float:
        return abs(np.trace(self.entries) - 1.0)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2.0)[0])

    def purity(self) -> float:
        return float(np.real(np.sum(self.entries * self.entries.T)))

    def require_valid(self, check_positivity: bool = False, when: str = "") -> None:
        where = f" at {when}" if when else ""
        if self.hermiticity_defect() > HERMITICITY_TOL:
            raise NumericalError(f"hermiticity defect exceeds {HERMITICITY_TOL}{where}")
        if self.trace_defect() > TRACE_TOL:
            raise NumericalError(f"trace defect exceeds {TRACE_TOL}{where}")
        if check_positivity and self.min_eigenvalue() < -POSITIVITY_TOL:
            raise NumericalError(f"negative eigenvalue below -{POSITIVITY_TOL}{where}")


def build_initial_state(params: EnsembleParams) -> DensityMatrix:
    """Product state with per-spin Bloch vector (0, 0, P).

    Written per spin as (I + P*sz)/2 = diag((1+P)/2, (1-P)/2) so the total
    trace is exactly one.  P = 0 (maximally mixed) is allowed here even
    though the squeezing formulas reject it.
    """
    return _product_state(params.polarization, params.n_spins)


def _product_state(polarizations, n: int) -> DensityMatrix:
    """Product of (I + P_i sz)/2; ``polarizations`` is a scalar or one P per spin."""
    if n < 1:
        raise ValidationError(["n_spins >= 1"])
    pols = np.asarray(polarizations, dtype=float)
    if pols.ndim == 0:
        pols = np.full(n, float(pols))
    if pols.shape != (n,):
        raise ValidationError(["polarizations must be scalar or length n_spins"])
    if not np.all((pols >= 0.0) & (pols <= 1.0)):
        raise ValidationError(["polarization in [0, 1] for state preparation"])
    if n > SPIN_CAP:
        raise ResourceError(f"n_spins = {n} exceeds the dense oracle's SPIN_CAP = {SPIN_CAP}")
    diag = np.array([1.0])
    for p in pols:
        diag = np.kron(diag, np.array([(1.0 + p) / 2.0, (1.0 - p) / 2.0]))
    return DensityMatrix(np.diag(diag.astype(complex)), n)


# ---------------------------------------------------------------------------
# collective moments
# ---------------------------------------------------------------------------

@dataclass
class CollectiveMoments:
    """First and second moments of the collective spin components.

    ``mean_*`` are <sum_i sigma_alpha^i>; ``xx2``/``yy2``/``xy_sym`` are
    <SX^2>, <SY^2> and <SX SY + SY SX> for SX = sum_i sigma_x^i etc., which
    determine the quadrature second moment at every angle.  ``pair_*``
    tables hold <sigma_alpha^k sigma_beta^l> for k != l (diagonal entries
    are zero placeholders); they are filled only on request.
    """

    mean_x: float
    mean_y: float
    mean_z: float
    xx2: float
    yy2: float
    xy_sym: float
    pair_xx: np.ndarray | None = None
    pair_xy: np.ndarray | None = None
    pair_yx: np.ndarray | None = None
    pair_yy: np.ndarray | None = None
    site_z: np.ndarray | None = None  # per-site <sigma_z^i>, filled with pair tables

    def second_moment(self, theta: float) -> float:
        """<[sum_i (cos(theta) sx_i + sin(theta) sy_i)]^2>; period pi."""
        c, s = math.cos(theta), math.sin(theta)
        return c * c * self.xx2 + s * s * self.yy2 + s * c * self.xy_sym

    def quadrature_mean(self, theta: float) -> float:
        return math.cos(theta) * self.mean_x + math.sin(theta) * self.mean_y

    def minimize_second_moment(self) -> tuple[float, float]:
        """Minimizing angle and value of the quadrature second moment,
        (xx2 + yy2)/2 + (xx2 - yy2)/2 cos(2 theta) + xy_sym/2 sin(2 theta)."""
        value, theta = _cos2_minimum((self.xx2 + self.yy2) / 2.0,
                                     (self.xx2 - self.yy2) / 2.0, self.xy_sym / 2.0)
        return theta, value

    def xi2(self, theta: float) -> float:
        """Squeezing ratio: quadrature second moment over total z polarization."""
        if abs(self.mean_z) < 1e-300:
            raise DomainError("vanishing total z polarization")
        return self.second_moment(theta) / self.mean_z


def _pair_table(n: int, k, l, upper, lower) -> np.ndarray:
    table = np.zeros((n, n))
    table[k, l] = upper
    table[l, k] = lower
    return table


def compute_moments(state: DensityMatrix, pair_correlations: bool = False) -> CollectiveMoments:
    """Collective first/second moments (and optional pair tables) of a state.

    Valid for any matrix (the result is trace-linear): <O> is tr(rho O),
    read by gathering the entries rho[b, b ^ mask] that O couples.
    """
    rho = state.entries
    n = state.n_spins
    z = _site_ops(n).z_signs
    idx = np.arange(state.dim)
    bit = 1 << np.arange(n - 1, -1, -1)  # e_k for site k
    k, l = np.triu_indices(n, 1)

    pops = np.real(np.diagonal(rho))
    site_z = z @ pops
    single = rho[idx, idx ^ bit[:, None]]             # [k, b] = rho[b, b ^ e_k]
    pair = rho[idx, idx ^ (bit[k] | bit[l])[:, None]]  # [p, b] = rho[b, b ^ e_k ^ e_l]

    pxx = pair.real.sum(axis=1)                        # <sx_k sx_l>
    pxy = -np.sum(z[l] * pair.imag, axis=1)            # <sx_k sy_l>
    pyx = -np.sum(z[k] * pair.imag, axis=1)            # <sy_k sx_l> = <sx_l sy_k>
    pyy = -np.sum(z[k] * z[l] * pair.real, axis=1)     # <sy_k sy_l>
    n_trace = n * pops.sum()

    tables = [None] * 5
    if pair_correlations:
        tables = [_pair_table(n, k, l, pxx, pxx), _pair_table(n, k, l, pxy, pyx),
                  _pair_table(n, k, l, pyx, pxy), _pair_table(n, k, l, pyy, pyy),
                  site_z]
    return CollectiveMoments(
        float(single.real.sum()), float(-np.sum(z * single.imag)), float(site_z.sum()),
        float(n_trace + 2.0 * pxx.sum()), float(n_trace + 2.0 * pyy.sum()),
        float(2.0 * (pxy.sum() + pyx.sum())),
        *tables,
    )


# ---------------------------------------------------------------------------
# Lindblad generator and RK4 integration (in the collective-x frame)
# ---------------------------------------------------------------------------

def lindblad_rhs(
    state: DensityMatrix,
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
) -> DensityMatrix:
    """Generator of the master equation applied once to ``state``.

    Hamiltonian part: -i[J * SX^2, rho] (the ordered-pair twisting sum
    J sum_{i != j} sx_i sx_j equals J*(SX^2 - N), and the identity shift
    drops out of the commutator).  Dissipator: per-site sigma_x channel at
    gamma_par and sigma_y/sigma_z channels at gamma_perp, with the
    trace-preserving counterterm N*(gamma_par + 2*gamma_perp)*rho.  Signal
    part: -i*B_y*[SY, rho] with B_y = ``proto.signal_field``.  A term drops
    out when its parameter is zero.  Evaluated in the collective-x frame;
    the result is returned in the z basis.
    """
    n = state.n_spins
    rhs = _raw_rhs(_x_frame(state.entries), n, *_generator(n, rates, proto))
    return DensityMatrix(_x_frame(rhs), n)


def _generator(n, rates: DecoherenceRates, proto: ProtocolParams):
    """Inputs of ``_raw_rhs``: the elementwise factor, gamma_perp and B_y.

    The elementwise factor is, with sigma_x -> z_i in the x frame and
    h_a = (sum_i z_i[a])^2 the eigenvalue of SX^2,
    -iJ (h_a - h_b) + gamma_par sum_i z_i[a] z_i[b] - n (gamma_par + 2 gamma_perp).
    """
    ops = _site_ops(n)
    h = ops.z_signs.sum(axis=0) ** 2
    gamma_par, gamma_perp = rates.gamma_par, rates.gamma_perp
    diag = (-1j * proto.coupling) * np.subtract.outer(h, h) \
        + (gamma_par * ops.z_conj_weight - n * (gamma_par + 2.0 * gamma_perp))
    return diag, gamma_perp, proto.signal_field


def _raw_rhs(rho, n, diag, gamma_perp, signal_field):
    """Generator in the x frame: ``diag * rho`` plus the per-site strided terms.

    sigma_y and sigma_z conjugation together move rho[a ^ e_i, b ^ e_i] to
    (a, b) with weight 1 + z_i[a] z_i[b]: doubled where bit i agrees in a
    and b, zero elsewhere.  The probe -iB[SY, rho] becomes +iB[SY, rho]
    (W sigma_y W = -sigma_y), i.e. B z_i[a] rho[a ^ e_i, b] on rows and
    B z_i[b] rho[a, b ^ e_i] on columns.
    """
    out = diag * rho
    dim = 1 << n
    for i in range(n):
        lead, trail = 1 << i, dim >> (i + 1)
        if gamma_perp != 0.0:
            src = rho.reshape(lead, 2, trail, lead, 2, trail)
            dst = out.reshape(lead, 2, trail, lead, 2, trail)
            dst[:, 0, :, :, 0] += (2.0 * gamma_perp) * src[:, 1, :, :, 1]
            dst[:, 1, :, :, 1] += (2.0 * gamma_perp) * src[:, 0, :, :, 0]
        if signal_field != 0.0:
            for shape in ((lead, 2, trail * dim), (dim * lead, 2, trail)):  # rows, columns
                src = rho.reshape(shape)
                dst = out.reshape(shape)
                dst[:, 0] += signal_field * src[:, 1]
                dst[:, 1] -= signal_field * src[:, 0]
    return out


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 configuration.

    ``dt`` is nudged to the nearest value dividing ``t_final`` into an
    integer number of steps, keeping runs deterministic.  Convergence is
    enforced in tests: halving dt must change reported observables by less
    than 1e-8 relative.
    """

    dt: float
    t_final: float
    checkpoint_every: int = 0  # 0: checkpoints only at t=0 and t_final

    def steps(self) -> int:
        if not (self.dt > 0.0 and self.t_final >= self.dt):
            raise ValidationError(["0 < dt <= t_final"])
        return max(1, int(round(self.t_final / self.dt)))


@dataclass
class Trajectory:
    """Checkpointed observables of one master-equation run."""

    times: list[float] = field(default_factory=list)
    moments: list[CollectiveMoments] = field(default_factory=list)
    traces: list[float] = field(default_factory=list)
    purities: list[float] = field(default_factory=list)
    final: DensityMatrix | None = None

    def to_csv(self, out, thetas=()) -> None:
        """Write checkpoints as CSV: t, means, second moments, trace, purity."""
        with text_output(out) as fh:
            cols = ["t", "mean_x", "mean_y", "mean_z"]
            cols += [f"second_moment_theta={th:.10g}" for th in thetas]
            cols += ["trace", "purity"]
            fh.write(",".join(cols) + "\n")
            for t, mom, tr, pur in zip(self.times, self.moments, self.traces, self.purities):
                row = [t, mom.mean_x, mom.mean_y, mom.mean_z]
                row += [mom.second_moment(th) for th in thetas]
                row += [tr, pur]
                fh.write(",".join(map(_csv_number, row)) + "\n")


def evolve(
    state: DensityMatrix,
    cfg: IntegratorConfig,
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    check_positivity: bool = False,
) -> Trajectory:
    """Integrate the master equation with fixed-step RK4.

    The generator is that of ``lindblad_rhs``, probe field
    ``proto.signal_field`` included.  The state is integrated in the
    collective-x frame and converted back to the z basis at checkpoints,
    which record collective moments, trace and purity; hermiticity and
    trace are verified at every checkpoint and the state is re-symmetrized
    every ``RESYMMETRIZE_EVERY`` steps to damp float drift.  A positivity
    violation beyond tolerance raises NumericalError naming the offending
    time.  ``final`` is the z-basis state at t_final.
    """
    n = state.n_spins
    n_steps = cfg.steps()
    dt = cfg.t_final / n_steps
    every = cfg.checkpoint_every if cfg.checkpoint_every > 0 else n_steps
    gen = _generator(n, rates, proto)
    traj = Trajectory()

    def checkpoint(t, r):
        dm = DensityMatrix(r, n)
        dm.require_valid(check_positivity=check_positivity, when=f"t={t:.6g}")
        traj.times.append(t)
        traj.moments.append(compute_moments(dm))
        traj.traces.append(float(np.real(np.trace(r))))
        traj.purities.append(dm.purity())
        traj.final = dm

    rho = state.entries.astype(complex)
    checkpoint(0.0, rho)
    rho = _x_frame(rho)
    for step in range(1, n_steps + 1):
        k1 = _raw_rhs(rho, n, *gen)
        k2 = _raw_rhs(rho + 0.5 * dt * k1, n, *gen)
        k3 = _raw_rhs(rho + 0.5 * dt * k2, n, *gen)
        k4 = _raw_rhs(rho + dt * k3, n, *gen)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % RESYMMETRIZE_EVERY == 0:
            rho = (rho + rho.conj().T) / 2.0
        if step % every == 0 or step == n_steps:
            checkpoint(step * dt, _x_frame(rho))
    return traj


# ---------------------------------------------------------------------------
# exact variable-coupling unitary (diagonal in the collective x basis)
# ---------------------------------------------------------------------------

def _coupling_phases(theta: np.ndarray) -> np.ndarray:
    """Eigenphases s^T theta s of the ordered-pair twisting generator."""
    n = theta.shape[0]
    s = _site_ops(n).z_signs.T  # [a, i] = sigma_x eigenvalue in the x frame
    return np.einsum("ai,ij,aj->a", s, theta, s)


def variable_coupling_state(couplings, polarizations) -> DensityMatrix:
    """Product state after U = prod_{i != j} exp(-i theta_ij sx_i sx_j).

    ``couplings`` is a ``CouplingMatrix`` or a symmetric zero-diagonal
    matrix of pair angles; ``polarizations`` is a scalar P or one value per
    spin, each in [0, 1].  All factors commute, so U is a single diagonal
    phase exp(-i s^T theta s) in the x frame: rho' = X(phase * X(rho0) *
    phase^*) with X the frame change.
    """
    theta = _as_couplings(couplings).theta
    n = theta.shape[0]
    rho = _x_frame(_product_state(polarizations, n).entries)
    phase = np.exp(-1j * _coupling_phases(theta))
    rho *= phase[:, None]
    rho *= phase.conj()[None, :]
    return DensityMatrix(_x_frame(rho), n)


def evolve_variable_coupling(couplings, polarizations) -> CollectiveMoments:
    """Exact moments and pair tables of ``variable_coupling_state``."""
    return compute_moments(variable_coupling_state(couplings, polarizations),
                           pair_correlations=True)


# ---------------------------------------------------------------------------
# dephasing channel: per-site Kraus set {sqrt(s) I, sqrt(1-s)|0><0|, sqrt(1-s)|1><1|}
# ---------------------------------------------------------------------------

def apply_dephasing(state: DensityMatrix, survival: float) -> DensityMatrix:
    """Apply the product dephasing channel with survival amplitude ``survival``.

    Each matrix element rho_ab is scaled by s**h(a,b) with h the Hamming
    distance of the basis strings: z populations are untouched, single-site
    coherences scale by s, transverse pair correlations by s**2.  The map
    is completely positive and trace preserving for 0 <= s <= 1.
    """
    s = float(survival)
    if not (0.0 <= s <= 1.0):
        raise DomainError("survival amplitude must lie in [0, 1]")
    n = state.n_spins
    hamming = (n - _site_ops(n).z_conj_weight) / 2.0
    return DensityMatrix(state.entries * s ** hamming, n)


# ---------------------------------------------------------------------------
# trace distance, factorization gap, metrology
# ---------------------------------------------------------------------------

def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) sum_k |lambda_k(a - b)|."""
    if a.dim != b.dim:
        raise ValidationError(["dimension mismatch"])
    diff = a.entries - b.entries
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def factorization_gap(
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    cfg: IntegratorConfig,
) -> float:
    """Trace distance between joint and factorized evolution.

    Compares exp[T(L_H + L_D)] rho against exp[T L_H] exp[T L_D] rho, all
    three legs integrated with the same RK4 configuration.  At fixed N*J*T
    and (Gamma_par+Gamma_perp)*T the raw gap rises with spin count toward
    saturation (about 0.023, 0.030, 0.032 for N = 2, 3, 4 at N*J*T =
    Gamma_sum*T = 0.2); the per-spin gap, gap/N, decreases.  The probe
    field is part of neither L_H nor L_D: ``proto.signal_field`` is ignored.
    """
    proto = replace(proto, signal_field=0.0)
    rho0 = build_initial_state(params)
    joint = evolve(rho0, cfg, params, rates, proto).final
    diss_first = evolve(rho0, cfg, params, rates, replace(proto, coupling=0.0)).final
    factored = evolve(diss_first, cfg, params, DecoherenceRates(), proto).final
    return trace_distance(joint, factored)


def factorization_gap_table(
    n_values,
    njt: float,
    gamma_sum_t: float,
    t_final: float = 1.0,
    dt: float = 2e-3,
) -> list[tuple[int, float]]:
    """Gap for each N at fixed N*J*T and (Gamma_par+Gamma_perp)*T, at P = 1.

    J is scaled as njt/(N*T) and the rates are split evenly between the
    longitudinal and transverse channels.
    """
    gs = gamma_sum_t / t_final
    rates = DecoherenceRates(gamma_par=gs / 2.0, gamma_perp=gs / 2.0)
    cfg = IntegratorConfig(dt=dt, t_final=t_final)
    out = []
    for n in n_values:
        params = EnsembleParams(n_spins=int(n))
        proto = ProtocolParams(coupling=njt / (n * t_final), squeeze_time=t_final)
        out.append((int(n), factorization_gap(params, rates, proto, cfg)))
    return out


@dataclass(frozen=True)
class MetrologyResult:
    """Finite-difference linear response of the measured quadrature."""

    signal_slope: float      # d<quadrature mean>/dB_y along the measured angle
    noise: float             # sqrt of the B_y = 0 second central moment
    snr_estimate: float      # slope * B_y * sqrt(tau/T) / noise
    theta_min: float         # measured quadrature angle
    b_step: float


def simulate_metrology(
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    cfg: IntegratorConfig,
    measure_angle: float | None = None,
) -> MetrologyResult:
    """Probe-field response from three master-equation runs.

    The measured quadrature defaults to the angle of minimal variance in
    the B_y = 0 run (pass ``measure_angle`` to override, e.g. for J = 0
    where the variance is isotropic); the signal slope comes from a
    central finite difference at +/-B_y and the noise from the B_y = 0
    variance.  ``proto.signal_field`` sets the probe step B_y and is zeroed
    for the noise run; when it is zero, a default step keeps the
    linear-response error below the integrator tolerance.
    """
    b = proto.signal_field
    if b == 0.0:
        gs = rates.gamma_sum
        b = 1e-6 * gs if gs > 0.0 else 1e-6 / proto.squeeze_time
    rho0 = build_initial_state(params)

    def moments_at(b_y):
        return evolve(rho0, cfg, params, rates, replace(proto, signal_field=b_y)).moments[-1]

    mom0 = moments_at(0.0)
    if measure_angle is None:
        theta, second = mom0.minimize_second_moment()
    else:
        theta = measure_angle
        second = mom0.second_moment(theta)
    mean0 = mom0.quadrature_mean(theta)
    noise = math.sqrt(max(second - mean0 * mean0, 0.0))
    slope = (moments_at(+b).quadrature_mean(theta)
             - moments_at(-b).quadrature_mean(theta)) / (2.0 * b)
    snr = slope * b * math.sqrt(proto.total_time / proto.squeeze_time) / noise
    return MetrologyResult(slope, noise, snr, theta, b)
