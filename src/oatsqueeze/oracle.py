"""Exact small-N quantum oracle for twisted spin ensembles.

Dense 2**n x 2**n density-matrix dynamics used as ground truth for every
closed form in :mod:`oatsqueeze.analytic` and
:mod:`oatsqueeze.inhomogeneous`:

* product-state preparation at partial polarization,
* master-equation integration (fixed-step RK4) of the twisting
  Hamiltonian, per-site relaxation channels and a weak probe field,
* exact unitary evolution for arbitrary pair couplings (a diagonal
  phase, no integrator),
* exact per-site channels: dephasing, and the T1/T2 dissipator alone,
* collective quadrature moments, pair correlations and trace distance.

Every ``DensityMatrix`` is in one basis, the collective-x frame W rho_z W
with W the Hadamard on every site: site 0 is the most significant bit of
a basis index and bit value 0 is sigma_x = +1.  In this frame the model is
an Ising model with decoherence.  sigma_x is diagonal, so the twisting
Hamiltonian, the sigma_x channel and the trace counterterm form one
elementwise factor; the sigma_y and sigma_z channels, the probe field and
dephasing are strided adds over the matrix viewed per bit
(``lindblad_rhs``, which accepts any matrix).
``compute_moments`` reads sigma_x from the diagonal and sigma_z, sigma_y
(W sigma_z W = sigma_x, W sigma_y W = -sigma_y) by index gathers over
O(n^2 2**n) entries instead of forming operator products.  Trace, purity,
eigenvalues and trace distance do not depend on the basis.

``evolve`` integrates in the pair-type basis of permutation-symmetric
states.  Site i of an entry rho[a, b] has one of four kinds (bit_i(a),
bit_i(b)); the model commutes with permuting the sites, so a symmetric
state depends only on the counts (n00, n01, n10, n11) of the kinds, which
are C(n+3, 3) numbers (165 at n = 8, 455 at n = 12) instead of 4**n.  The
generator there is the same elementwise factor plus count-weighted
gathers from neighbouring types (``_raw_rhs``).  A Hermitian symmetric
state is fixed by as many real coordinates, so ``evolve`` builds the
generator once per call as a real square matrix L on them and takes each
RK4 step as one matrix-vector product with the precomputed increment
matrix of dt L.  Every state ``evolve`` is given must be
permutation-symmetric (uniform J, uniform P, collective probe, identical
per-site channels make it so); at each checkpoint the coordinates are
expanded to the dense matrix with one index gather, so moments, purity
and the validity checks have one dense owner.

Pair couplings are given as an ``inhomogeneous.CouplingMatrix`` or as a
plain matrix that passes its checks.  The oracle exists to validate
formulas, not to scale: states are dense at the checkpoints, and the spin
count is capped at ``SPIN_CAP``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
)
from .inhomogeneous import _as_couplings, _per_spin

SPIN_CAP = 12

HERMITICITY_TOL = 1e-12
SYMMETRY_TOL = 1e-12  # evolve: largest spread of the entries of one pair type
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# per-site tables
# ---------------------------------------------------------------------------

@functools.cache
def _site_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n tables z[i, a] = (-1)**bit_i(a) and their overlaps z.T @ z,
    sum_i z_i[a] z_i[b] = n - 2 * hamming(a, b), exact in float."""
    bits = (np.arange(1 << n)[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    z = 1.0 - 2.0 * bits
    weight = z.T @ z
    z.flags.writeable = weight.flags.writeable = False  # shared by every caller
    return z, weight


class _PairTypes(NamedTuple):
    counts: np.ndarray       # [k] = (n00, n01, n10, n11), sites of each kind
    mirror: np.ndarray       # [k] = type of the transposed entries, n01 <-> n10
    local_moves: np.ndarray  # [m, k] = k itself, then k after one site 00 -> 11, 11 -> 00
    row_moves: np.ndarray    # [m, k] = k after one site 00 -> 10, 01 -> 11, 10 -> 00, 11 -> 01
    index: np.ndarray        # [a, b] = type of rho[a, b] (int16)
    first: np.ndarray        # [k] = flat position a * 2**n + b of one entry of type k
    real: np.ndarray         # types k <= mirror[k]: their Re r_k are coordinates
    imag: np.ndarray         # types k < mirror[k]: their Im r_k are coordinates


@functools.cache
def _pair_types(n: int) -> _PairTypes:
    """Per-n tables of the pair-type basis.

    Site i of an entry rho[a, b] has kind (bit_i(a), bit_i(b)), numbered
    00, 01, 10, 11.  A permutation-symmetric matrix depends only on the
    counts (n00, n01, n10, n11) of the four kinds, its type, so it is
    C(n+3, 3) numbers.  A move turns one site of one kind into another;
    where no site has the source kind it returns the type itself, and its
    weight (the source count) is zero.  ``index`` is read from the
    ``_site_signs`` overlaps by (ones of a, ones of b, hamming(a, b)).

    A Hermitian matrix has r[mirror] = conj(r), so it is fixed by K =
    C(n+3, 3) real coordinates: Re r_k of each type in ``real``, then Im r_k
    of each type in ``imag``.
    """
    counts = np.array([(n - n01 - n10 - n11, n01, n10, n11)
                       for n01 in range(n + 1) for n10 in range(n + 1 - n01)
                       for n11 in range(n + 1 - n01 - n10)])
    lut = np.zeros((n + 1,) * 3, dtype=np.int16)

    def key(c):
        return c[:, 2] + c[:, 3], c[:, 1] + c[:, 3], c[:, 1] + c[:, 2]

    lut[key(counts)] = np.arange(len(counts))

    def moves(*pairs):
        out = []
        for src, dst in pairs:
            moved = counts.copy()
            moved[:, src] -= 1
            moved[:, dst] += 1
            empty = counts[:, src] == 0
            moved[empty] = counts[empty]
            out.append(lut[key(moved)])
        return np.array(out, dtype=np.intp)

    z, weight = _site_signs(n)
    ones = ((n - z.sum(axis=0)) / 2.0).astype(np.intp)
    index = lut[ones[:, None], ones[None, :], ((n - weight) / 2.0).astype(np.int8)]
    # one entry per type: sites in kind order 00, 01, 10, 11 from site 0
    _, n01, n10, n11 = counts.T
    a = (1 << (n10 + n11)) - 1
    b = ((1 << n01) - 1) << (n10 + n11) | ((1 << n11) - 1)
    mirror = lut[key(counts[:, [0, 2, 1, 3]])].astype(np.intp)
    tables = _PairTypes(counts=counts, mirror=mirror,
                        local_moves=moves((0, 0), (0, 3), (3, 0)),
                        row_moves=moves((0, 2), (1, 3), (2, 0), (3, 1)),
                        index=index, first=a << n | b,
                        real=np.flatnonzero(np.arange(len(counts)) <= mirror),
                        imag=np.flatnonzero(np.arange(len(counts)) < mirror))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

@dataclass
class DensityMatrix:
    """Dense complex density matrix for ``n_spins`` spin-1/2 particles, in
    the collective-x frame (site 0 the most significant bit, bit 0 sigma_x = +1)."""

    entries: np.ndarray
    n_spins: int

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    def trace_defect(self) -> float:
        return abs(np.trace(self.entries) - 1.0)

    def hermiticity_defect(self) -> float:
        """max |rho - rho^dagger|; the transpose is read once, into a copy."""
        diff = self.entries.T.copy()
        np.conjugate(diff, out=diff)
        np.subtract(self.entries, diff, out=diff)
        return float(np.max(np.abs(diff)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2.0)[0])

    def purity(self) -> float:
        return float(np.real(np.sum(self.entries * self.entries.T)))

    def require_valid(self, check_positivity: bool = False,
                      when: str = "") -> tuple[float, float, float | None]:
        """Raise NumericalError past a tolerance; else return the hermiticity
        defect, trace defect and lowest eigenvalue (None unless checked)."""
        where = f" at {when}" if when else ""
        herm = self.hermiticity_defect()
        if herm > HERMITICITY_TOL:
            raise NumericalError(f"hermiticity defect exceeds {HERMITICITY_TOL}{where}")
        trace = self.trace_defect()
        if trace > TRACE_TOL:
            raise NumericalError(f"trace defect exceeds {TRACE_TOL}{where}")
        low = self.min_eigenvalue() if check_positivity else None
        if low is not None and low < -POSITIVITY_TOL:
            raise NumericalError(f"negative eigenvalue below -{POSITIVITY_TOL}{where}")
        return herm, trace, low


def build_initial_state(params: EnsembleParams) -> DensityMatrix:
    """Product state with per-spin Bloch vector (0, 0, P).

    Written per spin in the x frame as (I + P*sx)/2 = [[1/2, P/2], [P/2, 1/2]]
    so the total trace is exactly one.  P = 0 (maximally mixed) is allowed
    here even though the squeezing formulas reject it.
    """
    n = params.n_spins
    return DensityMatrix(_product_state(params.polarization, n), n)


def _require_dense(n: int) -> None:
    if n > SPIN_CAP:
        raise ResourceError(f"n_spins = {n} exceeds the dense oracle's SPIN_CAP = {SPIN_CAP}")


def _product_state(polarizations, n: int) -> np.ndarray:
    """Entries of the product of (I + P_i sx)/2, P a scalar or one per spin:
    rho[a, b] = 2**-n prod_{i in a ^ b} P_i."""
    if n < 1:
        raise ValidationError(["n_spins >= 1"])
    pols = _per_spin(polarizations, n)
    if not np.all((pols >= 0.0) & (pols <= 1.0)):
        raise ValidationError(["polarization in [0, 1] for state preparation"])
    _require_dense(n)
    rho = np.ones((1, 1))
    for p in pols:  # np.kron(rho, [[1, p], [p, 1]] / 2), written by 2x2 block entry
        nxt = np.empty((len(rho), 2, len(rho), 2))
        nxt[:, 0, :, 0] = nxt[:, 1, :, 1] = rho * 0.5
        nxt[:, 0, :, 1] = nxt[:, 1, :, 0] = rho * (p / 2.0)
        rho = nxt.reshape(2 * len(rho), -1)
    return rho.astype(complex)


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
    are zero placeholders); they are filled only on request.  Every spin
    operator on one site commutes with those on another, so
    <sigma_y^k sigma_x^l> is ``pair_xy.T``.
    """

    mean_x: float
    mean_y: float
    mean_z: float
    xx2: float
    yy2: float
    xy_sym: float
    pair_xx: np.ndarray | None = None
    pair_xy: np.ndarray | None = None
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


class _MomentGathers(NamedTuple):
    k: np.ndarray       # [p] = k of the p-th pair k < l
    l: np.ndarray       # [p] = l of the p-th pair
    single: np.ndarray  # [k, b] = flat position of rho[b, b ^ e_k]
    pair: np.ndarray    # [p, b] = flat position of rho[b, b ^ e_k ^ e_l]
    zz: np.ndarray      # [p, b] = z_k[b] z_l[b]


@functools.cache
def _moment_gathers(n: int) -> _MomentGathers:
    """Per-n gather tables of ``compute_moments``, kept for the life of the
    process, so stored small: positions as int32, exact up to n = 15 (a
    matrix of 4**16 entries would take 64 GiB), and the signs zz as int8,
    which multiply a float exactly."""
    z, _ = _site_signs(n)
    idx = np.arange(1 << n, dtype=np.int32)
    bit = 1 << np.arange(n - 1, -1, -1, dtype=np.int32)  # e_k for site k
    k, l = np.triu_indices(n, 1)
    tables = _MomentGathers(k=k, l=l,
                            single=idx << n | idx ^ bit[:, None],
                            pair=idx << n | idx ^ (bit[k] | bit[l])[:, None],
                            zz=(z[k] * z[l]).astype(np.int8))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def compute_moments(state: DensityMatrix, pair_correlations: bool = False) -> CollectiveMoments:
    """Collective first/second moments (and optional pair tables) of any
    matrix; the result is trace-linear.

    With rho = ``state.entries``, f_k[b] = rho[b, b ^ e_k] and g_kl[b] =
    rho[b, b ^ e_k ^ e_l]: <sx_k sx_l> = sum_b z_k z_l rho[b, b], <sz_k> =
    sum_b Re f_k, <sy_k> = sum_b z_k Im f_k, <sx_k sy_l> = sum_b z_k z_l Im f_l
    and <sy_k sy_l> = -sum_b z_k z_l Re g_kl.
    """
    rho, n = state.entries, state.n_spins
    z, _ = _site_signs(n)
    g = _moment_gathers(n)

    pops = np.real(np.diagonal(rho))
    single = np.take(rho, g.single)  # [k, b] = f_k[b]
    z_im = z * single.imag
    site_z = single.real.sum(axis=1)
    pair = np.take(rho, g.pair)      # [p, b] = g_kl[b]
    pxx = (z * pops) @ z.T           # <sx_k sx_l>, trace on the diagonal
    pxy = z @ z_im.T                 # <sx_k sy_l> off the diagonal
    pyy = np.zeros((n, n))
    pyy[g.k, g.l] = pyy[g.l, g.k] = -np.sum(g.zz * pair.real, axis=1)  # <sy_k sy_l>
    np.fill_diagonal(pxx, 0.0)
    np.fill_diagonal(pxy, 0.0)
    n_trace = n * pops.sum()

    tables = (pxx, pxy, pyy, site_z) if pair_correlations else ()
    return CollectiveMoments(
        float((z @ pops).sum()), float(z_im.sum()), float(site_z.sum()),
        float(n_trace + pxx.sum()), float(n_trace + pyy.sum()), float(2.0 * pxy.sum()),
        *tables,
    )


# ---------------------------------------------------------------------------
# Lindblad generator and RK4 integration
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
    out when its parameter is zero.  ``params.n_spins`` must match the state.
    Any matrix is accepted, and the generator is applied densely: it is the
    reference for the pair-type generator that ``evolve`` integrates.
    """
    n = _spin_count(state, params)
    return DensityMatrix(_dense_rhs(state.entries, n, *_dense_generator(n, rates, proto)), n)


def _spin_count(state: DensityMatrix, params: EnsembleParams) -> int:
    if params.n_spins != state.n_spins:
        raise ValidationError([f"params.n_spins = {params.n_spins} does not match "
                               f"state.n_spins = {state.n_spins}"])
    return state.n_spins


def _dense_generator(n, rates: DecoherenceRates, proto: ProtocolParams):
    """Inputs of ``_dense_rhs``: the elementwise factor, gamma_perp and B_y.

    The elementwise factor is, with sigma_x -> z_i in the x frame and
    h_a = (sum_i z_i[a])^2 the eigenvalue of SX^2,
    -iJ (h_a - h_b) + gamma_par sum_i z_i[a] z_i[b] - n (gamma_par + 2 gamma_perp).
    """
    z, weight = _site_signs(n)
    h = z.sum(axis=0) ** 2
    gamma_par, gamma_perp = rates.gamma_par, rates.gamma_perp
    diag = (-1j * proto.coupling) * np.subtract.outer(h, h) \
        + (gamma_par * weight - n * (gamma_par + 2.0 * gamma_perp))
    return diag, gamma_perp, proto.signal_field


def _dense_rhs(rho, n, diag, gamma_perp, signal_field):
    """Generator on the entries: ``diag * rho`` plus the per-site strided terms.

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


def _type_generator(n, rates: DecoherenceRates, proto: ProtocolParams):
    """Inputs of ``_raw_rhs``.

    ``local`` holds the weights and moves of the terms that keep a
    Hermitian r Hermitian by themselves: ``_dense_generator``'s elementwise
    factor per type on r itself (h_a = (n - 2 (n10 + n11))**2,
    hamming(a, b) = n01 + n10), then, when gamma_perp is nonzero, the
    sigma_y/sigma_z flip.  ``probe`` holds those of the probe's row term,
    or None when B_y is zero.
    """
    types = _pair_types(n)
    n00, n01, n10, n11 = types.counts.T.astype(float)
    h_a, h_b = (n - 2.0 * (n10 + n11)) ** 2, (n - 2.0 * (n01 + n11)) ** 2
    gamma_par, gamma_perp, field_y = rates.gamma_par, rates.gamma_perp, proto.signal_field
    weights = [(-1j * proto.coupling) * (h_a - h_b)
               + (gamma_par * (n - 2.0 * (n01 + n10)) - n * (gamma_par + 2.0 * gamma_perp))]
    if gamma_perp != 0.0:
        weights += [(2.0 * gamma_perp) * n00, (2.0 * gamma_perp) * n11]
    local = np.array(weights), types.local_moves[:len(weights)]
    probe = None
    if field_y != 0.0:
        probe = field_y * np.array([n00, n01, -n10, -n11]), types.row_moves
    return local, probe, types.mirror


def _gather(r, weights, moves):
    """sum_m weights[m] * r[moves[m]], added in row order; r may carry a
    trailing batch axis."""
    # r[moves] is a copy; scale it in place, because for a batch a second
    # array of its size costs more in fresh pages than the multiply itself
    terms = r[moves]
    terms *= weights.reshape(weights.shape + (1,) * (r.ndim - 1))
    out = terms[0]
    for term in terms[1:]:
        out += term
    return out


def _raw_rhs(r, local, probe, mirror):
    """``_dense_rhs`` on the pair-type values ``r`` of a permutation-symmetric
    Hermitian matrix: count-weighted gathers.  ``r`` is one type vector or
    a batch of them along a trailing axis; ``evolve`` applies this once, to
    the batch of its coordinate basis vectors, to build its generator.

    The elementwise factor multiplies r itself.  The sigma_y and sigma_z
    channels move rho[a ^ e_i, b ^ e_i] to (a, b) where bit i agrees in a
    and b: from the type with one site of kind 00 turned into 11 (n00 such
    sites) and from the converse (n11 sites), at weight 2 gamma_perp each.
    The probe's row term B z_i[a] rho[a ^ e_i, b] flips the bit of a in one
    site: +B per site of kind 00 or 01, -B per site of kind 10 or 11.  Its
    column term at a type is the conjugate of the row term at the mirrored
    type.  Every term maps a Hermitian r (r[mirror] = conj(r)) to a
    Hermitian one, so the result is fixed by its real coordinates.
    """
    out = _gather(r, *local)
    if probe is not None:
        rows = _gather(r, *probe)
        out += rows + rows[mirror].conj()
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
    purities: list[float] = field(default_factory=list)
    final: DensityMatrix | None = None
    max_hermiticity_defect: float = 0.0  # worst margins require_valid saw at checkpoints
    max_trace_defect: float = 0.0
    min_eigenvalue: float | None = None   # None unless positivity was checked

    def _record(self, herm: float, trace: float, low: float | None) -> None:
        self.max_hermiticity_defect = max(self.max_hermiticity_defect, herm)
        self.max_trace_defect = max(self.max_trace_defect, trace)
        if low is not None:
            self.min_eigenvalue = low if self.min_eigenvalue is None \
                else min(self.min_eigenvalue, low)


def evolve(
    state: DensityMatrix,
    cfg: IntegratorConfig,
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    check_positivity: bool = False,
) -> Trajectory:
    """Integrate the master equation with fixed-step RK4 in the pair-type basis.

    The generator is that of ``lindblad_rhs``, probe field
    ``proto.signal_field`` included, and ``params.n_spins`` must match the
    state.  Every term of the model (SX^2, SY, identical per-site channels)
    commutes with permuting the sites, so a permutation-symmetric Hermitian
    state stays so and is fixed by K = C(n+3, 3) real coordinates (the
    ``_pair_types`` tables ``real`` and ``imag``) instead of 4**n entries.
    The input is validated at t = 0 like every checkpoint, and then refused
    with ValidationError when entries of one pair type differ by more than
    ``SYMMETRY_TOL``.

    The generator is linear and constant, so it is built once per call as
    a real K x K matrix L: ``_raw_rhs`` applied to the K basis vectors in
    one batch, read back in coordinates.  With A = dt L, one classical RK4
    step is v -> v + N v for N = A (I + A (I/2 + A (I/6 + A/24))), formed
    once; the increment is added to v rather than applying I + N, whose
    rounded diagonal would repeat the same error every step.

    Each checkpoint expands the coordinates to type values (mirrored types
    conjugate, self-mirror types real) and those to the dense matrix with
    one index gather, so every checkpoint state is exactly Hermitian, and
    records the collective moments and purity.  Hermiticity and trace are
    verified at every checkpoint, and the worst margins are kept on the
    trajectory.  A positivity violation beyond tolerance raises
    NumericalError naming the offending time.  ``final`` is the state at
    t_final, in the same x frame as the input.
    """
    n = _spin_count(state, params)
    n_steps = cfg.steps()
    dt = cfg.t_final / n_steps
    every = cfg.checkpoint_every if cfg.checkpoint_every > 0 else n_steps
    types = _pair_types(n)
    traj = Trajectory()

    def coordinates(r):
        return np.concatenate((r[types.real].real, r[types.imag].imag))

    def type_values(v):
        """Inverse of ``coordinates``, also for a batch along a trailing axis:
        mirrored types conjugate, self-mirror types real, so exactly Hermitian."""
        re, im = v[:len(types.real)], v[len(types.real):]
        r = np.zeros(v.shape, dtype=complex)
        r.real[types.real] = r.real[types.mirror[types.real]] = re
        r.imag[types.imag] = im
        r.imag[types.mirror[types.imag]] = -im
        return r

    def checkpoint(t, rho):
        dm = DensityMatrix(rho, n)
        traj._record(*dm.require_valid(check_positivity=check_positivity, when=f"t={t:.6g}"))
        traj.times.append(t)
        traj.moments.append(compute_moments(dm))
        traj.purities.append(dm.purity())
        traj.final = dm

    rho = np.asarray(state.entries, dtype=complex)
    checkpoint(0.0, rho)
    r = rho.reshape(-1)[types.first]
    deviation = r[types.index]
    deviation -= rho
    if np.max(np.abs(deviation)) > SYMMETRY_TOL:
        raise ValidationError([f"evolve needs a permutation-symmetric state: entries of "
                               f"one pair type differ by more than {SYMMETRY_TOL}"])
    eye = np.eye(len(r))
    a = dt * coordinates(_raw_rhs(type_values(eye), *_type_generator(n, rates, proto)))
    increment = a @ (eye + a @ (eye / 2.0 + a @ (eye / 6.0 + a / 24.0)))
    v = coordinates(r)
    for step in range(1, n_steps + 1):
        v += increment @ v
        if step % every == 0 or step == n_steps:
            checkpoint(step * dt, type_values(v)[types.index])
    return traj


# ---------------------------------------------------------------------------
# exact variable-coupling unitary (diagonal in the collective x basis)
# ---------------------------------------------------------------------------

def _coupling_phases(theta: np.ndarray) -> np.ndarray:
    """Eigenphases s^T theta s of the ordered-pair twisting generator."""
    n = theta.shape[0]
    s = _site_signs(n)[0].T  # [a, i] = sigma_x eigenvalue in the x frame
    return np.einsum("ai,ij,aj->a", s, theta, s)


def variable_coupling_state(couplings, polarizations) -> DensityMatrix:
    """Product state after U = prod_{i != j} exp(-i theta_ij sx_i sx_j).

    ``couplings`` is a ``CouplingMatrix`` or a symmetric zero-diagonal
    matrix of pair angles; ``polarizations`` is a scalar P or one value per
    spin, each in [0, 1].  All factors commute, so in the x frame U is a
    single diagonal phase exp(-i s^T theta s): rho' = phase * rho0 * phase^*.
    """
    theta = _as_couplings(couplings).theta
    n = theta.shape[0]
    rho = _product_state(polarizations, n)
    phase = np.exp(-1j * _coupling_phases(theta))
    rho *= phase[:, None]
    rho *= phase.conj()[None, :]
    return DensityMatrix(rho, n)


def evolve_variable_coupling(couplings, polarizations) -> CollectiveMoments:
    """Exact moments and pair tables of ``variable_coupling_state``."""
    return compute_moments(variable_coupling_state(couplings, polarizations),
                           pair_correlations=True)


# ---------------------------------------------------------------------------
# dephasing channel: per-site Kraus set {sqrt(s) I, sqrt(1-s)|0><0|, sqrt(1-s)|1><1|}
# ---------------------------------------------------------------------------

def apply_dephasing(state: DensityMatrix, survival: float) -> DensityMatrix:
    """Apply the product dephasing channel with survival amplitude ``survival``.

    In the x frame sz flips a bit, so per site i the channel is
    rho <- (1+s)/2 rho + (1-s)/2 (rho with bit i flipped in row and column):
    z populations are untouched, single-site transverse coherences scale by
    s, transverse pair correlations by s**2.  The map is completely
    positive and trace preserving for 0 <= s <= 1.
    """
    s = float(survival)
    if not (0.0 <= s <= 1.0):
        raise DomainError("survival amplitude must lie in [0, 1]")
    n = state.n_spins
    rho = state.entries.reshape((2,) * (2 * n))  # axes: row bits, then column bits
    for i in range(n):
        rho = ((1.0 + s) / 2.0) * rho + ((1.0 - s) / 2.0) * np.flip(rho, (i, n + i))
    return DensityMatrix(rho.reshape(state.entries.shape), n)


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


def _dissipate(rho, n, rates: DecoherenceRates, t: float) -> np.ndarray:
    """exp(t L_D) on the entries: the dissipator of ``_raw_rhs`` without
    J or B_y, applied exactly as a product of commuting per-site channels.

    Per site i, with r and c the row and column bits of site i: where
    r = c the sigma_y and sigma_z channels mix rho with its bit-i flip,
    rho <- (1+e)/2 rho + (1-e)/2 rho[a ^ e_i, b ^ e_i] with e =
    exp(-4 gamma_perp t); where r != c all three channels damp rho by
    exp(-2 (gamma_par + gamma_perp) t).
    """
    flip = (1.0 - math.exp(-4.0 * rates.gamma_perp * t)) / 2.0
    damp = math.exp(-2.0 * rates.gamma_sum * t)
    out = rho.copy()
    dim = 1 << n
    for i in range(n):
        lead, trail = 1 << i, dim >> (i + 1)
        v = out.reshape(lead, 2, trail, lead, 2, trail)
        mix = flip * (v[:, 1, :, :, 1] - v[:, 0, :, :, 0])
        v[:, 0, :, :, 0] += mix
        v[:, 1, :, :, 1] -= mix
        v[:, 0, :, :, 1] *= damp
        v[:, 1, :, :, 0] *= damp
    return out


def factorization_gap(
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    cfg: IntegratorConfig,
) -> float:
    """Trace distance between joint and factorized evolution.

    Compares exp[T(L_H + L_D)] rho against exp[T L_H] exp[T L_D] rho.  The
    joint leg and the twist-only leg exp[T L_H] are integrated with the
    same RK4 configuration; the dissipation-only leg exp[T L_D] is exact
    (``_dissipate``).  The twist leg stays on RK4 although it is a diagonal
    phase in the x frame: at zero rates the joint leg is the same RK4 run,
    so the two legs' integrator errors cancel and the gap is zero to
    roundoff, where an exact phase would leave the joint leg's RK4 error
    (about 2.5e-9 at N = 4, J = 0.3, dt = 5e-3).  At fixed N*J*T and
    (Gamma_par+Gamma_perp)*T the raw gap rises with spin count toward
    saturation (about 0.023, 0.030, 0.032 for N = 2, 3, 4 at N*J*T =
    Gamma_sum*T = 0.2); the per-spin gap, gap/N, decreases.  The probe
    field is part of neither L_H nor L_D: ``proto.signal_field`` is ignored.
    """
    proto = replace(proto, signal_field=0.0)
    rho0 = build_initial_state(params)
    n = params.n_spins
    joint = evolve(rho0, cfg, params, rates, proto).final
    diss_first = DensityMatrix(_dissipate(rho0.entries, n, rates, cfg.t_final), n)
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
    longitudinal and transverse channels.  Every N is checked against
    ``SPIN_CAP`` before the first gap is computed.
    """
    ns = [int(n) for n in n_values]
    for n in ns:
        _require_dense(n)
    gs = gamma_sum_t / t_final
    rates = DecoherenceRates(gamma_par=gs / 2.0, gamma_perp=gs / 2.0)
    cfg = IntegratorConfig(dt=dt, t_final=t_final)
    out = []
    for n in ns:
        params = EnsembleParams(n_spins=n)
        proto = ProtocolParams(coupling=njt / (n * t_final), squeeze_time=t_final)
        out.append((n, factorization_gap(params, rates, proto, cfg)))
    return out


@dataclass(frozen=True)
class MetrologyResult:
    """Finite-difference linear response of the measured quadrature."""

    signal_slope: float      # d<quadrature mean>/dB_y along the measured angle
    noise: float             # sqrt of the B_y = 0 second central moment
    theta_min: float         # measured quadrature angle


def simulate_metrology(
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    cfg: IntegratorConfig,
    measure_angle: float | None = None,
) -> MetrologyResult:
    """Probe-field response from two master-equation runs, at B_y = 0 and
    at the step B_y = 1e-6 * (Gamma_par + Gamma_perp), or 1e-6 /
    ``proto.squeeze_time`` without rates.

    The measured quadrature defaults to the angle of minimal variance in
    the B_y = 0 run (pass ``measure_angle`` to override, e.g. for J = 0
    where the variance is isotropic), and the noise is that run's
    variance.  A pi rotation about z leaves J*SX^2, all three channels and
    the z-polarized initial state unchanged and flips the sign of B_y, so
    the quadrature mean is odd in B_y: the difference quotient from the
    B_y = 0 run equals the central difference at +/-B_y.  The step keeps
    the linear-response error below the integrator tolerance.
    ``proto.signal_field`` is ignored: the slope is per unit field.
    """
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
    slope = (moments_at(b).quadrature_mean(theta) - mean0) / b
    return MetrologyResult(slope, noise, theta)
