"""Exact small-N quantum oracle for twisted spin ensembles.

Dense 2**n x 2**n density-matrix dynamics used as ground truth for every
closed form in :mod:`oatsqueeze.analytic` and
:mod:`oatsqueeze.inhomogeneous`:

* product-state preparation at partial polarization (``ProductState``),
* master-equation integration (fixed-step RK4) of the twisting
  Hamiltonian, per-site relaxation channels and a weak probe field,
* exact unitary evolution for arbitrary pair couplings (a diagonal
  phase, no integrator), whose moments are read from the eigenphases for
  a stack of coupling matrices at once, without the dense state,
* one exact per-site Pauli channel kernel, of which dephasing is a setting,
* collective quadrature moments, pair correlations and trace distance.

Every ``DensityMatrix`` is in one basis, the collective-x frame W rho_z W
with W the Hadamard on every site: site 0 is the most significant bit of
a basis index and bit value 0 is sigma_x = +1.  In this frame the model is
an Ising model with decoherence.  sigma_x is diagonal, so the twisting
Hamiltonian, the sigma_x channel and the trace counterterm form one
elementwise factor; the sigma_y and sigma_z channels and the probe field
are strided adds over the matrix viewed per bit (``lindblad_rhs``, which
accepts any matrix), and a Pauli channel mixes each entry with the one
flipped in the same site's row and column bit.
The moments read sigma_x from the diagonal and sigma_z, sigma_y
(W sigma_z W = sigma_x, W sigma_y W = -sigma_y) from O(n^2 2**n) entries
instead of forming operator products: ``compute_moments`` gathers them
from a dense matrix, ``evolve_variable_coupling`` forms them from the
eigenphases, and one kernel (``_moments``) reduces them.  Trace, purity,
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
matrix of dt L.  ``evolve`` starts from the ``ProductState`` of
``build_initial_state`` and forms its start coordinates from (n, P), not
from the 4**n entries.  Its checkpoints read moments, purity and the
trace from the coordinates with per-n weights (``_type_weights``); only
the final state, and each checked eigenvalue, is expanded to the dense
matrix.

Pair couplings are given as an ``inhomogeneous.CouplingMatrix`` or as a
plain matrix that passes its checks.  The oracle exists to validate
formulas, not to scale: every state it returns (a ``DensityMatrix``,
``Trajectory.final``, a channel's output) is a dense matrix, but moments
need none: ``evolve`` expands only its final state and each checked
eigenvalue, and ``evolve_variable_coupling`` forms no 4**n array.  The
spin count is capped at ``SPIN_CAP``.
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
    rate_violations,
)
from .inhomogeneous import _as_couplings, _per_spin

SPIN_CAP = 12

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
# largest dt * rho(L) that evolve accepts: classical RK4 is stable on the left
# half-disk of radius 2.6156, where a Lindbladian's spectrum lies
RK4_STABLE_STEP = 2.6


# ---------------------------------------------------------------------------
# per-site tables
# ---------------------------------------------------------------------------

@functools.cache
def _site_signs(n: int) -> np.ndarray:
    """Per-n table z[i, a] = (-1)**bit_i(a), the sigma_x eigenvalue of site i
    in the x frame."""
    bits = (np.arange(1 << n)[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    z = 1.0 - 2.0 * bits
    z.flags.writeable = False  # shared by every caller
    return z


class _PairTypes(NamedTuple):
    counts: np.ndarray       # [k] = (n00, n01, n10, n11), sites of each kind
    mirror: np.ndarray       # [k] = type of the transposed entries, n01 <-> n10
    local_moves: np.ndarray  # [m, k] = k itself, then k after one site 00 -> 11, 11 -> 00
    row_moves: np.ndarray    # [m, k] = k after one site 00 -> 10, 01 -> 11, 10 -> 00, 11 -> 01
    index: np.ndarray        # [a, b] = type of rho[a, b] (int16)
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
    weight (the source count) is zero.  ``index`` is looked up by (ones of
    a, ones of b, hamming(a, b)), the bit counts of a, b and a ^ b.

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

    ones = ((n - _site_signs(n).sum(axis=0)) / 2.0).astype(np.int8)
    idx = np.arange(1 << n, dtype=np.uint16)
    index = lut[ones[:, None], ones[None, :], ones[idx[:, None] ^ idx]]
    mirror = lut[key(counts[:, [0, 2, 1, 3]])].astype(np.intp)
    tables = _PairTypes(counts=counts, mirror=mirror,
                        local_moves=moves((0, 0), (0, 3), (3, 0)),
                        row_moves=moves((0, 2), (1, 3), (2, 0), (3, 1)),
                        index=index,
                        real=np.flatnonzero(np.arange(len(counts)) <= mirror),
                        imag=np.flatnonzero(np.arange(len(counts)) < mirror))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


class _TypeWeights(NamedTuple):
    mult: np.ndarray      # [k] = n! / (n00! n01! n10! n11!), the entries of type k
    diagonal: np.ndarray  # types with n01 = n10 = 0, those on the diagonal
    moments: np.ndarray   # [7, K] on the coordinates: trace, then mean_x .. xy_sym
    purity: np.ndarray    # [K] on the squared coordinates


@functools.cache
def _type_weights(n: int) -> _TypeWeights:
    """Per-n weights that read trace, collective moments and purity of a
    permutation-symmetric Hermitian matrix from its ``_pair_types``
    coordinates v, in closed form from the counts.

    On the type values r, with mult the entries of a type, sigma = n01 - n10
    and n10 + n11 the ones of the row index (the sums of ``compute_moments``
    taken over all entries of a type at once):
    trace = sum_diag mult r, mean_x = sum_diag mult (n - 2 n11) r,
    xx2 = sum_diag mult (n - 2 n11)**2 r, over the n01 + n10 = 1 types
    mean_z = sum mult Re r, mean_y = sum sigma mult Im r and
    xy_sym = 2 sum mult ((n - 2 (n10 + n11)) sigma - 1) Im r, and
    yy2 = n trace - 2 sum mult (1 - 2 n01 n10) Re r over n01 + n10 = 2;
    purity = sum mult |r|**2.  A coordinate stands for its type and, where
    that differs, the mirrored one, whose Re r is equal and Im r opposite.
    """
    types = _pair_types(n)
    mult = np.array([math.factorial(n) // math.prod(map(math.factorial, kinds))
                     for kinds in types.counts.tolist()], dtype=float)
    _, n01, n10, n11 = types.counts.T
    flips = n01 + n10
    trace, one, two = (mult * (flips == f) for f in (0, 1, 2))
    sigma = n01 - n10
    x = n - 2.0 * n11
    zero = np.zeros(len(mult))
    re = np.array([trace, x * trace, zero, one, x * x * trace,
                   n * trace - 2.0 * (1 - 2 * n01 * n10) * two, zero])
    im = np.array([zero, zero, sigma * one, zero, zero, zero,
                   2.0 * ((n - 2.0 * (n10 + n11)) * sigma - 1.0) * one])
    real_mirror, imag_mirror = types.mirror[types.real], types.mirror[types.imag]
    paired = real_mirror != types.real
    moments = np.concatenate((re[:, types.real] + re[:, real_mirror] * paired,
                              im[:, types.imag] - im[:, imag_mirror]), axis=1)
    purity = np.concatenate((mult[types.real] * (1.0 + paired), 2.0 * mult[types.imag]))
    tables = _TypeWeights(mult=mult, diagonal=np.flatnonzero(flips == 0),
                          moments=moments, purity=purity)
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        """max |rho - rho^dagger|."""
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2.0)[0])

    def purity(self) -> float:
        return float(np.real(np.sum(self.entries * self.entries.T)))


def _require_margins(herm: float, trace: float, when: str,
                     min_eigenvalue=None) -> tuple[float, float, float | None]:
    """Raise NumericalError when the hermiticity or trace defect, or then the
    lowest eigenvalue (called only if given), crosses its tolerance or is
    NaN; else return the three margins."""
    where = f" at {when}" if when else ""
    if not herm <= HERMITICITY_TOL:
        raise NumericalError(f"hermiticity defect exceeds {HERMITICITY_TOL}{where}")
    if not trace <= TRACE_TOL:
        raise NumericalError(f"trace defect exceeds {TRACE_TOL}{where}")
    low = min_eigenvalue() if min_eigenvalue is not None else None
    if low is not None and not low >= -POSITIVITY_TOL:
        raise NumericalError(f"negative eigenvalue below -{POSITIVITY_TOL}{where}")
    return herm, trace, low


@dataclass(frozen=True)
class ProductState(DensityMatrix):
    """The state of ``build_initial_state`` and its polarization P, the start
    of ``evolve``; frozen, with read-only entries, so they keep to P."""

    polarization: float


def build_initial_state(params: EnsembleParams) -> ProductState:
    """Product state with per-spin Bloch vector (0, 0, P).

    Written per spin in the x frame as (I + P*sx)/2 = [[1/2, P/2], [P/2, 1/2]]
    so the total trace is exactly one.  P = 0 (maximally mixed) is allowed
    here even though the squeezing formulas reject it.
    """
    n = params.n_spins
    rho = _product_state(params.polarization, n)
    rho.flags.writeable = False
    return ProductState(rho, n, params.polarization)


def _require_dense(n: int) -> None:
    if n > SPIN_CAP:
        raise ResourceError(f"n_spins = {n} exceeds the dense oracle's SPIN_CAP = {SPIN_CAP}")


def _product_row(polarizations, n: int) -> np.ndarray:
    """Row 0 of the product of (I + P_i sx)/2, P a scalar or one per spin.

    An entry rho[a, b] depends only on the mask a ^ b: it is row[a ^ b] =
    the product over sites, site 0 first, of 0.5 where the mask bit is 0 and
    P_i/2 where it is 1, i.e. 2**-n prod_{i in a ^ b} P_i.  Every other
    function takes these values from here, so they share one rounding.
    """
    if n < 1:
        raise ValidationError(["n_spins >= 1"])
    pols = _per_spin(polarizations, n)
    if not np.all((pols >= 0.0) & (pols <= 1.0)):
        raise ValidationError(["polarization in [0, 1] for state preparation"])
    _require_dense(n)
    row = np.ones(1)
    for p in pols.tolist():
        row = np.multiply.outer(row, (0.5, p / 2.0)).reshape(-1)
    return row


def _product_state(polarizations, n: int) -> np.ndarray:
    """Entries of the product of (I + P_i sx)/2: rho[a, b] = row[a ^ b] for
    ``_product_row``, copied without arithmetic.  Rows h .. 2h - 1 are rows
    0 .. h - 1 with the two column halves of every 2h-block swapped."""
    row = _product_row(polarizations, n)
    dim = len(row)
    rho = np.empty((dim, dim), dtype=complex)
    rho[0] = row
    h = 1
    while h < dim:
        blocks = (h, dim // (2 * h), 2, h)
        rho[h:2 * h].reshape(blocks)[...] = rho[:h].reshape(blocks)[:, :, ::-1]
        h *= 2
    return rho


def _product_types(n: int, polarization: float) -> np.ndarray:
    """Pair-type values of ``_product_state`` at uniform P: a type with
    m = n01 + n10 ones in a ^ b has r = 2**-(n - m) (P/2)**m, a sequential
    product as in ``_product_row`` and exact factors 0.5, so the same bits."""
    _, n01, n10, _ = _pair_types(n).counts.T
    powers = np.cumprod(np.concatenate(([1.0], np.full(n, polarization / 2.0))))
    m = n01 + n10
    return np.ldexp(powers[m], m - n)


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
    """Per-n gather tables of the moments, kept for the life of the process,
    so stored small: positions as int32, exact up to n = 15 (a matrix of
    4**16 entries would take 64 GiB), and the signs zz as int8, which
    multiply a float exactly."""
    z = _site_signs(n)
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
    matrix; the result is trace-linear.  Gathers the entries that
    ``_moments`` reads: the diagonal, rho[b, b ^ e_k] and rho[b, b ^ e_k ^ e_l].
    """
    rho, n = state.entries, state.n_spins
    g = _moment_gathers(n)
    return _moments(np.real(np.diagonal(rho))[None], np.take(rho, g.single)[None],
                    np.take(rho, g.pair)[None], n, pair_correlations)[0]


def _moments(pops, single, pair, n: int, pair_correlations: bool) -> list[CollectiveMoments]:
    """Moments of each matrix of a stack from the entries it reads.

    For matrix s, with pops[s, b] = Re rho[b, b], single[s, k, b] = f_k[b] =
    rho[b, b ^ e_k] and pair[s, p, b] = g_kl[b] = rho[b, b ^ e_k ^ e_l]:
    <sx_k sx_l> = sum_b z_k z_l rho[b, b], <sz_k> = sum_b Re f_k, <sy_k> =
    sum_b z_k Im f_k, <sx_k sy_l> = sum_b z_k z_l Im f_l and <sy_k sy_l> =
    -sum_b z_k z_l Re g_kl.  On C-ordered stacks every product and sum runs
    per matrix, along its rows (a stacked matmul is one BLAS call per
    matrix), so a matrix's bits do not depend on the stack it is in.
    """
    z = _site_signs(n)
    g = _moment_gathers(n)
    count = len(pops)
    z_im = z * single.imag
    site_z = single.real.sum(axis=-1)
    pxx = (z * pops[:, None]) @ z.T                # <sx_k sx_l>, trace on the diagonal
    pxy = z @ z_im.transpose(0, 2, 1)              # <sx_k sy_l> off the diagonal
    pyy = np.zeros((count, n, n))
    pyy[:, g.k, g.l] = pyy[:, g.l, g.k] = -np.sum(g.zz * pair.real, axis=-1)  # <sy_k sy_l>
    pxx.reshape(count, -1)[:, ::n + 1] = 0.0
    pxy.reshape(count, -1)[:, ::n + 1] = 0.0
    n_trace = n * pops.sum(axis=-1)

    def total(table):  # sum of each matrix's table, as one flat sum
        return table.reshape(count, -1).sum(axis=-1)

    scalars = zip(*(values.tolist() for values in (
        total(z @ pops[..., None]), total(z_im), total(site_z),
        n_trace + total(pxx), n_trace + total(pyy), 2.0 * total(pxy))))
    return [CollectiveMoments(*values,
                              *((pxx[s], pxy[s], pyy[s], site_z[s]) if pair_correlations else ()))
            for s, values in enumerate(scalars)]


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
    z = _site_signs(n)
    h = z.sum(axis=0) ** 2
    gamma_par, gamma_perp = rates.gamma_par, rates.gamma_perp
    diag = (-1j * proto.coupling) * np.subtract.outer(h, h) \
        + (gamma_par * (z.T @ z) - n * (gamma_par + 2.0 * gamma_perp))
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


def _require_stable_step(dt: float, n: int, generator, signal_field: float) -> None:
    """Refuse with ValidationError an RK4 step with dt * bound beyond
    ``RK4_STABLE_STEP`` (or NaN), for bound the Gershgorin bound on the
    spectral radius of ``_raw_rhs``: the largest sum of |local weights| over
    the types, plus 2 |B_y| n for the probe's row and column terms."""
    (weights, _), _, _ = generator
    bound = float(np.max(np.abs(weights).sum(axis=0))) + 2.0 * abs(signal_field) * n
    if not dt * bound <= RK4_STABLE_STEP:
        passing = (f"dt = {0.8 * RK4_STABLE_STEP / bound:.2g} would pass"
                   if math.isfinite(bound) else "no step passes")
        raise ValidationError([
            f"dt = {dt:.6g} is outside RK4's stability region: dt times the generator bound "
            f"{bound:.6g} exceeds {RK4_STABLE_STEP}; {passing}"])


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
    """Checkpointed observables of one master-equation run.

    ``evolve`` reads ``moments``, ``purities`` and the margins at each
    checkpoint from its pair-type coordinates; ``final`` is the only dense
    state it keeps, and ``min_eigenvalue`` comes from a dense expansion of
    each checkpoint, made only when positivity is checked.
    """

    times: list[float] = field(default_factory=list)
    moments: list[CollectiveMoments] = field(default_factory=list)
    purities: list[float] = field(default_factory=list)
    final: DensityMatrix | None = None
    max_hermiticity_defect: float = 0.0  # worst margins seen at the checkpoints
    max_trace_defect: float = 0.0
    min_eigenvalue: float | None = None   # None unless positivity was checked

    def _record(self, herm: float, trace: float, low: float | None) -> None:
        self.max_hermiticity_defect = max(self.max_hermiticity_defect, herm)
        self.max_trace_defect = max(self.max_trace_defect, trace)
        if low is not None:
            self.min_eigenvalue = low if self.min_eigenvalue is None \
                else min(self.min_eigenvalue, low)


def evolve(
    state: ProductState,
    cfg: IntegratorConfig,
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
    check_positivity: bool = False,
) -> Trajectory:
    """Integrate the master equation with fixed-step RK4 in the pair-type basis.

    The generator is that of ``lindblad_rhs``, probe field
    ``proto.signal_field`` included, and ``params.n_spins`` and
    ``params.polarization`` must match the state.  Every term of the model
    (SX^2, SY, identical per-site channels) commutes with permuting the
    sites, so a permutation-symmetric Hermitian state stays so and is fixed
    by K = C(n+3, 3) real coordinates (the ``_pair_types`` tables ``real``
    and ``imag``) instead of 4**n entries.
    The state must be the ``ProductState`` of ``build_initial_state``; its
    start coordinates come from (n, P) in O(K) (``_product_types``), and
    its entries are not read.  Any other state, negative or non-finite
    rates (a channel that is not completely positive), a non-finite
    coupling or probe field, and a step outside RK4's stability region
    (``_require_stable_step``) are refused with ValidationError.

    The generator is linear and constant, so it is built once per call as
    a real K x K matrix L: ``_raw_rhs`` applied to the K basis vectors in
    one batch, read back in coordinates.  With A = dt L, one classical RK4
    step is v -> v + N v for N = A (I + A (I/2 + A (I/6 + A/24))), formed
    once; the increment is added to v rather than applying I + N, whose
    rounded diagonal would repeat the same error every step.

    Each checkpoint, t = 0 included, reads the state from the coordinates
    in O(K) with the ``_type_weights`` tables: the collective moments and
    the trace as one small product, the purity from the squared
    coordinates.  Its hermiticity defect, max |r - conj(r[mirror])| over
    the type values (mirrored types conjugate, self-mirror types real), is
    zero by construction and still checked, like the trace defect; the
    worst margins are kept on the trajectory.  Only two things expand the
    type values to the dense matrix, with one index gather: ``final``, the
    state at t_final in the same x frame as the input, and the lowest
    eigenvalue of each checkpoint, t = 0 included, when ``check_positivity``
    is set.  A margin crossed beyond tolerance raises NumericalError naming
    the offending time.
    """
    if not isinstance(state, ProductState):
        raise ValidationError(["evolve starts from the ProductState of build_initial_state"])
    n = _spin_count(state, params)
    if params.polarization != state.polarization:
        raise ValidationError([f"params.polarization = {params.polarization!r} does not match "
                               f"state.polarization = {state.polarization!r}"])
    problems = rate_violations(rates) + [
        f"{name} finite" for name, value in (("coupling", proto.coupling),
                                             ("signal_field", proto.signal_field))
        if not math.isfinite(value)]
    if problems:
        raise ValidationError(problems)
    n_steps = cfg.steps()
    dt = cfg.t_final / n_steps
    generator = _type_generator(n, rates, proto)
    _require_stable_step(dt, n, generator, proto.signal_field)
    every = cfg.checkpoint_every if cfg.checkpoint_every > 0 else n_steps
    types = _pair_types(n)
    weights = _type_weights(n)
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

    def checkpoint(t, v, positivity=False, final=False):
        r = type_values(v)
        herm = float(np.max(np.abs(r - r[types.mirror].conj())))
        trace, *moments = (weights.moments @ v).tolist()
        dense = DensityMatrix(r[types.index], n) if positivity or final else None
        traj._record(*_require_margins(herm, abs(trace - 1.0), f"t={t:.6g}",
                                       dense.min_eigenvalue if positivity else None))
        traj.times.append(t)
        traj.moments.append(CollectiveMoments(*moments))
        traj.purities.append(float(weights.purity @ (v * v)))
        if final:
            traj.final = dense

    eye = np.eye(len(types.counts))
    a = dt * coordinates(_raw_rhs(type_values(eye), *generator))
    increment = a @ (eye + a @ (eye / 2.0 + a @ (eye / 6.0 + a / 24.0)))
    v = coordinates(_product_types(n, state.polarization))
    checkpoint(0.0, v, check_positivity)
    for step in range(1, n_steps + 1):
        v += increment @ v
        if step % every == 0 or step == n_steps:
            checkpoint(step * dt, v, check_positivity, step == n_steps)
    return traj


# ---------------------------------------------------------------------------
# exact variable-coupling unitary (diagonal in the collective x basis)
# ---------------------------------------------------------------------------

def _coupling_phases(theta: np.ndarray) -> np.ndarray:
    """Eigenphases s^T theta s of the ordered-pair twisting generator, for
    one matrix or each of a stack."""
    n = theta.shape[-1]
    s = _site_signs(n).T  # [a, i] = sigma_x eigenvalue in the x frame
    return np.einsum("ai,...ij,aj->...a", s, theta, s)


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
    """Exact moments and pair tables of ``variable_coupling_state``, read
    from its eigenphases without forming the state."""
    theta = _as_couplings(couplings).theta
    return _variable_coupling_moments(theta[None], [polarizations])[0]


def _variable_coupling_moments(theta: np.ndarray, polarizations) -> list[CollectiveMoments]:
    """``evolve_variable_coupling`` for each checked matrix of an (S, n, n)
    stack, with polarizations[s] (a scalar or n values) for matrix s.

    In the x frame the state is rho[a, b] = (row[a ^ b] phase[a])
    conj(phase[b]), with row = ``_product_row`` and phase = exp(-i s^T theta
    s).  ``_moments`` reads only the diagonal, rho[b, b ^ e_k] and rho[b, b ^
    e_k ^ e_l], so those O(n^2 2**n) entries are formed, with the same
    products in the same order as ``variable_coupling_state``, and no 4**n
    matrix: each matrix's moments equal those of ``compute_moments`` on the
    dense state bit for bit, and do not depend on the stack.
    """
    n = theta.shape[-1]
    rows = np.array([_product_row(p, n) for p in polarizations], dtype=complex)
    g = _moment_gathers(n)
    phase = np.exp(-1j * _coupling_phases(theta))
    conj = phase.conj()

    def entries(positions):  # [s, m, b] = (row[b ^ c] phase[b]) conj(phase[c]), c = column
        columns = positions & (len(phase[0]) - 1)  # the low n bits of a flat position
        # in C order, so that each sum of ``_moments`` runs along a row
        out = np.empty((len(rows),) + columns.shape, dtype=complex)
        np.multiply(rows[:, columns[:, 0], None], phase[:, None], out=out)  # b = 0: the masks
        out *= conj[:, columns]
        return out

    pops = (rows[:, :1] * phase * conj).real
    single, pair = entries(g.single), entries(g.pair)
    return _moments(pops, single, pair, n, pair_correlations=True)


# ---------------------------------------------------------------------------
# per-site Pauli channels: rho <- sum_alpha p_alpha sigma_alpha rho sigma_alpha
# ---------------------------------------------------------------------------

def _pauli_channel(rho, n, lx, ly, lz) -> np.ndarray:
    """The Pauli channel that scales each site's Bloch components (x, y, z)
    by (lx, ly, lz), applied to a copy of the entries, site by site in place.
    ``rho`` is one matrix with scalar weights, or a stack along a trailing
    axis, (2**n, 2**n, S), with lx, ly, lz one value per matrix (shape (S,));
    every entry gets the same products, so each matrix the same bits as alone.

    A site's block in the x frame is [[1 + x, z + iy], [z - iy, 1 - x]] / 2,
    so per site each entry mixes with the entry whose site bit is flipped in
    both row and column: where the row and column bits agree at weights
    (1 +/- lx)/2, elsewhere at (lz +/- ly)/2.  The map is completely positive
    and trace preserving when 1 + lz >= |lx + ly| and 1 - lz >= |lx - ly|.
    """
    # [row bit, 1, 1, column bit, 1, *stack]: the stack axis, if any, is last
    keep = np.array([[1.0 + lx, lz + ly], [lz + ly, 1.0 + lx]])[:, None, None, :, None] / 2.0
    move = np.array([[1.0 - lx, lz - ly], [lz - ly, 1.0 - lx]])[:, None, None, :, None] / 2.0
    dim = 1 << n
    out = rho.astype(complex, order="C")
    moved = np.empty_like(out)
    for i in range(n):
        six = (1 << i, 2, dim >> (i + 1), 1 << i, 2, dim >> (i + 1)) + out.shape[2:]
        v, m = out.reshape(six), moved.reshape(six)
        np.multiply(move, v[:, ::-1, :, :, ::-1], out=m)
        v *= keep
        v += m
    return out


def apply_dephasing(state: DensityMatrix, survival: float) -> DensityMatrix:
    """Apply the product dephasing channel with survival amplitude ``survival``:
    the Pauli channel (s, s, 1), which mixes each entry with its bit flip at
    weights (1 +/- s)/2.  z populations are untouched, single-site transverse
    coherences scale by s, transverse pair correlations by s**2.  Completely
    positive and trace preserving for 0 <= s <= 1."""
    s = float(survival)
    if not (0.0 <= s <= 1.0):
        raise DomainError("survival amplitude must lie in [0, 1]")
    return DensityMatrix(_pauli_channel(state.entries, state.n_spins, s, s, 1.0), state.n_spins)


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

    Compares exp[T(L_H + L_D)] rho against exp[T L_H] exp[T L_D] rho.  The
    joint leg and the twist-only leg exp[T L_H] are integrated with the
    same RK4 configuration; the dissipation-only leg exp[T L_D] is exact:
    it takes the product state at P to the one at P exp(-2 Gamma_sum T).
    The twist leg stays on RK4 although it is a diagonal
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
    joint = evolve(build_initial_state(params), cfg, params, rates, proto).final
    dissipated = replace(params, polarization=params.polarization
                         * math.exp(-2.0 * rates.gamma_sum * cfg.t_final))
    factored = evolve(build_initial_state(dissipated), cfg, dissipated, DecoherenceRates(),
                      proto).final
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
