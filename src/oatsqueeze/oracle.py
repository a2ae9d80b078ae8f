"""Exact small-N quantum oracle for twisted spin ensembles.

Exact density-matrix dynamics of n spins used as ground truth for every
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
eigenphases, and one kernel (``_moment_stack``) reduces them.  Trace, purity,
eigenvalues and trace distance do not depend on the basis.  Each basis
has one per-n table: ``_bit_tables`` holds the site signs and the gather
positions of the moments on the 2**n basis indices, ``_pair_types`` the
types, their moves and their weights, and ``_dicke_blocks`` the map from
the types to the total-spin blocks.

``evolve`` integrates in the pair-type basis of permutation-symmetric
states.  Site i of an entry rho[a, b] has one of four kinds (bit_i(a),
bit_i(b)); the model commutes with permuting the sites, so a symmetric
state depends only on the counts (n00, n01, n10, n11) of the kinds, which
are C(n+3, 3) numbers (165 at n = 8, 455 at n = 12) instead of 4**n.  The
generator there is the same elementwise factor plus count-weighted
gathers from neighbouring types (``_raw_rhs``).  A Hermitian symmetric
state is fixed by as many real coordinates.  ``evolve`` takes each RK4
step either as four gathers on the type values or, for a run long enough
to pay for its K**3 products, as one matrix-vector product with the
increment matrix of dt L, L the generator as a real square matrix on the
coordinates (``_increment_pays``).  Its checkpoints read moments, purity
and the trace from the coordinates with the weights of ``_pair_types``,
O(K) at any n.  A symmetric state is a ``_SymmetricState``, a frozen
value of n and its type values (the start ``ProductState`` of
``build_initial_state``, built in O(K), each checkpoint and
``Trajectory.final``).  It is block-diagonal over the total spin j,
rho = sum_j rho_j (x) I_{d_j}, with blocks of size 2j + 1 <= n + 1, so its
spectrum is that of the blocks: its lowest eigenvalue, and the trace
distance of two such states, come from the blocks that ``_dicke_blocks``
maps the type values to; its trace, purity and hermiticity defect come
from the O(K) values.  ``evolve(check_positivity=True)``,
``factorization_gap`` and ``Trajectory.final`` form no 4**n array.  Its
dense view ``entries`` is a cached property, gathered through
``_type_index``, the one 4**n table, on first read: it stays public
because ``compute_moments``, ``lindblad_rhs`` and ``apply_dephasing`` take
any matrix, dense, and callers pass them symmetric states.

Pair couplings are given as an ``inhomogeneous.CouplingMatrix`` or as a
plain matrix that passes its checks.  The oracle exists to validate
formulas, not to scale: every state it returns reads as a dense matrix,
but moments and spectra of symmetric states need none, and no 4**n array
is formed unless one is read.  The spin count is capped at ``SPIN_CAP``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .analytic import _cos2_minimum, effective_polarization
from .core import (
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
    ProtocolParams,
    ResourceError,
    ValidationError,
    rate_violations,
    require_finite_angle,
)
from .inhomogeneous import _as_couplings, _per_spin

SPIN_CAP = 12

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
# largest dt * rho(L) that evolve accepts: classical RK4 is stable on the left
# half-disk of radius 2.6156, where a Lindbladian's spectrum lies
RK4_STABLE_STEP = 2.6
# most RK4 steps one IntegratorConfig may ask for: 2000 times the 5000 of the
# longest run in use (verify takes at most 1000); a far larger count comes
# from a mistyped dt, and its run would not end
STEP_CAP = 10 ** 7


# ---------------------------------------------------------------------------
# per-n tables: on the 2**n basis indices, on the pair types, on the Dicke blocks
# ---------------------------------------------------------------------------

class _BitTables(NamedTuple):
    z: np.ndarray       # [i, a] = (-1)**bit_i(a), the sigma_x eigenvalue of site i
    k: np.ndarray       # [p] = k of the p-th pair k < l
    l: np.ndarray       # [p] = l of the p-th pair
    single: np.ndarray  # [k, b] = flat position of rho[b, b ^ e_k]
    pair: np.ndarray    # [p, b] = flat position of rho[b, b ^ e_k ^ e_l]
    zz: np.ndarray      # [p, b] = z_k[b] z_l[b]


@functools.cache
def _bit_tables(n: int) -> _BitTables:
    """Per-n tables on the 2**n basis indices: the site signs z in the x
    frame, and the positions and signs that the moments gather.  Kept for
    the life of the process, so stored small: positions as int32, exact up
    to n = 15 (a matrix of 4**16 entries would take 64 GiB), and the signs
    zz as int8, which multiply a float exactly."""
    idx = np.arange(1 << n, dtype=np.int32)
    bit = 1 << np.arange(n - 1, -1, -1, dtype=np.int32)  # e_k for site k
    z = 1.0 - 2.0 * ((idx & bit[:, None]) != 0)
    k, l = np.triu_indices(n, 1)
    tables = _BitTables(z=z, k=k, l=l,
                        single=idx << n | idx ^ bit[:, None],
                        pair=idx << n | idx ^ (bit[k] | bit[l])[:, None],
                        zz=(z[k] * z[l]).astype(np.int8))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


class _PairTypes(NamedTuple):
    counts: np.ndarray       # [k] = (n00, n01, n10, n11), sites of each kind
    mirror: np.ndarray       # [k] = type of the transposed entries, n01 <-> n10
    local_moves: np.ndarray  # [m, k] = k itself, then k after one site 00 -> 11, 11 -> 00
    row_moves: np.ndarray    # [m, k] = k after one site 00 -> 10, 01 -> 11, 10 -> 00, 11 -> 01
    lookup: np.ndarray       # [ones of a, ones of b, hamming(a, b)] = type of rho[a, b]
    real: np.ndarray         # types k <= mirror[k]: their Re r_k are coordinates
    imag: np.ndarray         # types k < mirror[k]: their Im r_k are coordinates
    mult: np.ndarray         # [k] = n! / (n00! n01! n10! n11!), the entries of type k
    moments: np.ndarray      # [7, K] on the coordinates: trace, then mean_x .. xy_sym
    purity: np.ndarray       # [K] on the squared coordinates


@functools.cache
def _pair_types(n: int) -> _PairTypes:
    """Per-n tables of the pair-type basis.

    Site i of an entry rho[a, b] has kind (bit_i(a), bit_i(b)), numbered
    00, 01, 10, 11.  A permutation-symmetric matrix depends only on the
    counts (n00, n01, n10, n11) of the four kinds, its type, so it is
    C(n+3, 3) numbers.  A move turns one site of one kind into another;
    where no site has the source kind it returns the type itself, and its
    weight (the source count) is zero.  Each table is O(K), in intp at any n.

    A Hermitian matrix has r[mirror] = conj(r), so it is fixed by K =
    C(n+3, 3) real coordinates v: Re r_k of each type in ``real``, then
    Im r_k of each type in ``imag``.  ``moments`` and ``purity`` read the
    trace, collective moments and purity from v, in closed form from the
    counts.  On the type values r, with mult the entries of a type, sigma =
    n01 - n10 and n10 + n11 the ones of the row index (the sums of
    ``compute_moments`` taken over all entries of a type at once):
    trace = sum_diag mult r, mean_x = sum_diag mult (n - 2 n11) r,
    xx2 = sum_diag mult (n - 2 n11)**2 r, over the n01 + n10 = 1 types
    mean_z = sum mult Re r, mean_y = sum sigma mult Im r and
    xy_sym = 2 sum mult ((n - 2 (n10 + n11)) sigma - 1) Im r, and
    yy2 = n trace - 2 sum mult (1 - 2 n01 n10) Re r over n01 + n10 = 2;
    purity = sum mult |r|**2.  A coordinate stands for its type and, where
    that differs, the mirrored one, whose Re r is equal and Im r opposite.
    """
    counts = _kind_counts(n)
    lut = np.zeros((n + 1,) * 3, dtype=np.intp)

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
        return np.array(out)

    mirror = lut[key(counts[:, [0, 2, 1, 3]])]
    real = np.flatnonzero(np.arange(len(counts)) <= mirror)
    imag = np.flatnonzero(np.arange(len(counts)) < mirror)
    mult = np.array([math.factorial(n) // math.prod(map(math.factorial, kinds))
                     for kinds in counts.tolist()], dtype=float)
    _, n01, n10, n11 = counts.T
    trace, one, two = (mult * (n01 + n10 == f) for f in (0, 1, 2))
    sigma = n01 - n10
    x = n - 2.0 * n11
    zero = np.zeros(len(mult))
    re = np.array([trace, x * trace, zero, one, x * x * trace,
                   n * trace - 2.0 * (1 - 2 * n01 * n10) * two, zero])
    im = np.array([zero, zero, sigma * one, zero, zero, zero,
                   2.0 * ((n - 2.0 * (n10 + n11)) * sigma - 1.0) * one])
    paired = mirror[real] != real
    tables = _PairTypes(counts=counts, mirror=mirror,
                        local_moves=moves((0, 0), (0, 3), (3, 0)),
                        row_moves=moves((0, 2), (1, 3), (2, 0), (3, 1)), lookup=lut,
                        real=real, imag=imag, mult=mult,
                        moments=np.concatenate((re[:, real] + re[:, mirror[real]] * paired,
                                                im[:, imag] - im[:, mirror[imag]]), axis=1),
                        purity=np.concatenate((mult[real] * (1.0 + paired), 2.0 * mult[imag])))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _kind_counts(n: int) -> np.ndarray:
    """[t] = (n00, n01, n10, n11) of each pair type of n sites, in type order:
    (n01, n10, n11) in lexicographic order, each with n00 = n - n01 - n10 - n11 >= 0."""
    rest = np.indices((n + 1,) * 3).reshape(3, -1).T
    rest = rest[rest.sum(axis=1) <= n]
    return np.concatenate((n - rest.sum(axis=1, keepdims=True), rest), axis=1)


class _DickeBlocks(NamedTuple):
    sizes: np.ndarray        # [j] = 2j + 1, the blocks in order of 2j
    copies: np.ndarray       # [row] = d_j of the block of the row: its copies in the 2**n states
    position: np.ndarray     # [e] = flat position of entry e in the blocks' diagonal matrix
    type: np.ndarray         # [e] = the pair type whose value entry e reads
    coefficient: np.ndarray  # [e] = its weight


@functools.cache
def _dicke_blocks(n: int) -> _DickeBlocks:
    """Per-n map from the pair-type values of a permutation-symmetric matrix
    to its Dicke blocks: rho = sum_j rho_j (x) I_{d_j} over the total spin j,
    so rho's spectrum is that of the blocks, block j taken d_j times.

    One copy of spin j is v_{j,k} = |Dicke(2j, k ones)> (x) |s>**p, with p =
    n/2 - j singlet pairs |s> = (|01> - |10>)/sqrt(2) on the last 2p sites,
    and rho_j[k, k'] = <v_{j,k}|rho|v_{j,k'}>.  A singlet pair adds +1 where
    its sites have kinds {00, 11} and -1 where they have {01, 10} (both
    orders summed); the 2j Dicke sites, of kind counts e, add
    (2j)! / (e00! e01! e10! e11!) / sqrt(C(2j, k) C(2j, k')) with k = e10 + e11
    and k' = e01 + e11.  With q pairs of kinds {00, 11} the entry reads the
    type (e00 + q, e01 + p - q, e10 + p - q, e11 + q), at weight
    (-1)**(p - q) C(p, q) times that of the Dicke sites.  The blocks lie on
    the diagonal of one matrix of size sum_j (2j + 1), in order of 2j, and
    take sum_j (2j + 1)**2 = K of its positions; d_j = C(n, p) - C(n, p - 1).
    ``docs/dicke_blocks.md`` derives the map.  O(n K) entries, in intp.
    """
    lookup = _pair_types(n).lookup
    comb = np.array([[math.comb(m, i) for i in range(n + 1)] for m in range(n + 1)], dtype=float)
    width = (n // 2 + 1) * ((n + 1) // 2 + 1)  # sum_j (2j + 1)
    sizes, copies, position, kind, coefficient = [], [], [], [], []
    offset = 0
    for p in range(n // 2, -1, -1):
        two_j = n - 2 * p
        size = two_j + 1
        _, e01, e10, e11 = _kind_counts(two_j).T
        k, k_col = e10 + e11, e01 + e11
        weight = comb[k, e11] * comb[two_j - k, e01] * np.sqrt(comb[two_j, k] / comb[two_j, k_col])
        for q in range(p + 1):
            position.append((offset + k) * width + offset + k_col)
            kind.append(lookup[k + p, k_col + p, e01 + e10 + 2 * (p - q)])
            coefficient.append((-1.0) ** (p - q) * math.comb(p, q) * weight)
        sizes.append(size)
        copies += [math.comb(n, p) - (math.comb(n, p - 1) if p else 0)] * size
        offset += size
    tables = _DickeBlocks(sizes=np.array(sizes), copies=np.array(copies, dtype=float),
                          position=np.concatenate(position), type=np.concatenate(kind),
                          coefficient=np.concatenate(coefficient))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _block_diagonal(values: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian part of a permutation-symmetric matrix's Dicke blocks,
    from its type values, on the diagonal of one matrix of size
    sum_j (2j + 1) <= (n/2 + 1)**2: its eigenvalues are rho's, each block's
    taken once.  Up to n = 9 one ``eigvalsh`` of it costs less than one per
    block, whose call overhead outweighs the work (a trace distance at n = 8:
    45 against 61 us, timeit minimum); at n = 10-12 one per block would
    save 10-40 us a call."""
    blocks = _dicke_blocks(n)
    width = len(blocks.copies)
    terms = blocks.coefficient * values[blocks.type]
    m = (np.bincount(blocks.position, terms.real, width * width)
         + 1j * np.bincount(blocks.position, terms.imag, width * width)).reshape(width, width)
    return (m + m.conj().T) / 2.0


def _coordinates(r: np.ndarray, types: _PairTypes) -> np.ndarray:
    """The K real coordinates of Hermitian type values: Re r of the types in
    ``real``, then Im r of those in ``imag``."""
    return np.concatenate((r[types.real].real, r[types.imag].imag))


@functools.cache
def _type_index(n: int) -> np.ndarray:
    """[a, b] = type of rho[a, b]: the one 4**n table, which only the dense
    expansion of a ``_SymmetricState`` reads; int16 (K <= 455 under SPIN_CAP),
    gathered from an int16 lookup."""
    idx = np.arange(1 << n, dtype=np.uint16)
    ones = sum((idx >> i) & 1 for i in range(n)).astype(np.int8)
    lookup = _pair_types(n).lookup.astype(np.int16)
    index = lookup[ones[:, None], ones[None, :], ones[idx[:, None] ^ idx]]
    index.flags.writeable = False  # shared by every caller
    return index


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense complex density matrix for ``n_spins`` spin-1/2 particles, in
    the collective-x frame (site 0 the most significant bit, bit 0 sigma_x = +1)."""

    entries: np.ndarray
    n_spins: int

    def trace_defect(self) -> float:
        return abs(np.trace(self.entries) - 1.0)

    def hermiticity_defect(self) -> float:
        """max |rho - rho^dagger|."""
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2.0)[0])

    def purity(self) -> float:
        return float(np.real(np.sum(self.entries * self.entries.T)))


@dataclass(frozen=True, eq=False)
class _SymmetricState:
    """A permutation-symmetric matrix held as its read-only pair-type values.

    Its spectrum comes from its Dicke blocks (``_dicke_blocks``), its trace,
    purity and hermiticity defect from the O(K) values, so none of these
    reads forms a 4**n array.  Its read-only ``entries``, values[``_type_index``],
    are formed on first read, for the dense readers of any matrix
    (``compute_moments``, ``lindblad_rhs``, ``apply_dephasing``).
    """

    n_spins: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    @functools.cached_property
    def entries(self) -> np.ndarray:
        entries = self.values[_type_index(self.n_spins)]
        entries.flags.writeable = False
        return entries

    def trace_defect(self) -> float:
        """|trace - 1|, the trace from the coordinates (row 0 of the moments table)."""
        types = _pair_types(self.n_spins)
        return abs(float(types.moments[0] @ _coordinates(self.values, types)) - 1.0)

    def hermiticity_defect(self) -> float:
        """max |r - conj(r[mirror])|, which is max |rho - rho^dagger|."""
        r = self.values
        return float(np.max(np.abs(r - r[_pair_types(self.n_spins).mirror].conj())))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(_block_diagonal(self.values, self.n_spins))[0])

    def purity(self) -> float:
        """sum mult |r|**2, from the squared coordinates."""
        types = _pair_types(self.n_spins)
        v = _coordinates(self.values, types)
        return float(types.purity @ (v * v))


@dataclass(frozen=True, eq=False)
class ProductState(_SymmetricState):
    """The state of ``build_initial_state`` and its polarization P, the start
    of ``evolve``; frozen, with read-only values and entries, so they keep to P."""

    polarization: float


def build_initial_state(params: EnsembleParams) -> ProductState:
    """Product state with per-spin Bloch vector (0, 0, P), built in O(K).

    Written per spin in the x frame as (I + P*sx)/2 = [[1/2, P/2], [P/2, 1/2]]
    so the total trace is exactly one.  A type with m = n01 + n10 ones in a ^ b
    has r = 2**-(n - m) (P/2)**m, the bits of row[a ^ b] (``_product_row``:
    sequential products, exact factors 0.5).  P = 0 (maximally mixed) is allowed.
    """
    n, polarization = params.n_spins, params.polarization
    _product_polarizations(polarization, n)
    m = _pair_types(n).counts[:, 1:3].sum(axis=1)  # n01 + n10
    powers = np.cumprod(np.concatenate(([1.0], np.full(n, polarization / 2.0))))
    return ProductState(n, np.ldexp(powers[m], m - n).astype(complex), polarization)


def _product_polarizations(polarizations, n: int) -> np.ndarray:
    """P per spin (rows of them), refused unless n >= 1, P in [0, 1], n <= SPIN_CAP."""
    if n < 1:
        raise ValidationError(["n_spins >= 1"])
    pols = np.asarray(polarizations, dtype=float)
    pols = pols if pols.ndim == 2 else _per_spin(pols, n)
    if not np.all((pols >= 0.0) & (pols <= 1.0)):
        raise ValidationError(["polarization in [0, 1] for state preparation"])
    if n > SPIN_CAP:
        raise ResourceError(f"n_spins = {n} exceeds the oracle's SPIN_CAP = {SPIN_CAP}")
    return pols


def _product_row(polarizations, n: int) -> np.ndarray:
    """Row 0 of the product of (I + P_i sx)/2, P a scalar or one per spin, or (S, n).

    An entry rho[a, b] depends only on the mask a ^ b: it is row[a ^ b] =
    the product over sites, site 0 first, of 0.5 where the mask bit is 0 and
    P_i/2 where it is 1, i.e. 2**-n prod_{i in a ^ b} P_i.  Every other
    function takes these values from here, so they share one rounding;
    ``build_initial_state`` forms the same bits in closed form.  A row of a
    stack has the products, so the bits, of its own call.
    """
    pols = _product_polarizations(polarizations, n)
    factors = np.stack((np.full_like(pols, 0.5), pols / 2.0), axis=-1)  # [..., site, bit]
    row = np.ones(pols.shape[:-1] + (1,))
    for i in range(n):
        row = (row[..., :, None] * factors[..., i, None, :]).reshape(*pols.shape[:-1], -1)
    return row


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
        require_finite_angle(theta)
        return _second_moment(self.xx2, self.yy2, self.xy_sym, math.cos(theta), math.sin(theta))

    def quadrature_mean(self, theta: float) -> float:
        require_finite_angle(theta)
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


def _second_moment(xx2, yy2, xy_sym, c, s):
    """Quadrature second moment at c = cos(theta), s = sin(theta); floats or arrays."""
    return c * c * xx2 + s * s * yy2 + s * c * xy_sym


def compute_moments(state: DensityMatrix | _SymmetricState,
                    pair_correlations: bool = False) -> CollectiveMoments:
    """Collective first/second moments (and optional pair tables) of any
    matrix; the result is trace-linear.  Gathers the entries that
    ``_moment_stack`` reads: the diagonal, rho[b, b ^ e_k] and rho[b, b ^ e_k ^ e_l].
    """
    rho, n = state.entries, state.n_spins
    g = _bit_tables(n)
    return _moments(_moment_stack(np.real(np.diagonal(rho))[None], np.take(rho, g.single)[None],
                                  np.take(rho, g.pair)[None], n), pair_correlations)[0]


def _moment_stack(pops, single, pair, n: int) -> tuple[np.ndarray, ...]:
    """Each ``CollectiveMoments`` field of a stack's matrices, as one array, from their entries.

    For matrix s, with pops[s, b] = Re rho[b, b], single[s, k, b] = f_k[b] =
    rho[b, b ^ e_k] and pair[s, p, b] = g_kl[b] = rho[b, b ^ e_k ^ e_l]:
    <sx_k sx_l> = sum_b z_k z_l rho[b, b], <sz_k> = sum_b Re f_k, <sy_k> =
    sum_b z_k Im f_k, <sx_k sy_l> = sum_b z_k z_l Im f_l and <sy_k sy_l> =
    -sum_b z_k z_l Re g_kl.  On C-ordered stacks every product and sum runs
    per matrix, along its rows (a stacked matmul is one BLAS call per
    matrix), so a matrix's bits do not depend on the stack it is in.
    """
    g = _bit_tables(n)
    z = g.z
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

    return (total(z @ pops[..., None]), total(z_im), total(site_z),
            n_trace + total(pxx), n_trace + total(pyy), 2.0 * total(pxy), pxx, pxy, pyy, site_z)


def _moments(stack, pair_correlations: bool) -> list[CollectiveMoments]:
    """One ``CollectiveMoments`` per matrix of a ``_moment_stack``."""
    tables = stack[6:] if pair_correlations else ()
    return [CollectiveMoments(*values, *(table[s] for table in tables))
            for s, values in enumerate(zip(*(field.tolist() for field in stack[:6])))]


# ---------------------------------------------------------------------------
# Lindblad generator and RK4 integration
# ---------------------------------------------------------------------------

def lindblad_rhs(
    state: DensityMatrix | _SymmetricState,
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
) -> DensityMatrix:
    """Generator of the master equation applied once to ``state``.

    Hamiltonian part: -i[sum_{i != j} theta_ij sx_i sx_j, rho] at the uniform
    coupling matrix theta = J (1 - I), which is J*(SX^2 - N); the identity
    shift drops out of the commutator.  Dissipator: per-site sigma_x channel at
    gamma_par and sigma_y/sigma_z channels at gamma_perp, with the
    trace-preserving counterterm N*(gamma_par + 2*gamma_perp)*rho.  Signal
    part: -i*B_y*[SY, rho] with B_y = ``proto.signal_field``.  A zero
    parameter adds zeros.  ``params.n_spins`` must match the state.
    Any matrix is accepted, and the generator is applied densely: it is the
    reference for the pair-type generator that ``evolve`` integrates.
    """
    n = _spin_count(state, params)
    generator = _dense_generator(proto.coupling * (1.0 - np.eye(n)), rates, proto.signal_field)
    return DensityMatrix(_dense_rhs(state.entries, n, *generator), n)


def _spin_count(state: DensityMatrix | _SymmetricState, params: EnsembleParams) -> int:
    if params.n_spins != state.n_spins:
        raise ValidationError([f"params.n_spins = {params.n_spins} does not match "
                               f"state.n_spins = {state.n_spins}"])
    return state.n_spins


def _dense_generator(theta, rates: DecoherenceRates, signal_field: float):
    """Inputs of ``_dense_rhs``: the elementwise factor, gamma_perp and B_y.

    For any symmetric zero-diagonal coupling matrix theta, with sigma_x -> z_i
    in the x frame and E = ``_coupling_phases(theta)`` the Ising energies,
    -i (E_a - E_b) + gamma_par sum_i z_i[a] z_i[b] - n (gamma_par + 2 gamma_perp).
    """
    n = len(theta)
    z = _bit_tables(n).z
    energy = _coupling_phases(theta)
    gamma_par, gamma_perp = rates.gamma_par, rates.gamma_perp
    diag = -1j * np.subtract.outer(energy, energy) \
        + (gamma_par * (z.T @ z) - n * (gamma_par + 2.0 * gamma_perp))
    return diag, gamma_perp, signal_field


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
        src = rho.reshape(lead, 2, trail, lead, 2, trail)
        dst = out.reshape(lead, 2, trail, lead, 2, trail)
        dst[:, 0, :, :, 0] += (2.0 * gamma_perp) * src[:, 1, :, :, 1]
        dst[:, 1, :, :, 1] += (2.0 * gamma_perp) * src[:, 0, :, :, 0]
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
    factor per type on r itself (E_a = J (h_a - n), h_a = (n - 2 (n10 + n11))**2,
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
    a batch of them along a trailing axis; ``evolve`` steps its type values
    with it, or applies it once, to the batch of its coordinate basis
    vectors, to build its generator matrix.

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


def _increment_pays(n_steps: int, k: int) -> bool:
    """Whether ``evolve`` steps with the K x K increment matrix rather than
    the gathers: when its three K**3 products cost no more than the
    n_steps four-stage gather steps they replace.  Measured with ``timeit``
    on one core, the products take about 0.22 ns * K**3 and a gather step
    30-40 us more than a matrix-vector step, so the break-even run has about
    K**3 / 2**17 steps (n = 8: 34, n = 10: 178, n = 12: 719)."""
    return n_steps << 17 >= k ** 3


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 configuration.

    ``dt`` is nudged to the nearest value dividing ``t_final`` into an
    integer number of steps, keeping runs deterministic; more than
    ``STEP_CAP`` steps are refused with ResourceError.  Convergence is
    enforced in tests: halving dt must change reported observables by less
    than 1e-8 relative.
    """

    dt: float
    t_final: float
    checkpoint_every: int = 0  # 0: checkpoints only at t=0 and t_final

    def steps(self) -> int:
        if not (self.dt > 0.0 and self.t_final >= self.dt):
            raise ValidationError(["0 < dt <= t_final"])
        ratio = self.t_final / self.dt  # at least 1
        if not math.isfinite(ratio):
            raise ValidationError([f"t_final / dt finite, not {ratio!r}"])
        if round(ratio) > STEP_CAP:
            raise ResourceError(f"t_final / dt asks for {ratio:.6g} RK4 steps, above STEP_CAP = "
                                f"{STEP_CAP}; dt = {self.t_final / STEP_CAP!r} would pass")
        return round(ratio)


@dataclass
class Trajectory:
    """Checkpointed observables of one master-equation run.

    ``evolve`` reads ``moments``, ``purities`` and the margins at each
    checkpoint from its pair-type coordinates; ``_record`` checks the margins
    and keeps the worst.  ``min_eigenvalue`` is the lowest over each
    checkpoint's Dicke blocks, read only when it is checked.  ``final``, the
    state at t_final, is a ``_SymmetricState``: its spectra come from its
    blocks, and its dense entries are formed only if read.
    """

    times: list[float] = field(default_factory=list)
    moments: list[CollectiveMoments] = field(default_factory=list)
    purities: list[float] = field(default_factory=list)
    final: _SymmetricState | None = None
    max_hermiticity_defect: float = 0.0  # worst margins seen at the checkpoints
    max_trace_defect: float = 0.0
    min_eigenvalue: float | None = None   # None unless positivity was checked

    def _record(self, herm: float, trace: float, t: float, min_eigenvalue=None) -> None:
        """Raise NumericalError at time t when the hermiticity or trace defect,
        or then the lowest eigenvalue (called only if given), crosses its
        tolerance or is NaN; else keep the worst of each."""
        where = f" at t={t:.6g}"
        if not herm <= HERMITICITY_TOL:
            raise NumericalError(f"hermiticity defect exceeds {HERMITICITY_TOL}{where}")
        if not trace <= TRACE_TOL:
            raise NumericalError(f"trace defect exceeds {TRACE_TOL}{where}")
        self.max_hermiticity_defect = max(self.max_hermiticity_defect, herm)
        self.max_trace_defect = max(self.max_trace_defect, trace)
        if min_eigenvalue is not None:
            low = min_eigenvalue()
            if not low >= -POSITIVITY_TOL:
                raise NumericalError(f"negative eigenvalue below -{POSITIVITY_TOL}{where}")
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
    The state must be the ``ProductState`` of ``build_initial_state``, whose
    type values are the start.  Any other state, negative or non-finite
    rates (a channel that is not completely positive), a non-finite
    coupling or probe field, and a step outside RK4's stability region
    (``_require_stable_step``) are refused with ValidationError.

    Both forms take classical RK4 steps of the same generator from the
    start's type values, and ``_increment_pays`` (n_steps * 2**17 >= K**3)
    picks one per call:

    * the increment form.  The generator is linear and constant, so it is
      built as a real K x K matrix L: ``_raw_rhs`` applied to the K basis
      vectors in one batch, read back in coordinates.  With A = dt L, one
      step is v -> v + N v for N = A (I + A (I/2 + A (I/6 + A/24))), formed
      once with three K**3 products; the increment is added to v rather
      than applying I + N, whose rounded diagonal would repeat the same
      error every step.  It pays for long runs at small K.
    * the gather form.  Each step applies ``_raw_rhs`` four times to the
      complex type values, k1 = f(r), k2 = f(r + dt/2 k1), k3 = f(r + dt/2
      k2), k4 = f(r + dt k3), r -> r + dt/6 (k1 + 2 k2 + 2 k3 + k4), and
      holds no K x K matrix.  It pays for short runs at large K.

    Each checkpoint, t = 0 included, reads the state from the coordinates
    in O(K) with the ``_pair_types`` weights: the collective moments and
    the trace as one small product, the purity from the squared
    coordinates.  Its hermiticity defect, max |r - conj(r[mirror])| over
    the type values (mirrored types conjugate, self-mirror types real), is
    read from the stepped values themselves.  Each ``_raw_rhs`` term maps a
    Hermitian r to a Hermitian one with the same roundings on both types of
    a mirrored pair, so the defect is zero in either form; it is still
    checked, like the trace defect, and the worst margins are kept on the
    trajectory.  Each checkpoint is a ``_SymmetricState``; when
    ``check_positivity`` is set its lowest eigenvalue is read from its Dicke
    blocks (``_block_diagonal``), with no 4**n array.  ``final`` is the last
    one, in the input's x frame.  A margin crossed beyond tolerance raises
    NumericalError naming the offending time.
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
    traj = Trajectory()

    def type_values(v):
        """Inverse of ``_coordinates``, also for a batch along a trailing axis:
        mirrored types conjugate, self-mirror types real, so exactly Hermitian."""
        re, im = v[:len(types.real)], v[len(types.real):]
        r = np.zeros(v.shape, dtype=complex)
        r.real[types.real] = r.real[types.mirror[types.real]] = re
        r.imag[types.imag] = im
        r.imag[types.mirror[types.imag]] = -im
        return r

    def checkpoint(t, r):
        trace, *moments = (types.moments @ _coordinates(r, types)).tolist()
        traj.final = _SymmetricState(n, r)
        traj._record(traj.final.hermiticity_defect(), abs(trace - 1.0), t,
                     traj.final.min_eigenvalue if check_positivity else None)
        traj.times.append(t)
        traj.moments.append(CollectiveMoments(*moments))
        traj.purities.append(traj.final.purity())

    r = state.values
    checkpoint(0.0, r)
    size = len(types.counts)
    if _increment_pays(n_steps, size):
        eye = np.eye(size)
        a = dt * _coordinates(_raw_rhs(type_values(eye), *generator), types)
        increment = a @ (eye + a @ (eye / 2.0 + a @ (eye / 6.0 + a / 24.0)))
        v, product = _coordinates(r, types), np.empty(size)
        for step in range(1, n_steps + 1):
            v += np.dot(increment, v, out=product)  # the BLAS call of @, without an allocation
            if step % every == 0 or step == n_steps:
                checkpoint(step * dt, type_values(v))
    else:
        for step in range(1, n_steps + 1):
            k1 = _raw_rhs(r, *generator)
            k2 = _raw_rhs(r + (dt / 2.0) * k1, *generator)
            k3 = _raw_rhs(r + (dt / 2.0) * k2, *generator)
            k4 = _raw_rhs(r + dt * k3, *generator)
            r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if step % every == 0 or step == n_steps:
                checkpoint(step * dt, r)
    return traj


# ---------------------------------------------------------------------------
# exact variable-coupling unitary (diagonal in the collective x basis)
# ---------------------------------------------------------------------------

def _coupling_phases(theta: np.ndarray) -> np.ndarray:
    """Eigenphases s^T theta s of the ordered-pair twisting generator, for
    one matrix or each of a stack; ``_dense_generator``'s Ising energies."""
    n = theta.shape[-1]
    s = _bit_tables(n).z.T  # [a, i] = sigma_x eigenvalue in the x frame
    return np.einsum("ai,...ij,aj->...a", s, theta, s)


def variable_coupling_state(couplings, polarizations) -> DensityMatrix:
    """Product state after U = prod_{i != j} exp(-i theta_ij sx_i sx_j).

    ``couplings`` is a ``CouplingMatrix`` or a symmetric zero-diagonal
    matrix of pair angles; ``polarizations`` is a scalar P or one value per
    spin, each in [0, 1].  All factors commute, so in the x frame U is a
    single diagonal phase exp(-i s^T theta s): rho' = phase * rho0 * phase^*.
    rho0[a, b] = row[a ^ b] is written in place from row 0, doubling: rows
    [h, 2h) are rows [0, h) with the column blocks of size h swapped,
    rho0[a + h, b] = rho0[a, b ^ h], so every entry is a copy of row.
    """
    theta = _as_couplings(couplings).theta
    n = theta.shape[0]
    row = _product_row(_per_spin(polarizations, n), n)  # one row: a stack is refused
    dim = len(row)
    rho = np.empty((dim, dim), dtype=complex)
    rho[0] = row
    for h in (1 << i for i in range(n)):
        rho[h:2 * h].reshape(h, -1, 2, h)[:] = rho[:h].reshape(h, -1, 2, h)[:, :, ::-1]
    phase = np.exp(-1j * _coupling_phases(theta))
    rho *= phase[:, None]
    rho *= phase.conj()[None, :]
    return DensityMatrix(rho, n)


def evolve_variable_coupling(couplings, polarizations) -> CollectiveMoments:
    """Exact moments and pair tables of ``variable_coupling_state``, read
    from its eigenphases without forming the state."""
    theta = _as_couplings(couplings).theta
    return _moments(_variable_coupling_stack(theta[None], [polarizations]),
                    pair_correlations=True)[0]


def _variable_coupling_stack(theta: np.ndarray, polarizations) -> tuple[np.ndarray, ...]:
    """The ``_moment_stack`` of ``evolve_variable_coupling`` for each matrix
    s of a stack, at polarizations[s].

    In the x frame the state is rho[a, b] = (row[a ^ b] phase[a])
    conj(phase[b]), with row = ``_product_row`` and phase = exp(-i s^T theta
    s).  ``_moment_stack`` reads only the diagonal, rho[b, b ^ e_k] and rho[b, b ^
    e_k ^ e_l], so those O(n^2 2**n) entries are formed, with the same
    products in the same order as ``variable_coupling_state``, and no 4**n
    matrix: each matrix's moments equal those of ``compute_moments`` on the
    dense state bit for bit, and do not depend on the stack.
    """
    n = theta.shape[-1]
    rows = _product_row(np.array([_per_spin(p, n) for p in polarizations]), n).astype(complex)
    g = _bit_tables(n)
    phase = np.exp(-1j * _coupling_phases(theta))
    conj = phase.conj()

    def entries(positions):  # [s, m, b] = (row[b ^ c] phase[b]) conj(phase[c]), c = column
        columns = positions & (len(phase[0]) - 1)  # the low n bits of a flat position
        # in C order, so that each sum of ``_moment_stack`` runs along a row
        out = np.empty((len(rows),) + columns.shape, dtype=complex)
        np.multiply(rows[:, columns[:, 0], None], phase[:, None], out=out)  # b = 0: the masks
        out *= conj[:, columns]
        return out

    pops = (rows[:, :1] * phase * conj).real
    single, pair = entries(g.single), entries(g.pair)
    return _moment_stack(pops, single, pair, n)


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


def apply_dephasing(state: DensityMatrix | _SymmetricState, survival: float) -> DensityMatrix:
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

def trace_distance(a: DensityMatrix | _SymmetricState, b: DensityMatrix | _SymmetricState) -> float:
    """(1/2) sum_k |lambda_k(a - b)|; of two permutation-symmetric states,
    (1/2) sum_j d_j sum |lambda(Delta rho_j)| over their Dicke blocks."""
    if a.n_spins != b.n_spins:
        raise ValidationError(["dimension mismatch"])
    if isinstance(a, _SymmetricState) and isinstance(b, _SymmetricState):
        # block j scaled by d_j: the rows of a block share their d_j
        diff = _block_diagonal(a.values - b.values, a.n_spins)
        diff *= _dicke_blocks(a.n_spins).copies[:, None]
    else:
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
    Both finals are symmetric states, so the trace distance is read from
    their Dicke blocks and no 4**n array is formed.
    """
    proto = replace(proto, signal_field=0.0)
    joint = evolve(build_initial_state(params), cfg, params, rates, proto).final
    dissipated = replace(params, polarization=effective_polarization(
        params.polarization, rates, cfg.t_final))
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
    ``SPIN_CAP``, and the step count against ``STEP_CAP``, before the first
    gap is computed.
    """
    ns = [int(n) for n in n_values]
    for n in ns:
        _product_polarizations(1.0, n)  # the refusals of each gap's P = 1 states
    gs = gamma_sum_t / t_final
    rates = DecoherenceRates(gamma_par=gs / 2.0, gamma_perp=gs / 2.0)
    cfg = IntegratorConfig(dt=dt, t_final=t_final)
    cfg.steps()  # its refusals
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
    ``proto.signal_field`` is ignored: the slope is per unit field.  A
    non-finite ``measure_angle`` is refused with ValidationError before
    either run.
    """
    if measure_angle is not None:
        require_finite_angle(measure_angle)
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
