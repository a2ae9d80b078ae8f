"""Squeezing with inhomogeneous pair couplings and Gaussian disorder.

Closed-form quadrature ratio for an arbitrary symmetric coupling matrix,
reproducible Gaussian sampling of the couplings, Monte Carlo averaging,
and the analytic disorder average with its suppression factors.

The per-pair angles are drawn from the density ~ exp(-alpha*(t - t0)^2)
(standard deviation 1/sqrt(2*alpha)); the concentration alpha is tied to
the fractional deviation kappa through 1/alpha = kappa^2 * theta0^2.
Under this convention the two-edge suppression factor is exactly
exp(-8*(N-2)/alpha), the one-edge factor exp(-4*(N-1)/alpha), and the
Monte Carlo average reproduces the analytic one.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import _twist_terms
from .core import DomainError, NumericalError, ResourceError, ValidationError

ALPHA_CONCENTRATED = 1e15  # alpha at or above this samples exactly theta0
_DEGENERATE_FRACTION = 1e-12  # |B| <= this (per spin) is a degenerate denominator
# bytes of one Monte Carlo chunk of (S, N, N) couplings; per offset, the pair
# kernel reads 4 planes of this size and writes 3, so the working set of each
# thread's chunk stays in its core's 2 MB L2
_CHUNK_BYTES = 1 << 18
# bytes a Monte Carlo run or one kernel call may take; larger runs raise
# ResourceError before they allocate
_MEMORY_CAP = 1 << 30


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric per-pair twisting angles with zero diagonal."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
            raise ValidationError(["couplings must be a square matrix"])
        if not np.array_equal(theta, theta.T):
            raise ValidationError(["couplings must be symmetric: theta_ij = theta_ji"])
        if np.any(np.diagonal(theta) != 0.0):
            raise ValidationError(["couplings must have zero diagonal"])

    @property
    def n_spins(self) -> int:
        return self.theta.shape[0]


def _as_couplings(couplings) -> CouplingMatrix:
    """``couplings`` itself if it is a CouplingMatrix, else the checked matrix."""
    return couplings if isinstance(couplings, CouplingMatrix) else CouplingMatrix(couplings)


def _per_spin(pols, n: int) -> np.ndarray:
    """Polarizations as one float per spin, from a scalar P or n values;
    each caller checks the range it accepts."""
    p = np.asarray(pols, dtype=float)
    if p.ndim == 0:
        p = np.full(n, float(p))
    if p.shape != (n,):
        raise ValidationError(["polarizations must be scalar or length n_spins"])
    return p


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian disorder model for the pair angles.

    At least one of ``alpha`` and ``kappa`` must be given (the other is
    derived through 1/alpha = kappa^2 theta0^2); when both are given they
    must agree to 1e-12 relative.  kappa^2 theta0^2 = 0, also when it
    underflows, maps to the concentrated branch alpha = ALPHA_CONCENTRATED,
    and a kappa^2 theta0^2 that overflows is refused.
    """

    theta0: float
    n_samples: int = 1
    master_seed: int = 0
    alpha: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        problems = []
        if self.n_samples < 1:
            problems.append("n_samples >= 1")
        if not math.isfinite(self.theta0):
            problems.append("theta0 finite")
        alpha, kappa = self.alpha, self.kappa
        if alpha is None and kappa is None:
            problems.append("one of alpha or kappa is required")
        if kappa is not None and not kappa >= 0.0:
            problems.append("kappa >= 0")
        if alpha is not None and not alpha > 0.0:
            problems.append("alpha > 0")
        if not problems and kappa is not None:
            kk = kappa * kappa * self.theta0 * self.theta0
            if not math.isfinite(kk):
                problems.append(f"kappa^2 theta0^2 finite (kappa = {kappa!r}, "
                                f"theta0 = {self.theta0!r})")
            elif alpha is None:
                alpha = ALPHA_CONCENTRATED if kk == 0.0 else 1.0 / kk
            elif abs(1.0 / alpha - kk) > 1e-12 * max(1.0 / alpha, kk):
                problems.append("alpha and kappa inconsistent with 1/alpha = kappa^2 theta0^2")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "alpha", alpha)

    @property
    def sample_std(self) -> float:
        """Standard deviation of a single pair angle, 1/sqrt(2*alpha)."""
        if self.alpha >= ALPHA_CONCENTRATED:
            return 0.0
        return 1.0 / math.sqrt(2.0 * self.alpha)


# ---------------------------------------------------------------------------
# closed form for arbitrary couplings
# ---------------------------------------------------------------------------

def _validate_pols(pols, n) -> np.ndarray:
    p = _per_spin(pols, n)
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValidationError(["polarizations must lie in (0, 1]"])
    return p


def _columns(table: np.ndarray, diagonal: float) -> np.ndarray:
    """An (S, N, N) table, with ``diagonal`` written on its diagonal, as
    [j, k mod n, sample] planes whose k axis runs on to n + n//2, so that
    columns k + m for the offsets m <= n//2 are one window."""
    n_samples, n, _ = table.shape
    table.reshape(n_samples, n * n)[:, ::n + 1] = diagonal
    out = np.empty((n, n + n // 2, n_samples))
    out[:, :n] = table.transpose(1, 2, 0)
    out[:, n:] = out[:, :n // 2]
    return out


def _offset_pairs(c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """prod_{j != k,l} (C_jk C_jl + S_jk S_jl) - prod_{j != k,l} (C_jk C_jl - S_jk S_jl)
    for l = (k + m) mod n, as [m - 1, sample, k], from the ``_columns`` of C
    and S; its factor planes are freed when it returns."""
    n, _, n_samples = c2.shape
    ct, st = c2[:, :n], s2[:, :n]
    t = np.empty((2, n, n, n_samples))  # [+/-, j, k, sample]
    cells = t.reshape(2, n * n, n_samples)
    ss = np.empty_like(t[0])
    prods = np.empty((n // 2, 2, n, n_samples))  # [m - 1, +/-, k, sample]
    for m in range(1, n // 2 + 1):
        np.multiply(ct, c2[:, m:m + n], out=t[0])
        np.multiply(st, s2[:, m:m + n], out=ss)
        np.subtract(t[0], ss, out=t[1])
        np.add(t[0], ss, out=t[0])
        # drop j = k and j = l, the flat cells j*n + k with j = k, then
        # with j = k + m (k < n - m), then with j = k + m - n (k >= n - m)
        cells[:, ::n + 1] = 1.0
        cells[:, m * n::n + 1] = 1.0
        cells[:, n - m:m * n:n + 1] = 1.0
        np.multiply.reduce(t, axis=1, out=prods[m - 1])
    return (prods[:, 0] - prods[:, 1]).transpose(0, 2, 1)


def _pair_diffs(c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """The diff table of ``_pair_terms`` from the ``_columns`` of its C and S.

    prod_{j != k,l} (C_jk C_jl +/- S_jk S_jl) is symmetric in (k, l), so
    each pair is visited once as (k, (k + m) mod n) for the offsets
    m = 1 .. n//2 (twice at m = n/2 for even n), on (j, k, sample) planes
    with the samples innermost (``_offset_pairs``): C_jl and S_jl are
    windows of the column planes, and the product over j is a sequential
    reduction, so a sample's bits do not depend on S.  Each factor is
    cos(4 theta_jk -/+ 4 theta_jl), so a running product never grows and a
    zero factor makes it exactly 0.
    """
    n, _, n_samples = c2.shape
    pairs = _offset_pairs(c2, s2)  # [m - 1, sample, k]
    diff = np.zeros((n_samples, n, n))  # C order: _components sums each sample in it
    flat = diff.reshape(n_samples, n * n)
    for m in range(1, n // 2 + 1):
        # (k, l) at k*n + l, then (l, k) at l*n + k, each for k < n - m
        # (l = k + m), then for k >= n - m (l = k + m - n)
        near, wrap = pairs[m - 1, :, :n - m], pairs[m - 1, :, n - m:]
        flat[:, m:n * (n - m):n + 1] = near
        flat[:, n * (n - m)::n + 1] = wrap
        flat[:, m * n::n + 1] = near
        flat[:, n - m:m * n:n + 1] = wrap
    return diff


def _pair_terms(theta: np.ndarray):
    """Per-site and per-pair products of each coupling matrix in an (S, N, N) stack.

    With C_jk = cos(4 theta_jk) and S_jk = sin(4 theta_jk), returns
        z[s, l]        = prod_{j != l} C_jl
        sin[s, k, l]   = S_kl
        cross[s, k, l] = prod_{i != k,l} C_il
        diff[s, k, l]  = prod_{j != k,l} (C_jk C_jl + S_jk S_jl)
                         - prod_{j != k,l} (C_jk C_jl - S_jk S_jl)

    with zero diagonals in the (S, N, N) tables.  For a twisted product
    state of polarizations P (Foss-Feig et al., PRA 87, 042101, 2013):
    <sz_l> = P_l z_l, <sx_k sy_l> = -P_l S_kl cross_kl and
    <sy_k sy_l> = P_k P_l diff_kl / 2.  A sample's values do not depend on
    S or on its place in the stack, so they do not depend on chunking.

    C and S are held only as their ``_columns`` planes, with the harmless
    identities C_jj = 1 and S_jj = 0 in every product, so that no (S, N, N)
    copy of them sits beside the factor planes: S comes back to C order
    after the pair products, and C is read through a view.
    """
    n_samples, n, _ = theta.shape
    c2 = _columns(np.cos(4.0 * theta), 1.0)
    s2 = _columns(np.sin(4.0 * theta), 0.0)
    diff = _pair_diffs(c2, s2)
    c = c2[:, :n].transpose(2, 0, 1)
    s = s2[:, :n].transpose(2, 0, 1).copy()  # C order: _sums reads it with cross

    # prod_{i != k,l} C_il = (prod_{i < k} C_il)(prod_{i > k} C_il), where
    # C_ll = 1 stands in for the excluded i = l: exclusive prefix and suffix
    # products down each column
    prefix = np.ones((n_samples, n, n))
    np.cumprod(c[:, :-1], axis=1, out=prefix[:, 1:])
    cross = np.ones((n_samples, n, n))
    np.cumprod(c[:, :0:-1], axis=1, out=cross[:, -2::-1])
    z = prefix[:, -1] * c[:, -1]
    cross *= prefix
    cross.reshape(n_samples, n * n)[:, ::n + 1] = 0.0
    return z, s, cross, diff


def _sums(terms, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angle-independent sums of each sample from its ``_pair_terms``,
    weighted by the polarizations: B/N, sum_kl S_kl cross_kl P_l and
    sum_{k != l} P_k P_l diff_kl."""
    z, s, cross, diff = terms
    # one dot per sample: a batched matrix product sums in an order that
    # depends on S
    b_norm = np.array([np.dot(p, row) for row in z]) / z.shape[1]
    cross_sum = np.einsum("skl,skl,l->s", s, cross, p)
    weights = np.outer(p, p)
    np.fill_diagonal(weights, 0.0)
    yy_sum = np.array([np.einsum("kl,kl->", weights, d) for d in diff])  # as b_norm
    return b_norm, cross_sum, yy_sum


def _components(sums, n: int, th: float) -> tuple[np.ndarray, np.ndarray]:
    """(A/N, B/N) of each sample at quadrature angle ``th`` from its ``_sums``."""
    b_norm, cross_sum, yy_sum = sums
    sin_th = math.sin(th)
    a_norm = 1.0 + (0.5 * sin_th * sin_th * yy_sum - math.sin(2.0 * th) * cross_sum) / n
    return a_norm, b_norm


def _require_memory(n: int, chunk: int, n_samples: int, threads: int = 1) -> int:
    """How many of ``threads`` chunks in flight fit under _MEMORY_CAP, at
    least one; raise ResourceError when not even one does.

    Counts 16 B per sample for the per-run results, and 21 N^2 doubles per
    sample of each chunk in flight, one per thread.  A chunk's peak is
    about 9 of them, in the pair products: the coupling matrix, the
    ``_columns`` planes of C and S (3), the three factor planes, and the
    per-offset products (1) with their differences (0.5).
    """
    per_chunk = 21 * 8 * chunk * n * n
    fit = (_MEMORY_CAP - 16 * n_samples) // per_chunk
    if fit < 1:
        need = 16 * n_samples + per_chunk
        raise ResourceError(
            f"n = {n} with {n_samples} samples needs about {need / 2**30:.3g} GiB, "
            f"above the {_MEMORY_CAP / 2**30:g} GiB cap")
    return min(threads, fit)


def quadrature_components(couplings, pols, theta: float) -> tuple[float, float]:
    """Per-spin numerator and denominator of the quadrature ratio.

    With C_jk = cos(4 theta_jk), S_jk = sin(4 theta_jk):

        A/N = 1 + [ sin^2(th)/2 * sum_{k != l} P_k P_l
                    ( prod_{j != k,l} (C_jk C_jl + S_jk S_jl)
                      - prod_{j != k,l} (C_jk C_jl - S_jk S_jl) )
                    - sin(2 th) * sum_{k != l} P_l S_kl prod_{i != k,l} C_il ] / N
        B/N = sum_k P_k prod_{j != k} C_jk / N

    and xi2(th) = A/B.  Each product is a plain running product of factors
    of magnitude at most 1 (C_jk C_jl +/- S_jk S_jl = cos(4 theta_jk -/+
    4 theta_jl)), so it never overflows, and it underflows only below about
    1e-308: such a term cannot move A/N = 1 + ..., and a B/N that small is
    rejected as degenerate.  The evaluation is O(N^3) time and O(N^2)
    memory.  One kernel, ``_pair_terms``, computes
    the products: the Monte Carlo runs it on stacks of samples, and
    ``verify variable_coupling`` checks its per-pair terms against the
    exact unitary.
    """
    th_mat = _as_couplings(couplings).theta
    n = th_mat.shape[0]
    if n < 2:
        raise ValidationError(["n_spins >= 2 for pair couplings"])
    _require_memory(n, 1, 1)
    a_norm, b_norm = _components(_sums(_pair_terms(th_mat[None]), _validate_pols(pols, n)),
                                 n, theta)
    return float(a_norm[0]), float(b_norm[0])


def xi2_theta_couplings(couplings, pols, theta: float) -> float:
    """Exact quadrature ratio for arbitrary pair couplings (A/B above).

    Raises DomainError when the per-spin denominator falls below 1e-12.
    """
    a_norm, b_norm = quadrature_components(couplings, pols, theta)
    if abs(b_norm) <= _DEGENERATE_FRACTION:
        raise DomainError("degenerate quadrature denominator: total z polarization ~ 0")
    return a_norm / b_norm


# ---------------------------------------------------------------------------
# sampling, Monte Carlo and the analytic average
# ---------------------------------------------------------------------------

def _coupling_stack(spec: DisorderSpec, n_spins: int, start: int, count: int) -> np.ndarray:
    """(count, n, n) coupling angles of sample indices start .. start+count-1."""
    theta = np.full((count, n_spins, n_spins), spec.theta0)
    diag = np.arange(n_spins)
    theta[:, diag, diag] = 0.0
    if spec.alpha < ALPHA_CONCENTRATED:
        rows, cols = np.triu_indices(n_spins, k=1)
        draws = np.empty((count, len(rows)))
        for i in range(count):
            rng = np.random.default_rng((int(spec.master_seed), start + i))
            rng.standard_normal(out=draws[i])
        draws = spec.theta0 + spec.sample_std * draws
        theta[:, rows, cols] = draws
        theta[:, cols, rows] = draws
    return theta


def sample_couplings(spec: DisorderSpec, n_spins: int, sample_index: int) -> CouplingMatrix:
    """Draw one coupling matrix; deterministic in (master_seed, sample_index).

    Upper-triangle entries are drawn in row-major order from a stream
    keyed by (master_seed, sample_index), so samples are independent of
    evaluation order.  At alpha >= ALPHA_CONCENTRATED every angle is
    exactly theta0.
    """
    if n_spins < 2:
        raise ValidationError(["n_spins >= 2"])
    return CouplingMatrix(_coupling_stack(spec, n_spins, int(sample_index), 1)[0])


def suppression_report(spec: DisorderSpec, n: int) -> tuple[float, float, bool]:
    """Disorder suppression factors and whether both are negligible (>= 0.99).

    The two-edge factor exp(-8 (N-2)/alpha) multiplies the transverse pair
    average, the one-edge factor exp(-4 (N-1)/alpha) the cross and
    polarization averages; at the squeezing-optimal angle scale
    theta0 ~ N^{-2/3} both approach one.
    """
    inv_alpha = 0.0 if spec.alpha >= ALPHA_CONCENTRATED else 1.0 / spec.alpha
    pair = math.exp(-8.0 * (n - 2) * inv_alpha)
    single = math.exp(-4.0 * (n - 1) * inv_alpha)
    return pair, single, (pair >= 0.99 and single >= 0.99)


def mean_xi2_analytic(spec: DisorderSpec, n: int, theta: float) -> float:
    """Disorder-averaged quadrature ratio at unit polarization.

    Numerator and denominator of the closed form average edge by edge
    (every product factorizes over independent edges), giving

        [ 1 + sin^2(th)/2 (N-1) Sp (1 - cos^{N-2}(8 t0))
            - sin(2 th) (N-1) Ss sin(4 t0) cos^{N-2}(4 t0) ]
        / [ cos^{N-1}(4 t0) Ss ]

    with Sp, Ss the suppression factors above.  Without disorder (kappa = 0)
    both are exactly one and this is the uniform-coupling closed form.
    Raises DomainError when the denominator, the averaged B/N, is
    degenerate by the per-sample rule (|B/N| <= 1e-12).
    """
    a, b, d = _twist_terms(n, 1.0, spec.theta0)
    sp, ss, _ = suppression_report(spec, n)
    if abs(d * ss) <= _DEGENERATE_FRACTION:
        raise DomainError("degenerate averaged quadrature denominator: "
                          f"cos^(N-1)(4 theta0) exp(-4 (N-1)/alpha) = {d * ss!r}")
    return (1.0 + math.sin(theta) ** 2 * sp * a - math.sin(2.0 * theta) * ss * b) / (d * ss)


@dataclass(frozen=True)
class MonteCarloResult:
    """Disorder-average estimates from one reproducible sample set.

    ``mean`` is the ratio-of-means estimator mean(A)/mean(B) with a
    delta-method standard error: it is the consistent estimator of the
    analytic average (which is itself a ratio of expectations).
    ``mean_of_ratios`` is the plain sample mean of the per-sample ratios;
    the two differ by a ratio-nonlinearity bias of order Var(B)/B^2.
    ``values`` holds the kept ratios in sample order; ``rejected_indices``
    names the sample indices that were dropped, and ``n_rejected`` counts
    them.  ``stderr_at_rounding_level`` is true when the delta-method error
    fell below eps*|mean|, where it is rounding noise of identical
    samples, and ``stderr`` is reported as 0.
    """

    mean: float
    stderr: float
    mean_of_ratios: float
    stderr_of_ratios: float
    n_samples: int
    master_seed: int
    values: np.ndarray | None = None
    rejected_indices: tuple[int, ...] = ()
    stderr_at_rounding_level: bool = False

    @property
    def n_rejected(self) -> int:
        return len(self.rejected_indices)

    def summary(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "stderr_at_rounding_level": self.stderr_at_rounding_level,
            "mean_of_ratios": self.mean_of_ratios,
            "stderr_of_ratios": self.stderr_of_ratios,
            "n_samples": self.n_samples,
            "n_rejected": self.n_rejected,
            "rejected_indices": list(self.rejected_indices),
            "seed": self.master_seed,
        }


@functools.cache
def _mc_pool():
    """The Monte Carlo's thread pool, one worker per CPU of the process's
    affinity set beyond the caller's, or None with one CPU.  It is made,
    and concurrent.futures imported, on the first Monte Carlo call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    if cpus < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(cpus - 1, thread_name_prefix="oatsqueeze-mc")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_mc_pool.cache_clear)


def _mc_plan(spec: DisorderSpec, n: int, pols, theta: float) -> tuple[np.ndarray, int, int]:
    """The checked polarizations, the chunk size and the thread count of a
    ``monte_carlo_mean_xi2`` run; raises its ValidationError or
    ResourceError before anything is drawn."""
    if n < 2:
        raise ValidationError(["n_spins >= 2"])
    p = _validate_pols(pols, n)
    if not math.isfinite(theta):
        raise ValidationError(["quadrature angle finite"])
    chunk = max(1, _CHUNK_BYTES // (8 * n * n))
    pool = _mc_pool()
    threads = min(-(-spec.n_samples // chunk), 1 if pool is None else 1 + pool._max_workers)
    return p, chunk, _require_memory(n, chunk, spec.n_samples, threads)


def _chunk_components(spec: DisorderSpec, n: int, p: np.ndarray, theta: float,
                      start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(A/N, B/N) of the Monte Carlo samples start .. stop-1."""
    return _components(_sums(_pair_terms(_coupling_stack(spec, n, start, stop - start)), p),
                       n, theta)


def monte_carlo_mean_xi2(
    spec: DisorderSpec, n: int, pols, theta: float, keep_values: bool = False
) -> MonteCarloResult:
    """Monte Carlo disorder average of the quadrature ratio.

    Samples are drawn from per-index streams and evaluated in chunks of
    _CHUNK_BYTES, so results are bit-reproducible for a fixed
    (master_seed, n_samples), and each sample's value equals
    xi2_theta_couplings(sample_couplings(spec, n, index), ...).  Draws with
    a degenerate denominator are rejected and counted; more than 1%
    rejections raises NumericalError.  A delta-method standard error below
    eps*|mean| is rounding noise and is reported as 0.  A run that would
    need more than _MEMORY_CAP bytes raises ResourceError before it starts.

    With more than one CPU in the process's affinity set, the chunks are
    dealt round-robin: chunk i goes to thread i mod T, where the caller is
    thread 0 and the others are the workers of a thread pool with one worker
    per extra CPU (``_mc_pool``, made on the first call).  Each thread
    draws, evaluates and sums its own chunks and writes only their slices of
    the results, so exactly one chunk per thread is in flight.  T is the
    smallest of the pool's thread count, the number of chunks and the number
    of chunks in flight that fit under _MEMORY_CAP, so a run that fits on one
    thread is never refused for the pool.  A sample's value does not depend
    on its chunk or thread, so the values are the same bits as on one CPU,
    where no thread is started.  When a thread raises, the others stop
    before their next chunk; the caller waits for every worker and raises
    its own exception, else the first worker's.  Single-matrix calls
    (``quadrature_components``) never use the pool.
    """
    p, chunk, threads = _mc_plan(spec, n, pols, theta)
    pool = _mc_pool()
    a_norm = np.empty(spec.n_samples)
    b_norm = np.empty(spec.n_samples)

    failed = False

    def run_chunks(first: int) -> None:
        nonlocal failed
        try:
            for start in range(first * chunk, spec.n_samples, threads * chunk):
                if failed:
                    return
                stop = min(start + chunk, spec.n_samples)
                a_norm[start:stop], b_norm[start:stop] = _chunk_components(
                    spec, n, p, theta, start, stop)
        except BaseException:
            failed = True  # the other threads stop before their next chunk
            raise

    futures = [pool.submit(run_chunks, first) for first in range(1, threads)]
    try:
        run_chunks(0)
    finally:
        for future in futures:
            future.exception()  # wait: the workers write into a_norm and b_norm
    for future in futures:
        future.result()
    degenerate = np.abs(b_norm) <= _DEGENERATE_FRACTION
    rejected = np.flatnonzero(degenerate).tolist()
    if len(rejected) > 0.01 * spec.n_samples:
        raise NumericalError(
            f"{len(rejected)}/{spec.n_samples} samples had a degenerate denominator"
        )
    num = a_norm[~degenerate]
    den = b_norm[~degenerate]
    ratio = num / den
    kept = len(ratio)
    mean = float(num.mean() / den.mean())
    at_rounding = False
    if kept < 2:
        stderr = stderr_ratios = 0.0
    else:
        cov = np.cov(num, den, ddof=1)
        var = (cov[0, 0] - 2.0 * mean * cov[0, 1] + mean * mean * cov[1, 1]) \
            / (den.mean() ** 2 * kept)
        stderr = math.sqrt(max(var, 0.0))
        at_rounding = bool(stderr < np.finfo(float).eps * abs(mean))
        if at_rounding:
            stderr = 0.0
        stderr_ratios = float(ratio.std(ddof=1) / math.sqrt(kept))
    return MonteCarloResult(
        mean, stderr, float(ratio.mean()), stderr_ratios,
        spec.n_samples, spec.master_seed,
        ratio if keep_values else None, tuple(rejected), at_rounding,
    )
