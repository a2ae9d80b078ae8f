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

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NumericalError, ValidationError, as_angle, text_output

ALPHA_CONCENTRATED = 1e15  # alpha at or above this samples exactly theta0
_DEGENERATE_FRACTION = 1e-12  # |B| <= this (per spin) is a degenerate denominator
_TENSOR_PATH_MAX_N = 128  # above this, pair products run in O(N^2)-memory slabs


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


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian disorder model for the pair angles.

    At least one of ``alpha`` and ``kappa`` must be given (the other is
    derived through 1/alpha = kappa^2 theta0^2); when both are given they
    must agree to 1e-12 relative.  kappa = 0 maps to the concentrated
    branch alpha = ALPHA_CONCENTRATED.
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
        alpha, kappa = self.alpha, self.kappa
        if alpha is None and kappa is None:
            problems.append("one of alpha or kappa is required")
        if kappa is not None and kappa < 0.0:
            problems.append("kappa >= 0")
        if alpha is not None and not alpha > 0.0:
            problems.append("alpha > 0")
        if not problems and kappa is not None:
            derived = ALPHA_CONCENTRATED if kappa == 0.0 or self.theta0 == 0.0 \
                else 1.0 / (kappa * kappa * self.theta0 * self.theta0)
            if alpha is None:
                alpha = derived
            else:
                kk = kappa * kappa * self.theta0 * self.theta0
                if abs(1.0 / alpha - kk) > 1e-12 * max(1.0 / alpha, kk):
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
    p = np.asarray(pols, dtype=float)
    if p.ndim == 0:
        p = np.full(n, float(p))
    if p.shape != (n,):
        raise ValidationError(["polarizations must be scalar or length n_spins"])
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValidationError(["polarizations must lie in (0, 1]"])
    return p


def _signed_logs(t: np.ndarray):
    """(log|t| with zeros as 0, sign with zeros as +1, zero mask)."""
    zero = t == 0.0
    mag = np.where(zero, 1.0, np.abs(t))
    return np.log(mag), np.where(t < 0.0, -1.0, 1.0), zero


def _prod_over_axis0(t: np.ndarray) -> np.ndarray:
    """Product over axis 0 in log-magnitude + sign form (underflow safe)."""
    logs, signs, zeros = _signed_logs(t)
    return np.where(zeros.any(axis=0), 0.0, signs.prod(axis=0) * np.exp(logs.sum(axis=0)))


def _pair_products(c: np.ndarray, s: np.ndarray, k: int | None = None):
    """prod_{j != k,l} (C_jk C_jl +/- S_jk S_jl) for all (k, l) or one k slab."""
    if k is None:
        plus = c[:, :, None] * c[:, None, :] + s[:, :, None] * s[:, None, :]
        minus = c[:, :, None] * c[:, None, :] - s[:, :, None] * s[:, None, :]
        n = c.shape[0]
        ar = np.arange(n)
        for t in (plus, minus):
            t[ar, ar, :] = 1.0  # drop j = k
            t[ar, :, ar] = 1.0  # drop j = l
        return _prod_over_axis0(plus), _prod_over_axis0(minus)
    plus = c[:, k, None] * c + s[:, k, None] * s    # [j, l]
    minus = c[:, k, None] * c - s[:, k, None] * s
    n = c.shape[0]
    ar = np.arange(n)
    for t in (plus, minus):
        t[k, :] = 1.0
        t[ar, ar] = 1.0
    return _prod_over_axis0(plus), _prod_over_axis0(minus)


def quadrature_components(couplings, pols, theta) -> tuple[float, float]:
    """Per-spin numerator and denominator of the quadrature ratio.

    With C_jk = cos(4 theta_jk), S_jk = sin(4 theta_jk):

        A/N = 1 + [ sin^2(th)/2 * sum_{k != l} P_k P_l
                    ( prod_{j != k,l} (C_jk C_jl + S_jk S_jl)
                      - prod_{j != k,l} (C_jk C_jl - S_jk S_jl) )
                    - sin(2 th) * sum_{k != l} P_l S_kl prod_{i != k,l} C_il ] / N
        B/N = sum_k P_k prod_{j != k} C_jk / N

    and xi2(th) = A/B.  Products are accumulated in log-magnitude + sign
    form so cos^N factors do not underflow at large N; the evaluation is
    O(N^3) (full-tensor below _TENSOR_PATH_MAX_N spins, slab-wise above).
    """
    th_mat = np.asarray(getattr(couplings, "theta", couplings), dtype=float)
    n = th_mat.shape[0]
    if n < 2:
        raise ValidationError(["n_spins >= 2 for pair couplings"])
    if not isinstance(couplings, CouplingMatrix):
        CouplingMatrix(th_mat)  # runs the symmetry/diagonal checks
    p = _validate_pols(pols, n)
    th = as_angle(theta)

    c = np.cos(4.0 * th_mat)
    s = np.sin(4.0 * th_mat)
    np.fill_diagonal(c, 1.0)  # harmless identities in every product
    np.fill_diagonal(s, 0.0)

    log_c, sign_c, zero_c = _signed_logs(c)
    col_log = log_c.sum(axis=0)
    col_sign = sign_c.prod(axis=0)
    col_zeros = zero_c.sum(axis=0)

    # B/N
    col_prod = np.where(col_zeros > 0, 0.0, col_sign * np.exp(col_log))
    b_norm = float(np.dot(p, col_prod)) / n

    # cross term: prod_{i != k,l} C_il from full-column accumulators
    zeros_excl = col_zeros[None, :] - zero_c
    log_excl = col_log[None, :] - np.where(zero_c, 0.0, log_c)
    sign_excl = col_sign[None, :] * sign_c
    prod_excl = np.where(zeros_excl > 0, 0.0, sign_excl * np.exp(log_excl))
    cross_sum = float(np.einsum("kl,kl,l->", s, prod_excl, p))

    # transverse pair term
    weights = np.outer(p, p)
    np.fill_diagonal(weights, 0.0)
    if n <= _TENSOR_PATH_MAX_N:
        prod_plus, prod_minus = _pair_products(c, s)
        yy_sum = float(np.einsum("kl,kl->", weights, prod_plus - prod_minus))
    else:
        yy_sum = 0.0
        for k in range(n):
            prod_plus, prod_minus = _pair_products(c, s, k)
            yy_sum += float(np.dot(weights[k], prod_plus - prod_minus))

    sin_th = math.sin(th)
    a_norm = 1.0 + (0.5 * sin_th * sin_th * yy_sum - math.sin(2.0 * th) * cross_sum) / n
    return a_norm, b_norm


def xi2_theta_couplings(couplings, pols, theta) -> float:
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

def sample_couplings(spec: DisorderSpec, n_spins: int, sample_index: int) -> CouplingMatrix:
    """Draw one coupling matrix; deterministic in (master_seed, sample_index).

    Upper-triangle entries are drawn in row-major order from a stream
    keyed by (master_seed, sample_index), so samples are independent of
    evaluation order.  At alpha >= ALPHA_CONCENTRATED every angle is
    exactly theta0.
    """
    if n_spins < 2:
        raise ValidationError(["n_spins >= 2"])
    theta = np.full((n_spins, n_spins), spec.theta0)
    np.fill_diagonal(theta, 0.0)
    if spec.alpha < ALPHA_CONCENTRATED:
        rng = np.random.default_rng((int(spec.master_seed), int(sample_index)))
        iu = np.triu_indices(n_spins, k=1)
        draws = spec.theta0 + spec.sample_std * rng.standard_normal(len(iu[0]))
        theta[iu] = draws
        theta[(iu[1], iu[0])] = draws
    return CouplingMatrix(theta)


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


def mean_xi2_analytic(spec: DisorderSpec, n: int, theta, suppression: bool = True) -> float:
    """Disorder-averaged quadrature ratio at unit polarization.

    Numerator and denominator of the closed form average edge by edge
    (every product factorizes over independent edges), giving

        [ 1 + sin^2(th)/2 (N-1) Sp (1 - cos^{N-2}(8 t0))
            - sin(2 th) (N-1) Ss sin(4 t0) cos^{N-2}(4 t0) ]
        / [ cos^{N-1}(4 t0) Ss ]

    with Sp, Ss the suppression factors above.  ``suppression=False`` sets
    both to one, which is also the disorder-free limit and then agrees
    exactly with the uniform-coupling closed form.
    """
    if n < 2:
        raise ValidationError(["n_spins >= 2"])
    th = as_angle(theta)
    t0 = spec.theta0
    c4 = math.cos(4.0 * t0)
    if c4 <= 0.0:
        raise DomainError("cos(4*theta0) <= 0: outside the supported domain")
    sp, ss = (suppression_report(spec, n)[:2]) if suppression else (1.0, 1.0)
    m = n - 2
    log_c4 = math.log1p(-2.0 * math.sin(2.0 * t0) ** 2)
    c8 = math.cos(8.0 * t0)
    if c8 > 0.0:
        one_minus_c8m = -math.expm1(m * math.log1p(-2.0 * math.sin(4.0 * t0) ** 2))
    else:
        mag = math.exp(m * math.log(-c8)) if c8 < 0.0 else 0.0
        one_minus_c8m = 1.0 - (-mag if m % 2 else mag)
    num = 1.0 \
        + 0.5 * math.sin(th) ** 2 * (n - 1) * sp * one_minus_c8m \
        - math.sin(2.0 * th) * (n - 1) * ss * math.sin(4.0 * t0) * math.exp(m * log_c4)
    den = math.exp((n - 1) * log_c4) * ss
    return num / den


@dataclass(frozen=True)
class MonteCarloResult:
    """Disorder-average estimates from one reproducible sample set.

    ``mean`` is the ratio-of-means estimator mean(A)/mean(B) with a
    delta-method standard error: it is the consistent estimator of the
    analytic average (which is itself a ratio of expectations).
    ``mean_of_ratios`` is the plain sample mean of the per-sample ratios;
    the two differ by a ratio-nonlinearity bias of order Var(B)/B^2.
    ``values`` holds the kept ratios in sample order; ``rejected_indices``
    names the sample indices that were dropped.
    """

    mean: float
    stderr: float
    mean_of_ratios: float
    stderr_of_ratios: float
    n_samples: int
    n_rejected: int
    master_seed: int
    values: np.ndarray | None = None
    rejected_indices: tuple[int, ...] = ()

    def summary(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "mean_of_ratios": self.mean_of_ratios,
            "stderr_of_ratios": self.stderr_of_ratios,
            "n_samples": self.n_samples,
            "n_rejected": self.n_rejected,
            "rejected_indices": list(self.rejected_indices),
            "seed": self.master_seed,
        }


def monte_carlo_mean_xi2(
    spec: DisorderSpec, n: int, pols, theta, keep_values: bool = False
) -> MonteCarloResult:
    """Monte Carlo disorder average of the quadrature ratio.

    Samples are drawn and reduced in index order, so results are
    bit-reproducible for a fixed (master_seed, n_samples).  Draws with a
    degenerate denominator are rejected and counted; more than 1%
    rejections raises NumericalError.
    """
    nums, dens, ratios = [], [], []
    rejected = []
    for idx in range(spec.n_samples):
        coup = sample_couplings(spec, n, idx)
        a_norm, b_norm = quadrature_components(coup, pols, theta)
        if abs(b_norm) <= _DEGENERATE_FRACTION:
            rejected.append(idx)
            continue
        nums.append(a_norm)
        dens.append(b_norm)
        ratios.append(a_norm / b_norm)
    if len(rejected) > 0.01 * spec.n_samples:
        raise NumericalError(
            f"{len(rejected)}/{spec.n_samples} samples had a degenerate denominator"
        )
    num = np.array(nums)
    den = np.array(dens)
    ratio = np.array(ratios)
    kept = len(ratio)
    mean = float(num.mean() / den.mean())
    if kept < 2:
        stderr = stderr_ratios = 0.0
    else:
        cov = np.cov(num, den, ddof=1)
        var = (cov[0, 0] - 2.0 * mean * cov[0, 1] + mean * mean * cov[1, 1]) \
            / (den.mean() ** 2 * kept)
        stderr = math.sqrt(max(var, 0.0))
        stderr_ratios = float(ratio.std(ddof=1) / math.sqrt(kept))
    return MonteCarloResult(
        mean, stderr, float(ratio.mean()), stderr_ratios,
        spec.n_samples, len(rejected), spec.master_seed,
        ratio if keep_values else None, tuple(rejected),
    )


def mc_to_csv(result: MonteCarloResult, out) -> None:
    """Per-sample CSV (sample_index, xi2) with a trailing summary row.

    Rows carry the true sample index, so rejected samples leave gaps.
    """
    if result.values is None:
        raise ValueError("monte_carlo_mean_xi2 must be called with keep_values=True")
    rejected = set(result.rejected_indices)
    kept = (i for i in range(result.n_samples) if i not in rejected)
    with text_output(out) as fh:
        fh.write("sample_index,xi2\n")
        for idx, val in zip(kept, result.values):
            fh.write(f"{idx},{val:.17g}\n")
        fh.write(f"# summary mean={result.mean:.17g} stderr={result.stderr:.17g} "
                 f"n_rejected={result.n_rejected} seed={result.master_seed}\n")


def mc_summary_json(result: MonteCarloResult, extra: dict | None = None) -> str:
    payload = result.summary()
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)
