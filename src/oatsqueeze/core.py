"""Shared domain types, unit conventions and validation.

Conventions used across the package: hbar = 1; the coupling J, the
relaxation rates Gamma_par / Gamma_perp and the probe field B_y all carry
units of 1/time, times carry the inverse, and the accumulated twisting
angle theta0 = J*t is dimensionless, as is Theta = 2*(Gamma_par +
Gamma_perp)*T (``theta_big``).  Quadrature angles are plain floats in
radians.  The twisting Hamiltonian is the ordered-pair sum J * sum_{i != j} sx_i sx_j, i.e. every unordered pair
enters with weight 2J; this is the convention under which theta0 = J*t
matches the cos(4*theta0) factors of the closed forms (pinned by a
dedicated oracle test).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

DECOHERENCE_DOMINATED = "decoherence_dominated"
OVERSQUEEZING_DOMINATED = "oversqueezing_dominated"
MIXED = "mixed"

#: The oracle verification suites, in run order.  ``verify`` keys its suite
#: table by these names, and the CLI offers them without importing numpy.
VERIFY_SUITES = ("lindblad", "factorization", "variable_coupling", "uniform_coupling",
                 "dephasing", "metrology", "constants")


class ValidationError(ValueError):
    """One or more parameter invariants are violated; carries all messages."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class DomainError(ValueError):
    """Inputs lie outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (non-finite value, positivity loss, ...)."""


class ResourceError(RuntimeError):
    """Requested problem size exceeds a cap: the exact oracle's spin count,
    an RK4 run's step count, a sweep's point count or the Monte Carlo's
    memory."""


@dataclass(frozen=True)
class EnsembleParams:
    """Spin count and initial per-spin polarization P = <sz>."""

    n_spins: int
    polarization: float = 1.0


@dataclass(frozen=True)
class DecoherenceRates:
    """Longitudinal (Gamma_par) and transverse (Gamma_perp) relaxation rates.

    ``gamma_sum`` is the combined rate Gamma_par + Gamma_perp entering every
    decay exponent.  It is stored at construction, because the closed forms
    read it on every call, and it stays out of ``repr`` and ``==``.
    """

    gamma_par: float = 0.0
    gamma_perp: float = 0.0
    gamma_sum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma_sum", self.gamma_par + self.gamma_perp)


@dataclass(frozen=True)
class ProtocolParams:
    """Twisting strength J, squeezing time T, probe field B_y, total time tau."""

    coupling: float
    squeeze_time: float
    signal_field: float = 0.0
    total_time: float | None = None

    def __post_init__(self):
        if self.total_time is None:
            object.__setattr__(self, "total_time", self.squeeze_time)


def theta_big(rates: DecoherenceRates, squeeze_time: float) -> float:
    """Dimensionless squeezing duration Theta = 2*(Gamma_par+Gamma_perp)*T."""
    return 2.0 * rates.gamma_sum * squeeze_time


def require_finite_angle(theta: float) -> None:
    """Refuse a quadrature angle that is infinite or NaN with ValidationError."""
    if not math.isfinite(theta):
        raise ValidationError(["quadrature angle finite"])


def canonical_angle(theta: float) -> float:
    """Reduce a finite quadrature angle to [0, pi); quadrature variances have
    period pi.  A non-finite angle is refused (``require_finite_angle``)."""
    require_finite_angle(theta)
    out = math.fmod(theta, math.pi)
    if out < 0.0:
        out += math.pi
    return 0.0 if out == math.pi else out


@dataclass(frozen=True)
class SqueezingReport:
    """Result bundle of an optimal squeezing search.

    ``t_star`` is the optimal squeezing time; ``theta_star`` is the optimal
    Theta = 2*(Gamma_par+Gamma_perp)*t_star, or None without relaxation.
    """

    xi2_min: float
    theta_min: float
    effective_polarization: float
    t_star: float
    theta_star: float | None
    regime_flag: str


def violations(
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
) -> list[str]:
    """List every violated invariant of the parameter bundle (empty if valid)."""
    out = []
    n = params.n_spins
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):  # numpy integers are Integral
        out.append(f"n_spins an integer >= 1, not {n!r}")
    elif n < 1:
        out.append("n_spins >= 1")
    if not (0.0 < params.polarization <= 1.0):
        if params.polarization > 1.0:
            out.append("polarization <= 1")
        else:
            # P = 0 is rejected: the closed forms carry P^-1 and P^-2 factors.
            out.append("polarization > 0")
    out += rate_violations(rates)
    if not (proto.coupling >= 0.0 and math.isfinite(proto.coupling)):
        out.append("coupling >= 0")
    if not (proto.squeeze_time > 0.0 and math.isfinite(proto.squeeze_time)):
        out.append("squeeze_time > 0")
    if not (proto.total_time >= proto.squeeze_time):
        out.append("total_time >= squeeze_time")
    if not math.isfinite(proto.signal_field):
        out.append("signal_field finite")
    return out


def rate_violations(rates: DecoherenceRates) -> list[str]:
    """List the violated invariants of ``rates``: each rate finite and >= 0."""
    out = []
    if not (rates.gamma_par >= 0.0 and math.isfinite(rates.gamma_par)):
        out.append("gamma_par >= 0")
    if not (rates.gamma_perp >= 0.0 and math.isfinite(rates.gamma_perp)):
        out.append("gamma_perp >= 0")
    return out


def validate(
    params: EnsembleParams,
    rates: DecoherenceRates,
    proto: ProtocolParams,
) -> tuple[EnsembleParams, DecoherenceRates, ProtocolParams]:
    """Return the bundle unchanged if all invariants hold, else raise.

    The raised ValidationError aggregates every violated invariant, so a
    single call reports all problems at once.  Idempotent by construction.
    """
    problems = violations(params, rates, proto)
    if problems:
        raise ValidationError(problems)
    return params, rates, proto
