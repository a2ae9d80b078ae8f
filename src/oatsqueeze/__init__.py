"""One-axis-twisting spin squeezing and metrology under T1/T2 relaxation.

Closed-form squeezing and sensitivity results validated against an exact
small-N quantum oracle, plus Gaussian coupling disorder and a sweep CLI.
"""

from .core import (
    DECOHERENCE_DOMINATED,
    MIXED,
    OVERSQUEEZING_DOMINATED,
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
    ProtocolParams,
    ResourceError,
    SqueezingReport,
    ValidationError,
    canonical_angle,
    theta_big,
    validate,
    violations,
)

__all__ = [
    "DECOHERENCE_DOMINATED",
    "MIXED",
    "OVERSQUEEZING_DOMINATED",
    "DecoherenceRates",
    "DomainError",
    "EnsembleParams",
    "NumericalError",
    "ProtocolParams",
    "ResourceError",
    "SqueezingReport",
    "ValidationError",
    "canonical_angle",
    "theta_big",
    "validate",
    "violations",
]

__version__ = "0.1.0"
