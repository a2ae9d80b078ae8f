import dataclasses
import math

import numpy as np
import pytest

from oatsqueeze.core import (
    DecoherenceRates,
    EnsembleParams,
    ProtocolParams,
    ValidationError,
    canonical_angle,
    theta_big,
    validate,
    violations,
)


def bundle(**overrides):
    kwargs = dict(n=100, p=0.9, gpar=0.01, gperp=0.02, j=1e-3, t=1.0)
    kwargs.update(overrides)
    return (
        EnsembleParams(n_spins=kwargs["n"], polarization=kwargs["p"]),
        DecoherenceRates(gamma_par=kwargs["gpar"], gamma_perp=kwargs["gperp"]),
        ProtocolParams(coupling=kwargs["j"], squeeze_time=kwargs["t"]),
    )


def test_valid_bundle_passes_through():
    params, rates, proto = bundle()
    assert validate(params, rates, proto) == (params, rates, proto)


def test_zero_spins_rejected():
    with pytest.raises(ValidationError, match="n_spins >= 1"):
        validate(*bundle(n=0))


def test_numpy_integer_spin_count_accepted():
    _, rates, proto = bundle()
    assert violations(EnsembleParams(np.int64(5), 0.9), rates, proto) == []
    assert violations(EnsembleParams(np.int64(0), 0.9), rates, proto) == ["n_spins >= 1"]


def test_overfull_polarization_rejected():
    with pytest.raises(ValidationError, match="polarization <= 1"):
        validate(*bundle(p=1.5))


def test_zero_polarization_rejected():
    # the closed forms carry P^-1 / P^-2 factors
    with pytest.raises(ValidationError, match="polarization > 0"):
        validate(*bundle(p=0.0))


def test_all_violations_reported_at_once():
    params = EnsembleParams(n_spins=0, polarization=2.0)
    rates = DecoherenceRates(gamma_par=-1.0, gamma_perp=0.0)
    proto = ProtocolParams(coupling=-0.1, squeeze_time=-1.0)
    msgs = violations(params, rates, proto)
    assert {"n_spins >= 1", "polarization <= 1", "gamma_par >= 0",
            "coupling >= 0", "squeeze_time > 0"} <= set(msgs)


def test_validate_idempotent():
    first = validate(*bundle())
    assert validate(*first) == first


def test_total_time_defaults_to_squeeze_time():
    proto = ProtocolParams(coupling=0.1, squeeze_time=2.0)
    assert proto.total_time == 2.0
    with pytest.raises(ValidationError, match="total_time >= squeeze_time"):
        validate(*bundle()[:2],
                 ProtocolParams(coupling=0.1, squeeze_time=2.0, total_time=1.0))


def test_gamma_sum_accessor():
    rates = DecoherenceRates(0.01, 0.02)
    assert rates.gamma_sum == 0.01 + 0.02  # stored at construction, the same bits
    assert dataclasses.replace(rates, gamma_perp=0.5).gamma_sum == 0.01 + 0.5
    # the stored sum is outside repr, == and hash
    assert repr(rates) == "DecoherenceRates(gamma_par=0.01, gamma_perp=0.02)"
    assert rates == DecoherenceRates(0.01, 0.02)
    assert hash(rates) == hash(DecoherenceRates(0.01, 0.02))


def test_theta_big_definition():
    assert theta_big(DecoherenceRates(0.02, 0.03), 4.0) == pytest.approx(0.4)


def test_angle_canonicalization():
    assert canonical_angle(0.0) == 0.0
    assert canonical_angle(math.pi) == 0.0
    assert canonical_angle(-0.1) == pytest.approx(math.pi - 0.1)
    assert canonical_angle(3.5 * math.pi + 0.2) == pytest.approx(0.5 * math.pi + 0.2)


@pytest.mark.parametrize("theta", (math.inf, -math.inf, math.nan))
def test_canonical_angle_refuses_a_non_finite_angle(theta):
    with pytest.raises(ValidationError, match="quadrature angle finite"):
        canonical_angle(theta)
