"""Per-layer probes: timed calls into each layer's public functions.

Probes run in the traced run of every workload, after its passes, so every
workload reports the same per-layer metrics.  Sizes are fixed; the seed
picks only the random coupling matrices.  Most probes time the call
directly (median of a few repeats, tracer not installed, so nested calls
are not slowed).  The RK4 step is read from spans: the ``oracle.evolve``
span minus its ``oracle.compute_moments`` checkpoint children, per step.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

from oatsqueeze import analytic, inhomogeneous, oracle, verify
from oatsqueeze.core import DecoherenceRates, EnsembleParams, ProtocolParams

from workloads import PACKAGE_MODULES, CliSweeps, OracleUnitary


def _median_seconds(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the wall time of ``inner`` calls, per call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def _analytic(m: dict) -> None:
    rates = DecoherenceRates(0.02, 0.03)
    calls = {
        "xi2_min_finite_polarization": (lambda: analytic.xi2_min_finite_polarization(
            100, 0.9, 0.01), 2000),
        "xi2_min_decoherence": (lambda: analytic.xi2_min_decoherence(
            100, 0.9, rates, 1e-3, 1.0), 2000),
        "sensitivity": (lambda: analytic.sensitivity(0.7, 50, 0.9, rates, 1e-5), 2000),
        "squeezing_report": (lambda: analytic.squeezing_report(50, 0.9, rates, 1e-5), 20),
        "max_sensitivity": (lambda: analytic.max_sensitivity(50, 0.9, rates, 1e-5), 20),
    }
    for name, (fn, inner) in calls.items():
        m[f"analytic.{name}_us"] = 1e6 * _median_seconds(fn, 5, inner)


def _inhomogeneous(m: dict, seed: int, mc: list) -> None:
    for n, repeats in ((8, 20), (20, 20), (64, 5), (128, 3), (256, 2)):
        spec = inhomogeneous.DisorderSpec(theta0=0.3 * n ** (-2.0 / 3.0), kappa=0.1,
                                          master_seed=seed)
        coup = inhomogeneous.sample_couplings(spec, n, 0)
        m[f"inhomogeneous.quadrature_components_us.n{n}"] = 1e6 * _median_seconds(
            lambda: inhomogeneous.quadrature_components(coup, 1.0, 1.0), repeats)
    for n, samples in ((20, 100), (64, 6), (160, 3)):
        theta0 = 0.3 * n ** (-2.0 / 3.0)
        spec = inhomogeneous.DisorderSpec(theta0=theta0, kappa=0.1, master_seed=seed,
                                          n_samples=samples)
        idx = iter(range(10 ** 9))
        m[f"inhomogeneous.sample_couplings_us.n{n}"] = 1e6 * _median_seconds(
            lambda: inhomogeneous.sample_couplings(spec, n, next(idx)), 5, 20)
        start = time.perf_counter()
        res = inhomogeneous.monte_carlo_mean_xi2(spec, n, 1.0, 8.0 * theta0 + math.pi / 2.0)
        m[f"inhomogeneous.mc_us_per_sample.n{n}"] = \
            1e6 * (time.perf_counter() - start) / samples
        mc.append((res.n_samples, res.n_samples - res.n_rejected))


def _oracle(m: dict, seed: int) -> None:
    rates = DecoherenceRates(0.02, 0.03)
    proto = ProtocolParams(coupling=0.05, squeeze_time=1.0)
    rng = np.random.default_rng([seed, 5])
    for n, repeats in ((4, 20), (6, 10), (8, 5), (10, 1)):
        params = EnsembleParams(n, 0.9)
        state = oracle.build_initial_state(params)
        m[f"oracle.lindblad_rhs_ms.n{n}"] = 1e3 * _median_seconds(
            lambda: oracle.lindblad_rhs(state, params, rates, proto), repeats)
        if n >= 6:
            m[f"oracle.compute_moments_ms.n{n}"] = 1e3 * _median_seconds(
                lambda: oracle.compute_moments(state), repeats)
        if n in (6, 8):
            m[f"oracle.compute_moments_pairs_ms.n{n}"] = 1e3 * _median_seconds(
                lambda: oracle.compute_moments(state, pair_correlations=True), 3)
            theta = rng.normal(0.05, 0.1, size=(n, n))
            theta = (theta + theta.T) / 2.0
            np.fill_diagonal(theta, 0.0)
            for label, pols in (("pure", 1.0), ("mixed", rng.uniform(0.3, 1.0, n))):
                m[f"oracle.evolve_variable_coupling_ms.n{n}.{label}"] = 1e3 * _median_seconds(
                    lambda: oracle.evolve_variable_coupling(theta, pols), 3)
    a = oracle.build_initial_state(EnsembleParams(8, 0.9))
    b = oracle.build_initial_state(EnsembleParams(8, 0.8))
    m["oracle.min_eigenvalue_ms.n8"] = 1e3 * _median_seconds(a.min_eigenvalue, 5)
    m["oracle.trace_distance_ms.n8"] = 1e3 * _median_seconds(
        lambda: oracle.trace_distance(a, b), 5)


def _rk4_steps(m: dict, tracer) -> None:
    rates = DecoherenceRates(0.02, 0.03)
    for n, steps in ((6, 20), (8, 4)):
        params = EnsembleParams(n, 0.9)
        cfg = oracle.IntegratorConfig(dt=0.01, t_final=0.01 * steps)
        proto = ProtocolParams(coupling=0.05, squeeze_time=cfg.t_final)
        run_id = f"probe.rk4.n{n}"
        tracer.run_id = run_id
        with tracer.installed(PACKAGE_MODULES):
            oracle.evolve(oracle.build_initial_state(params), cfg, params, rates, proto)
        tracer.run_id = None
        (idx,) = [i for i, s in enumerate(tracer.spans)
                  if s[0] == "oracle.evolve" and s[4] == run_id]
        _name, start, end, *_ = tracer.spans[idx]
        checkpoints = sum(s[2] - s[1] for s in tracer.spans
                          if s[0] == "oracle.compute_moments" and s[3] == idx)
        m[f"oracle.rk4_step_ms.n{n}"] = 1e-6 * (end - start - checkpoints) / steps


def _verify(m: dict, seed: int) -> None:
    for suite, kwargs in OracleUnitary.SUITES:
        start = time.perf_counter()
        verify.run_suite(suite, seed=seed, **kwargs)
        m[f"verify.{suite}_s"] = time.perf_counter() - start


def _cli(m: dict, seed: int) -> None:
    sweeps = CliSweeps(seed)
    argv = dict(sweeps.calls)
    for sub, name in (("squeeze-curve", "squeeze-curve"), ("metrology", "metrology"),
                      ("optimal-point", sweeps.cold_name)):
        m[f"cli.main_ms.{sub}"] = 1e3 * _median_seconds(
            lambda: CliSweeps._main(argv[name]), 3)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import oatsqueeze.cli"], check=True,
                       timeout=120)
        times.append(time.perf_counter() - start)
    m["cli.import_s"] = statistics.median(times)


def run_probes(seed: int, tracer) -> tuple[dict, list]:
    """All per-layer probe metrics, and (attempted, kept) of each probe MC call."""
    m: dict = {}
    mc: list = []
    _analytic(m)
    _inhomogeneous(m, seed, mc)
    _oracle(m, seed)
    _rk4_steps(m, tracer)
    _verify(m, seed)
    _cli(m, seed)
    return m, mc
