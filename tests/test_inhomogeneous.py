import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oatsqueeze import analytic, inhomogeneous
from oatsqueeze.cli import _json, _mc_csv
from oatsqueeze.core import DomainError, NumericalError, ResourceError, ValidationError
from oatsqueeze.inhomogeneous import (
    ALPHA_CONCENTRATED,
    CouplingMatrix,
    DisorderSpec,
    MonteCarloResult,
    mean_xi2_analytic,
    monte_carlo_mean_xi2,
    quadrature_components,
    sample_couplings,
    suppression_report,
    xi2_theta_couplings,
)
from oatsqueeze.oracle import evolve_variable_coupling


def uniform(n, theta0):
    mat = np.full((n, n), theta0)
    np.fill_diagonal(mat, 0.0)
    return mat


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_coupling_matrix_validation():
    CouplingMatrix(uniform(4, 0.1))
    bad = uniform(4, 0.1)
    bad[0, 1] = 0.2
    with pytest.raises(ValidationError):
        CouplingMatrix(bad)
    diag = uniform(4, 0.1)
    diag[2, 2] = 1e-300
    with pytest.raises(ValidationError):
        CouplingMatrix(diag)


def test_disorder_spec_alpha_kappa_relation():
    spec = DisorderSpec(theta0=0.05, kappa=0.1)
    assert spec.alpha == pytest.approx(1.0 / (0.1 ** 2 * 0.05 ** 2), rel=1e-14)
    both = DisorderSpec(theta0=0.05, kappa=0.1, alpha=spec.alpha)
    assert both.alpha == spec.alpha
    with pytest.raises(ValidationError):
        DisorderSpec(theta0=0.05, kappa=0.1, alpha=2.0 * spec.alpha)
    with pytest.raises(ValidationError):
        DisorderSpec(theta0=0.05)
    with pytest.raises(ValidationError):
        DisorderSpec(theta0=0.05, kappa=0.1, n_samples=0)
    assert DisorderSpec(theta0=0.05, kappa=0.0).alpha == ALPHA_CONCENTRATED


def test_disorder_spec_refuses_an_overflowing_kappa_theta0():
    # regression: kappa^2 theta0^2 = inf stored alpha = 0.0 past "alpha > 0"
    with pytest.raises(ValidationError) as raised:
        DisorderSpec(theta0=0.05, kappa=1e200)
    assert raised.value.messages == ["kappa^2 theta0^2 finite (kappa = 1e+200, theta0 = 0.05)"]
    with pytest.raises(ValidationError, match="kappa\\^2 theta0\\^2 finite"):
        DisorderSpec(theta0=0.05, kappa=1e200, alpha=1.0)


def test_underflowing_kappa_theta0_is_concentrated():
    # regression: kappa^2 theta0^2 underflowing to 0 raised ZeroDivisionError
    spec = DisorderSpec(theta0=1e-200, kappa=1e-200, n_samples=2)
    assert spec.alpha == ALPHA_CONCENTRATED
    assert spec.sample_std == 0.0
    assert monte_carlo_mean_xi2(spec, 20, 1.0, 0.7).mean == 1.0


def test_sample_std_definition():
    spec = DisorderSpec(theta0=0.05, alpha=200.0)
    assert spec.sample_std == pytest.approx(1.0 / math.sqrt(400.0), rel=1e-14)
    assert DisorderSpec(theta0=0.05, kappa=0.0).sample_std == 0.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_concentrated_sampling_is_exact():
    spec = DisorderSpec(theta0=0.07, kappa=0.0, n_samples=3)
    mat = sample_couplings(spec, 5, 0).theta
    off = ~np.eye(5, dtype=bool)
    assert np.all(mat[off] == 0.07)


def test_sampling_determinism():
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=10, master_seed=3)
    a = sample_couplings(spec, 5, 2).theta
    b = sample_couplings(spec, 5, 2).theta
    assert np.array_equal(a, b)
    c = sample_couplings(spec, 5, 3).theta
    assert not np.array_equal(a, c)


def test_sampling_statistics():
    # the same 100 000 samples as single sample_couplings calls, drawn in one
    # stack; the spread of indices pins that the two are the same bits
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=1, master_seed=3)
    stack = inhomogeneous._coupling_stack(spec, 4, 0, 100_000)
    for i in (0, 1, 80, 81, 4095, 4096, 65_537, 99_999):
        assert np.array_equal(stack[i], sample_couplings(spec, 4, i).theta)
    draws = stack[:, 0, 1]
    bound = 4.0 / math.sqrt(spec.alpha * len(draws))
    assert abs(draws.mean() - 0.05) <= bound
    assert draws.std() == pytest.approx(spec.sample_std, rel=0.02)


# seeds of one to seven 32-bit words: 2**96 + 5 has four, so its index is a
# fifth entropy word, mixed in after the pool
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**96 + 5, 2**200 + 2**97]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_chunk_stream_states_are_numpys_seeding(seed):
    # indices 80 and 81 straddle the edge of a chunk of 81 at N = 20
    for start, count, indices in ((0, 82, (0, 1, 80, 81)), (2**26 - 2, 2, (2**26 - 1,)),
                                  (2**32 - 1, 1, (2**32 - 1,))):
        states = inhomogeneous._stream_states(seed, start, count)
        assert len(states) == count
        for i in indices:
            want = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
            assert states[i - start] == (want["state"], want["inc"])


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stack_rows_are_default_rng_draws(seed):
    n, start, count = 20, 79, 4
    spec = DisorderSpec(theta0=0.05, kappa=0.1, master_seed=seed)
    stack = inhomogeneous._coupling_stack(spec, n, start, count)
    rows, cols = np.triu_indices(n, k=1)
    for j in range(count):
        normals = np.random.default_rng((seed, start + j)).standard_normal(len(rows))
        assert np.array_equal(stack[j][rows, cols], spec.theta0 + spec.sample_std * normals)
        assert np.array_equal(stack[j], stack[j].T)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
def test_disorder_spec_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # regression: -1 raised numpy's bare ValueError from inside the run, and
    # 1.5 ran as seed 1 while summary() reported 1.5
    with pytest.raises(ValidationError) as raised:
        DisorderSpec(theta0=0.05, kappa=0.1, master_seed=seed)
    assert raised.value.messages == [f"master_seed an integer >= 0, not {seed!r}"]


@pytest.mark.parametrize("count", [0, -1, 2.5, "3", True, None])
def test_disorder_spec_refuses_a_sample_count_that_is_not_an_integer_at_least_1(count):
    # regression: 2.5 failed inside the run with numpy's bare TypeError, "3"
    # raised TypeError from the comparison, and True ran as one sample
    with pytest.raises(ValidationError) as raised:
        DisorderSpec(theta0=0.05, kappa=0.1, n_samples=count)
    assert raised.value.messages == [f"n_samples an integer >= 1, not {count!r}"]


def test_a_bool_is_not_a_seed_or_a_sample_index():
    with pytest.raises(ValidationError, match="master_seed an integer >= 0, not True"):
        DisorderSpec(theta0=0.05, kappa=0.1, master_seed=True)
    spec = DisorderSpec(theta0=0.05, kappa=0.1, master_seed=3)
    with pytest.raises(ValidationError, match="sample_index an integer >= 0, not False"):
        sample_couplings(spec, 4, False)


def test_numpy_integer_seed_is_the_equal_int():
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=3, master_seed=np.uint64(5))
    assert type(spec.master_seed) is int and spec.master_seed == 5
    plain = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=3, master_seed=5)
    assert np.array_equal(sample_couplings(spec, 6, 2).theta, sample_couplings(plain, 6, 2).theta)
    summary = monte_carlo_mean_xi2(spec, 6, 1.0, 0.7).summary()
    assert json.loads(json.dumps(summary))["seed"] == 5


@pytest.mark.parametrize("index", [-1, 1.5, 2.0, "3"])
def test_sample_couplings_refuses_an_index_that_is_not_an_integer_at_least_0(index):
    spec = DisorderSpec(theta0=0.05, kappa=0.1, master_seed=3)
    with pytest.raises(ValidationError) as raised:
        sample_couplings(spec, 4, index)
    assert raised.value.messages == [f"sample_index an integer >= 0, not {index!r}"]


@pytest.mark.parametrize("kappa", [0.1, 0.0])
def test_indices_from_2_to_the_32_are_refused(kappa):
    # one more index word would change the stream, so indices stop at 2**32 - 1
    spec = DisorderSpec(theta0=0.05, kappa=kappa, master_seed=3)
    last = sample_couplings(spec, 4, np.uint32(2**32 - 1)).theta
    if kappa:
        normals = np.random.default_rng((3, 2**32 - 1)).standard_normal(6)
        assert last[0, 1] == spec.theta0 + spec.sample_std * normals[0]
    for index, count in ((2**32, 1), (2**40, 1), (2**32 - 1, 2)):
        with pytest.raises(ValidationError) as raised:
            inhomogeneous._coupling_stack(spec, 4, index, count)
        assert raised.value.messages == [f"sample indices below 2**32, not {index + count - 1}"]
    with pytest.raises(ValidationError, match="below 2\\*\\*32"):
        sample_couplings(spec, 4, 2**32)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_unsqueezed_baseline():
    for p in (1.0, 0.5):
        got = xi2_theta_couplings(np.zeros((6, 6)), p, 0.9)
        assert got == pytest.approx(1.0 / p, rel=1e-14)


def test_uniform_special_case_collapses_to_closed_form():
    worst = 0.0
    for n in (3, 8, 12):
        for p in (0.5, 1.0):
            for theta0 in (0.01, 0.05):
                for theta in np.linspace(0.0, math.pi, 16, endpoint=False):
                    a = xi2_theta_couplings(uniform(n, theta0), p, theta)
                    b = analytic.xi2_theta_finite_polarization(n, p, theta0, theta)
                    worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-12


def test_random_couplings_match_oracle():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        theta = rng.normal(0.05, 0.1, size=(n, n))
        theta = (theta + theta.T) / 2.0
        np.fill_diagonal(theta, 0.0)
        pols = rng.uniform(0.3, 1.0, size=n)
        mom = evolve_variable_coupling(theta, pols)
        for th in rng.uniform(0.0, math.pi, 4):
            got = xi2_theta_couplings(theta, pols, th)
            worst = max(worst, abs(got - mom.xi2(th)) / abs(mom.xi2(th)))
    assert worst <= 1e-10


def test_degenerate_denominator_raises():
    # cos(4*theta0) = 0 kills every polarization product
    with pytest.raises(DomainError):
        xi2_theta_couplings(uniform(4, math.pi / 8.0), 1.0, 0.3)


def test_pols_validation():
    with pytest.raises(ValidationError):
        xi2_theta_couplings(uniform(4, 0.05), 0.0, 0.3)
    with pytest.raises(ValidationError):
        xi2_theta_couplings(uniform(4, 0.05), [0.5, 0.5], 0.3)


@pytest.mark.parametrize("pols", [math.nan, [0.9, math.nan, 0.9, 0.9]])
def test_nan_polarizations_are_refused(pols):
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=3)
    for call in (lambda: quadrature_components(uniform(4, 0.05), pols, 0.3),
                 lambda: xi2_theta_couplings(uniform(4, 0.05), pols, 0.3),
                 lambda: monte_carlo_mean_xi2(spec, 4, pols, 0.3)):
        with pytest.raises(ValidationError, match=r"polarizations must lie in \(0, 1\]"):
            call()


NON_FINITE = (math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("theta", NON_FINITE)
def test_quadrature_components_refuse_a_non_finite_angle(theta):
    with pytest.raises(ValidationError, match="quadrature angle finite"):
        quadrature_components(uniform(4, 0.05), 0.9, theta)


@pytest.mark.parametrize("theta", NON_FINITE)
def test_xi2_theta_couplings_refuses_a_non_finite_angle(theta):
    with pytest.raises(ValidationError, match="quadrature angle finite"):
        xi2_theta_couplings(uniform(4, 0.05), 0.9, theta)


@pytest.mark.parametrize("theta", NON_FINITE)
def test_mean_xi2_analytic_refuses_a_non_finite_angle(theta):
    with pytest.raises(ValidationError, match="quadrature angle finite"):
        mean_xi2_analytic(DisorderSpec(theta0=0.05, kappa=0.1, n_samples=3), 4, theta)


def test_components_are_per_spin_normalized():
    a, b = quadrature_components(uniform(5, 0.0), 0.5, 1.0)
    assert a == pytest.approx(1.0, rel=1e-14)
    assert b == pytest.approx(0.5, rel=1e-14)


def direct_components(theta, pols, th):
    """(A/N, B/N) term by term with one np.prod per product: the reference
    for the pair kernel."""
    n = len(pols)
    c = np.cos(4.0 * theta)
    s = np.sin(4.0 * theta)
    np.fill_diagonal(c, 1.0)
    np.fill_diagonal(s, 0.0)
    b = sum(pols[k] * np.prod(np.delete(c[:, k], k)) for k in range(n)) / n
    yy = cross = 0.0
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            rest = np.ones(n, bool)
            rest[[k, l]] = False
            plus = np.prod(c[rest, k] * c[rest, l] + s[rest, k] * s[rest, l])
            minus = np.prod(c[rest, k] * c[rest, l] - s[rest, k] * s[rest, l])
            yy += pols[k] * pols[l] * (plus - minus)
            cross += pols[l] * s[k, l] * np.prod(c[rest, l])
    a = 1.0 + (0.5 * math.sin(th) ** 2 * yy - math.sin(2.0 * th) * cross) / n
    return a, b


@st.composite
def coupling_cases(draw):
    n = draw(st.integers(2, 10))
    # |theta| up to pi/2 covers cos(4 theta) of both signs
    upper = draw(st.lists(st.floats(-math.pi / 2, math.pi / 2),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    theta = np.zeros((n, n))
    theta[np.triu_indices(n, k=1)] = upper
    theta += theta.T
    pols = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return theta, pols, draw(st.floats(0.0, math.pi))


@settings(max_examples=80, deadline=None)
@given(coupling_cases())
def test_components_match_direct_products(case):
    theta, pols, th = case
    got = quadrature_components(theta, pols, th)
    want = direct_components(theta, pols, th)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def mixed_couplings(rng, n):
    """Small angles as in the Monte Carlo, with 2% of the pairs anywhere in
    [-pi/2, pi/2], so that some C_jk and some pair factors are negative."""
    upper = rng.normal(0.05, 0.03, size=n * (n - 1) // 2)
    wide = rng.random(upper.size) < 0.02
    upper[wide] = rng.uniform(-math.pi / 2, math.pi / 2, size=int(wide.sum()))
    theta = np.zeros((n, n))
    theta[np.triu_indices(n, k=1)] = upper
    return theta + theta.T


def test_components_match_direct_products_across_k_blocks():
    # single matrices beyond the sizes of the property test (n <= 10): the
    # kernel runs 20 and 35 circulant offsets, and its last one visits each
    # pair twice
    rng = np.random.default_rng(4)
    for n in (40, 70):
        theta = mixed_couplings(rng, n)
        pols = rng.uniform(0.3, 1.0, size=n)
        th = rng.uniform(0.0, math.pi)
        got = quadrature_components(theta, pols, th)
        want = direct_components(theta, pols, th)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def looped_diffs(theta):
    """diff of ``_pair_terms`` with each product a running product over
    j = 0 .. n-1 in order, one pair at a time, vectorized only over samples."""
    c = np.cos(4.0 * theta)
    s = np.sin(4.0 * theta)
    n_samples, n, _ = theta.shape
    diff = np.zeros_like(theta)
    for k in range(n):
        for l in range(k + 1, n):
            plus = np.ones(n_samples)
            minus = np.ones(n_samples)
            for j in range(n):
                if j not in (k, l):
                    cc = c[:, j, k] * c[:, j, l]
                    ss = s[:, j, k] * s[:, j, l]
                    plus *= cc + ss
                    minus *= cc - ss
            diff[:, k, l] = diff[:, l, k] = plus - minus
    return diff


@pytest.mark.parametrize("n", [*range(2, 10), 20, 21])
def test_pair_diffs_match_looped_products_bit_for_bit(n):
    # odd and even n: at even n the last offset m = n/2 visits each pair twice
    rng = np.random.default_rng(n)
    for n_samples in (1, 3, 81):
        theta = np.stack([mixed_couplings(rng, n) for _ in range(n_samples)])
        diff = inhomogeneous._pair_terms(theta)[3]
        assert diff.flags.c_contiguous
        assert np.array_equal(diff, looped_diffs(theta))
        assert np.array_equal(diff, diff.transpose(0, 2, 1))
        assert np.all(np.diagonal(diff, axis1=1, axis2=2) == 0.0)


def test_monte_carlo_chunk_matches_direct_products():
    # the Monte Carlo chunk at N = 64 is 8 samples, which the kernel's
    # planes hold side by side, innermost
    n = 64
    spec = DisorderSpec(theta0=0.3 * n ** (-2.0 / 3.0), kappa=0.1, master_seed=2, n_samples=8)
    stack = inhomogeneous._coupling_stack(spec, n, 0, 8)
    pols = np.random.default_rng(6).uniform(0.3, 1.0, size=n)
    th = 8.0 * spec.theta0 + math.pi / 2.0
    a_norm, b_norm = inhomogeneous._components(
        inhomogeneous._sums(inhomogeneous._pair_terms(stack), pols), n, th)
    for i, theta in enumerate(stack):
        want = direct_components(theta, pols, th)
        assert np.allclose((a_norm[i], b_norm[i]), want, rtol=1e-12, atol=1e-12)


def test_underflowing_products_stay_finite():
    # every 4 theta within 0.1% of pi/2: |C_jk| < 2e-3, so at N = 256 the
    # site and cross products underflow to 0 without a floating-point error
    n = 256
    rng = np.random.default_rng(8)
    theta = np.zeros((n, n))
    upper = math.pi / 8.0 * (1.0 + rng.uniform(-1e-3, 1e-3, n * (n - 1) // 2))
    theta[np.triu_indices(n, k=1)] = upper
    theta += theta.T
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        terms = inhomogeneous._pair_terms(theta[None])
    assert all(np.all(np.isfinite(term)) for term in terms)
    assert np.all(terms[0] == 0.0)
    with pytest.raises(DomainError):
        xi2_theta_couplings(theta, 1.0, 0.7)


@pytest.mark.parametrize("n", [20, 64, 160])
def test_kernel_peak_memory_within_charge(n, monkeypatch):
    # _require_memory charges 21 N^2 doubles per sample of each chunk in
    # flight.  The kernel alone peaks at about 8 of them (9 with the coupling
    # matrix, allocated here before tracing); a whole run of two chunks on a
    # pool of one worker, one chunk per thread, whose allocations tracemalloc
    # sees too, peaks at about twice that, inside the charge for two
    chunk = max(1, inhomogeneous._CHUNK_BYTES // (8 * n * n))
    spec = DisorderSpec(theta0=0.3 * n ** (-2.0 / 3.0), kappa=0.1, n_samples=chunk)
    stack = inhomogeneous._coupling_stack(spec, n, 0, chunk)
    tracemalloc.start()
    try:
        inhomogeneous._components(
            inhomogeneous._sums(inhomogeneous._pair_terms(stack), np.full(n, 0.9)), n, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 8 * chunk * n * n

    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: pool)
        run = dataclasses.replace(spec, n_samples=2 * chunk)
        assert inhomogeneous._require_memory(n, chunk, run.n_samples, 2) == 2
        tracemalloc.start()
        try:
            monte_carlo_mean_xi2(run, n, 0.9, 1.0, keep_values=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    charge = 16 * run.n_samples + 2 * 21 * 8 * chunk * n * n
    assert peak < 16 * run.n_samples + 2 * 10 * 8 * chunk * n * n < charge


# (A/N, B/N) of samples 0-3 for seed 0, kappa 0.1, theta0 = 0.3 N^(-2/3),
# P = 0.9 and quadrature angle 8 theta0 + pi/2, recorded as float.hex from
# the half-triangle kernel that multiplies its pair products directly
# (N = 20, 64); N = 160 was recorded from an earlier per-sample evaluation
# that summed the pair term in another order
RECORDED_COMPONENTS = {
    20: [("0x1.a7a2c4d43807dp+2", "0x1.64f8d962eb5e2p-1"),
         ("0x1.a56427d015a7bp+2", "0x1.65e8d490ce9e2p-1"),
         ("0x1.a47ac9176b4cap+2", "0x1.6660e0b36da5fp-1"),
         ("0x1.a7d1bd3239e75p+2", "0x1.64cfb086c51e3p-1")],
    64: [("0x1.d1aa0b9d26638p+3", "0x1.81ddc733c1850p-1"),
         ("0x1.d238947ca3a25p+3", "0x1.81b97cae98b26p-1"),
         ("0x1.d34cf57ae7717p+3", "0x1.8175741b39b62p-1"),
         ("0x1.d167f84971a45p+3", "0x1.81eeb2ee9bf45p-1")],
    160: [("0x1.be98167903790p+4", "0x1.93976d26bd5a0p-1"),
          ("0x1.be5980123b973p+4", "0x1.93a150c9b7f97p-1"),
          ("0x1.beebb41bffd56p+4", "0x1.9388ef4793029p-1"),
          ("0x1.be336eeae66f0p+4", "0x1.93a779ea1cabdp-1")],
}


@pytest.mark.parametrize("n", sorted(RECORDED_COMPONENTS))
def test_components_match_recorded_values(n):
    theta0 = 0.3 * n ** (-2.0 / 3.0)
    spec = DisorderSpec(theta0=theta0, kappa=0.1, master_seed=0, n_samples=4)
    for idx, recorded in enumerate(RECORDED_COMPONENTS[n]):
        got = quadrature_components(sample_couplings(spec, n, idx), 0.9,
                                    8.0 * theta0 + math.pi / 2.0)
        want = tuple(float.fromhex(x) for x in recorded)
        if n <= 128:
            assert got == want
        else:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# analytic disorder average
# ---------------------------------------------------------------------------

def test_mean_without_suppression_equals_uniform_closed_form():
    spec = DisorderSpec(theta0=0.05, kappa=0.0)  # both suppression factors are 1.0
    for theta in (0.0, 0.4, 1.2, 2.2):
        got = mean_xi2_analytic(spec, 20, theta)
        want = analytic.xi2_theta_finite_polarization(20, 1.0, 0.05, theta)
        assert got == pytest.approx(want, rel=1e-12)


def test_mean_structure_at_zero_angles():
    # at theta = 0 or theta0 = 0 the correction terms vanish and only the
    # averaged polarization denominator remains
    spec = DisorderSpec(theta0=0.05, kappa=0.1)
    _, single, _ = suppression_report(spec, 20)
    c4m1 = math.cos(4 * 0.05) ** 19
    assert mean_xi2_analytic(spec, 20, 0.0) == pytest.approx(1.0 / (c4m1 * single), rel=1e-12)
    spec0 = DisorderSpec(theta0=0.0, alpha=1e4)
    _, single0, _ = suppression_report(spec0, 20)
    assert mean_xi2_analytic(spec0, 20, 0.7) == pytest.approx(1.0 / single0, rel=1e-12)


def test_degenerate_averaged_denominator_raises():
    # regression: cos^(N-1)(4 theta0) exp(-4 (N-1)/alpha) underflowed to 0
    # and the average divided by it; the per-sample rule applies instead
    with pytest.raises(DomainError, match="degenerate averaged quadrature denominator"):
        mean_xi2_analytic(DisorderSpec(theta0=0.05, alpha=1e-320), 20, 0.7)
    # exp(-4 * 19 / 2.7) = 6e-13 is degenerate, exp(-4 * 19 / 2.8) = 1.6e-12 is not
    with pytest.raises(DomainError):
        mean_xi2_analytic(DisorderSpec(theta0=0.0, alpha=2.7), 20, 0.7)
    assert mean_xi2_analytic(DisorderSpec(theta0=0.0, alpha=2.8), 20, 0.0) == \
        pytest.approx(math.exp(4 * 19 / 2.8), rel=1e-12)


def test_mc_within_three_standard_errors():
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=4000, master_seed=17)
    theta = 8 * 0.05 + math.pi / 2.0
    mc = monte_carlo_mean_xi2(spec, 20, 1.0, theta)
    an = mean_xi2_analytic(spec, 20, theta)
    assert abs(mc.mean - an) <= 3.0 * mc.stderr


# ---------------------------------------------------------------------------
# Monte Carlo estimator mechanics
# ---------------------------------------------------------------------------

def test_single_sample_mean_is_that_sample():
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=1, master_seed=5)
    mc = monte_carlo_mean_xi2(spec, 8, 1.0, 0.7)
    direct = xi2_theta_couplings(sample_couplings(spec, 8, 0), 1.0, 0.7)
    assert mc.mean == pytest.approx(direct, rel=1e-14)
    assert mc.mean_of_ratios == pytest.approx(direct, rel=1e-14)
    assert mc.stderr == 0.0


def test_concentrated_disorder_mean_exact_zero_stderr():
    spec = DisorderSpec(theta0=0.05, kappa=0.0, n_samples=50, master_seed=5)
    mc = monte_carlo_mean_xi2(spec, 10, 1.0, 0.9)
    want = analytic.xi2_theta_finite_polarization(10, 1.0, 0.05, 0.9)
    assert mc.mean == pytest.approx(want, rel=1e-12)
    assert mc.stderr == 0.0
    assert mean_xi2_analytic(spec, 10, 0.9) == pytest.approx(want, rel=1e-12)


def test_mc_values_independent_of_chunking(monkeypatch):
    spec = DisorderSpec(theta0=0.04, kappa=0.3, n_samples=30, master_seed=9)
    n, pols, theta = 12, 0.8, 1.1
    direct = [xi2_theta_couplings(sample_couplings(spec, n, i), pols, theta)
              for i in range(spec.n_samples)]
    large = monte_carlo_mean_xi2(spec, n, pols, theta, keep_values=True)
    small = monte_carlo_mean_xi2(dataclasses.replace(spec, n_samples=7), n, pols, theta,
                                 keep_values=True)
    assert large.values.tolist() == direct
    assert small.values.tolist() == direct[:7]
    # three samples per chunk: chunk boundaries fall inside both runs
    monkeypatch.setattr(inhomogeneous, "_CHUNK_BYTES", 3 * 8 * n * n)
    chunked = monte_carlo_mean_xi2(spec, n, pols, theta, keep_values=True)
    assert chunked.values.tolist() == direct
    assert (chunked.mean, chunked.stderr) == (large.mean, large.stderr)


@pytest.fixture(params=[None, 1, 3], ids=["one_cpu", "one_worker", "three_workers"])
def mc_pool(request, monkeypatch):
    """The Monte Carlo's pool for one test, whatever the host's CPU count:
    none (the one-CPU path) or this many workers.  A short switch interval
    interleaves the threads as often as the interpreter can."""
    if request.param is None:
        monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: None)
        yield None
        return
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(request.param) as pool:
            monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: pool)
            yield pool
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n, n_samples", [(20, 200), (64, 10), (160, 2)])
def test_pooled_mc_values_equal_single_matrix_calls(mc_pool, n, n_samples):
    # N = 20 spans three chunks and 64 two; N = 160 runs one sample per
    # chunk.  The chunks are dealt across the pool, and each value keeps
    # the bits of the single-matrix call, which runs on the caller only
    spec = DisorderSpec(theta0=0.3 * n ** (-2.0 / 3.0), kappa=0.1, n_samples=n_samples,
                        master_seed=4)
    theta = 8.0 * spec.theta0 + math.pi / 2.0
    direct = [xi2_theta_couplings(sample_couplings(spec, n, i), 0.9, theta)
              for i in range(n_samples)]
    assert monte_carlo_mean_xi2(spec, n, 0.9, theta, keep_values=True).values.tolist() == direct


def test_worker_exception_reaches_the_caller(monkeypatch):
    # three samples per chunk, ten chunks dealt round-robin to two threads:
    # chunk 1 always runs on the worker, which raises there
    spec = DisorderSpec(theta0=0.04, kappa=0.3, n_samples=30, master_seed=9)
    monkeypatch.setattr(inhomogeneous, "_CHUNK_BYTES", 3 * 8 * 12 * 12)
    chunk_components = inhomogeneous._chunk_components
    boom = RuntimeError("worker failed")
    caller_chunks = []

    def fail_on_worker(spec, n, p, theta, start, stop):
        if threading.current_thread() is not threading.main_thread():
            raise boom
        caller_chunks.append(start)
        return chunk_components(spec, n, p, theta, start, stop)

    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: pool)
        want = monte_carlo_mean_xi2(spec, 12, 0.8, 1.1, keep_values=True).values.tolist()
        monkeypatch.setattr(inhomogeneous, "_chunk_components", fail_on_worker)
        with pytest.raises(RuntimeError) as raised:
            monte_carlo_mean_xi2(spec, 12, 0.8, 1.1)
        assert raised.value is boom
        # the caller runs only its own chunks, in order, and may stop early
        assert caller_chunks == [0, 6, 12, 18, 24][:len(caller_chunks)]
        monkeypatch.setattr(inhomogeneous, "_chunk_components", chunk_components)
        assert monte_carlo_mean_xi2(spec, 12, 0.8, 1.1, keep_values=True).values.tolist() == want


def test_caller_exception_stops_the_workers(monkeypatch):
    # the caller's first chunk raises while the worker is inside chunk 1: the
    # caller waits for it, the worker stops before chunk 3, and the caller's
    # exception is the one raised
    spec = DisorderSpec(theta0=0.04, kappa=0.3, n_samples=30, master_seed=9)
    monkeypatch.setattr(inhomogeneous, "_CHUNK_BYTES", 3 * 8 * 12 * 12)
    chunk_components = inhomogeneous._chunk_components
    boom = RuntimeError("caller failed")
    inside = threading.Event()
    worker_chunks = []

    def fail_on_caller(spec, n, p, theta, start, stop):
        if threading.current_thread() is threading.main_thread():
            assert inside.wait(30)
            raise boom
        worker_chunks.append(start)
        inside.set()
        time.sleep(0.2)  # the caller raises meanwhile
        return chunk_components(spec, n, p, theta, start, stop)

    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: pool)
        monkeypatch.setattr(inhomogeneous, "_chunk_components", fail_on_caller)
        with pytest.raises(RuntimeError) as raised:
            monte_carlo_mean_xi2(spec, 12, 0.8, 1.1)
    assert raised.value is boom
    assert worker_chunks == [3]


def _chunk_threads(monkeypatch) -> dict:
    """Record, per chunk start, the thread that evaluates each Monte Carlo chunk."""
    chunk_components = inhomogeneous._chunk_components
    seen = {}

    def record(spec, n, p, theta, start, stop):
        seen[start] = threading.current_thread().name
        return chunk_components(spec, n, p, theta, start, stop)

    monkeypatch.setattr(inhomogeneous, "_chunk_components", record)
    return seen


def test_fewer_chunks_than_threads_run_on_the_caller(monkeypatch):
    # one sample at N = 160 is one chunk: three workers wait and the caller
    # evaluates it alone
    n = 160
    spec = DisorderSpec(theta0=0.3 * n ** (-2.0 / 3.0), kappa=0.1, n_samples=1, master_seed=4)
    theta = 8.0 * spec.theta0 + math.pi / 2.0
    seen = _chunk_threads(monkeypatch)
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: pool)
        got = monte_carlo_mean_xi2(spec, n, 0.9, theta, keep_values=True).values.tolist()
    assert seen == {0: threading.main_thread().name}
    assert got == [xi2_theta_couplings(sample_couplings(spec, n, 0), 0.9, theta)]


def test_memory_cap_runs_fewer_threads_instead_of_refusing(monkeypatch):
    # eight chunks of three samples and a pool of three workers: with room
    # for two chunks in flight the run uses two threads, with room for one
    # it runs on the caller alone, and the values keep their bits
    spec = DisorderSpec(theta0=0.04, kappa=0.3, n_samples=24, master_seed=9)
    n, pols, theta = 12, 0.8, 1.1
    chunk = 3
    monkeypatch.setattr(inhomogeneous, "_CHUNK_BYTES", chunk * 8 * n * n)
    direct = [xi2_theta_couplings(sample_couplings(spec, n, i), pols, theta)
              for i in range(spec.n_samples)]
    seen = _chunk_threads(monkeypatch)
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(inhomogeneous, "_mc_pool", lambda: pool)
        for in_flight in (2, 1):
            seen.clear()
            monkeypatch.setattr(inhomogeneous, "_MEMORY_CAP",
                                16 * spec.n_samples + in_flight * 21 * 8 * chunk * n * n)
            got = monte_carlo_mean_xi2(spec, n, pols, theta, keep_values=True)
            assert got.values.tolist() == direct
            assert sorted(seen) == list(range(0, spec.n_samples, chunk))
            # chunk i runs on thread i mod T: the caller takes chunks 0, T, 2T, ...
            main = threading.main_thread().name
            assert [start for start, name in seen.items() if name == main] == \
                list(range(0, spec.n_samples, in_flight * chunk))
            assert len(set(seen.values())) <= in_flight
        monkeypatch.setattr(inhomogeneous, "_MEMORY_CAP",
                            16 * spec.n_samples + 21 * 8 * chunk * n * n - 1)
        with pytest.raises(ResourceError, match="GiB"):
            monte_carlo_mean_xi2(spec, n, pols, theta)


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(inhomogeneous, "_mc_pool",
                        functools.cache(inhomogeneous._mc_pool.__wrapped__))
    before = threading.active_count()
    monte_carlo_mean_xi2(DisorderSpec(theta0=0.05, kappa=0.1, n_samples=200), 20, 1.0, 0.7)
    assert inhomogeneous._mc_pool() is None
    assert threading.active_count() == before


def _fresh_process(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this package's sources."""
    src = str(Path(inhomogeneous.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_and_single_matrix_calls_start_no_thread():
    # a fresh process: importing the CLI and a single-matrix call neither
    # start a thread nor import concurrent.futures
    code = ("import sys, threading\n"
            "before = threading.active_count()\n"
            "import oatsqueeze.cli\n"
            "from oatsqueeze.inhomogeneous import quadrature_components\n"
            "quadrature_components([[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]], 0.9, 1.0)\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
            "assert 'concurrent.futures' not in sys.modules\n")
    proc = _fresh_process(code)
    assert proc.returncode == 0, proc.stderr


def test_closed_forms_import_no_numpy():
    # a fresh process: the package, core and the closed forms start without
    # numpy, which only the oracle, the Monte Carlo and the CLI need
    code = ("import sys\n"
            "import oatsqueeze, oatsqueeze.core, oatsqueeze.analytic\n"
            "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n")
    proc = _fresh_process(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool():
    # a child forked after a pooled run has none of the parent's threads: its
    # first Monte Carlo call makes a pool of its own instead of waiting on them
    code = ("import os, signal\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from oatsqueeze.inhomogeneous import DisorderSpec, monte_carlo_mean_xi2\n"
            "spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=5)\n"
            "want = monte_carlo_mean_xi2(spec, 40, 1.0, 0.7, keep_values=True).values.tolist()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    got = monte_carlo_mean_xi2(spec, 40, 1.0, 0.7, keep_values=True).values.tolist()\n"
            "    os._exit(0 if got == want else 1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n")
    proc = _fresh_process(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_after_a_threaded_run_makes_its_own_pool():
    # three chunks at N = 40 put a chunk on the worker, so the pool's thread
    # exists when the parent forks; a run of one chunk never starts it
    code = ("import os, signal\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from oatsqueeze.inhomogeneous import DisorderSpec, monte_carlo_mean_xi2\n"
            "spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=60)\n"
            "want = monte_carlo_mean_xi2(spec, 40, 1.0, 0.7, keep_values=True).values.tolist()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    got = monte_carlo_mean_xi2(spec, 40, 1.0, 0.7, keep_values=True).values.tolist()\n"
            "    os._exit(0 if got == want else 1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n")
    proc = _fresh_process(code)
    assert proc.returncode == 0, proc.stderr


def test_mc_stderr_at_rounding_level_is_zero():
    # identical samples: the delta-method error is rounding noise (about
    # 3e-16 on a mean of 13), reported as 0 and flagged in the summary
    spec = DisorderSpec(theta0=0.05, kappa=0.0, n_samples=1000)
    theta = 8 * 0.05 + math.pi / 2.0
    mc = monte_carlo_mean_xi2(spec, 20, 1.0, theta)
    assert mc.stderr == 0.0
    assert mc.summary()["stderr_at_rounding_level"] is True
    # a small but real disorder keeps its error
    spec = DisorderSpec(theta0=0.05, kappa=1e-5, n_samples=1000)
    mc = monte_carlo_mean_xi2(spec, 20, 1.0, theta)
    assert 1e-7 < mc.stderr < 1e-6
    assert mc.summary()["stderr_at_rounding_level"] is False


def test_oversized_runs_raise_before_allocating(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("allocated coupling samples")

    monkeypatch.setattr(inhomogeneous, "_coupling_stack", no_allocation)
    with pytest.raises(ResourceError, match="GiB"):
        monte_carlo_mean_xi2(DisorderSpec(theta0=0.05, kappa=0.1), 10 ** 5, 1.0, 0.7)
    with pytest.raises(ResourceError, match="GiB"):
        monte_carlo_mean_xi2(DisorderSpec(theta0=0.05, kappa=0.1, n_samples=10 ** 9),
                             20, 1.0, 0.7)
    # the single-matrix kernel is bounded the same way: with the cap set to
    # what N = 5 needs, N = 5 runs and N = 6 raises
    monkeypatch.setattr(inhomogeneous, "_MEMORY_CAP", 16 + 21 * 8 * 5 * 5)
    quadrature_components(uniform(5, 0.05), 1.0, 0.7)
    with pytest.raises(ResourceError, match="GiB"):
        quadrature_components(uniform(6, 0.05), 1.0, 0.7)


def test_mc_bit_reproducible():
    spec = DisorderSpec(theta0=0.05, kappa=0.2, n_samples=300, master_seed=21)
    a = monte_carlo_mean_xi2(spec, 12, 1.0, 1.0)
    b = monte_carlo_mean_xi2(spec, 12, 1.0, 1.0)
    assert (a.mean, a.stderr, a.mean_of_ratios) == (b.mean, b.stderr, b.mean_of_ratios)


def test_mc_rejection_error():
    # every sample degenerate: cos(4*theta0) = 0 at zero disorder
    spec = DisorderSpec(theta0=math.pi / 8.0, kappa=0.0, n_samples=10)
    with pytest.raises(NumericalError, match="degenerate"):
        monte_carlo_mean_xi2(spec, 6, 1.0, 0.4)


# ---------------------------------------------------------------------------
# suppression factors and the insensitivity claim
# ---------------------------------------------------------------------------

def test_suppression_no_disorder():
    spec = DisorderSpec(theta0=0.05, kappa=0.0)
    assert suppression_report(spec, 50) == (1.0, 1.0, True)


def test_suppression_inverted_exponent():
    n = 24
    spec = DisorderSpec(theta0=0.05, alpha=8.0 * (n - 2) / math.log(100.0))
    pair, _, _ = suppression_report(spec, n)
    assert pair == pytest.approx(0.01, rel=1e-12)


def test_suppression_negligible_at_optimal_angle_scale():
    n = 1000
    spec = DisorderSpec(theta0=n ** (-2.0 / 3.0), kappa=0.1)
    pair, single, negligible = suppression_report(spec, n)
    assert negligible
    assert pair == pytest.approx(math.exp(-8.0 * (n - 2) * 0.01 * n ** (-4.0 / 3.0)), rel=1e-12)


def test_insensitivity_to_moderate_disorder():
    # at the squeezing-optimal angle scale, 20% coupling disorder moves the
    # averaged quadrature by under 5%
    for n in (100, 1000):
        theta0 = n ** (-2.0 / 3.0)
        spec = DisorderSpec(theta0=theta0, kappa=0.2)
        spec0 = DisorderSpec(theta0=theta0, kappa=0.0)
        for theta in np.linspace(0.05, math.pi - 0.05, 9):
            with_dis = mean_xi2_analytic(spec, n, theta)
            without = mean_xi2_analytic(spec0, n, theta)
            assert abs(with_dis - without) / abs(without) <= 0.05


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_mc_csv_and_json_exports():
    spec = DisorderSpec(theta0=0.05, kappa=0.1, n_samples=20, master_seed=2)
    mc = monte_carlo_mean_xi2(spec, 6, 1.0, 0.8, keep_values=True)
    lines = _mc_csv(mc).strip().splitlines()
    assert lines[0] == "sample_index,xi2"
    assert len(lines) == 1 + 20 + 1  # header + samples + summary row
    assert lines[-1].startswith("# summary mean=")
    with pytest.raises(ValueError, match="keep_values=True"):
        _mc_csv(dataclasses.replace(mc, values=None))
    payload = json.loads(_json(mc.summary() | {"analytic_mean": 1.0}))
    assert payload["n_samples"] == 20
    assert payload["seed"] == 2
    assert "analytic_mean" in payload


def test_mc_csv_numbers_rows_by_true_sample_index():
    # regression: rows after a rejected sample were numbered by position
    result = MonteCarloResult(mean=1.3, stderr=0.1, mean_of_ratios=1.3,
                              stderr_of_ratios=0.1, n_samples=3, master_seed=4,
                              values=np.array([1.25, 1.5]), rejected_indices=(1,))
    lines = _mc_csv(result).strip().splitlines()
    assert lines[1:3] == ["0,1.25", "2,1.5"]
    assert lines[-1].startswith("# summary mean=") and "n_rejected=1 " in lines[-1]
    assert result.summary()["rejected_indices"] == [1]
