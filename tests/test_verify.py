import json
import math
from pathlib import Path

import numpy as np
import pytest

from oatsqueeze import core, oracle, verify
from oatsqueeze.inhomogeneous import _pair_terms

RECORDED = json.loads((Path(__file__).parent / "data" / "verify_suite_values.json")
                      .read_text())["runs"]


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_suite_values_match_the_recorded_bits(key):
    # keys are suite.n<N>[.seed<S>]; uniform_coupling.n12 runs at SPIN_CAP
    suite, size, *seed = key.split(".")
    kwargs = {"n": int(size[1:])}
    if seed:
        kwargs["seed"] = int(seed[0][len("seed"):])
    report = verify.run_suite(suite, **kwargs)
    assert report["passed"]
    assert {c["name"]: float(c["value"]).hex() for c in report["checks"]} \
        == RECORDED[key]["checks"]
    for name, value in RECORDED[key].get("reported", {}).items():
        assert float(report[name]).hex() == value, name


def test_suite_table_is_keyed_by_the_numpy_free_names():
    # core owns the suite names, so the CLI offers them without importing numpy
    assert tuple(verify._SUITE_TABLE) == core.VERIFY_SUITES == verify.SUITES
    for name, (suite, _, _) in verify._SUITE_TABLE.items():
        assert suite.__name__ == f"suite_{name}"


def per_trial_variable_coupling(n_max, seed):
    """The variable_coupling check values as the suite computed them one
    trial and one angle at a time, with the per-sample sums of the kernel
    written out: the reference that the stacked suite must equal bit for bit."""
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(verify._TRIALS):
        n = int(rng.integers(2, n_max + 1))
        theta = rng.normal(0.05, 0.1, size=(n, n))
        theta = (theta + theta.T) / 2.0
        np.fill_diagonal(theta, 0.0)
        pols = rng.uniform(0.3, 1.0, size=n)
        trials.append((n, theta, pols, rng.uniform(0.0, math.pi, 3)))
    worst = dict.fromkeys(("site_polarization", "pair_xx_zero", "pair_yy", "pair_xy",
                           "quadrature_ratio"), 0.0)
    for n in sorted({trial[0] for trial in trials}):
        group = [trial for trial in trials if trial[0] == n]
        thetas = np.array([theta for _, theta, _, _ in group])
        stack_terms = _pair_terms(thetas)
        moments = oracle._variable_coupling_moments(thetas, [pols for _, _, pols, _ in group])
        for i, ((_, _, pols, angles), mom) in enumerate(zip(group, moments)):
            z, s, cross, diff = (term[i] for term in stack_terms)
            for name, got, want in (("site_polarization", mom.site_z, pols * z),
                                    ("pair_xx_zero", mom.pair_xx, 0.0),
                                    ("pair_yy", mom.pair_yy, 0.5 * pols[:, None] * pols * diff),
                                    ("pair_xy", mom.pair_xy, -pols * s * cross)):
                worst[name] = max(worst[name], float(np.max(np.abs(got - want))))
            b_norm = np.dot(pols, z) / n
            cross_sum = np.einsum("skl,skl,l->s", s[None], cross[None], pols)[0]
            weights = np.outer(pols, pols)
            np.fill_diagonal(weights, 0.0)
            yy_sum = np.einsum("kl,kl->", weights, diff)
            for th in angles:
                sin_th = math.sin(th)
                a_norm = 1.0 + (0.5 * sin_th * sin_th * yy_sum
                                - math.sin(2.0 * th) * cross_sum) / n
                got = a_norm / b_norm
                worst["quadrature_ratio"] = max(worst["quadrature_ratio"],
                                                abs(got - mom.xi2(th)) / abs(mom.xi2(th)))
    return worst


@pytest.mark.parametrize("n_max", [2, 3, 6, 9, 12])
def test_variable_coupling_stack_matches_the_per_trial_checks(n_max):
    for seed in range(4, 12):
        report = verify.run_suite("variable_coupling", n=n_max, seed=seed)
        got = {c["name"]: c["value"] for c in report["checks"]}
        want = per_trial_variable_coupling(n_max, seed)
        assert {k: v.hex() for k, v in got.items()} \
            == {k: float(v).hex() for k, v in want.items()}, f"seed {seed}"
