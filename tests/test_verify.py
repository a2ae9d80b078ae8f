import json
from pathlib import Path

import pytest

from oatsqueeze import core, verify

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
