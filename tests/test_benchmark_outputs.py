"""The benchmark's recorded oracle outputs, checked for every parameter variant.

``perfbench/run.py`` checks one variant per seed (CI runs seed 1); this
runs the ``oracle_lindblad`` pass of all ``VARIANTS`` through the
workload's own ``check`` against ``perfbench/reference.json``, importing
``perfbench/workloads.py`` without changing it.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))  # workloads imports tracing from there
        yield importlib.import_module("workloads")


def test_oracle_lindblad_passes_every_variant_against_its_reference(workloads):
    # the worst relative difference, measured in the checks' own way, is
    # printed with its variant (run with -s to see it)
    worst = []
    for seed in range(workloads.VARIANTS):
        workload = workloads.OracleLindblad(seed)
        out = workload.run_pass()
        workload.check(out)
        assert [(op.name, op.error) for op in out.ops if op.error] == [], f"variant {seed}"
        got, want = workload.recorded_values(out), workload.reference
        moments = max(workloads.rel_diff(g, w, 1.0)
                      for got_row, want_row in zip(got["moments"], want["moments"])
                      for g, w in zip(got_row, want_row))
        gaps = max(workloads.rel_diff(g[1], w[1]) for g, w in zip(got["gaps"], want["gaps"]))
        worst.append((max(moments, gaps), seed))
    margin, seed = max(worst)
    print(f"oracle_lindblad: worst relative difference to reference.json {margin:.3g} "
          f"(variant {seed}), limit {workloads.LINDBLAD_RTOL}")
    assert margin <= workloads.LINDBLAD_RTOL
