"""Record the reference outputs that ``oracle_lindblad`` and ``cli_sweeps`` check.

    python3 perfbench/record_reference.py

Runs one pass of each parameter variant and writes ``reference.json``.  Run
it only on a commit whose outputs are meant to be the reference: a later
change that alters these numbers beyond the benchmark's tolerances is
reported as failed operations, which is the point of recording them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.prepare_environment()
    from workloads import REFERENCE_PATH, VARIANTS, CliSweeps, OracleLindblad

    reference = {}
    for cls in (OracleLindblad, CliSweeps):
        reference[cls.name] = {}
        for variant in range(VARIANTS):
            wl = cls(variant)
            out = wl.run_pass()
            errors = [f"{op.name}: {op.error}" for op in out.ops if op.error]
            if errors:
                print(f"{cls.name} variant {variant} failed: {errors}", file=sys.stderr)
                return 1
            reference[cls.name][str(variant)] = wl.recorded_values(out)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
