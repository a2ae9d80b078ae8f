"""oatsqueeze benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload disorder_mc --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object whose ``metrics`` are the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` they are the
``per_layer`` metrics, taken from a separate traced run plus the per-layer
probes.  Every run checks the program's outputs and counts failed
operations.  The lines before the result name every end-to-end metric of
the workload with its unit; the full report (provenance, fingerprints,
counts, every pass time) goes to ``.bench_out/``.  ``--workload all`` runs
the four workloads one after another and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("disorder_mc", "oracle_lindblad", "oracle_unitary", "cli_sweeps")
# fresh-process set-ups timed before and after the passes, so that their
# median spans the run rather than one moment of a shared machine
SETUP_BEFORE, SETUP_AFTER = 4, 3
MIN_PASSES = 3
# after each pass, the calibration kernel runs for this share of the pass time
CALIBRATION_SHARE = 0.2
TRACED_MIN_PASSES = 2
TRACED_MAX_PASSES = 8   # spans of every traced pass are kept in memory
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# every end-to-end figure the benchmark reports, and the workload that has it;
# None means every workload
NAMED_END_TO_END = {
    "setup_s": ("s", None),
    "run_rel": ("ratio", None),
    "run_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "failed_frac": ("ratio", None),
    "mc_samples_per_s.n20": ("1/s", "disorder_mc"),
    "mc_samples_per_s.n64": ("1/s", "disorder_mc"),
    "mc_samples_per_s.n160": ("1/s", "disorder_mc"),
    "rk4_steps_per_s.n8": ("1/s", "oracle_lindblad"),
    "unitary_states_per_s": ("1/s", "oracle_unitary"),
    "sweep_points_per_s": ("1/s", "cli_sweeps"),
    "cli_cold_start_s": ("s", "cli_sweeps"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare_environment() -> None:
    """Run BLAS on one thread, point imports at src/, and refuse any other copy.

    One BLAS thread is as fast as two here (the matrices are at most
    1024 x 1024) and leaves a pass on one CPU, so that a busy neighbour on
    the other one does not stall a BLAS call waiting for its second thread.
    """
    if not (SRC / "oatsqueeze" / "__init__.py").is_file():
        raise SystemExit(f"error: no oatsqueeze package under {SRC}; "
                         "run from a checkout of the repository")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    import oatsqueeze
    if Path(oatsqueeze.__file__).resolve().parent != (SRC / "oatsqueeze").resolve():
        raise SystemExit(f"error: imported oatsqueeze from {oatsqueeze.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def provenance(workload, why: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload.name, "why": why, "sizes": workload.sizes,
        "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "blas_thread_cap": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "loop": "closed loop, one caller, one process; each operation waits for the last",
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def time_setup(name: str, seed: int, repeats: int) -> tuple[list[float], list[str]]:
    """Fresh-process set-up times (import, input generation, one warm-up call)
    and the errors of set-ups that exited nonzero."""
    times, errors = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                               "--workload", name, "--seed", str(seed)],
                              timeout=170, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            errors.append(f"set-up: exit code {proc.returncode}: {last[0]}")
    return times, errors


class Calibration:
    """A fixed kernel, outside the package, that gauges the machine's speed.

    On a shared host the speed of this process drifts by tens of percent
    for minutes at a time, and the drift slows a whole run alike.  The
    kernel runs after every pass for a fifth of its time.  It is made of
    the parts that the workload names after the kinds of work its passes
    do, because the drift slows each kind by a different share:

    - ``bytecode``: pure Python, for interpreter-bound calls: small
      function calls into ``math``, a dict, and float-to-text formatting;
    - ``numpy``: einsum and element-wise work on a 2 MB float array;
    - ``copy``: a strided copy of a 4 MB complex array, as reshapes make.

    ``run_rel`` is the mean pass time over the mean kernel time, so it
    stays put when the whole machine slows.  The kernel's inputs never
    change, so nothing the program does changes its work.
    """

    def __init__(self, parts):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.cube = rng.standard_normal((64, 64, 64))
        self.big = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self.parts = [getattr(self, f"_{part}") for part in parts]
        self.samples: list[float] = []

    @staticmethod
    def _term(x: float, k: float) -> float:
        return math.exp(-k * x) * math.cos(x) + math.sqrt(1.0 + x * x) / (1.0 + k)

    def _bytecode(self) -> None:
        rows, table = [], {}
        for i in range(1000):
            x = 0.001 * i
            value = sum(self._term(x, k) for k in (0.5, 1.0, 2.0))
            table[i % 97] = value
            rows.append(f"{x!r},{value!r},{max(table.values())!r}")

    def _numpy(self) -> None:
        for _ in range(8):
            self.np.einsum("ijk,jk->i", self.cube, self.cube[0])
            (self.cube * self.cube).sum()

    def _copy(self) -> None:
        swapped = self.big.reshape(2, 256, 2, 256).transpose(0, 2, 1, 3).reshape(512, 512)
        (swapped * 1j).reshape(16, 32, 512).swapaxes(0, 1).copy()

    def once(self) -> None:
        start = time.perf_counter()
        for part in self.parts:
            part()
        self.samples.append(time.perf_counter() - start)

    def run_for(self, seconds: float) -> None:
        """At least one call, and more until ``seconds`` have gone by."""
        start = time.perf_counter()
        self.once()
        while time.perf_counter() - start < seconds:
            self.once()


class Runner:
    """Runs passes of one workload, checks each, and keeps the tallies."""

    def __init__(self, workload):
        self.wl = workload
        self.first_fingerprints: dict | None = None
        self.attempted = 0
        self.errors: list[str] = []

    def tally(self, out) -> None:
        self.attempted += len(out.ops)
        self.errors += [f"{op.name}: {op.error}" for op in out.ops if op.error]

    def one_pass(self, tracer=None, run_id=None):
        if tracer is not None:
            tracer.run_id = run_id
            span = tracer.open("bench.pass")
        start = time.perf_counter()
        out = self.wl.run_pass()
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            tracer.run_id = None
        self.wl.check(out)
        # bit-reproducibility: every pass repeats the same inputs
        if self.first_fingerprints is None:
            self.first_fingerprints = dict(out.fingerprints)
        for key, digest in out.fingerprints.items():
            if self.first_fingerprints.get(key) != digest:
                out.fail(key, "output differs from the first pass of this run")
        out.values = {}  # outputs are checked; keeping them would grow RSS with the pass count
        self.tally(out)
        return out, wall

    def measure(self, seconds, min_passes, max_passes=None, tracer=None, label="pass",
                calibration=None):
        """Passes until ``seconds`` have gone by; with a calibration, the
        kernel runs before the first pass and after each one."""
        passes, walls = [], []
        start = time.perf_counter()
        if calibration is not None:
            calibration.run_for(0.0)
        while True:
            out, wall = self.one_pass(tracer, f"{label}{len(passes)}")
            passes.append(out)
            walls.append(wall)
            if calibration is not None:
                calibration.run_for(CALIBRATION_SHARE * wall)
            done = time.perf_counter() - start >= seconds
            if len(passes) >= min_passes and (done or len(passes) == max_passes):
                return passes, walls


def timing_summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": math.floor(100.0 * (n - 10) / n), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "samples": n,
            "min": ordered[0], "max": ordered[-1]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(runner, tracer, traced, traced_walls, untraced_walls, mc_tallies) -> dict:
    """Per-layer counts and self times from the traced passes."""
    by_run: dict[str, list] = {}
    for span in tracer.spans:
        by_run.setdefault(span[4], []).append(span)
    self_ns = tracer.self_ns()
    per_pass = []
    for idx, out in enumerate(traced):
        run_id = f"traced{idx}"
        spans = by_run[run_id]
        rhs = sum(1 for s in spans if s[0] == "oracle._raw_rhs") or \
            sum(1 for s in spans if s[0] == "oracle.lindblad_rhs")
        row = {
            "oracle.rhs_calls": rhs,
            "oracle.rk4_steps": sum(s[5]["steps"] for s in spans if s[0] == "oracle.evolve"),
            "analytic.calls": sum(1 for s in spans if s[0].startswith("analytic.")),
            "cli.invocations": sum(1 for s in spans if s[0] == "cli.main"),
            "trace.spans_per_pass": len(spans),
            "inhomogeneous.mc_samples_attempted":
                out.counts.get("inhomogeneous.mc_samples_attempted", 0),
            "inhomogeneous.mc_samples_kept": out.counts.get("inhomogeneous.mc_samples_kept", 0),
        }
        for layer in ("analytic", "inhomogeneous", "oracle", "verify", "cli", "bench"):
            row[f"{layer}.self_ms"] = 1e-6 * self_ns[run_id].get(layer, 0)
        per_pass.append(row)
    exact = [k for k in per_pass[0] if not k.endswith("self_ms")]
    m = {key: per_pass[0][key] if key in exact else statistics.median(p[key] for p in per_pass)
         for key in per_pass[0]}
    runner.attempted += 1  # the exact-count comparison is an operation of its own
    mismatched = [f"{key}: {[p[key] for p in per_pass]}" for key in exact
                  if any(p[key] != per_pass[0][key] for p in per_pass)]
    if mismatched:
        runner.errors.append(f"exact counts differ between traced passes: {mismatched}")
    attempted = sum(a for a, _ in mc_tallies)
    m["inhomogeneous.mc_kept_frac"] = sum(k for _, k in mc_tallies) / attempted
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    m["_counts_per_pass"] = per_pass[0]
    return m


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    from probes import run_probes
    from tracing import NullTracer, Tracer
    from workloads import PACKAGE_MODULES, WORKLOADS

    setup_times, setup_errors = time_setup(name, seed, SETUP_BEFORE)
    wl = WORKLOADS[name](seed)
    runner = Runner(wl)
    try:
        wl.warmup()  # the same untimed call the set-up processes make
    except Exception as exc:  # a broken program is reported as failed, not a crash
        runner.errors.append(f"warm-up: {type(exc).__name__}: {exc}")
    runner.attempted += 1
    why = next(w["why"] for w in benchmark_spec()["workloads"] if w["name"] == name)
    report = {"provenance": provenance(wl, why, seed, seconds, trace)}

    calibration = Calibration(wl.CALIBRATION)
    if trace == 0:
        passes, walls = runner.measure(seconds, MIN_PASSES, calibration=calibration)
        extra = wl.after_passes()
        if extra is not None:
            runner.tally(extra)
        metrics = {}
    else:
        passes, walls = runner.measure(seconds / 2.0, TRACED_MIN_PASSES,
                                       calibration=calibration)
        tracer = Tracer()
        wl.tracer = tracer
        with tracer.installed(PACKAGE_MODULES):
            traced, traced_walls = runner.measure(seconds / 2.0, TRACED_MIN_PASSES,
                                                  TRACED_MAX_PASSES, tracer, "traced")
        wl.tracer = NullTracer()
        metrics, probe_mc = run_probes(seed, tracer)
        mc_tallies = probe_mc + [
            (out.counts["inhomogeneous.mc_samples_attempted"],
             out.counts["inhomogeneous.mc_samples_kept"])
            for out in passes + traced if "inhomogeneous.mc_samples_attempted" in out.counts]
        metrics.update(traced_metrics(runner, tracer, traced, traced_walls, walls, mc_tallies))
        report["counts_per_pass"] = metrics.pop("_counts_per_pass")
        report["traced_run_s"] = timing_summary(traced_walls)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{name}-seed{seed}-spans.jsonl.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    more_times, more_errors = time_setup(name, seed, SETUP_AFTER)
    setup_times += more_times
    runner.attempted += SETUP_BEFORE + SETUP_AFTER
    runner.errors += setup_errors + more_errors
    report["setup_s"] = timing_summary(setup_times)
    report["run_s"] = timing_summary(walls)
    report["pass_seconds"] = walls
    report["calibration_s"] = timing_summary(calibration.samples)
    report["fingerprints"] = passes[0].fingerprints
    report["attempted"] = runner.attempted
    report["failed"] = len(runner.errors)
    report["errors"] = runner.errors
    named = {"setup_s": statistics.median(setup_times),
             "run_rel": statistics.fmean(walls) / statistics.fmean(calibration.samples),
             "run_s": statistics.median(walls),
             "peak_rss_mb": peak_rss_mb(),
             "failed_frac": len(runner.errors) / runner.attempted}
    named.update({k: v for k, (v, _unit) in wl.report_metrics(passes).items()})
    if trace == 0:
        metrics.update(named)
    report["end_to_end"] = {k: {"value": named.get(k), "unit": unit}
                            for k, (unit, _wl) in NAMED_END_TO_END.items()}
    return metrics, report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_report(report: dict, result_metrics: dict) -> None:
    prov = report["provenance"]
    print(f"# oatsqueeze benchmark  workload={prov['workload']} seed={prov['seed']} "
          f"trace={prov['trace']} passes={report['run_s']['samples']}")
    print(f"# {prov['why']}")
    for key, entry in report["end_to_end"].items():
        owner = NAMED_END_TO_END[key][1]
        value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        where = f"  (reported by {owner})" if entry["value"] is None else ""
        print(f"  {key:<24} {value:>12} {entry['unit']}{where}")
    rs = report["run_s"]
    tail = rs["tail"]
    tail_text = "no percentile has ten samples beyond it" if tail is None \
        else f"p{tail['percentile']} {tail['value']:.6g} s"
    print(f"  run_s over {rs['samples']} passes: median {rs['median']:.6g} s, {tail_text}")
    cal = report["calibration_s"]
    print(f"  calibration kernel over {cal['samples']} calls: median {cal['median']:.6g} s")
    print(f"  failed operations: {report['failed']} of {report['attempted']}")
    for err in report["errors"][:5]:
        print(f"  FAILED {err}")
    if prov["trace"]:
        print(f"  per-layer metrics: {len(result_metrics)}; spans in {report['spans_file']}")
        for key in sorted(result_metrics):
            if key.endswith("self_ms") or key.startswith("trace."):
                print(f"  {key:<24} {result_metrics[key]:.6g}")
    print(f"  report: {report['report_file']}")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report["report_file"] = str(path.relative_to(ROOT))
    report["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print_report(report, metrics)
    for err in report["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of end-to-end figures."""
    reports = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        with open(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json",
                  encoding="utf-8") as fh:
            reports[name] = json.load(fh)
    print(f"{'metric':<24} {'unit':<6}" + "".join(f"{n:>17}" for n in reports))
    for key, (unit, _owner) in NAMED_END_TO_END.items():
        cells = []
        for rep in reports.values():
            value = rep["end_to_end"][key]["value"]
            cells.append(f"{'n/a' if value is None else format(value, '.6g'):>17}")
        print(f"{key:<24} {unit:<6}" + "".join(cells))
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    prepare_environment()
    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed).warmup()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
