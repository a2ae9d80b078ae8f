"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload has fixed sizes; the seed picks only random inputs (MC master
seed, coupling matrices, and sweep/rate parameters drawn from the ranges
written next to each class).  ``oracle_lindblad`` and ``cli_sweeps`` are
checked against values recorded in ``reference.json``; their parameters
are one of ``VARIANTS`` draws, picked by ``seed % VARIANTS``, so every
seed has a recorded reference.

A pass is a list of operations (one top-level call into a layer each).  An
operation fails when it raises, exits nonzero, or returns a value outside
its check; ``check`` marks failures in place and never raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oatsqueeze import analytic, cli, core, inhomogeneous, oracle, verify
from oatsqueeze.core import DecoherenceRates, EnsembleParams, ProtocolParams

from tracing import NullTracer

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
VARIANTS = 16
# MC mean vs mean_xi2_analytic, in delta-method stderr, per N; the 8 samples
# at N=160 give a heavy-tailed (t, 7 dof) statistic, hence the wider limit
MC_Z_LIMIT = {20: 6.0, 64: 6.0, 160: 10.0}
LINDBLAD_RTOL = 1e-8   # oracle_lindblad moments and gaps vs reference.json
CLI_RTOL = 1e-12       # cli_sweeps numbers vs reference.json
CLI_REFERENCE_STRIDE = 100  # every 100th sweep row (and the last) is recorded


@dataclass
class Op:
    """One top-level call of a pass: its wall time and failure, if any."""

    name: str
    seconds: float = 0.0
    error: str | None = None


@dataclass
class PassOutput:
    ops: list[Op] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def timed(self, name, fn, *args, **kwargs):
        """Call ``fn``, record an Op; return its result, or None if it raised."""
        op = Op(name)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported
            op.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            op.seconds = time.perf_counter() - start

    def op(self, name) -> Op:
        return next(o for o in self.ops if o.name == name)

    def fail(self, name, message) -> None:
        op = self.op(name)
        if op.error is None:
            op.error = message


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def rel_diff(got: float, want: float, floor: float = 0.0) -> float:
    scale = max(abs(want), floor)
    if scale == 0.0:
        return 0.0 if got == want else math.inf
    return abs(got - want) / scale


def load_reference(workload: str, variant: int):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(variant)]


def median_of(passes, fn):
    vals = [fn(p) for p in passes]
    vals = [v for v in vals if v is not None]
    return float(np.median(vals)) if vals else None


class Workload:
    name = ""
    sizes: dict = {}
    # parts of the calibration kernel (run.Calibration) that match the kind
    # of work a pass does, from a profile of the pass
    CALIBRATION: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = NullTracer()

    @functools.cached_property
    def reference(self):
        """Recorded outputs for this workload's parameter variant."""
        return load_reference(self.name, self.variant)

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput) -> None:
        raise NotImplementedError

    def after_passes(self) -> PassOutput | None:
        """Checked operations timed once per untraced run, after its passes."""
        return None

    def report_metrics(self, passes: list[PassOutput]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures: name -> (median value, unit)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class DisorderMC(Workload):
    """``monte_carlo_mean_xi2`` at N = 20, 64, 160.

    Ranges: theta0 = c * N^(-2/3) with c ~ U[0.25, 0.5] per N (inside
    cos(4 theta0) > 0), kappa = 0.1, quadrature angle 8 theta0 + pi/2 (the
    CLI default), unit polarization, MC master seed = the workload seed.
    """

    name = "disorder_mc"
    # per-sample sampling loops in Python; einsum over the pair tensors
    CALIBRATION = ("bytecode", "numpy")
    SAMPLES = {20: 1200, 64: 36, 160: 8}
    KAPPA = 0.1
    sizes = {"n_spins": list(SAMPLES), "samples_per_pass": SAMPLES, "kappa": KAPPA}

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for n, samples in self.SAMPLES.items():
            theta0 = float(rng.uniform(0.25, 0.5)) * n ** (-2.0 / 3.0)
            spec = inhomogeneous.DisorderSpec(theta0=theta0, n_samples=samples,
                                              master_seed=seed, kappa=self.KAPPA)
            self.cases.append((n, spec, 8.0 * theta0 + math.pi / 2.0))

    def warmup(self) -> None:
        for n, spec, theta in self.cases:
            one = dataclasses.replace(spec, n_samples=1)
            inhomogeneous.monte_carlo_mean_xi2(one, n, 1.0, theta)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        for n, spec, theta in self.cases:
            out.values[n] = out.timed(f"mc.n{n}", inhomogeneous.monte_carlo_mean_xi2,
                                      spec, n, 1.0, theta, keep_values=True)
        return out

    def check(self, out: PassOutput) -> None:
        attempted = kept = 0
        for n, spec, theta in self.cases:
            res = out.values[n]
            if res is None:
                continue
            attempted += res.n_samples
            kept += res.n_samples - res.n_rejected
            out.fingerprints[f"mc.n{n}"] = sha256(res.values.tobytes())
            want = inhomogeneous.mean_xi2_analytic(spec, n, theta)
            if not abs(res.mean - want) <= MC_Z_LIMIT[n] * res.stderr:
                out.fail(f"mc.n{n}", f"MC mean {res.mean!r} is more than {MC_Z_LIMIT[n]} "
                                     f"stderr ({res.stderr!r}) from analytic {want!r}")
        out.counts["inhomogeneous.mc_samples_attempted"] = attempted
        out.counts["inhomogeneous.mc_samples_kept"] = kept

    def report_metrics(self, passes):
        return {f"mc_samples_per_s.n{n}": (median_of(
            passes, lambda p, n=n, k=k: k / p.op(f"mc.n{n}").seconds), "1/s")
            for n, k in self.SAMPLES.items()}


# ---------------------------------------------------------------------------

class OracleLindblad(Workload):
    """RK4 master equation: ``oracle.evolve`` at n=8 and the gap table.

    Ranges (drawn for variant seed % 16): J ~ U[0.02, 0.08],
    gamma_par, gamma_perp ~ U[0.01, 0.05], P ~ U[0.8, 1.0]; gap table
    N*J*T ~ U[0.1, 0.3] and (gamma_par+gamma_perp)*T ~ U[0.1, 0.3].
    """

    name = "oracle_lindblad"
    # element-wise RHS terms and reshape copies at n=8; many small calls at n<=6
    CALIBRATION = ("bytecode", "numpy", "copy")
    N = 8
    DT = 0.01
    STEPS = 6
    CHECKPOINT_EVERY = 2
    GAP_NS = (2, 3, 4, 5, 6)
    GAP_DT = 1e-2
    GAP_T_FINAL = 1.0
    sizes = {"n_spins": N, "rk4_steps": STEPS, "dt": DT,
             "checkpoint_every": CHECKPOINT_EVERY, "gap_table_n": list(GAP_NS),
             "gap_table_dt": GAP_DT, "gap_table_t_final": GAP_T_FINAL}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.variant = seed % VARIANTS
        rng = np.random.default_rng([self.variant, 2])
        coupling, gpar, gperp, pol, njt, gst = (
            float(x) for x in rng.uniform([0.02, 0.01, 0.01, 0.8, 0.1, 0.1],
                                          [0.08, 0.05, 0.05, 1.0, 0.3, 0.3]))
        self.params = EnsembleParams(self.N, pol)
        self.rates = DecoherenceRates(gpar, gperp)
        self.proto = ProtocolParams(coupling=coupling, squeeze_time=self.STEPS * self.DT)
        self.cfg = oracle.IntegratorConfig(dt=self.DT, t_final=self.STEPS * self.DT,
                                           checkpoint_every=self.CHECKPOINT_EVERY)
        self.njt, self.gamma_sum_t = njt, gst

    def warmup(self) -> None:
        cfg = oracle.IntegratorConfig(dt=self.DT, t_final=self.DT)
        oracle.evolve(oracle.build_initial_state(self.params), cfg, self.params,
                      self.rates, self.proto)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        rho0 = oracle.build_initial_state(self.params)
        out.values["trajectory"] = out.timed("evolve.n8", oracle.evolve, rho0, self.cfg,
                                             self.params, self.rates, self.proto)
        out.values["gaps"] = out.timed("factorization_gap_table",
                                       oracle.factorization_gap_table, self.GAP_NS,
                                       self.njt, self.gamma_sum_t, self.GAP_T_FINAL,
                                       self.GAP_DT)
        return out

    @staticmethod
    def recorded_values(out: PassOutput) -> dict:
        traj, gaps = out.values["trajectory"], out.values["gaps"]
        moments = None if traj is None else [
            [t, m.mean_x, m.mean_y, m.mean_z, m.xx2, m.yy2, m.xy_sym]
            for t, m in zip(traj.times, traj.moments)]
        return {"moments": moments,
                "gaps": None if gaps is None else [[n, g] for n, g in gaps]}

    def check(self, out: PassOutput) -> None:
        got = self.recorded_values(out)
        want = self.reference
        if got["moments"] is not None:
            out.fingerprints["evolve.n8"] = sha256(json.dumps(got["moments"]))
            worst = max(rel_diff(g, w, 1.0) for gr, wr in zip(got["moments"], want["moments"])
                        for g, w in zip(gr, wr))
            if len(got["moments"]) != len(want["moments"]) or worst > LINDBLAD_RTOL:
                out.fail("evolve.n8", f"checkpoint moments differ from reference by "
                                      f"{worst:.3g} relative (limit {LINDBLAD_RTOL})")
        if got["gaps"] is not None:
            out.fingerprints["factorization_gap_table"] = sha256(json.dumps(got["gaps"]))
            worst = max(rel_diff(g[1], w[1]) for g, w in zip(got["gaps"], want["gaps"]))
            if [g[0] for g in got["gaps"]] != [w[0] for w in want["gaps"]] \
                    or worst > LINDBLAD_RTOL:
                out.fail("factorization_gap_table", f"gaps differ from reference by "
                                                    f"{worst:.3g} relative")

    def report_metrics(self, passes):
        return {"rk4_steps_per_s.n8": (median_of(
            passes, lambda p: self.STEPS / p.op("evolve.n8").seconds), "1/s")}


# ---------------------------------------------------------------------------

class OracleUnitary(Workload):
    """Exact unitaries and pair moments through ``verify.run_suite``.

    variable_coupling (n <= 6, 100 trials) and dephasing (n = 6) take the
    workload seed as their suite seed; uniform_coupling (n <= 9) has no
    random input.
    """

    name = "oracle_unitary"
    # reshape copies and element-wise Pauli row operations on 512 x 512 states
    CALIBRATION = ("numpy", "copy")
    SUITES = (("variable_coupling", {"n": 6, "trials": 100}),
              ("uniform_coupling", {"n": 9}),
              ("dephasing", {"n": 6}))
    # exact states evolved and reduced to moments per pass: one per
    # variable_coupling trial, 2 polarizations x 3 angles per n in 2..9 for
    # uniform_coupling, and the two dense twisted states of dephasing
    STATES = 100 + 2 * 3 * (9 - 1) + 2
    sizes = {"suites": {name: kw for name, kw in SUITES}, "states_per_pass": STATES}

    def warmup(self) -> None:
        oracle.evolve_variable_coupling(np.full((8, 8), 0.05) - np.diag(np.full(8, 0.05)), 0.9)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        for suite, kwargs in self.SUITES:
            out.values[suite] = out.timed(f"verify.{suite}", verify.run_suite, suite,
                                          seed=self.seed, **kwargs)
        return out

    def check(self, out: PassOutput) -> None:
        for suite, _ in self.SUITES:
            report = out.values[suite]
            if report is None:
                continue
            out.fingerprints[f"verify.{suite}"] = sha256(json.dumps(
                [[c["name"], c["value"]] for c in report["checks"]]))
            failing = [c["name"] for c in report["checks"] if not c["passed"]]
            if failing:
                out.fail(f"verify.{suite}", f"checks outside tolerance: {failing}")

    def report_metrics(self, passes):
        return {"unitary_states_per_s": (median_of(
            passes, lambda p: self.STATES / sum(p.op(f"verify.{s}").seconds
                                                for s, _ in self.SUITES)), "1/s")}


# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


class CliSweeps(Workload):
    """In-process ``cli.main`` sweeps; fresh-process runs after the passes.

    Ranges (drawn for variant seed % 16): squeeze-curve n=100,
    P ~ U[0.7, 1], J ~ U[5e-4, 2e-3], rates ~ U[0.01, 0.05];
    metrology n=50, J ~ U[5e-6, 2e-5], rates ~ U[0.01, 0.05],
    B_y ~ U[0.005, 0.02]; optimal-point over n in {20, 50, 100, 200} and
    J0 * {0.5, 1, 2} with J0 ~ U[5e-6, 2e-5], rates ~ U[0.01, 0.03], both
    objectives.
    """

    name = "cli_sweeps"
    # closed forms, argument parsing and CSV formatting, all in Python
    CALIBRATION = ("bytecode",)
    SWEEP_POINTS = 4000
    GRID_N = (20, 50, 100, 200)
    GRID_J = (0.5, 1.0, 2.0)
    OBJECTIVES = ("squeezing", "metrology")
    COLD_RUNS = 5
    sizes = {"squeeze_curve_points": SWEEP_POINTS, "metrology_points": SWEEP_POINTS,
             "optimal_point_grid": {"n": list(GRID_N), "j_scale": list(GRID_J),
                                    "objective": list(OBJECTIVES)},
             "fresh_process_runs_per_run": COLD_RUNS}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.variant = seed % VARIANTS
        u = np.random.default_rng([self.variant, 4]).uniform
        p_sq, p_me, p_op = (float(x) for x in u(0.7, 1.0, 3))
        self.calls = [("squeeze-curve", [
            "squeeze-curve", "--n", "100", "--p", _fmt(p_sq), "--j", _fmt(u(5e-4, 2e-3)),
            "--gamma-par", _fmt(u(0.01, 0.05)), "--gamma-perp", _fmt(u(0.01, 0.05)),
            "--sweep", f"t:0.1:10:{self.SWEEP_POINTS}:log"])]
        self.calls.append(("metrology", [
            "metrology", "--n", "50", "--p", _fmt(p_me), "--j", _fmt(u(5e-6, 2e-5)),
            "--gamma-par", _fmt(u(0.01, 0.05)), "--gamma-perp", _fmt(u(0.01, 0.05)),
            "--b-y", _fmt(u(0.005, 0.02)),
            "--sweep", f"theta_big:0.05:3:{self.SWEEP_POINTS}:lin"]))
        j0, gpar, gperp = float(u(5e-6, 2e-5)), float(u(0.01, 0.03)), float(u(0.01, 0.03))
        for objective in self.OBJECTIVES:
            for n in self.GRID_N:
                for scale in self.GRID_J:
                    self.calls.append((f"optimal-point.{objective}.n{n}.j{scale:g}", [
                        "optimal-point", "--objective", objective, "--n", str(n),
                        "--p", _fmt(p_op), "--j", _fmt(j0 * scale),
                        "--gamma-par", _fmt(gpar), "--gamma-perp", _fmt(gperp)]))
        self.cold_name = "optimal-point.squeezing.n50.j1"
        self.cold_argv = dict(self.calls)[self.cold_name]
        self.rows_per_pass = 2 * self.SWEEP_POINTS + len(self.calls) - 2
        self.cold_seconds: list[float] = []

    @staticmethod
    def _main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return buf.getvalue()

    def _fresh_process(self):
        proc = subprocess.run([sys.executable, "-m", "oatsqueeze", *self.cold_argv],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def warmup(self) -> None:
        self._main(self.cold_argv)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        for name, argv in self.calls:
            out.values[name] = out.timed(name, self._main, argv)
        return out

    def after_passes(self) -> PassOutput:
        """Fresh-process runs of one ``optimal-point`` call.  They are kept
        out of the passes: a process start costs about as much as the rest
        of a pass and spreads far more from run to run."""
        out = PassOutput()
        want = out.timed("in_process", self._main, self.cold_argv)
        for i in range(self.COLD_RUNS):
            got = out.timed(f"fresh_process{i}", self._fresh_process)
            if got is not None and want is not None and got != want:
                out.fail(f"fresh_process{i}", "fresh-process stdout differs from in-process")
        self.cold_seconds = [op.seconds for op in out.ops[1:]]
        return out

    @staticmethod
    def numbers(stdout: str):
        """The checked numbers of a CLI output: every JSON value, or the row
        count and every 100th CSV data row plus the last."""
        if stdout.lstrip().startswith("{"):
            return json.loads(stdout)
        rows = [line for line in stdout.splitlines() if not line.startswith("#")][1:]
        picked = list(range(0, len(rows), CLI_REFERENCE_STRIDE))
        if picked[-1] != len(rows) - 1:
            picked.append(len(rows) - 1)
        return {"rows": len(rows),
                "sampled": [[i, [float(v) for v in rows[i].split(",")]] for i in picked]}

    def recorded_values(self, out: PassOutput) -> dict:
        return {name: None if out.values[name] is None else self.numbers(out.values[name])
                for name, _ in self.calls}

    def check(self, out: PassOutput) -> None:
        got = self.recorded_values(out)
        for name, _ in self.calls:
            if got[name] is None:
                continue
            out.fingerprints[name] = sha256(out.values[name])
            worst = _compare(got[name], self.reference[name])
            if worst > CLI_RTOL:
                out.fail(name, f"output differs from reference by {worst:.3g} relative")

    def report_metrics(self, passes):
        names = [name for name, _ in self.calls]
        return {
            "sweep_points_per_s": (median_of(passes, lambda p: self.rows_per_pass / sum(
                p.op(n).seconds for n in names)), "1/s"),
            "cli_cold_start_s": (statistics.median(self.cold_seconds)
                                 if self.cold_seconds else None, "s"),
        }


def _compare(got, want) -> float:
    """Worst relative difference between two parsed outputs (inf on mismatch)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return math.inf
        return max((_compare(got[k], want[k]) for k in want), default=0.0)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return math.inf
        return max((_compare(g, w) for g, w in zip(got, want)), default=0.0)
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return math.inf
        return rel_diff(float(got), float(want))
    return 0.0 if got == want else math.inf


WORKLOADS = {cls.name: cls for cls in (DisorderMC, OracleLindblad, OracleUnitary, CliSweeps)}

# the oatsqueeze module objects whose public functions the tracer wraps
PACKAGE_MODULES = {
    "analytic": analytic,
    "inhomogeneous": inhomogeneous,
    "oracle": oracle,
    "verify": verify,
    "cli": cli,
    "core": core,
}
