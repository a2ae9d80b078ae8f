"""Command-line front end: parameter sweeps, optimum finding, oracle
verification suites and disorder Monte Carlo runs.

Subcommands: squeeze-curve, optimal-point, metrology, verify, inhomo-mc.
This module formats and writes every artifact; the numerics modules
return values and write nothing.  A sweep is plot-ready CSV (a
'#'-prefixed parameter echo, then the header) or JSON; the inhomo-mc
per-sample CSV ends in a '# summary' row; reports and summaries are JSON.
Every CSV number has 17 significant digits through one format,
``NUMBER_FORMAT``, which a table applies through one template for all its
rows; every run is deterministic for a fixed configuration and seed.  The
closed-form subcommands import no numpy: ``verify`` and ``inhomo-mc``
import their modules when they run.  Exit codes: 0 success,
1 validation error, 2 numerical/statistical failure.

The parser is built once per process: a parse stores nothing in it, since
each returns a fresh namespace holding only the flags given, and a parse
error raises instead of exiting.

Every subcommand accepts every flag and names, in one stderr line, each
given flag it does not read.  Flags may also be supplied through a flat
config file (--config) of ``key = value`` lines whose keys mirror the long
flag names; each value is parsed like its flag, and command-line flags
take precedence.  OAT_SEED in the environment supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from . import analytic
from .core import (
    VERIFY_SUITES,
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
    ProtocolParams,
    ResourceError,
    ValidationError,
    theta_big,
    validate,
)


# ---------------------------------------------------------------------------
# flags and configuration
# ---------------------------------------------------------------------------

def _spin_range(text: str) -> range:
    """lo..hi -> range(lo, hi + 1)."""
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError("expects lo..hi") from None
    return range(lo, hi + 1)


def _seed(text: str) -> int:
    """A master seed; numpy takes only integers >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expects an integer >= 0, not {text!r}")
    return int(text)


# flag -> (type or choices, default, help); a config key is parsed like the
# flag of the same name.  --n defaults per subcommand (SUBCOMMANDS) and
# --seed to OAT_SEED, else 0.
FLAGS = {
    "n": (int, None, "spin count"),
    "p": (float, 1.0, "initial polarization"),
    "j": (float, 0.0, "twisting strength [1/time]"),
    "gamma_par": (float, 0.0, "longitudinal relaxation rate [1/time]"),
    "gamma_perp": (float, 0.0, "transverse relaxation rate [1/time]"),
    "tau": (float, None, "total measurement time"),
    "b_y": (float, 0.0, "probe field [1/time]"),
    "theta0": (float, 0.05, "mean pair angle"),
    "theta": (float, None, "quadrature angle"),
    "kappa": (float, None, "fractional disorder"),
    "alpha": (float, None, "disorder concentration"),
    "samples": (int, 1000, "Monte Carlo sample count"),
    "seed": (_seed, None, "master seed"),
    "sweep": (str, None, "param:lo:hi:points:lin|log"),
    "format": (("csv", "json"), "csv", "sweep output format"),
    "objective": (("squeezing", "metrology"), "squeezing", "optimal-point target"),
    "n_range": (_spin_range, None, "lo..hi spin range for verify factorization"),
    "out": (str, None, "output path"),
    "summary_out": (str, None, "inhomo-mc JSON summary path"),
    "config": (str, None, "flat key = value config file"),
}


def _config_flags(path: str) -> list[str]:
    """A flat ``key = value`` file as ``--key=value`` arguments; '#' starts a comment."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError([f"{path}:{lineno}: expected 'key = value'"])
            key, value = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _env_seed() -> int:
    try:
        return _seed(os.environ.get("OAT_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValidationError([f"OAT_SEED {exc}"]) from None


# the longest sweep, refused before any point is built: 250 times the
# benchmark's 4000-point sweeps, and a few hundred MB of rows and text
MAX_SWEEP_POINTS = 10 ** 6


def _parse_sweep(text: str):
    """param:lo:hi:points:lin|log -> (param, values list)."""
    parts = text.split(":")
    if len(parts) != 5:
        raise ValidationError(["--sweep expects param:lo:hi:points:lin|log"])
    name, lo_s, hi_s, pts_s, scale = parts
    try:
        lo, hi, pts = float(lo_s), float(hi_s), int(pts_s)
    except ValueError:
        raise ValidationError(["--sweep bounds must be numeric and points an integer"])
    if pts < 2:
        raise ValidationError(["sweep points >= 2"])
    if pts > MAX_SWEEP_POINTS:
        raise ResourceError(f"--sweep asks for {pts} points, above "
                            f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(["--sweep bounds must be finite"])
    if not (lo < hi):
        raise ValidationError(["sweep lo < hi"])
    try:
        if scale == "lin":
            vals = [lo + (hi - lo) * i / (pts - 1) for i in range(pts)]
        elif scale == "log":
            if lo <= 0.0:
                raise ValidationError(["log sweep requires lo > 0"])
            ratio = math.log(hi / lo)
            vals = [lo * math.exp(ratio * i / (pts - 1)) for i in range(pts)]
        else:
            raise ValidationError(["sweep scale must be lin or log"])
    except OverflowError:  # exp past the largest double
        vals = [math.inf]
    # both formulas are monotone in i, so the sweep is finite if its last point is
    if not math.isfinite(vals[-1]):
        raise ValidationError([f"--sweep {text} has points beyond the largest double"])
    return name.replace("-", "_"), vals


def _beyond_a_double(where: str, exc: ArithmeticError) -> NumericalError:
    """The error of a sweep row or optimum ``where`` whose closed forms leave the
    range of a double; the reason is the message alone, not the errno of ``**``."""
    return NumericalError(f"{where} gives a value beyond a double ({exc.args[-1]})")


def _outside_the_domain(name: str, value: float, exc: DomainError) -> ValidationError:
    """The error of a sweep row outside the closed forms' domain."""
    return ValidationError([f"sweep {name}={value!r} lies outside the closed forms' "
                            f"domain ({exc})"])


def _bundle(args, signal_field=0.0, metrology=False):
    """The validated ensemble, rates and coupling.  Every subcommand sweeps or
    optimizes the squeezing time itself, so the bundle's squeeze time is 1.
    Every closed form the subcommands evaluate needs a coupling; a
    ``metrology`` bundle also needs rates, checked first."""
    params = EnsembleParams(n_spins=args.n, polarization=args.p)
    rates = DecoherenceRates(gamma_par=args.gamma_par, gamma_perp=args.gamma_perp)
    proto = ProtocolParams(coupling=args.j, squeeze_time=1.0, signal_field=signal_field)
    bundle = validate(params, rates, proto)
    if metrology and rates.gamma_sum <= 0.0:
        raise ValidationError(["gamma_par + gamma_perp > 0 required for metrology"])
    if proto.coupling <= 0.0:
        raise ValidationError(["coupling > 0 required (--j)"])
    return bundle


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

# a CSV number: 17 significant digits, which round-trip a double
NUMBER_FORMAT = "%.17g"


def _number(value) -> str:
    """One CSV number, formatted as every cell of a ``_csv`` row."""
    return NUMBER_FORMAT % value


def _csv(header, rows) -> str:
    """The header line, then one line per row, formatted through one
    template for the whole table."""
    rows = list(rows)
    table = (",".join([NUMBER_FORMAT] * len(header)) + "\n") * len(rows)
    return ",".join(header) + "\n" + table % tuple(itertools.chain.from_iterable(rows))


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _mc_csv(result) -> str:
    """Per-sample CSV (sample_index, xi2) of a run made with ``keep_values=True``,
    with a trailing summary row.

    Rows carry the true sample index, so rejected samples leave gaps.
    """
    rejected = set(result.rejected_indices)
    kept = (i for i in range(result.n_samples) if i not in rejected)
    return _csv(["sample_index", "xi2"], zip(kept, result.values)) + (
        f"# summary mean={_number(result.mean)} stderr={_number(result.stderr)} "
        f"n_rejected={result.n_rejected} seed={result.master_seed}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_squeeze_curve(args) -> int:
    sweep = args.sweep or "t:0.1:10:50:log"
    sweep_name, values = _parse_sweep(sweep)
    if sweep_name != "t":
        raise ValidationError(["squeeze-curve sweeps over t"])
    params, rates, proto = _bundle(args)
    n, p, j = params.n_spins, params.polarization, proto.coupling
    rows = []
    t = values[0]  # a curve that cannot be built is refused at the first row
    try:
        xi2_dec = analytic._decoherence_curve(n, p, rates, j)
        xi2_pure = analytic._decoherence_curve(n, p, DecoherenceRates(), j)
        for t in values:
            dec, pure = xi2_dec(t), xi2_pure(t)
            p_eff = analytic.effective_polarization(p, rates, t)
            _, theta_min = analytic.xi2_min_finite_polarization(n, p_eff, j * t)
            rows.append([t, theta_big(rates, t), dec, pure, p_eff, theta_min])
    except DomainError as exc:
        raise _outside_the_domain("t", t, exc) from None
    except ArithmeticError as exc:
        raise _beyond_a_double(f"sweep t={t!r}", exc) from None
    header = ["t", "theta_big", "xi2_decoherence", "xi2_pure",
              "effective_polarization", "theta_min_angle"]
    if args.format == "json":
        text = _json({"columns": header, "rows": rows})
    else:
        text = ("# oatsqueeze squeeze-curve\n"
                f"# n={params.n_spins} p={params.polarization} j={proto.coupling} "
                f"gamma_par={rates.gamma_par} gamma_perp={rates.gamma_perp} "
                f"sweep={sweep}\n" + _csv(header, rows))
    _write(args.out, text)
    return 0


def cmd_optimal_point(args) -> int:
    params, rates, proto = _bundle(args, metrology=args.objective == "metrology")
    n, p = params.n_spins, params.polarization
    payload = {
        "objective": args.objective,
        "reference_constants": {key: analytic.REFERENCE_CONSTANTS[key]
                                for key in ("theta_min", "theta_max")},
    }
    j = proto.coupling
    try:
        if args.objective == "squeezing":
            rep = analytic.squeezing_report(n, p, rates, j)
            payload.update({
                "theta_star": rep.theta_star,
                "t_star": rep.t_star,
                "xi2_min": rep.xi2_min,
                "theta_min_angle": rep.theta_min,
                "effective_polarization": rep.effective_polarization,
                "regime_flag": rep.regime_flag,
            })
        else:
            theta, sens, flag = analytic.max_sensitivity(n, p, rates, j)
            payload.update({"theta_star": theta, "t_star": theta / (2.0 * rates.gamma_sum),
                            "sensitivity_star": sens, "regime_flag": flag})
    except ArithmeticError as exc:
        raise _beyond_a_double(
            f"optimal-point --objective {args.objective} at n={n} p={p!r} j={j!r} "
            f"gamma_par={rates.gamma_par!r} gamma_perp={rates.gamma_perp!r}", exc) from None
    _write(args.out, _json(payload))
    return 0


def cmd_metrology(args) -> int:
    sweep = args.sweep or "theta_big:0.05:3:50:lin"
    sweep_name, values = _parse_sweep(sweep)
    if sweep_name not in ("theta_big", "t"):
        raise ValidationError(["metrology sweeps over theta_big or t"])
    params, rates, proto = _bundle(args, args.b_y, metrology=True)
    if args.tau is not None and not math.isfinite(args.tau):
        raise ValidationError(["--tau must be finite"])
    n, p, j = params.n_spins, params.polarization, proto.coupling
    two_gs = 2.0 * rates.gamma_sum
    rows = []
    value = values[0]  # a curve that cannot be built is refused at the first row
    try:
        derived = analytic._sensitivity_curve(n, p, rates, j)
        reference = analytic._sensitivity_curve(n, p, rates, j,
                                                analytic.SENSITIVITY_COEFF_REFERENCE)
        snr = analytic._snr_curve(params, rates, j, proto.signal_field)
        for value in values:
            if sweep_name == "theta_big":
                big, t = value, value / two_gs
            else:
                big, t = theta_big(rates, value), value
            sens_derived, sens_reference = derived(big), reference(big)
            tau = args.tau if args.tau is not None else t
            if tau < t:
                raise ValidationError(["total_time >= squeeze_time along the sweep"])
            rows.append([big, t, snr(t, tau), sens_derived, sens_reference])
    except DomainError as exc:
        raise _outside_the_domain(sweep_name, value, exc) from None
    except ArithmeticError as exc:
        raise _beyond_a_double(f"sweep {sweep_name}={value!r}", exc) from None
    header = ["theta_big", "t", "snr", "sensitivity_c_derived", "sensitivity_c_reference"]
    if args.format == "json":
        text = _json({"columns": header, "rows": rows})
    else:
        text = ("# oatsqueeze metrology\n"
                f"# n={n} p={p} j={proto.coupling} gamma_par={rates.gamma_par} "
                f"gamma_perp={rates.gamma_perp} b_y={proto.signal_field} "
                f"tau={args.tau} sweep={sweep}\n" + _csv(header, rows))
    _write(args.out, text)
    return 0


def _suites(suite: str) -> list[str]:
    return list(VERIFY_SUITES) if suite == "all" else [suite]


def cmd_verify(args) -> int:
    from .verify import run_suite  # numpy: imported only by the runs that need it

    kwargs = {key: getattr(args, key) for key in ("n", "seed", "n_range")
              if getattr(args, key, None) is not None}
    suites = _suites(args.suite)
    reports = [run_suite(name, **kwargs) for name in suites]
    # wall time goes to the console only, so a rerun writes the same bytes
    elapsed = [rep.pop("elapsed_s") for rep in reports]
    payload = reports[0] if len(reports) == 1 else {
        "suite": "all", "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }
    _write(args.out, _json(payload))
    if args.out:  # keep a terse console summary when writing to a file
        for rep, seconds in zip(reports, elapsed):
            status = "pass" if rep["passed"] else "FAIL"
            print(f"{rep['suite']}: {status} in {seconds:.3g} s")
    if not payload["passed"]:
        failing = [c["name"] for r in reports for c in r["checks"] if not c["passed"]]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


def cmd_inhomo_mc(args) -> int:
    from .inhomogeneous import (
        DisorderSpec,
        _mc_plan,
        mean_xi2_analytic,
        monte_carlo_mean_xi2,
        suppression_report,
    )

    spec = DisorderSpec(theta0=args.theta0, n_samples=args.samples,
                        master_seed=args.seed, alpha=args.alpha, kappa=args.kappa)
    theta = args.theta if args.theta is not None else 8.0 * args.theta0 + math.pi / 2.0
    # the run's own refusals, then a degenerate average, fail before any draw
    _mc_plan(spec, args.n, args.p, theta)
    analytic_mean = mean_xi2_analytic(spec, args.n, theta)
    result = monte_carlo_mean_xi2(spec, args.n, args.p, theta, keep_values=True)
    pair, single, negligible = suppression_report(spec, args.n)
    z = 0.0 if result.stderr == 0.0 else (result.mean - analytic_mean) / result.stderr
    summary = _json(result.summary() | {
        "analytic_mean": analytic_mean,
        "z_score": z,
        "suppression_factors": {"pair": pair, "single": single,
                                "negligible": negligible},
        "theta": theta,
        "theta0": args.theta0,
        "n": args.n,
    })
    if args.out:
        _write(args.out, _mc_csv(result))
    _write(args.summary_out or (args.out and args.out + ".summary.json"), summary)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_CLOSED_FORM = ("n", "p", "j", "gamma_par", "gamma_perp")

# subcommand -> (handler, default --n, help, the flags it reads besides --config)
SUBCOMMANDS = {
    "squeeze-curve": (cmd_squeeze_curve, 100, "squeezing vs time sweep (CSV)",
                      _CLOSED_FORM + ("sweep", "format", "out")),
    "optimal-point": (cmd_optimal_point, 100,
                      "optimal squeezing duration or sensitivity (JSON)",
                      _CLOSED_FORM + ("objective", "out")),
    "metrology": (cmd_metrology, 100, "signal-to-noise and sensitivity sweep (CSV)",
                  _CLOSED_FORM + ("b_y", "tau", "sweep", "format", "out")),
    "verify": (cmd_verify, None, "run an oracle verification suite (JSON report)",
               ("n", "seed", "n_range", "out")),
    "inhomo-mc": (cmd_inhomo_mc, 20, "disorder Monte Carlo (CSV + JSON summary)",
                  ("n", "p", "theta0", "theta", "kappa", "alpha", "samples", "seed",
                   "out", "summary_out")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one line with exit code 1, not usage and 2."""

    def error(self, message):
        raise ValidationError([message])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after it."""
    # SUPPRESS: the namespace holds only the flags that were given.  Every
    # subparser shares these actions, which is safe because none sets defaults.
    flags = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    for key, (kind, _, flag_help) in FLAGS.items():
        check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        flags.add_argument("--" + key.replace("_", "-"), help=flag_help, **check)
    parser = _Parser(
        prog="oatsqueeze",
        description="Twisting-based spin squeezing and metrology under relaxation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, help_text, _) in SUBCOMMANDS.items():
        # flags and config keys are spelled in full: --t is not --tau
        sp = sub.add_parser(name, help=help_text, parents=[flags], allow_abbrev=False)
        if name == "verify":
            sp.add_argument("suite", choices=VERIFY_SUITES + ("all",))
    return parser


def _parse_with_config(parser, argv, args):
    """Parse again with the config file's entries as flags ahead of argv's own."""
    split = argv.index(args.subcommand) + 1
    file_flags = _config_flags(args.config)
    try:
        return parser.parse_args(argv[:split] + file_flags + argv[split:])
    except ValidationError as exc:
        raise ValidationError([f"{args.config}: {exc}"]) from None


def _verify_scope(args, reads):
    """verify's note label, the flags its suites read, and the note on an
    --n they clamp."""
    from .verify import suite_inputs, suite_sizes

    suites = _suites(args.suite)
    reads = tuple(key for key in reads
                  if key == "out" or any(key in suite_inputs(s) for s in suites))
    clamped = []
    for name in suites if "n" in args else ():
        sizes = suite_sizes(name, args.n)
        if any(size != args.n for size in sizes):
            clamped.append(f"{name} runs n={', '.join(map(str, sizes))}")
    notes = [f"--n {args.n} is clamped ({'; '.join(clamped)})"] if clamped else []
    return f"verify {args.suite}", reads, notes


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "config" in args:
            args = _parse_with_config(parser, argv, args)
        handler, default_n, _, reads = SUBCOMMANDS[args.subcommand]
        label, notes = args.subcommand, []
        if label == "verify":
            label, reads, notes = _verify_scope(args, reads)
        unread = ["--" + key.replace("_", "-") for key in FLAGS
                  if key in args and key not in reads and key != "config"]
        if unread:
            notes.insert(0, f"does not read {', '.join(unread)}; ignored")
        defaults = {key: spec[1] for key, spec in FLAGS.items()} | {"n": default_n}
        for key in reads:
            if key not in args:
                setattr(args, key, _env_seed() if key == "seed" else defaults[key])
        rc = handler(args)
    except (ValidationError, ResourceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NumericalError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    if rc == 0 and notes:  # a failed run prints only its reason
        print(f"note: {label} {'; '.join(notes)}", file=sys.stderr)
    return rc


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
