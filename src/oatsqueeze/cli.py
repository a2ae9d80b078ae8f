"""Command-line front end: parameter sweeps, optimum finding, oracle
verification suites and disorder Monte Carlo runs.

Subcommands: squeeze-curve, optimal-point, metrology, verify, inhomo-mc.
Output is plot-ready CSV ('#'-prefixed parameter-echo header, 17
significant digits) or machine-readable JSON; every run is deterministic
for a fixed configuration and seed.  Exit codes: 0 success, 1 validation
error, 2 numerical/statistical failure.

Flags may also be supplied through a flat config file (--config) of
``key = value`` lines whose keys mirror the long flag names; command-line
flags take precedence.  OAT_SEED in the environment supplies the default
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analytic
from .core import (
    DecoherenceRates,
    DomainError,
    EnsembleParams,
    NumericalError,
    ProtocolParams,
    ResourceError,
    ValidationError,
    validate,
)
from .inhomogeneous import (
    DisorderSpec,
    mc_summary_json,
    mc_to_csv,
    mean_xi2_analytic,
    monte_carlo_mean_xi2,
    suppression_report,
)
from .verify import SUITES, run_suite, suite_inputs, suite_sizes

FMT = "{:.17g}"
# flags and config keys that no verify suite reads; verify names any given
_VERIFY_UNREAD = ("p", "j", "gamma_par", "gamma_perp", "t", "tau", "b_y", "theta0",
                  "theta", "kappa", "alpha", "samples", "sweep", "format",
                  "objective", "summary_out")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment; keys mirror flags."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError([f"{path}:{lineno}: expected 'key = value'"])
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _config_path(argv) -> str | None:
    """The PATH of --config PATH or --config=PATH ('' if missing); None without one."""
    for i, arg in enumerate(argv):
        if arg.startswith("--config="):
            return arg[len("--config="):]
        if arg == "--config":
            return argv[i + 1] if i + 1 < len(argv) else ""
    return None


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
    if not (lo < hi):
        raise ValidationError(["sweep lo < hi"])
    if scale == "lin":
        vals = [lo + (hi - lo) * i / (pts - 1) for i in range(pts)]
    elif scale == "log":
        if lo <= 0.0:
            raise ValidationError(["log sweep requires lo > 0"])
        ratio = math.log(hi / lo)
        vals = [lo * math.exp(ratio * i / (pts - 1)) for i in range(pts)]
    else:
        raise ValidationError(["sweep scale must be lin or log"])
    return name.replace("-", "_"), vals


def _echo_lines(subcommand: str, args, pairs) -> list[str]:
    items = " ".join(f"{k}={v}" for k, v in pairs)
    return [f"# oatsqueeze {subcommand}", f"# {items}"]


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows, header, echo) -> str:
    lines = list(echo)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(FMT.format(v) for v in row))
    return "\n".join(lines) + "\n"


def _sweep_payload(rows, header, echo, fmt) -> str:
    if fmt == "json":
        return json.dumps({"columns": header, "rows": rows}, indent=2,
                          sort_keys=True) + "\n"
    return _csv(rows, header, echo)


def _bundle(args):
    params = EnsembleParams(n_spins=args.n, polarization=args.p)
    rates = DecoherenceRates(gamma_par=args.gamma_par, gamma_perp=args.gamma_perp)
    squeeze_time = args.t if args.t is not None else 1.0
    proto = ProtocolParams(
        coupling=args.j,
        squeeze_time=squeeze_time,
        signal_field=args.b_y,
        total_time=args.tau,
    )
    return validate(params, rates, proto)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_squeeze_curve(args) -> int:
    sweep_name, values = _parse_sweep(args.sweep or "t:0.1:10:50:log")
    if sweep_name != "t":
        raise ValidationError(["squeeze-curve sweeps over t"])
    params, rates, proto = _bundle(args)
    if proto.coupling <= 0.0:
        raise ValidationError(["coupling > 0 required for a squeezing curve (--j)"])
    gs = rates.gamma_sum
    rows = []
    for t in values:
        theta_big = 2.0 * gs * t
        xi2_dec = analytic.xi2_min_decoherence(params.n_spins, params.polarization,
                                               rates, proto.coupling, t)
        xi2_pure = analytic.xi2_min_approx(params.n_spins, params.polarization,
                                           proto.coupling, t)
        p_eff = analytic.effective_polarization(params.polarization, rates, t)
        _, theta_min = analytic.xi2_min_finite_polarization(
            params.n_spins, p_eff, proto.coupling * t)
        rows.append([t, theta_big, xi2_dec, xi2_pure, p_eff, theta_min])
    echo = _echo_lines("squeeze-curve", args, [
        ("n", params.n_spins), ("p", params.polarization), ("j", proto.coupling),
        ("gamma_par", rates.gamma_par), ("gamma_perp", rates.gamma_perp),
        ("sweep", args.sweep or "t:0.1:10:50:log"),
    ])
    header = ["t", "theta_big", "xi2_decoherence", "xi2_pure",
              "effective_polarization", "theta_min_angle"]
    _write_text(args.out, _sweep_payload(rows, header, echo, args.format))
    return 0


def cmd_optimal_point(args) -> int:
    params, rates, proto = _bundle(args)
    n, p = params.n_spins, params.polarization
    payload = {
        "objective": args.objective,
        "reference_constants": {"theta_min": 2.0 / 3.0, "theta_max": 0.727},
    }
    gs = rates.gamma_sum
    if args.objective == "squeezing":
        if proto.coupling <= 0.0:
            raise ValidationError(["coupling > 0 required for a squeezing optimum"])
        rep = analytic.squeezing_report(n, p, rates, proto.coupling)
        theta_star = rep.optimal_time_or_theta if gs > 0.0 else None
        t_star = rep.optimal_time_or_theta / (2.0 * gs) if gs > 0.0 \
            else rep.optimal_time_or_theta
        payload.update({
            "theta_star": theta_star,
            "t_star": t_star,
            "xi2_min": rep.xi2_min,
            "theta_min_angle": rep.theta_min,
            "effective_polarization": rep.effective_polarization,
            "regime_flag": rep.regime_flag,
        })
    elif args.objective == "metrology":
        if gs <= 0.0:
            raise ValidationError(["gamma_par + gamma_perp > 0 required for metrology"])
        if proto.coupling <= 0.0:
            raise ValidationError(["coupling > 0 required for metrology"])
        theta, sens, flag = analytic.max_sensitivity(n, p, rates, proto.coupling)
        payload.update({"theta_star": theta, "t_star": theta / (2.0 * gs),
                        "sensitivity_star": sens, "regime_flag": flag})
    else:
        raise ValidationError(["--objective must be squeezing or metrology"])
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_metrology(args) -> int:
    sweep_name, values = _parse_sweep(args.sweep or "theta_big:0.05:3:50:lin")
    if sweep_name not in ("theta_big", "t"):
        raise ValidationError(["metrology sweeps over theta_big or t"])
    params, rates, proto = _bundle(args)
    gs = rates.gamma_sum
    if gs <= 0.0:
        raise ValidationError(["gamma_par + gamma_perp > 0 required for metrology"])
    if proto.coupling <= 0.0:
        raise ValidationError(["coupling > 0 required for metrology"])
    n, p = params.n_spins, params.polarization
    thetas = [v if sweep_name == "theta_big" else 2.0 * gs * v for v in values]
    derived = analytic.sensitivity_curve(thetas, n, p, rates, proto.coupling,
                                         analytic.SENSITIVITY_COEFF_DERIVED)
    reference = analytic.sensitivity_curve(thetas, n, p, rates, proto.coupling,
                                           analytic.SENSITIVITY_COEFF_REFERENCE)
    rows = []
    for point, ref in zip(derived, reference):
        t = point.theta_big / (2.0 * gs)
        tau = args.tau if args.tau is not None else t
        if tau < t:
            raise ValidationError(["total_time >= squeeze_time along the sweep"])
        snr = analytic.signal_to_noise(
            params, rates,
            ProtocolParams(coupling=proto.coupling, squeeze_time=t,
                           signal_field=proto.signal_field, total_time=tau))
        rows.append([point.theta_big, t, snr, point.sensitivity, ref.sensitivity])
    echo = _echo_lines("metrology", args, [
        ("n", n), ("p", p), ("j", proto.coupling),
        ("gamma_par", rates.gamma_par), ("gamma_perp", rates.gamma_perp),
        ("b_y", proto.signal_field), ("tau", args.tau),
        ("sweep", args.sweep or "theta_big:0.05:3:50:lin"),
    ])
    header = ["theta_big", "t", "snr", "sensitivity_c_derived", "sensitivity_c_reference"]
    _write_text(args.out, _sweep_payload(rows, header, echo, args.format))
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.n is not None:
        kwargs["n"] = args.n
    if args.n_range:
        try:
            lo, hi = (int(x) for x in args.n_range.split(".."))
        except ValueError:
            raise ValidationError(["--n-range expects lo..hi"])
        kwargs["n_range"] = range(lo, hi + 1)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    ignored = [key for key in kwargs if not any(key in suite_inputs(s) for s in suites)]
    ignored += [key for key in _VERIFY_UNREAD if getattr(args, key) is not None]
    notes = []
    if ignored:
        flags = ", ".join("--" + key.replace("_", "-") for key in ignored)
        notes.append(f"does not read {flags}; ignored")
    clamped = []
    for name in suites if "n" in kwargs else ():
        sizes = suite_sizes(name, args.n)
        if any(size != args.n for size in sizes):
            clamped.append(f"{name} runs n={', '.join(map(str, sizes))}")
    if clamped:
        notes.append(f"--n {args.n} is clamped ({'; '.join(clamped)})")
    if notes:
        print(f"note: verify {args.suite} {'; '.join(notes)}", file=sys.stderr)
    kwargs.setdefault("seed", int(os.environ.get("OAT_SEED", "0")))
    reports = [run_suite(name, **kwargs) for name in suites]
    payload = reports[0] if len(reports) == 1 else {
        "suite": "all", "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.out:  # keep a terse console summary when writing to a file
        for rep in reports:
            status = "pass" if rep["passed"] else "FAIL"
            print(f"{rep['suite']}: {status}")
    if not payload["passed"]:
        failing = [c["name"] for r in reports for c in r["checks"] if not c["passed"]]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


def cmd_inhomo_mc(args) -> int:
    if args.n is None or args.n < 2:
        raise ValidationError(["n_spins >= 2"])
    spec = DisorderSpec(theta0=args.theta0, n_samples=args.samples,
                        master_seed=args.seed, alpha=args.alpha, kappa=args.kappa)
    theta = args.theta if args.theta is not None else 8.0 * args.theta0 + math.pi / 2.0
    result = monte_carlo_mean_xi2(spec, args.n, args.p, theta, keep_values=True)
    analytic_mean = mean_xi2_analytic(spec, args.n, theta)
    pair, single, negligible = suppression_report(spec, args.n)
    z = 0.0 if result.stderr == 0.0 else (result.mean - analytic_mean) / result.stderr
    summary = mc_summary_json(result, extra={
        "analytic_mean": analytic_mean,
        "z_score": z,
        "suppression_factors": {"pair": pair, "single": single,
                                "negligible": negligible},
        "theta": theta,
        "theta0": args.theta0,
        "n": args.n,
    }) + "\n"
    if args.out:
        mc_to_csv(result, args.out)
        _write_text(args.summary_out or args.out + ".summary.json", summary)
    else:
        sys.stdout.write(summary)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_shared_flags(parser: argparse.ArgumentParser, default_n=None) -> None:
    # fresh actions per subparser: argparse parents= shares action objects,
    # which lets one subcommand's defaults leak into another's
    parser.add_argument("--n", type=int, default=default_n, help="spin count")
    parser.add_argument("--p", type=float, default=1.0, help="initial polarization")
    parser.add_argument("--j", type=float, default=0.0, help="twisting strength [1/time]")
    parser.add_argument("--gamma-par", type=float, default=0.0, dest="gamma_par")
    parser.add_argument("--gamma-perp", type=float, default=0.0, dest="gamma_perp")
    parser.add_argument("--t", type=float, default=None, help="squeezing time")
    parser.add_argument("--tau", type=float, default=None, help="total measurement time")
    parser.add_argument("--b-y", type=float, default=0.0, dest="b_y", help="probe field")
    parser.add_argument("--theta0", type=float, default=0.05, help="mean pair angle")
    parser.add_argument("--theta", type=float, default=None, help="quadrature angle")
    parser.add_argument("--kappa", type=float, default=None, help="fractional disorder")
    parser.add_argument("--alpha", type=float, default=None, help="disorder concentration")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("OAT_SEED", "0")))
    parser.add_argument("--sweep", type=str, default=None,
                        help="param:lo:hi:points:lin|log")
    parser.add_argument("--out", type=str, default=None, help="output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oatsqueeze",
        description="Twisting-based spin squeezing and metrology under relaxation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sq = sub.add_parser("squeeze-curve", help="squeezing vs time sweep (CSV)")
    _add_shared_flags(sq, default_n=100)
    sq.set_defaults(func=cmd_squeeze_curve)

    op = sub.add_parser("optimal-point",
                        help="optimal squeezing duration or sensitivity (JSON)")
    _add_shared_flags(op, default_n=100)
    op.add_argument("--objective", choices=("squeezing", "metrology"),
                    default="squeezing")
    op.set_defaults(func=cmd_optimal_point)

    me = sub.add_parser("metrology",
                        help="signal-to-noise and sensitivity sweep (CSV)")
    _add_shared_flags(me, default_n=100)
    me.set_defaults(func=cmd_metrology)

    ve = sub.add_parser("verify",
                        help="run an oracle verification suite (JSON report)")
    ve.add_argument("suite", choices=SUITES + ("all",))
    _add_shared_flags(ve)
    ve.add_argument("--n-range", type=str, default=None, dest="n_range",
                    help="lo..hi spin range for the factorization table")
    # None = not given: cmd_verify names a flag the suite does not read, and
    # a seed falls back to OAT_SEED or 0
    ve.set_defaults(func=cmd_verify, seed=None, **dict.fromkeys(_VERIFY_UNREAD))

    mc = sub.add_parser("inhomo-mc",
                        help="disorder Monte Carlo (CSV + JSON summary)")
    _add_shared_flags(mc, default_n=20)
    mc.add_argument("--summary-out", type=str, default=None, dest="summary_out")
    mc.set_defaults(func=cmd_inhomo_mc)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # first pass only to locate --config; defaults then come from the file
    path = _config_path(argv)
    if path is not None:
        if not path:
            print("error: --config requires a path", file=sys.stderr)
            return 1
        try:
            file_values = _read_config(path)
        except (OSError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        known = {a.dest for a in build_parser()._actions}
        for sub_action in build_parser()._subparsers._group_actions:
            for sp in sub_action.choices.values():
                known |= {a.dest for a in sp._actions}
        bad = set(file_values) - known
        if bad:
            print(f"error: unknown config keys: {sorted(bad)}", file=sys.stderr)
            return 1
        converted = {}
        for key, value in file_values.items():
            if key in ("sweep", "out", "format", "summary_out", "objective",
                       "n_range", "config", "suite", "subcommand"):
                converted[key] = value
                continue
            kind = int if key in ("n", "samples", "seed") else float
            try:
                converted[key] = kind(value)
            except ValueError:
                print(f"error: config key {key} = {value!r} is not {kind.__name__}",
                      file=sys.stderr)
                return 1
        for sub_action in parser._subparsers._group_actions:
            for sp in sub_action.choices.values():
                sp.set_defaults(**converted)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, ResourceError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
