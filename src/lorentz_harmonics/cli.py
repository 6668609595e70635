"""Command-line front end.

Subcommands: coeff, ratio, sum, norm, diverge, ymap, asymcheck.  Each emits a
single JSON envelope {command, params, report} (validating against
schemas/report.schema.json) or a CSV flattening of that envelope with a
fixed column order (_csv_text; a series report gives one row per term).
Exit codes: 0 success, 1 numerical failure, 2 domain/usage error (including
non-finite --tau/--eps and unreadable or malformed files).
The parser is built once per process, so an in-process caller of main pays
only for its request.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from typing import Optional, Sequence

from . import expansion, principal_series, ymap
from .config import FORMAT_CHOICES, RunConfig, load_run_config
from .lie_group import SL2CElement, epsilon_of
from .reports import SeriesReport, to_json
from .wigner import FourierTableSU2

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_DOMAIN = 2


def parse_complex(text: str) -> complex:
    """Parse 're' or 're,im'; both parts must be finite."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"cannot parse complex value from {text!r}")
    value = complex(*map(float, parts))
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not a finite complex value")
    return value


def _resolve_epsilon(args, cfg: RunConfig) -> float:
    if getattr(args, "g", None) is not None:
        g = SL2CElement.from_flat(args.g, tol=cfg.det_tolerance)
        return epsilon_of(g)
    if getattr(args, "eps", None) is None:
        raise ValueError("provide either --eps or --g")
    return principal_series.check_epsilon(args.eps)


def _series_payload(command: str, report: SeriesReport) -> dict:
    data = to_json(report)
    return {"command": command, "params": data["params"], "report": data}


# Each command returns its JSON envelope; the CSV is flattened from it.

def cmd_coeff(args, cfg: RunConfig) -> dict:
    eps = _resolve_epsilon(args, cfg)
    tau = parse_complex(args.tau)
    path = principal_series.evaluation_path(args.j, eps)
    value = principal_series.diagonal_coefficient(args.j, args.m, tau, eps)
    try:
        linear = value.to_complex()
        rep: Optional[list[float]] = [linear.real, linear.imag]
    except OverflowError:
        rep = None
    report = {
        "j": args.j, "m": args.m, "tau": [tau.real, tau.imag], "epsilon": eps,
        "path": path, "log_mag": value.log_mag, "phase": value.phase,
        "value": rep, "representable": rep is not None,
    }
    return {"command": "coeff", "params": {"j": args.j, "m": args.m,
                                           "tau": [tau.real, tau.imag], "epsilon": eps},
            "report": report}


def cmd_ratio(args, cfg: RunConfig) -> dict:
    eps = _resolve_epsilon(args, cfg)
    report = principal_series.ratio_test(
        args.m, parse_complex(args.tau), eps, cfg.j_max,
        cauchy_tolerance=cfg.cauchy_tolerance, cauchy_window=cfg.cauchy_window,
    )
    return _series_payload("ratio", report)


def cmd_sum(args, cfg: RunConfig) -> dict:
    eps = _resolve_epsilon(args, cfg)
    tau = parse_complex(args.tau)
    jmax = cfg.j_max
    if args.mode == "diagonal":
        if args.m is None:
            raise ValueError("--m is required for --mode diagonal")
        cfgx = expansion.ExpansionConfig(
            tau=tau, m=args.m, epsilon=eps, j_max=jmax,
            cauchy_tolerance=cfg.cauchy_tolerance, cauchy_window=cfg.cauchy_window,
        )
        report = expansion.partial_sum_diagonal(cfgx)
    else:
        report = expansion.partial_sum_triple(
            tau, eps, jmax,
            cauchy_tolerance=cfg.cauchy_tolerance, cauchy_window=cfg.cauchy_window,
        )
    return _series_payload("sum", report)


def cmd_norm(args, cfg: RunConfig) -> dict:
    tau = parse_complex(args.tau)
    report = expansion.norm_identity(tau, cfg.j_max)
    return {"command": "norm",
            "params": {"tau": [tau.real, tau.imag], "j_max": report.j_max},
            "report": to_json(report)}


def cmd_diverge(args, cfg: RunConfig) -> dict:
    tau = parse_complex(args.tau)
    cps = [int(x) for x in args.checkpoints.split(",")]
    report = expansion.divergence_probe(tau, cps, cauchy_tolerance=cfg.cauchy_tolerance)
    return {"command": "diverge",
            "params": {"tau": [tau.real, tau.imag], "checkpoints": cps},
            "report": to_json(report)}


def cmd_ymap(args, cfg: RunConfig) -> dict:
    with open(args.table) as fh:
        table = FourierTableSU2.from_json_dict(json.load(fh))
    req = ymap.YMapRequest(
        table=table, tau=parse_complex(args.tau), j_max=cfg.j_max,
        epsilon=_resolve_epsilon(args, cfg),
        cauchy_tolerance=cfg.cauchy_tolerance, cauchy_window=cfg.cauchy_window,
    )
    payload = _series_payload("ymap", ymap.ymap_apply(req))
    if args.bounds:
        payload["report"]["bounds"] = to_json(ymap.ymap_convergence_report(req))
    return payload


def cmd_asymcheck(args, cfg: RunConfig) -> dict:
    tau = parse_complex(args.tau)
    eps = principal_series.check_epsilon(args.eps)
    exact = principal_series.diagonal_coefficient(args.j, args.m, tau, eps, method="exact")
    asym = principal_series.diagonal_coefficient(args.j, args.m, tau, eps, method="asymptotic")
    rel = abs(
        complex(math.exp(min(asym.log_mag - exact.log_mag, 700.0)))
        * complex(math.cos(asym.phase - exact.phase), math.sin(asym.phase - exact.phase))
        - 1.0
    )
    report = {
        "j": args.j, "m": args.m, "tau": [tau.real, tau.imag], "epsilon": eps,
        "exact": {"log_mag": exact.log_mag, "phase": exact.phase},
        "asymptotic": {"log_mag": asym.log_mag, "phase": asym.phase},
        "relative_error": rel,
    }
    return {"command": "asymcheck",
            "params": {"j": args.j, "m": args.m, "tau": [tau.real, tau.imag],
                       "epsilon": eps},
            "report": report}


def _csv_text(payload: dict) -> str:
    """Fixed-column CSV flattening of a JSON envelope; a series report becomes
    one row per term, scalar reports a single row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    command = payload["command"]
    report = payload["report"]
    if command in ("ratio", "sum", "ymap"):
        writer.writerow(["j", "log_mag", "phase", "ratio", "partial_re", "partial_im"])
        for t, s in zip(report["terms"], report["partial_sums"]):
            writer.writerow([t["j"], t["log_mag"], t["phase"],
                             "" if t["ratio"] is None else t["ratio"], *s])
    elif command == "coeff":
        writer.writerow(["j", "m", "tau_re", "tau_im", "epsilon", "path",
                         "log_mag", "phase", "value_re", "value_im"])
        v = report["value"] or ["", ""]
        writer.writerow([report["j"], report["m"], report["tau"][0], report["tau"][1],
                         report["epsilon"], report["path"], report["log_mag"],
                         report["phase"], v[0], v[1]])
    elif command == "norm":
        writer.writerow(["j_max", "computed_re", "computed_im", "target_re",
                         "target_im", "deviation", "tail_bound"])
        writer.writerow([report["j_max"], *report["computed"], *report["target"],
                         report["deviation"], report["tail_bound"]])
    elif command == "diverge":
        writer.writerow(["checkpoint", "partial_re", "partial_im", "increment_re",
                         "increment_im", "model_re", "model_im", "relative_deviation"])
        for i, cp in enumerate(report["checkpoints"]):
            if i == 0:
                writer.writerow([cp, *report["partial_sums"][i], "", "", "", "", ""])
            else:
                writer.writerow([
                    cp, *report["partial_sums"][i], *report["increments"][i - 1],
                    *report["model_increments"][i - 1],
                    report["relative_deviations"][i - 1],
                ])
    elif command == "asymcheck":
        writer.writerow(["j", "m", "tau_re", "tau_im", "epsilon",
                         "exact_log_mag", "exact_phase", "asym_log_mag",
                         "asym_phase", "relative_error"])
        writer.writerow([report["j"], report["m"], report["tau"][0], report["tau"][1],
                         report["epsilon"],
                         report["exact"]["log_mag"], report["exact"]["phase"],
                         report["asymptotic"]["log_mag"], report["asymptotic"]["phase"],
                         report["relative_error"]])
    else:
        raise ValueError(f"no CSV flattening for command {command!r}")
    return buf.getvalue()


def _emit(payload: dict, cfg: RunConfig) -> None:
    if cfg.format == "json":
        # to_json stringifies infinities; a NaN that leaks through is a
        # numerical failure, not a usage error
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ArithmeticError(f"report holds a NaN ({exc})") from exc
    else:
        text = _csv_text(payload)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later one: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="lorentz-harmonics",
        description="Boost-coefficient numerics and series diagnostics for the "
                    "Lorentz group double cover",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a flat key = value config file")
    common.add_argument("--format", choices=FORMAT_CHOICES, default=None)
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--tol", type=float, default=None, dest="cauchy_tolerance")
    common.add_argument("--window", type=int, default=None, dest="cauchy_window")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eps_or_g(p):
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--g", type=float, nargs=8, default=None,
                       metavar=("a_re", "a_im", "b_re", "b_im",
                                "c_re", "c_im", "d_re", "d_im"),
                       help="group element as 8 reals, row-major re/im interleaved")

    p = sub.add_parser("coeff", parents=[common], help="one diagonal coefficient")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--tau", required=True)
    add_eps_or_g(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("ratio", parents=[common], help="consecutive-ratio diagnostics for fixed m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--jmax", type=int, default=None)
    add_eps_or_g(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sum", parents=[common], help="diagonal or triple partial sums")
    p.add_argument("--mode", choices=("diagonal", "triple"), required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--tau", required=True)
    p.add_argument("--jmax", type=int, default=None)
    add_eps_or_g(p)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("norm", parents=[common], help="norm-identity series vs closed form")
    p.add_argument("--tau", required=True)
    p.add_argument("--jmax", type=int, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("diverge", parents=[common], help="growth probe of the weighted norm series")
    p.add_argument("--tau", required=True)
    p.add_argument("--checkpoints", default="1000,100000",
                   help="comma-separated partial-sum checkpoints")
    p.set_defaults(func=cmd_diverge)

    p = sub.add_parser("ymap", parents=[common], help="map an SU(2) Fourier table to a boost series")
    p.add_argument("--table", required=True, help="path to a Fourier table JSON file")
    p.add_argument("--tau", required=True)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--bounds", action="store_true",
                   help="include the majorization bound report")
    add_eps_or_g(p)
    p.set_defaults(func=cmd_ymap)

    p = sub.add_parser(
        "asymcheck", parents=[common], help="exact vs the large-j saddle-point term",
        description="Compare the exact coefficient with the saddle-point term "
                    "that coeff uses beyond j = 64, at the same (j, m, tau, eps).",
    )
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_asymcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(
            config_path=args.config,
            flag_overrides={
                "format": args.format,
                "out": args.out,
                "cauchy_tolerance": args.cauchy_tolerance,
                "cauchy_window": args.cauchy_window,
                "j_max": getattr(args, "jmax", None),
            },
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _emit(args.func(args, cfg), cfg)
    except (ValueError, OSError) as exc:
        # every domain error of the library is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ArithmeticError, RuntimeError) as exc:
        # SeriesConvergenceError and SaddlePointDomainError are RuntimeErrors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
