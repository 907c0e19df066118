"""Command-line front end.

Subcommands: linearize, verify, discover, polar, catalog.  Exit codes:
0 for success (including PROVED verdicts), 1 exclusively for a FALSIFIED
verdict, 2 for usage errors, unreadable files, and statement-language
errors.  Diagnostics go to the error stream; results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .discovery import DiscoveryQuery, discover, render_relation
from .dsl import DslError, Format, load_statement
from .fourier import Mode, linearize_closed, render_latex, render_plain, to_json
from .identities import (
    CATALOG,
    IdentityStatement,
    Verdict,
    catalog_entry,
    render_report,
    report_json,
    spot_check,
    verify,
)
from .polar import PolarForm, ZeroSumTriple, compose, decompose

_MODES = {"diff": Mode.DIFFERENCE, "point": Mode.POINTWISE}
_EMIT_FORMATS = {"dsl": Format.PLAIN, "latex": Format.LATEX}


class CliError(Exception):
    """Invocation problem that should surface as a diagnostic and exit 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigident",
        description="Exact shifted-cosine power sums: linearize, verify, discover.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    linearize = subparsers.add_parser(
        "linearize", help="expand one power sum into cosine harmonics"
    )
    linearize.add_argument("-N", dest="shift_count", type=int, required=True,
                           help="number of shifted cosines")
    linearize.add_argument("-n", dest="power", type=int, required=True,
                           help="power each cosine is raised to")
    linearize.add_argument("--format", choices=("plain", "latex", "json"),
                           default="plain")
    linearize.set_defaults(handler=_run_linearize)

    verify_cmd = subparsers.add_parser(
        "verify", help="verify a catalog identity or a .rid statement file"
    )
    verify_cmd.add_argument("target", metavar="name|path.rid")
    verify_cmd.add_argument("--numeric", action="store_true",
                            help="spot-check numerically instead of proving")
    verify_cmd.add_argument("--trials", type=int, default=100,
                            help="spot-check sample count (default 100)")
    verify_cmd.add_argument("--seed", type=int, default=0,
                            help="sampling seed (default 0)")
    verify_cmd.add_argument("--format", choices=("plain", "json"), default="plain")
    verify_cmd.set_defaults(handler=_run_verify)

    discover_cmd = subparsers.add_parser(
        "discover", help="search for product-equals-square relations"
    )
    discover_cmd.add_argument("-N", dest="shift_count", type=int, required=True)
    discover_cmd.add_argument("--max-n", dest="max_power", type=int, required=True)
    discover_cmd.add_argument("--mode", choices=sorted(_MODES), default="diff")
    discover_cmd.add_argument("--emit", choices=("latex", "dsl", "json"),
                              default=None)
    discover_cmd.set_defaults(handler=_run_discover)

    polar = subparsers.add_parser(
        "polar", help="convert zero-sum triples to and from polar form"
    )
    polar_ops = polar.add_subparsers(dest="operation", required=True)
    decompose_cmd = polar_ops.add_parser("decompose")
    decompose_cmd.add_argument("x", type=float)
    decompose_cmd.add_argument("y", type=float)
    decompose_cmd.add_argument("z", type=float)
    decompose_cmd.set_defaults(handler=_run_decompose)
    compose_cmd = polar_ops.add_parser("compose")
    compose_cmd.add_argument("rho", type=float)
    compose_cmd.add_argument("theta", type=float)
    compose_cmd.set_defaults(handler=_run_compose)

    catalog_cmd = subparsers.add_parser(
        "catalog", help="list the built-in identities"
    )
    catalog_cmd.set_defaults(handler=_run_catalog)

    return parser


def _run_linearize(args: argparse.Namespace) -> int:
    expansion = linearize_closed(args.shift_count, args.power)
    if args.format == "json":
        print(to_json(expansion))
    elif args.format == "latex":
        print(render_latex(expansion))
    else:
        print(render_plain(expansion))
    return 0


def _resolve_statement(target: str) -> IdentityStatement:
    try:
        return catalog_entry(target)
    except KeyError:
        pass
    path = Path(target)
    if path.suffix == ".rid" or path.exists():
        if not path.exists():
            raise CliError(f"no such file: {target}")
        try:
            return load_statement(path)
        except DslError as exc:
            raise CliError(f"{target}: {exc}") from exc
    raise CliError(f"unknown identity {target!r}: not a catalog name or .rid file")


def _run_verify(args: argparse.Namespace) -> int:
    statement = _resolve_statement(args.target)
    if args.numeric:
        report = spot_check(statement, trials=args.trials, seed=args.seed)
    else:
        report = verify(statement, seed=args.seed)
    print(report_json(report) if args.format == "json" else render_report(report))
    return 0 if report.verdict is Verdict.PROVED else 1


def _run_discover(args: argparse.Namespace) -> int:
    mode = _MODES[args.mode]
    results = discover(DiscoveryQuery(args.shift_count, args.max_power, mode))
    if args.emit == "json":
        payload = [
            {
                "m": d.m,
                "n": d.n,
                "p": d.p,
                "harmonic": d.harmonic,
                "P": d.square_factor,
                "Q": d.product_factor,
            }
            for d in results
        ]
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    for d in results:
        if args.emit is None:
            print(
                f"m={d.m} n={d.n} p={d.p} harmonic={d.harmonic}"
                f" square_factor={d.square_factor} product_factor={d.product_factor}"
            )
        else:
            print(render_relation(d, args.shift_count, mode, _EMIT_FORMATS[args.emit]))
    return 0


def _run_decompose(args: argparse.Namespace) -> int:
    polar = decompose(ZeroSumTriple(args.x, args.y, args.z))
    print(f"rho={polar.rho:.15g} theta={polar.theta:.15g}")
    return 0


def _run_compose(args: argparse.Namespace) -> int:
    triple = compose(PolarForm(args.rho, args.theta))
    print(f"x={triple.x:.15g} y={triple.y:.15g} z={triple.z:.15g}")
    return 0


def _run_catalog(args: argparse.Namespace) -> int:
    for name, (text, constrained) in CATALOG.items():
        condition = " assuming a*d = b*c" if constrained else ", unconditional"
        print(f"{name}: {text}{condition}")
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"trigident: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # The parser and both evaluation routes recurse once per nesting
        # level, and a flat sum nests as a left-deep tree.
        print("trigident: statement nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
