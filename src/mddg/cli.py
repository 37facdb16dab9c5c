"""Command-line interface.

Subcommands: ``convergence`` runs a refinement study from a config file and
writes the CSV report; ``solve`` does a single run and prints the error and
solver statistics; ``stability`` emits the A-stability certificate CSV for
one method; ``schemes`` prints all coefficient tables as exact rationals.
Exit codes: 0 success, 1 usage or configuration error, 2 solver failure or
blow-up.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from fractions import Fraction

from mddg import harness
from mddg.harness import ConfigError, method_registry, parse_config
from mddg.sparse import SolverFailure
from mddg.stability import StabilityReport, a_stability_scan
from mddg.timeint import BlowUpError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="mddg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convergence", help="run a refinement study from a config file")
    conv.add_argument("--config", required=True, help="path to a `key = value` config file")
    conv.add_argument("--output", help="override the CSV output path from the config")

    solve = sub.add_parser("solve", help="single run; prints error and solver statistics")
    solve.add_argument("--config", required=True, help="path to a `key = value` config file")

    stab = sub.add_parser("stability", help="A-stability certificate CSV for one method")
    stab.add_argument("--method", required=True, choices=sorted(method_registry()))
    stab.add_argument("--output", help="write the CSV here instead of stdout")

    sub.add_parser("schemes", help="print all coefficient tables as exact rationals")
    return parser


def _frac_row(values) -> str:
    return ", ".join(str(Fraction(v)) for v in values)


def cmd_schemes(out=None) -> int:
    out = out if out is not None else sys.stdout
    for scheme in harness.builtin_two_point_schemes():
        out.write(
            f"{scheme.label}: alpha = {_frac_row(scheme.alpha)}; beta = {_frac_row(scheme.beta)}\n"
        )
    mdrk = harness.builtin_mdrk6()
    out.write("mdrk6: c = " + _frac_row(Fraction(x).limit_denominator() for x in mdrk.c) + "\n")
    for m, tab in enumerate(mdrk.a_exact, start=1):
        for i, row in enumerate(tab):
            out.write(f"mdrk6: a{m}[{i}] = {_frac_row(row)}\n")
    for m, row in enumerate(mdrk.b_exact, start=1):
        out.write(f"mdrk6: b{m} = {_frac_row(row)}\n")
    gl = harness.builtin_gauss_legendre6()
    out.write("gl6: c = " + ", ".join(f"{x:.17g}" for x in gl.c) + "  (1/2 -+ sqrt(15)/10, 1/2)\n")
    for i, row in enumerate(gl.a[0]):
        out.write(f"gl6: a[{i}] = " + ", ".join(f"{x:.17g}" for x in row) + "\n")
    out.write("gl6: b = 5/18, 4/9, 5/18\n")
    return 0


def _open_output(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_stability(method_name: str, output=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    report = a_stability_scan(method_registry()[method_name])
    text = StabilityReport.CSV_HEADER + "\n" + report.csv_row() + "\n"
    if output:
        with _open_output(output) as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def cmd_convergence(config_path, output=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    cfg = parse_config(config_path)
    path = output or cfg.output
    with _open_output(path) if path else contextlib.nullcontext() as fh:  # fail before the study
        report = harness.run_convergence(cfg)
        text = harness.format_report(report)
        if fh:
            fh.write(text)
            out.write(f"wrote {path}\n")
    out.write(text)
    for level, exc in report.failures:
        out.write(f"level {level} failed: {exc}\n")
    return 2 if report.failures else 0


def cmd_solve(config_path, out=None) -> int:
    out = out if out is not None else sys.stdout
    cfg = parse_config(config_path)
    mesh = harness.mesh_hierarchy(cfg.level + 1)[cfg.level]
    stats = []
    try:
        err = harness.run_level(cfg, mesh, cfg.level, stats)
    except (SolverFailure, BlowUpError) as exc:
        out.write(f"solve failed: {exc}\n")
        return 2
    out.write(f"l2_error = {err:.17g}\n")
    n_solves = len(stats)
    iters = sum(s.iterations for s in stats)
    max_res = max((s.residual for s in stats), default=0.0)
    fallbacks = sum(1 for s in stats if s.fallback_used)
    out.write(
        f"solves = {n_solves}, total_iterations = {iters}, "
        f"max_residual = {max_res:.3e}, fallbacks = {fallbacks}\n"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "schemes":
            return cmd_schemes()
        if args.command == "stability":
            return cmd_stability(args.method, args.output)
        if args.command == "convergence":
            return cmd_convergence(args.config, args.output)
        if args.command == "solve":
            return cmd_solve(args.config)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
