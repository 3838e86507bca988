"""Command-line driver.

Verbs: check-axioms, verify-family, residual, solve-bider, match.

Exit codes: 0 when the operation ran and (for checking verbs) the
mathematical check passed; 1 when a check failed; 2 on usage or I/O
errors, with a one-line diagnostic naming the offending flag; 3 on an
internal error (a failed post-solve check of the solved basis or any
other unexpected exception), with a one-line "lcalab: internal error:" diagnostic.

Rational flags (--b, --t, --a, --g) take an integer or p/q with an
optional leading "-" (poly.parse_rational), as --b -3/2 or --b=-3/2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

from .algebra import AlgebraError, check_axioms, load_algebra, make_catalog
from .bimaps import FamilyError, MapError, TAGS, load_map, make_family, map_to_dict, verify_map
from .poly import ParseError, Scalar, parse_rational
from .solver import (
    ASSEMBLE_TAGS,
    InternalCheckError,
    SolverError,
    match_templates,
    solve_bider,
    solver_report,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3

RATIONAL_FLAGS = ("--b", "--t", "--a", "--g")


class UsageError(Exception):
    pass


# Built once per process: a parser is a web of reference cycles (actions
# and groups refer to their container), so one built per call leaves a
# few hundred objects to the cyclic collector, and a process that calls
# main() in a loop holds the parsers of every call since the last full
# collection: 0.6 MB more peak RSS over 300 calls of check-axioms on
# CLW(m=6).  parse_args does not change the parser, so one serves every
# call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcalab",
        description="Exact workbench for Lie conformal algebras: axiom checks, "
                    "biderivation residuals, and brute-force classification.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, degree: bool = False) -> None:
        p.add_argument("--catalog", choices=["vir", "cw", "clw"],
                       help="built-in algebra")
        p.add_argument("--algebra", metavar="FILE", help="algebra definition file")
        p.add_argument("--m", type=int, metavar="INT",
                       help="grading modulus for catalog algebras (default 1)")
        p.add_argument("--b", metavar="RAT|symbolic",
                       help="structure parameter for --catalog clw (default symbolic)")
        if degree:
            p.add_argument("--degree", type=int, required=True, metavar="INT",
                           help="ansatz degree bound in d, l")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", metavar="PATH", help="write the report here")

    p = sub.add_parser("check-axioms", help="check skew-symmetry and Jacobi residuals")
    add_common(p)

    p = sub.add_parser("verify-family", help="build a closed-form family and "
                                             "check identity residuals")
    add_common(p)
    p.add_argument("--family", choices=["inner", "cw", "clw"], required=True,
                   help="inner: t [x_l y]; cw and clw: the bracket scaled by a with "
                        "its target index moved by --shift, on any algebra; clw "
                        "also takes the g-component")
    p.add_argument("--shift", type=int, default=0, metavar="INT")
    p.add_argument("--t", metavar="RAT", help="inner family coefficient (default 1)")
    p.add_argument("--a", metavar="RAT", help="shift family coefficient (default 1)")
    p.add_argument("--g", metavar="RAT", help="g-component coefficient (default 0); a "
                                              "nonzero g needs the clw table at b = -1")
    p.add_argument("--eq", choices=list(TAGS) + ["all"], default="all")

    p = sub.add_parser("residual", help="check identity residuals of a map file")
    add_common(p)
    p.add_argument("--map", metavar="FILE", required=True, dest="map_file")
    p.add_argument("--eq", choices=list(TAGS) + ["all"], default="all")

    p = sub.add_parser("solve-bider", help="classify biderivations by exact "
                                           "nullspace computation")
    add_common(p, degree=True)
    p.add_argument("--eq", choices=list(ASSEMBLE_TAGS) + ["all"], default="def1b",
                   help="constraints beyond skew-symmetry (def1a always included)")

    p = sub.add_parser("match", help="solve, then require a full match against "
                                     "the family templates")
    add_common(p, degree=True)
    p.add_argument("--eq", choices=list(ASSEMBLE_TAGS) + ["all"], default="def1b")

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each rational flag followed by a value such as -3/2 joined
    as --flag=-3/2: argparse reads -7 as a value but -3/2 as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in RATIONAL_FLAGS and re.match(r"-\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_rational(text: str, flag: str) -> Scalar:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise UsageError(f"{flag}: not a rational number such as 7 or -3/2: "
                         f"{text!r} ({exc})") from None


def _build_algebra(args):
    if (args.catalog is None) == (args.algebra is None):
        raise UsageError("exactly one of --catalog or --algebra is required")
    if args.algebra is not None:
        for flag in ("m", "b"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} only applies to --catalog algebras")
        return load_algebra(args.algebra)
    b = None
    if args.b is not None:
        if args.catalog != "clw":
            raise UsageError("--b is only valid with --catalog clw")
        if args.b != "symbolic":
            b = _parse_rational(args.b, "--b")
    return make_catalog(args.catalog, 1 if args.m is None else args.m, b)


def _solver_tags(eq: str) -> tuple[str, ...]:
    if eq == "all":
        return ASSEMBLE_TAGS
    if eq == "def1a":
        return ("def1a",)
    return ("def1a", eq)


def _residual_tags(eq: str) -> tuple[str, ...]:
    return TAGS if eq == "all" else (eq,)


def _emit(args, payload) -> None:
    """Write the report and a newline to --out, or to stdout.  A JSON report
    is written chunk by chunk as the encoder makes it, never as one string:
    with indent, json builds the text from many small strings, and joining
    them held seven times the size of the text."""
    if args.format == "json":
        chunks = json.JSONEncoder(indent=2).iterencode(
            payload if isinstance(payload, dict) else payload.to_json())
    else:
        chunks = [payload if isinstance(payload, str) else payload.to_text()]
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        out.writelines(chunks)
        out.write("\n")


def _solve_report_text(space, match) -> str:
    """The text report: solver_report's fields, with the map of an
    unmatched basis vector, the only one it prints, built for it alone."""
    ansatz, system = space.ansatz, space.system
    lines = [f"algebra {ansatz.algebra.name}",
             f"degree {ansatz.degree}  tags {','.join(system.tags)}",
             f"unknowns {ansatz.n_unknowns}  rows {system.n_rows}  "
             f"dimension {space.dimension}"]
    entries = list(enumerate(match.combinations))
    for i, combination in entries:
        if combination is not None:
            combo = " + ".join(f"{c}*{name}" for name, c in combination.items() if c)
            lines.append(f"basis[{i}] = {combo or '0'}")
    for i, combination in entries:
        if combination is None:
            phi = ansatz.map_from_vector(space.vectors[i])
            lines.append(f"basis[{i}] UNMATCHED: {json.dumps(map_to_dict(phi)['entries'])}")
    return "\n".join(lines)


def _run(args) -> int:
    algebra = _build_algebra(args)

    if args.verb == "check-axioms":
        report = check_axioms(algebra)
        _emit(args, report)
        return 0 if report.passed else CHECK_FAILED

    if args.verb == "verify-family":
        kind = {"inner": "inner", "cw": "cw_shift", "clw": "clw_shift"}[args.family]
        params = {name: _parse_rational(value, f"--{name}") for name in ("t", "a", "g")
                  if (value := getattr(args, name)) is not None}
        try:
            phi = make_family(algebra, kind, shift=args.shift, **params)
        except FamilyError as exc:
            raise UsageError(f"--family/--shift/--t/--a/--g: {exc}") from None
        report = verify_map(phi, _residual_tags(args.eq))
        _emit(args, report)
        return 0 if report.passed else CHECK_FAILED

    if args.verb == "residual":
        phi = load_map(args.map_file, algebra)
        report = verify_map(phi, _residual_tags(args.eq))
        _emit(args, report)
        return 0 if report.passed else CHECK_FAILED

    # solve-bider / match
    try:
        space = solve_bider(algebra, args.degree, _solver_tags(args.eq))
    except InternalCheckError:
        raise
    except SolverError as exc:
        raise UsageError(f"--degree/--b: {exc}") from None
    match = match_templates(space)
    if args.format == "json":
        _emit(args, solver_report(space, match))
    else:
        _emit(args, _solve_report_text(space, match))
    if args.verb == "match":
        return 0 if match.fully_matched else CHECK_FAILED
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _run(args)
    except (UsageError, AlgebraError, MapError, OSError) as exc:
        print(f"lcalab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # A bug, not a verdict on the input: keep exit 1 for failed checks
        # and exit 2 for bad input, and leave the traceback to the log
        # (imported here so that a normal run does not pay for logging).
        import logging
        logging.getLogger("lcalab").debug("internal error", exc_info=True)
        detail = " ".join(str(exc).split())
        print(f"lcalab: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
