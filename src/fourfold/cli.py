"""Command-line interface.

Exit codes: 0 on success, 1 on validation errors (malformed expressions,
bad descriptors, inconsistent data), 2 when a theorem's hypotheses are
not met.  Hypothesis failures are never dressed up as computed results.
"""

# The docstring above is the text of `fourfold --help`.  A request is
# refused at its first failing stage: the expression, --c1, the spin^c
# structure, N1/N2, the covered family (sigma0, yamabe, einstein), the
# spin^c data, and last the theorem (see _pair).

from __future__ import annotations

import argparse
import os
import re
import sys

from . import report as rpt
from .bordism import covered_summands
from .errors import InapplicableError, ValidationError
from .expressions import MAX_INTEGER_DIGITS, parse, parse_manifold
from .manifolds import SP, ManifoldData
from .obstructions import (
    SurfaceCandidate,
    einstein_nonexistence,
    embedding_obstructed,
    example_scan,
    hitchin_thorpe,
    min_genus,
    yamabe_value,
)
from .spinc import SpinCStructure, canonical_spinc, spinc


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with code 2; flag misuse is a
    # validation problem here, so reroute it.
    def error(self, message):
        raise ValidationError(message)


_INTEGER = re.compile(rf" *[+-]?[0-9]{{1,{MAX_INTEGER_DIGITS}}} *")


def _integer(text: str) -> int:
    """An optionally signed run of ASCII digits, no longer than the
    expression scanner allows, optionally surrounded by spaces.  ``int``
    alone would also read other Unicode digits and underscores.  This is
    the argparse ``type=`` of every integer option, so a refusal reads
    like argparse's own."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_c1(text: str) -> tuple[int, ...]:
    try:
        return tuple(_integer(x) for x in text.split(","))
    except argparse.ArgumentTypeError:
        raise ValidationError(f"--c1 must be a comma-separated integer list, got '{text}'") from None


def _spinc_for(m: ManifoldData, c1: tuple[int, ...] | None) -> tuple[SpinCStructure, str]:
    if c1 is not None:
        return spinc(m, c1), "explicit"
    return canonical_spinc(m), "canonical"


def _echo(args, c1: tuple[int, ...] | None, **extra) -> dict:
    echo = dict(extra)
    echo["expression"] = args.expression
    if c1 is not None:
        echo["c1"] = list(c1)
    return echo


def _pair(args, command: str, other: str | None, covered: bool, **echo):
    """M, its spin^c structure s, the manifold ``other`` names (N1 or N2,
    else None) and the report with its base, manifold and spin^c sections.

    A request is refused at the first stage that fails, in this order: the
    expression, the syntax of ``--c1`` and the spin^c structure (length,
    characteristic, canonical class), then ``other`` (exit 1 for each);
    then, when ``covered``, the family (exit 2).  Uncovered pairs are
    refused before the spin^c section checks their data, such as an odd
    cup pairing (exit 1).  The command's own theorem comes last.
    """
    m = parse_manifold(args.expression)
    c1 = None if args.c1 is None else _parse_c1(args.c1)
    s, source = _spinc_for(m, c1)
    n = None if other is None else parse_manifold(other)
    if covered:
        covered_summands(m, s)
    report = rpt.base_report(command, _echo(args, c1, **echo))
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
    return m, s, n, report


def _cmd_analyze(args) -> dict:
    m = parse_manifold(args.expression)
    c1 = None if args.c1 is None else _parse_c1(args.c1)
    report = rpt.base_report("analyze", _echo(args, c1))
    report["manifold"] = rpt.manifold_summary(m)
    try:
        s, source = _spinc_for(m, c1)
    except ValidationError as exc:
        if c1 is not None:
            raise
        report["spinc"] = None
        report["spinc_skipped"] = str(exc)
    else:
        report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
        report["bordism"] = rpt.bordism_summary(m, s)
    report["hitchin_thorpe"] = hitchin_thorpe(m)
    return report


def _cmd_star(args) -> dict:
    _, _, _, report = _pair(args, "star", None, False)
    report["result"] = report["spinc"]["condition"]
    return report


def _cmd_sigma0(args) -> dict:
    m, s, _, report = _pair(args, "sigma0", None, True)
    report["bordism"] = rpt.bordism_summary(m, s)
    if not report["bordism"]["applicable"]:
        raise InapplicableError(report["bordism"]["reason"])
    report["result"] = dict(report["bordism"])
    return report


def _cmd_genus(args) -> dict:
    m, s, _, report = _pair(args, "genus", None, False, self_int=args.self_int,
                            pairing=args.pairing, genus=args.genus)
    if args.genus is not None:
        cand = SurfaceCandidate(
            self_intersection=args.self_int, genus=args.genus, pairing=args.pairing
        )
        report["result"] = {
            "embedding_obstructed": embedding_obstructed(m, s, cand),
            "candidate": {
                "self_intersection": cand.self_intersection,
                "genus": cand.genus,
                "pairing": cand.pairing,
            },
        }
    else:
        report["result"] = {
            "min_genus": min_genus(m, s, args.self_int, args.pairing),
            "self_intersection": args.self_int,
            "pairing": args.pairing,
        }
    return report


def _cmd_yamabe(args) -> dict:
    m, s, n1, report = _pair(
        args, "yamabe", args.n1, True, n1=args.n1, nonneg_scalar=args.nonneg_scalar
    )
    value = yamabe_value(m, s, n1, args.nonneg_scalar)
    report["result"] = {
        "coefficient": value.coefficient,
        "radicand": value.radicand,
        "text": str(value),
        "approx": value.approx(),
        "n1": rpt.manifold_summary(n1),
    }
    return report


def _cmd_einstein(args) -> dict:
    m, s, n2, report = _pair(args, "einstein", args.n2, True, n2=args.n2)
    report["result"] = {
        "einstein_obstructed": einstein_nonexistence(m, s, n2),
        "n2": rpt.manifold_summary(n2),
    }
    return report


def _scan_genera(expr_text: str) -> tuple[int, int, int, int]:
    terms = parse(expr_text).terms
    for term in terms:
        if term.gen.kind != SP:
            raise ValidationError(
                "--G-from must be a connected sum of exactly two surface "
                f"products, got generator '{term.gen}'"
            )
    # Count before expanding: a multiplicity may have 18 digits.
    total = sum(term.count for term in terms)
    if total != 2:
        raise ValidationError(
            f"--G-from must contain exactly two surface products, got {total}"
        )
    (g1, g1p), (g2, g2p) = [term.gen.genera for term in terms for _ in range(term.count)]
    return g1, g1p, g2, g2p


def _cmd_scan(args) -> dict:
    g1, g1p, g2, g2p = _scan_genera(args.G_from)
    table = example_scan(g1, g1p, g2, g2p, args.s, args.r_max)
    report = rpt.base_report(
        "scan", {"G_from": args.G_from, "s": args.s, "r_max": args.r_max}
    )
    report["result"] = table
    return report


def build_parser() -> _Parser:
    """The top-level parser; ``commands`` maps each command name to its
    subparser."""
    parser = _Parser(prog="fourfold", description=__doc__)
    parser.commands = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, expression=True):
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if expression:
            p.add_argument("expression", help="manifold expression, e.g. 'K3 # 2*SP(3,3)'")
            p.add_argument(
                "--c1",
                help="explicit c1 coordinates, comma separated "
                "(use --c1=-4,... when the first entry is negative)",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("analyze", _cmd_analyze, "run every applicable computation")
    add("star", _cmd_star, "evaluate the two parity conditions")
    add("sigma0", _cmd_sigma0, "bordism verdict for the covered family")

    p = add("genus", _cmd_genus, "adjunction genus bound for a surface candidate")
    p.add_argument("--self-int", dest="self_int", type=_integer, required=True)
    p.add_argument("--pairing", type=_integer, default=0)
    p.add_argument("--genus", type=_integer, default=None)

    p = add("yamabe", _cmd_yamabe, "Yamabe invariant of the sum with N1")
    p.add_argument("--n1", required=True, help="negative definite summand expression")
    p.add_argument(
        "--nonneg-scalar",
        dest="nonneg_scalar",
        action="store_true",
        help="assert that N1 admits a metric with nonnegative scalar curvature",
    )

    p = add("einstein", _cmd_einstein, "Einstein nonexistence for the sum with N2")
    p.add_argument("--n2", required=True, help="negative definite summand expression")

    p = add("scan", _cmd_scan, "scan blow-up counts for two surface products", expression=False)
    p.add_argument("--G-from", dest="G_from", required=True,
                   help="expression with exactly two surface products")
    p.add_argument("--s", type=_integer, default=0)
    p.add_argument("--r-max", dest="r_max", type=_integer, required=True)

    return parser


_parser: _Parser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on first use, once per process
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _parser.commands:
            args = _parser.commands[argv[0]].parse_args(argv[1:])
        else:
            # Top-level help and errors (no command, unknown command).
            args = _parser.parse_args(argv)
        report = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InapplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    try:
        print(rpt.to_json(report) if args.json else rpt.render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`fourfold ... | head`).  Point stdout at
        # devnull so that the flush at interpreter exit fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UnicodeEncodeError as exc:
        # print encodes the whole text before it writes, so stdout is empty.
        print(f"error: the report cannot be written in the output encoding: {exc}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
