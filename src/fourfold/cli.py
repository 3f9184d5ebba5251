"""Command-line interface.

Exit codes: 0 on success, 1 on validation errors (malformed expressions,
bad descriptors, inconsistent data), 2 when a theorem's hypotheses are
not met.  Hypothesis failures are never dressed up as computed results.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import report as rpt
from .bordism import covered_summands
from .errors import InapplicableError, ValidationError
from .expressions import MAX_INTEGER_DIGITS, parse, resolve
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


def _manifold(expr_text: str) -> ManifoldData:
    return resolve(parse(expr_text))


def _spinc_for(m: ManifoldData, c1_text: str | None) -> tuple[SpinCStructure, str]:
    if c1_text is not None:
        return spinc(m, _parse_c1(c1_text)), "explicit"
    return canonical_spinc(m), "canonical"


def _echo(args, **extra) -> dict:
    echo = dict(extra)
    if getattr(args, "expression", None) is not None:
        echo["expression"] = args.expression
    if getattr(args, "c1", None) is not None:
        echo["c1"] = list(_parse_c1(args.c1))
    return echo


def _cmd_analyze(args) -> dict:
    m = _manifold(args.expression)
    report = rpt.base_report("analyze", _echo(args))
    report["manifold"] = rpt.manifold_summary(m)
    try:
        s, source = _spinc_for(m, args.c1)
    except ValidationError as exc:
        if args.c1 is not None:
            raise
        report["spinc"] = None
        report["spinc_skipped"] = str(exc)
    else:
        report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
        report["bordism"] = rpt.bordism_summary(m, s)
    report["hitchin_thorpe"] = hitchin_thorpe(m)
    return report


def _cmd_star(args) -> dict:
    m = _manifold(args.expression)
    s, source = _spinc_for(m, args.c1)
    report = rpt.base_report("star", _echo(args))
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
    report["result"] = report["spinc"]["condition"]
    return report


def _cmd_sigma0(args) -> dict:
    m = _manifold(args.expression)
    s, source = _spinc_for(m, args.c1)
    # Uncovered pairs are refused before the spin^c section checks their data.
    covered_summands(m, s)
    report = rpt.base_report("sigma0", _echo(args))
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
    report["bordism"] = rpt.bordism_summary(m, s)
    if not report["bordism"]["applicable"]:
        raise InapplicableError(report["bordism"]["reason"])
    report["result"] = dict(report["bordism"])
    return report


def _cmd_genus(args) -> dict:
    m = _manifold(args.expression)
    s, source = _spinc_for(m, args.c1)
    report = rpt.base_report(
        "genus",
        _echo(args, self_int=args.self_int, pairing=args.pairing, genus=args.genus),
    )
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
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
    m = _manifold(args.expression)
    s, source = _spinc_for(m, args.c1)
    n1 = _manifold(args.n1)
    # Uncovered pairs are refused before the spin^c section checks their data.
    covered_summands(m, s)
    spinc_section = rpt.spinc_summary(m, s, source, args.json)
    value = yamabe_value(m, s, n1, args.nonneg_scalar)
    report = rpt.base_report(
        "yamabe", _echo(args, n1=args.n1, nonneg_scalar=args.nonneg_scalar)
    )
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = spinc_section
    report["result"] = {
        "coefficient": value.coefficient,
        "radicand": value.radicand,
        "text": str(value),
        "approx": value.approx(),
        "n1": rpt.manifold_summary(n1),
    }
    return report


def _cmd_einstein(args) -> dict:
    m = _manifold(args.expression)
    s, source = _spinc_for(m, args.c1)
    n2 = _manifold(args.n2)
    # Uncovered pairs are refused before the spin^c section checks their data.
    covered_summands(m, s)
    spinc_section = rpt.spinc_summary(m, s, source, args.json)
    verdict = einstein_nonexistence(m, s, n2)
    report = rpt.base_report("einstein", _echo(args, n2=args.n2))
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = spinc_section
    report["result"] = {
        "einstein_obstructed": verdict,
        "n2": rpt.manifold_summary(n2),
    }
    return report


def _scan_genera(expr_text: str) -> tuple[int, int, int, int]:
    expr = parse(expr_text)
    genera = []
    for term in expr.terms:
        if term.gen.kind != SP:
            raise ValidationError(
                "--G-from must be a connected sum of exactly two surface "
                f"products, got generator '{term.gen}'"
            )
        genera.extend([term.gen.genera] * term.count)
    if len(genera) != 2:
        raise ValidationError(
            f"--G-from must contain exactly two surface products, got {len(genera)}"
        )
    (g1, g1p), (g2, g2p) = genera
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
