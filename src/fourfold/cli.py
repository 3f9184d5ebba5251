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
from .bordism import certify_family
from .errors import InapplicableError, ValidationError
from .expressions import MAX_INTEGER_DIGITS, parse_manifold
from .manifolds import ManifoldData
from .obstructions import (
    SurfaceCandidate,
    blowup_scan,
    einstein_nonexistence,
    embedding_obstructed,
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
    """The coordinates of ``--c1``; the empty text is the class of rank 0."""
    if not text:
        return ()
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


def _pair(args, command: str, other: str | None = None, verdict=None, **echo):
    """M, its spin^c structure s, the manifold ``other`` names (N1 or N2,
    else None), the report with its base, manifold and spin^c sections,
    and ``verdict(m, s, n)``, the command's theorem (else None).

    A request is refused at the first stage that fails, in this order: the
    expression, the syntax of ``--c1`` and the spin^c structure (length,
    characteristic, canonical class), then ``other`` (exit 1 for each);
    then ``verdict``, whose first hypothesis is the covered family (exit
    2).  So an uncovered pair is refused before the spin^c section checks
    its data, such as an odd cup pairing (exit 1); on a covered pair that
    check cannot fail, since the canonical c1 pairs evenly.
    """
    m = parse_manifold(args.expression)
    c1 = None if args.c1 is None else _parse_c1(args.c1)
    s, source = _spinc_for(m, c1)
    n = None if other is None else parse_manifold(other)
    value = None if verdict is None else verdict(m, s, n)
    report = rpt.base_report(command, _echo(args, c1, **echo))
    report["manifold"] = rpt.manifold_summary(m)
    report["spinc"] = rpt.spinc_summary(m, s, source, args.json)
    return m, s, n, report, value


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
        try:
            report["bordism"] = rpt.bordism_fields(certify_family(m, s))
        except InapplicableError as exc:
            report["bordism"] = {"applicable": False, "reason": str(exc)}
    report["hitchin_thorpe"] = hitchin_thorpe(m)
    return report


def _cmd_star(args) -> dict:
    _, _, _, report, _ = _pair(args, "star")
    report["result"] = report["spinc"]["condition"]
    return report


def _cmd_sigma0(args) -> dict:
    *_, report, klass = _pair(args, "sigma0", verdict=lambda m, s, _: certify_family(m, s))
    report["bordism"] = rpt.bordism_fields(klass)
    report["result"] = dict(report["bordism"])
    return report


def _cmd_genus(args) -> dict:
    m, s, _, report, _ = _pair(args, "genus", self_int=args.self_int,
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
    _, _, n1, report, value = _pair(
        args, "yamabe", args.n1,
        lambda m, s, n1: yamabe_value(m, s, n1, args.nonneg_scalar),
        n1=args.n1, nonneg_scalar=args.nonneg_scalar,
    )
    report["result"] = {
        "coefficient": value.coefficient,
        "radicand": value.radicand,
        "text": str(value),
        "approx": value.approx(),
        "n1": rpt.manifold_summary(n1),
    }
    return report


def _cmd_einstein(args) -> dict:
    _, _, n2, report, obstructed = _pair(
        args, "einstein", args.n2, einstein_nonexistence, n2=args.n2
    )
    report["result"] = {
        "einstein_obstructed": obstructed,
        "n2": rpt.manifold_summary(n2),
    }
    return report


def _cmd_scan(args) -> dict:
    table = blowup_scan(parse_manifold(args.G_from), args.s, args.r_max)
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

    p = add("scan", _cmd_scan, "scan blow-up counts for 2 or 3 covered summands",
            expression=False)
    p.add_argument("--G-from", dest="G_from", required=True,
                   help="expression of 2 or 3 covered summands, e.g. 'K3 # SP(3,3)'")
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
