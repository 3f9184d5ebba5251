"""Parser for connected-sum expressions.

Grammar::

    Expr := Term ('#' Term)*
    Term := INT '*' Gen | Gen
    Gen  := 'K3' | 'SP(' INT ',' INT ')' | 'CP2' | '~CP2'
          | 'S1xS3' | 'S4' | '@' FILEPATH

Whitespace is insignificant.  '~CP2' is the orientation-reversed complex
projective plane, '@path' loads a JSON manifold descriptor.  Connected
sums associate to the left; all derived invariants are independent of the
association.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError
from .lattice import _Value
from .manifolds import (
    CUSTOM,
    GENERATORS,
    MAX_INTEGER_DIGITS,
    SP,
    ManifoldData,
    Summand,
    admit_descriptor,
    connected_sum,
    generator_rank,
    read_descriptor,
)


class Term(_Value):
    __slots__ = _fields = ("count", "gen")

    def __init__(self, count: int, gen: Summand):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "gen", gen)

    def __str__(self) -> str:
        if self.count == 1:
            return str(self.gen)
        return f"{self.count}*{self.gen}"


class ManifoldExpression(_Value):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Term, ...]):
        object.__setattr__(self, "terms", terms)

    def __str__(self) -> str:
        return " # ".join(str(t) for t in self.terms)


def _is_digit(ch: str) -> bool:
    """ASCII 0-9 only: ``str.isdigit`` also accepts superscripts and other
    scripts' digits, which ``int`` rejects or reads silently."""
    return "0" <= ch <= "9"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise ParseError(f"expected '{char}'", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos - start > MAX_INTEGER_DIGITS:
            raise ParseError(f"integer has more than {MAX_INTEGER_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def word(self) -> tuple[str, int]:
        """Longest run of identifier characters, with its start offset."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos], start

    def filepath(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and not (
            self.text[self.pos].isspace() or self.text[self.pos] == "#"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a file path after '@'", start)
        return self.text[start : self.pos]


def parse(expr: str) -> ManifoldExpression:
    """Parse a connected-sum expression; raises ParseError with the
    character offset on malformed input."""
    scanner = _Scanner(expr)
    terms = [_parse_term(scanner)]
    while not scanner.at_end():
        scanner.expect("#")
        terms.append(_parse_term(scanner))
    return ManifoldExpression(tuple(terms))


def _parse_term(scanner: _Scanner) -> Term:
    if scanner.at_end():
        raise ParseError("expected a generator", scanner.pos)
    if _is_digit(scanner.peek()):
        count = scanner.integer()
        if count < 1:
            raise ParseError("multiplicity must be positive", scanner.pos)
        scanner.expect("*")
        return Term(count, _parse_generator(scanner))
    return Term(1, _parse_generator(scanner))


def _parse_generator(scanner: _Scanner) -> Summand:
    ch = scanner.peek()
    if ch == "@":
        scanner.expect("@")
        return Summand(CUSTOM, path=scanner.filepath())
    tilde = "~" if ch == "~" else ""
    if tilde:
        scanner.expect("~")
    word, start = scanner.word()
    name = tilde + word
    if not name:
        raise ParseError("expected a generator", start)
    if name not in GENERATORS:
        raise ParseError(f"unknown generator '{name}'", start - len(tilde))
    if name == SP:
        scanner.expect("(")
        g = scanner.integer()
        scanner.expect(",")
        gp = scanner.integer()
        scanner.expect(")")
        return Summand(SP, (g, gp))
    return Summand(name)


# The largest sum of count * (1 + rank(H2)) over the terms of one
# expression: it bounds both the number of pieces and the total rank.  At
# the bound the text analyze of k*K3, k*~CP2, k*SP(3,3) or k*S4 takes
# under 10 s and 1 GB (2-vCPU machine, Python 3.11).
MAX_SUM_SIZE = 1_000_000


def resolve(expr: ManifoldExpression) -> ManifoldData:
    """Size each term in closed form (:func:`generator_rank`; only a
    descriptor is read for it, once per distinct path, and checked for
    every invariant but unimodularity), refuse a sum whose size, the sum
    of count*(1 + rank(H2)) over its terms, exceeds :data:`MAX_SUM_SIZE`,
    then check each descriptor's unimodularity (the first check that
    eliminates a form), build each generator once and take the connected
    sum of all the pieces in one call, left to right.

    ``expr`` is what :func:`parse` returns: at least one term, each with
    a count of at least 1, so the sum has at least one piece."""
    sized = []
    reads = {}
    for term in expr.terms:
        gen = term.gen
        if gen.kind == CUSTOM:
            if gen not in reads:
                reads[gen] = read_descriptor(gen.path)
            read = reads[gen]
            sized.append((term, read, read[1].h2.rank))
        else:
            sized.append((term, None, generator_rank(gen)))
    size = sum(term.count * (1 + rank) for term, _, rank in sized)
    if size > MAX_SUM_SIZE:
        raise ValidationError(
            f"connected sum too large: the sum of count*(1 + rank(H2)) over the terms "
            f"is {size}, over the budget of {MAX_SUM_SIZE}"
        )
    pieces = []
    for term, read, _ in sized:
        if read is None:
            piece = GENERATORS[term.gen.kind](*(term.gen.genera or ()))
        else:
            piece = admit_descriptor(*read)
        pieces += [piece] * term.count
    return connected_sum(*pieces)


def parse_manifold(expr: str) -> ManifoldData:
    return resolve(parse(expr))
