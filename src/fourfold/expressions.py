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
    read_descriptor,
    surface_product,
    surface_product_rank,
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


# The sums resolved last, by their key, least recently resolved first.  A
# request resolves at most two expressions, M and its --n1 or --n2, so two
# entries hold exactly the sums of the request before: the next request
# about the same M reuses its sum and the spin^c structure kept on it.
_RESOLVED: dict[tuple, ManifoldData] = {}
MAX_RESOLVED_SUMS = 2


def resolve(expr: ManifoldExpression) -> ManifoldData:
    """Read, size and name the terms in one pass, left to right, into runs
    of adjacent terms with the same name; refuse a sum whose size, the sum
    of count*(1 + rank(H2)) over its terms, exceeds :data:`MAX_SUM_SIZE`;
    then admit each descriptor run once, in order, by its unimodularity
    (the first check that eliminates a form).

    A descriptor is read once per distinct path, and the same bytes under
    any number of paths are decoded and checked for every invariant but
    unimodularity once; its name is its bytes and its rank its piece's.
    A fixed generator is its builder's piece, built once per process, and
    its rank is its form's.  ``SP(g,g')`` is sized in closed form by
    :func:`surface_product_rank`, which refuses the genera the builder
    would, and is built only after the budget.  A generator's name is its
    summand.

    The sum's key is the list of its runs' (name, count), so ``2*K3 #
    3*K3`` and ``5*K3`` share a key and a file rewritten in place gets a
    new one.  A sum among the last :data:`MAX_RESOLVED_SUMS` resolved is
    returned as it is; any other is built as the connected sum of all the
    pieces in one call, left to right.

    ``expr`` is what :func:`parse` returns: at least one term, each with
    a count of at least 1, so the sum has at least one piece."""
    runs = []  # [name, count, rank, piece], the piece None for SP(g,g') until built
    reads = {}
    for term in expr.terms:
        gen = term.gen
        if gen.kind == CUSTOM:
            if gen not in reads:
                reads[gen] = read_descriptor(gen.path, dict(reads.values()))
            name, piece = reads[gen]
        else:
            name, piece = gen, None if gen.kind == SP else GENERATORS[gen.kind]()
        if runs and runs[-1][0] == name:
            runs[-1][1] += term.count
        else:
            rank = surface_product_rank(*gen.genera) if piece is None else piece.h2.rank
            runs.append([name, term.count, rank, piece])
    size = sum(count * (1 + rank) for _, count, rank, _ in runs)
    if size > MAX_SUM_SIZE:
        raise ValidationError(
            f"connected sum too large: the sum of count*(1 + rank(H2)) over the terms "
            f"is {size}, over the budget of {MAX_SUM_SIZE}"
        )
    for run in runs:
        if isinstance(run[0], bytes):
            run[3] = admit_descriptor(run[0], run[3])
    key = tuple((name, count) for name, count, _, _ in runs)
    m = _RESOLVED.pop(key, None)
    if m is None:
        pieces = []
        for name, count, _, piece in runs:
            if piece is None:
                piece = surface_product(*name.genera)
            pieces += [piece] * count
        m = connected_sum(*pieces)
    _RESOLVED[key] = m
    if len(_RESOLVED) > MAX_RESOLVED_SUMS:
        del _RESOLVED[next(iter(_RESOLVED))]
    return m


def parse_manifold(expr: str) -> ManifoldData:
    return resolve(parse(expr))
