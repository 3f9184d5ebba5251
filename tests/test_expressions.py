import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourfold import expressions
from fourfold.errors import ParseError, ValidationError
from fourfold.expressions import (
    MAX_INTEGER_DIGITS,
    ManifoldExpression,
    Term,
    parse,
    parse_manifold,
    resolve,
)
from fourfold.lattice import signature
from fourfold.manifolds import (
    CP2,
    CP2BAR,
    CUSTOM,
    K3,
    S1XS3,
    S4,
    SP,
    Summand,
    connected_sum,
    descriptor_of,
    k3,
    surface_product,
)


def test_parse_simple_sum():
    expr = parse("K3 # K3")
    assert expr == ManifoldExpression((Term(1, Summand("K3")), Term(1, Summand("K3"))))


def test_parse_multiplicity_and_surface_product():
    expr = parse("2*SP(3,3) # 40*~CP2")
    assert expr.terms[0] == Term(2, Summand("SP", genera=(3, 3)))
    assert expr.terms[1] == Term(40, Summand("~CP2"))


def test_parse_whitespace_insignificant():
    assert parse(" K3#2 * SP( 3 , 1 ) ") == parse("K3 # 2*SP(3,1)")


def test_parse_all_generators():
    expr = parse("K3 # CP2 # ~CP2 # S1xS3 # S4")
    kinds = [t.gen.kind for t in expr.terms]
    assert kinds == ["K3", "CP2", "~CP2", "S1xS3", "S4"]


def test_parse_trailing_hash_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse("K3 #")
    assert err.value.offset == 4


def test_parse_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator 'T4'"):
        parse("T4")


def test_parse_zero_multiplicity():
    with pytest.raises(ParseError, match="positive"):
        parse("0*K3")


def test_parse_bad_surface_product_args():
    with pytest.raises(ParseError):
        parse("SP(3)")
    with pytest.raises(ParseError):
        parse("SP(,3)")


def test_parse_reports_offsets():
    with pytest.raises(ParseError) as err:
        parse("K3 # K3 # XX7")
    assert err.value.offset == 10


def test_parse_offset_counts_characters_not_bytes():
    text = "K3 #\u00a0T4"  # a no-break space, two bytes in UTF-8
    with pytest.raises(ParseError, match="unknown generator 'T4'") as err:
        parse(text)
    assert err.value.offset == text.index("T") == 5
    assert len(text[:5].encode("utf-8")) == 6


@pytest.mark.parametrize(
    "text, offset",
    [
        ("\u00b2*K3", 0),  # superscript two: str.isdigit accepts it, int does not
        ("SP(3,\u0663)", 5),  # Arabic-Indic three: int would read it as 3
        ("9" * 5000 + "*K3", 0),  # past CPython's 4300-digit int conversion limit
        ("SP(3," + "1" * (MAX_INTEGER_DIGITS + 1) + ")", 5),
    ],
    ids=["superscript", "arabic-indic", "5000-digits", "cap-plus-one"],
)
def test_parse_integer_literals_are_short_ascii_digit_runs(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


def test_parse_accepts_integer_at_digit_cap():
    count = int("9" * MAX_INTEGER_DIGITS)
    assert parse(f"{count}*K3").terms[0].count == count


def test_roundtrip_print_parse():
    corpus = [
        "K3",
        "K3 # K3",
        "2*SP(3,3) # 40*~CP2",
        "S4 # 3*S1xS3 # CP2",
        "SP(1,1) # SP(7,5)",
        "5*K3",
    ]
    for text in corpus:
        expr = parse(text)
        assert parse(str(expr)) == expr


def test_resolve_expands_multiplicity():
    m = parse_manifold("2*K3")
    n = connected_sum(k3(), k3())
    assert m.euler == n.euler
    assert m.h2 == n.h2
    assert m.summands == n.summands


def test_resolve_left_association_matches_manual_fold():
    m = parse_manifold("K3 # SP(3,1) # 2*~CP2")
    assert m.b1 == 8
    assert m.euler == 24 + (2 - 6) * 0 + 3 + 3 - 3 * 2
    assert signature(m.h2) == -16 + 0 - 2
    assert [str(s) for s in m.summands] == ["K3", "SP(3,1)", "~CP2", "~CP2"]


def test_resolve_file_descriptor(tmp_path):
    import json

    path = tmp_path / "sp33.json"
    path.write_text(json.dumps(descriptor_of(surface_product(3, 3), label="sp33")))
    m = parse_manifold(f"K3 # @{path}")
    assert m.b1 == 12
    assert m.summands[1].kind == "CUSTOM"


@pytest.mark.parametrize("text", ["K3", "CP2", "~CP2", "S1xS3", "S4", "SP(3,5)"])
def test_parsed_generator_is_the_built_summand(text):
    gen = parse(text).terms[0].gen
    assert gen == parse_manifold(text).summands[0]
    assert str(gen) == text


def test_resolve_budget_counts_pieces_and_rank(monkeypatch):
    monkeypatch.setattr(expressions, "MAX_SUM_SIZE", 100)
    # Size 4*(1 + 22) + 3*(1 + 1) + 2*(1 + 0) = 100, at the budget.
    assert parse_manifold("4*K3 # 3*~CP2 # 2*S4").h2.rank == 4 * 22 + 3
    with pytest.raises(ValidationError, match="is 101, over the budget of 100"):
        parse_manifold("4*K3 # 3*~CP2 # 3*S4")


def test_resolve_missing_file():
    with pytest.raises(ValidationError, match="cannot read"):
        parse_manifold("@/nonexistent/file.json")


def test_parse_file_token_roundtrip():
    expr = parse("@some/file.json # K3")
    assert expr.terms[0].gen == Summand(CUSTOM, path="some/file.json")
    assert str(expr) == "@some/file.json # K3"


# A file path runs to the next whitespace or '#'.
PATHS = st.text(st.characters(blacklist_characters="#"), min_size=1).filter(
    lambda p: not any(c.isspace() for c in p)
)
GENERATORS = (
    st.sampled_from([K3, CP2, CP2BAR, S1XS3, S4]).map(Summand)
    | st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).map(
        lambda g: Summand(SP, genera=g)
    )
    | PATHS.map(lambda p: Summand(CUSTOM, path=p))
)
EXPRESSIONS = st.lists(
    st.builds(Term, st.integers(1, 10**6), GENERATORS), min_size=1, max_size=6
).map(lambda terms: ManifoldExpression(tuple(terms)))


@given(EXPRESSIONS)
def test_parse_inverts_str(expr):
    assert parse(str(expr)) == expr
