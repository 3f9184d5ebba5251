import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourfold import expressions, manifolds
from fourfold.errors import ParseError, ValidationError
from fourfold.expressions import (
    MAX_INTEGER_DIGITS,
    MAX_RESOLVED_SUMS,
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
from fourfold.spinc import canonical_spinc

from genforms import counted


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


# The memo of resolved sums.  The pool names the two descriptors by file
# name; each test writes them into its own directory.
_MINUS_ONE = {"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "minus-one"}
_POOL = [K3, CP2, CP2BAR, S1XS3, S4, "SP(1,2)", "SP(3,3)", "@a.json", "@b.json"]
_SEPARATORS = ["#", " # ", "\t#\n"]


@pytest.fixture(scope="module")
def descriptors(tmp_path_factory):
    """A directory with the pool's two descriptors."""
    root = tmp_path_factory.mktemp("descriptors")
    (root / "a.json").write_text(json.dumps(_MINUS_ONE))
    (root / "b.json").write_text(json.dumps(descriptor_of(surface_product(1, 1), label="b")))
    return root


RUNS = st.lists(st.tuples(st.sampled_from(_POOL), st.integers(1, 4)), min_size=1, max_size=4)


def spell(draw, runs):
    """One spelling of a sum given as (name, count) runs: each run's count
    split into terms ``k*X`` or ``X``, joined by any separator."""
    terms = []
    for name, count in runs:
        while count:
            k = draw(st.integers(1, count))
            terms.append(name if k == 1 and draw(st.booleans()) else f"{k}*{name}")
            count -= k
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from(_SEPARATORS)) + term
    return text


def merged(runs):
    """The runs with adjacent equal names merged: the memo's key, by name."""
    out = []
    for name, count in runs:
        if out and out[-1][0] == name:
            out[-1] = (name, out[-1][1] + count)
        else:
            out.append((name, count))
    return out


def _fresh(text):
    """The sum of ``text`` resolved with the memo of resolved sums empty."""
    saved = dict(expressions._RESOLVED)
    expressions._RESOLVED.clear()
    try:
        return parse_manifold(text)
    finally:
        expressions._RESOLVED.clear()
        expressions._RESOLVED.update(saved)


@given(st.lists(RUNS, min_size=1, max_size=4), st.data())
def test_a_remembered_sum_equals_a_fresh_resolve(descriptors, sums, data):
    # The sums in turn, one of them twice, each time spelled anew: a
    # remembered sum equals the sum resolved afresh, and one that has the
    # runs of the sum resolved just before is that sum.
    sums.insert(data.draw(st.integers(0, len(sums))), data.draw(st.sampled_from(sums)))
    expressions._RESOLVED.clear()
    previous = None
    for runs in sums:
        text = spell(data.draw, runs).replace("@", f"@{descriptors}/")
        m = parse_manifold(text)
        fresh = _fresh(text)
        assert m == fresh
        assert canonical_spinc_facts(m) == canonical_spinc_facts(fresh)
        if previous is not None and merged(previous[0]) == merged(runs):
            assert m is previous[1]
        assert len(expressions._RESOLVED) <= MAX_RESOLVED_SUMS
        previous = runs, m


def canonical_spinc_facts(m):
    if m.canonical_c1 is None:
        return None
    s = canonical_spinc(m)
    return s.c1, s.c1_square, s.pairings, s.dirac_index, s.moduli_dimension, s.condition


@pytest.mark.parametrize("runs", [("2*K3 # 3*K3", "5*K3"), ("K3 # @a.json # @a.json",
                                                           "1*K3#2*@a.json")])
def test_one_key_per_run_length_list(descriptors, monkeypatch, empty_memos, runs):
    monkeypatch.chdir(descriptors)
    first = parse_manifold(runs[0])
    with counted() as work:
        assert parse_manifold(runs[1]) is first
    assert work == {}
    assert len(expressions._RESOLVED) == 1


def test_the_memo_holds_the_two_sums_resolved_last(empty_memos):
    texts = ["K3", "2*SP(3,3)", "~CP2 # S4"]
    sums = [parse_manifold(text) for text in texts]
    assert list(expressions._RESOLVED.values()) == sums[1:]
    assert MAX_RESOLVED_SUMS == 2
    with counted() as work:
        # The two most recent are reused; the first was let go, is built
        # again, and lets go of the least recently resolved, 2*SP(3,3).
        assert parse_manifold(texts[2]) is sums[2]
        assert parse_manifold(texts[1]) is sums[1]
        again = parse_manifold(texts[0])
    assert again == sums[0] and again is not sums[0]
    assert work == {"sum": 1}
    assert list(expressions._RESOLVED.values()) == [sums[1], again]


def test_a_descriptor_rewritten_in_place_is_read_again(tmp_path, monkeypatch, empty_memos):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_MINUS_ONE))
    before = parse_manifold("K3 # @a.json")
    path.write_text(json.dumps(dict(_MINUS_ONE, label="rewritten")))
    with counted() as work:
        after = parse_manifold("K3 # @a.json")
    assert [s.label for s in (before.summands[1], after.summands[1])] == ["minus-one",
                                                                         "rewritten"]
    assert work == {"decode": 1, "validate": 1, "components": 1, "eliminate": 1, "sum": 1}
    # Bytes of determinant 2 are refused, and enter neither memo.
    refused = b'{"b1": 0, "form": [[2]], "euler": 3}'
    path.write_bytes(refused)
    held = dict(expressions._RESOLVED)
    for _ in range(2):
        with pytest.raises(ValidationError, match="form determinant is 2, but Poincare"):
            parse_manifold("K3 # @a.json")
    assert expressions._RESOLVED == held
    assert refused not in manifolds._VALIDATED
    assert all(name != refused for key in expressions._RESOLVED for name, _ in key)


def test_a_deleted_descriptor_is_refused(tmp_path, monkeypatch, empty_memos):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps(_MINUS_ONE))
    parse_manifold("2*@a.json")
    (tmp_path / "a.json").unlink()
    with pytest.raises(ValidationError, match="cannot read descriptor file 'a.json'"):
        parse_manifold("2*@a.json")
