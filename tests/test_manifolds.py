import copy
import inspect
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.cli import main
from fourfold.errors import ValidationError
from fourfold import expressions, manifolds
from fourfold.lattice import Lattice, determinant, inertia, pairing, signature, zero_vector
from fourfold.manifolds import (
    MAX_VALIDATED_DESCRIPTORS,
    GENERATORS,
    SP,
    ManifoldData,
    Summand,
    connected_sum,
    cp2,
    cp2bar,
    custom,
    descriptor_of,
    k3,
    load_descriptor,
    s1xs3,
    s4,
    surface_product,
    surface_product_rank,
)
from fourfold.spinc import canonical_spinc, dirac_index, spin_condition, spinc

from genforms import (
    WRONG_TYPES,
    counted,
    cup_class,
    full_block_invariants,
    random_descriptor,
    random_unimodular_symmetric,
    wrong_type_descriptor,
)


def test_k3_profile():
    m = k3()
    assert (m.b1, m.euler, m.h2.rank) == (0, 24, 22)
    assert signature(m.h2) == -16
    assert m.canonical_c1 == zero_vector(m.h2)
    assert m.cup1 == {}


def test_small_generators():
    assert (cp2bar().euler, signature(cp2bar().h2)) == (3, -1)
    assert (cp2().euler, signature(cp2().h2)) == (3, 1)
    m = s1xs3()
    assert (m.b1, m.h2.rank, m.euler) == (1, 0, 0)
    assert (s4().euler, signature(s4().h2)) == (2, 0)
    for g in (cp2(), cp2bar(), s1xs3(), s4()):
        assert g.canonical_c1 is None


def test_surface_product_torus_times_torus():
    m = surface_product(1, 1)
    assert m.canonical_c1 == zero_vector(m.h2)
    assert m.euler == 0
    assert m.b1 == 4


def test_surface_product_profile():
    for g, gp in [(1, 2), (2, 2), (3, 3), (5, 1), (7, 3)]:
        m = surface_product(g, gp)
        assert m.b1 == 2 * (g + gp)
        assert m.h2.rank == 4 * g * gp + 2
        assert m.euler == (2 - 2 * g) * (2 - 2 * gp)
        assert m.euler == 2 - 2 * m.b1 + m.h2.rank
        assert signature(m.h2) == 0
        assert abs(determinant(m.h2)) == 1
        c1 = m.canonical_c1
        assert (c1[0], c1[1]) == (2 * (1 - g), 2 * (1 - gp))
        assert not any(c1[2:])
        assert pairing(m.h2, c1, c1) == 8 * (1 - g) * (1 - gp)


def _symplectic(i, k):
    """<u_i u_k> on one factor's basis x_1, y_1, ..., with <x_t y_t> = 1."""
    if k == i + 1 and i % 2 == 0:
        return 1
    if k == i - 1 and i % 2 == 1:
        return -1
    return 0


@pytest.mark.parametrize("g, gp", [(1, 1), (1, 2), (2, 3), (3, 1)])
def test_surface_product_form_follows_the_basis_conventions(g, gp):
    # alpha.alpha' = 1, alpha^2 = alpha'^2 = 0, and
    # (u x v).(u' x v') = -<u u'> <v v'>, as surface_product's docstring says.
    n1, n2 = 2 * g, 2 * gp
    rank = 2 + n1 * n2
    expected = [[0] * rank for _ in range(rank)]
    expected[0][1] = expected[1][0] = 1
    for i in range(n1):
        for j in range(n2):
            for k in range(n1):
                for l in range(n2):
                    expected[2 + i * n2 + j][2 + k * n2 + l] = (
                        -_symplectic(i, k) * _symplectic(j, l)
                    )
    assert surface_product(g, gp).h2.form == tuple(map(tuple, expected))


def test_surface_product_canonical_c1_square_spec_value():
    m = surface_product(3, 3)
    assert m.canonical_c1[:2] == (-4, -4)
    assert pairing(m.h2, m.canonical_c1, m.canonical_c1) == 32


def test_surface_product_rejects_nonpositive_genus():
    with pytest.raises(ValidationError):
        surface_product(0, 3)
    with pytest.raises(ValidationError):
        surface_product(2, -1)


def test_cup_class_antisymmetric():
    m = surface_product(2, 3)
    for i in range(m.b1):
        assert cup_class(m, i, i) == zero_vector(m.h2)
        for j in range(m.b1):
            assert cup_class(m, i, j) == tuple(-x for x in cup_class(m, j, i))


def test_cup_class_symplectic_pairs_land_on_factor_classes():
    g, gp = 2, 3
    m = surface_product(g, gp)
    alpha = cup_class(m, 0, 1)
    assert alpha[0] == 1 and not any(alpha[1:])
    alpha_p = cup_class(m, 2 * g, 2 * g + 1)
    assert alpha_p[1] == 1 and alpha_p[0] == 0 and not any(alpha_p[2:])
    # x_1 of the first factor against x_1 of the second is a mixed class
    mixed = cup_class(m, 0, 2 * g)
    assert sum(abs(x) for x in mixed) == 1 and mixed[0] == mixed[1] == 0


@pytest.mark.parametrize(
    "build",
    [*(GENERATORS[name] for name in GENERATORS if name != SP),
     *(lambda g=g, gp=gp: surface_product(g, gp) for g in range(1, 7) for gp in range(1, 7))],
    ids=[*(name for name in GENERATORS if name != SP),
         *(f"SP({g},{gp})" for g in range(1, 7) for gp in range(1, 7))],
)
def test_generators_state_the_invariants_of_their_forms(build):
    # Each generator builds its form with its invariants; the reference
    # elimination of the dense form gives the same.
    m = build()
    assert m.h2.invariants == full_block_invariants(m.h2.form)


# Each piece with its Euler number from its topology, not from its form:
# a product's is the product of its factors', a descriptor's is its field.
_BLOWN_DESCRIPTOR = {"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "blown"}
_SP11_DESCRIPTOR = descriptor_of(surface_product(1, 1), label="b")
PIECES_WITH_EULER = st.sampled_from([
    (k3, 24), (cp2, 3), (cp2bar, 3), (s1xs3, 0), (s4, 2),
    (lambda: custom(_BLOWN_DESCRIPTOR), 3), (lambda: custom(_SP11_DESCRIPTOR), 0),
]).map(lambda pair: (pair[0](), pair[1])) | st.builds(
    lambda g, gp: (surface_product(g, gp), (2 - 2 * g) * (2 - 2 * gp)),
    st.integers(1, 4), st.integers(1, 4),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(PIECES_WITH_EULER, min_size=1, max_size=6))
def test_euler_is_read_off_b1_and_the_rank(pieces):
    # chi of a sum of k pieces is the sum of theirs less 2 per neck.
    m = connected_sum(*(piece for piece, _ in pieces))
    assert m.euler == 2 - 2 * m.b1 + m.h2.rank
    assert m.euler == sum(chi for _, chi in pieces) - 2 * (len(pieces) - 1)
    assert "euler" not in ManifoldData.__slots__
    assert "euler" not in inspect.signature(ManifoldData).parameters


def test_connected_sum_additivity():
    a, b = k3(), k3()
    m = connected_sum(a, b)
    assert m.euler == 46
    assert signature(m.h2) == -32
    assert m.b1 == 0
    assert len(m.summands) == 2


def test_connected_sum_cross_cups_vanish():
    a = surface_product(1, 1)
    b = surface_product(1, 2)
    m = connected_sum(a, b)
    for i in range(a.b1):
        for j in range(a.b1, m.b1):
            assert not any(cup_class(m, i, j))


def test_connected_sum_s4_is_unit():
    a = surface_product(3, 3)
    m = connected_sum(s4(), a)
    assert (m.b1, m.euler, signature(m.h2)) == (a.b1, a.euler, signature(a.h2))
    # same rank, so the same c1 coordinates apply
    s_a = canonical_spinc(a)
    s_m = spinc(m, s_a.c1)
    assert dirac_index(m, s_m) == dirac_index(a, s_a)
    assert spin_condition(m, s_m) == spin_condition(a, s_a)


def _invariant_tuple(m, c1):
    s = spinc(m, c1)
    return (m.b1, m.euler, signature(m.h2), dirac_index(m, s), spin_condition(m, s))


def test_connected_sum_associative_commutative_on_invariants():
    rng = random.Random(13)
    pool = [k3, lambda: surface_product(1, 1), lambda: surface_product(3, 1)]
    for _ in range(10):
        a, b, c = (rng.choice(pool)() for _ in range(3))
        left = connected_sum(connected_sum(a, b), c)
        right = connected_sum(a, connected_sum(b, c))
        assert _invariant_tuple(left, left.canonical_c1) == _invariant_tuple(
            right, right.canonical_c1
        )
        ab, ba = connected_sum(a, b), connected_sum(b, a)
        assert _invariant_tuple(ab, ab.canonical_c1) == _invariant_tuple(
            ba, ba.canonical_c1
        )


def test_connected_sum_does_not_pad_cups():
    a, b = surface_product(3, 1), connected_sum(k3(), surface_product(1, 3))
    total = connected_sum(a, b)

    def cup_nnz(m):
        return sum(len(v) for v in m.cup1.values())

    assert cup_nnz(total) == cup_nnz(a) + cup_nnz(b)
    assert all(total.cup1[key] is v for key, v in a.cup1.items())


def test_surface_product_cup_classes_are_single_entries():
    m = surface_product(3, 5)
    assert len(m.cup1) == 4 * 3 * 5 + 3 + 5
    assert all(len(v) == 1 for v in m.cup1.values())


def test_custom_round_trips_k3():
    m = k3()
    again = custom(descriptor_of(m, label="k3-copy"))
    assert again.b1 == m.b1
    assert again.h2 == m.h2
    assert again.cup1 == m.cup1
    assert again.euler == m.euler
    assert again.canonical_c1 == m.canonical_c1
    assert again.summands[0].kind == "CUSTOM"


def test_custom_matches_builtin_verdict():
    m = surface_product(3, 3)
    again = custom(descriptor_of(m))
    assert spin_condition(again, canonical_spinc(again)) == spin_condition(
        m, canonical_spinc(m)
    )


def test_custom_rejects_asymmetric_form():
    with pytest.raises(ValidationError, match="symmetric"):
        custom({"b1": 0, "form": [[0, 1], [2, 0]], "euler": 4})


def test_custom_rejects_euler_mismatch():
    with pytest.raises(ValidationError, match="euler"):
        custom({"b1": 0, "form": [[1]], "euler": 5})


def test_custom_rejects_cup_class_of_wrong_length():
    descriptor = {"b1": 2, "form": [[1]], "euler": -1, "cup1": {"1,2": [2, 2]}}
    with pytest.raises(ValidationError, match=r"cup1 class at \(0,1\) has length 2, expected 1"):
        custom(descriptor)
    # The Euler number is checked first, as before cup classes were sparse.
    with pytest.raises(ValidationError, match="euler number 4"):
        custom({**descriptor, "euler": 4})


def test_custom_rejects_non_characteristic_c1():
    with pytest.raises(ValidationError, match="characteristic"):
        custom({"b1": 0, "form": [[-1]], "euler": 3, "c1": [0]})


def test_custom_refuses_a_form_that_is_not_unimodular():
    with pytest.raises(ValidationError, match=r"determinant is 2, but Poincare duality"):
        custom({"b1": 0, "form": [[2]], "euler": 3, "c1": [0]})
    with pytest.raises(ValidationError, match=r"determinant is 0, .* unimodular \(\|det\| = 1\)"):
        custom({"b1": 0, "form": [[-1, 0], [0, 0]], "euler": 4})
    # The longest determinant still printed has 18 digits; a longer one is
    # not printed, so str() never meets CPython's 4300-digit limit.
    big = 10**18 - 1
    with pytest.raises(ValidationError, match=f"determinant is {big}, "):
        custom({"b1": 0, "form": [[big]], "euler": 3, "c1": [1]})
    form = [[big if i == j else 0 for j in range(300)] for i in range(300)]
    with pytest.raises(ValidationError, match="determinant is over 18 digits long, "):
        custom({"b1": 0, "form": form, "euler": 302})


_DIGITS_BASE = {"b1": 2, "form": [[1]], "euler": -1, "cup1": {"1,2": [1]}, "c1": [1]}


@pytest.mark.parametrize(
    "field, value",
    [
        ("b1", 10**18),
        ("euler", -(10**18)),
        ("form", [[10**18]]),
        ("form", [[-(10**18)]]),
        ("cup1", {"1,2": [-(10**18)]}),
        ("c1", [10**4299 + 1]),
    ],
    ids=["b1", "euler", "form", "form-negative", "cup1", "c1"],
)
def test_custom_caps_every_integer_at_18_digits(field, value):
    custom(_DIGITS_BASE)
    with pytest.raises(ValidationError, match=f"^{field} has an integer of more than 18 digits$"):
        custom({**_DIGITS_BASE, field: value})


@pytest.mark.parametrize(
    "key", ["1,\u0662", "0_1,2", "1,+2", " 1 , 2", "01,2", "1,2 ", "1,-2", "1,\uff12", ""]
)
def test_custom_reads_only_canonical_cup_keys(key):
    descriptor = {"b1": 2, "form": [], "euler": -2, "cup1": {key: []}}
    with pytest.raises(ValidationError, match="is not of the form 'i,j'"):
        custom(descriptor)
    # So no two keys name one pair, and no class is silently dropped.
    with pytest.raises(ValidationError, match="'01,2' is not of the form 'i,j'"):
        custom({"b1": 2, "form": [[1, 0], [0, -1]], "euler": 0,
                "cup1": {"1,2": [1, 0], "01,2": [0, 1]}})
    assert custom({**descriptor, "cup1": {"1,2": []}}).cup1 == {}


def test_custom_rejects_unknown_fields_and_bad_cup_keys():
    with pytest.raises(ValidationError, match="unknown"):
        custom({"b1": 0, "form": [], "euler": 2, "cup_1": {}})
    with pytest.raises(ValidationError, match="cup1"):
        custom({"b1": 2, "form": [], "euler": -2, "cup1": {"2,1": []}})
    with pytest.raises(ValidationError, match="cup1"):
        custom({"b1": 2, "form": [], "euler": -2, "cup1": {"x": []}})


@pytest.mark.parametrize("field, value", WRONG_TYPES)
def test_custom_rejects_wrongly_typed_field(field, value):
    with pytest.raises(ValidationError, match=field):
        custom(wrong_type_descriptor(field, value))


def test_load_descriptor(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "blown"}')
    m = load_descriptor(str(path))
    assert signature(m.h2) == -1
    assert m.summands[0].label == "blown"
    with pytest.raises(ValidationError, match="cannot read"):
        load_descriptor(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_descriptor(str(bad))


_BLOWN = b'{"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "blown"}'
# The gate's work on _BLOWN: its form is one 1x1 block.
_GATE = {"decode": 1, "validate": 1, "components": 1, "eliminate": 1}


def test_descriptor_bytes_are_validated_once(tmp_path, empty_memos):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_bytes(_BLOWN)
    second.write_bytes(_BLOWN)
    with counted() as work:
        pieces = [load_descriptor(str(p)) for p in (first, first, second)]
    # The same bytes under a second path are the same piece: it holds no path.
    assert pieces[0] is pieces[1] is pieces[2]
    assert work == _GATE


def test_a_sum_reads_each_descriptor_term_once(tmp_path, empty_memos, monkeypatch, capsys):
    # Terms with the same bytes are decoded and checked once on fresh
    # files, before the memo holds the bytes, whether they name the same
    # path or two; a second request is a memo hit.  Its sum is built
    # again once the memo of resolved sums is emptied, and a third request
    # reuses the sum and its spin^c structure.
    (tmp_path / "u.json").write_bytes(_BLOWN)
    (tmp_path / "v.json").write_bytes(_BLOWN)
    monkeypatch.chdir(tmp_path)
    shared = {"sum": 1, "pairing": 1, "pairings": 1}
    for gate, resolved in ((_GATE, shared), ({}, shared), ({}, {})):
        if resolved:
            expressions._RESOLVED.clear()
        with counted() as work:
            assert main(["analyze", "@u.json # @u.json # 2*@u.json # @v.json"]) == 0
        assert work == {"certify": 1, **resolved, **gate}
    assert capsys.readouterr().err == ""


def test_rewritten_descriptor_is_validated_again(tmp_path, empty_memos):
    path = tmp_path / "m.json"
    path.write_bytes(_BLOWN)
    with counted() as work:
        before = load_descriptor(str(path))
        path.write_bytes(_BLOWN.replace(b"blown", b"other"))
        after = load_descriptor(str(path))
    assert work == {event: 2 * n for event, n in _GATE.items()}
    assert (before.summands[0].label, after.summands[0].label) == ("blown", "other")


@pytest.mark.parametrize(
    "content, message, events",
    [
        (b'{"b1": 0, "form": [[2]], "euler": 3}', "form determinant is 2", _GATE),
        (b'{"b1": 0, "form": [[-1]], "euler": 5}', "euler number 5 violates",
         ("decode", "validate")),
        (b"[]", "descriptor file '{path}' must contain a JSON object", ("decode",)),
        (b"{", "descriptor file '{path}' is not valid JSON", ("decode",)),
    ],
    ids=["unimodular", "euler-relation", "not-an-object", "not-json"],
)
def test_refused_descriptor_is_refused_on_every_read(tmp_path, empty_memos, content, message,
                                                     events):
    # Each read decodes the bytes again and checks as far as the refusal.
    messages = []
    with counted() as work:
        for name in ("a.json", "a.json", "b.json"):
            path = tmp_path / name
            path.write_bytes(content)
            with pytest.raises(ValidationError) as info:
                load_descriptor(str(path))
            assert str(info.value).startswith(message.format(path=path))
            messages.append(str(info.value).replace(str(path), "{path}"))
    assert len(set(messages)) == 1
    assert work == {event: 3 for event in events}
    assert not manifolds._VALIDATED


def test_memo_hit_equals_the_gate_of_the_decoded_bytes(tmp_path, empty_memos):
    m = connected_sum(k3(), surface_product(1, 2), cp2bar())
    data = json.dumps(descriptor_of(m, label="sum")).encode()
    path = tmp_path / "m.json"
    path.write_bytes(data)
    load_descriptor(str(path))
    hit = load_descriptor(str(path))
    fresh = custom(json.loads(data))
    assert hit is not fresh
    assert hit == fresh
    assert hit.h2.invariants == fresh.h2.invariants == m.h2.invariants


def test_memo_keeps_the_most_recently_read_descriptors(tmp_path, empty_memos):
    paths = []
    for k in range(MAX_VALIDATED_DESCRIPTORS + 1):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps({"b1": 0, "form": [[-1]], "euler": 3, "label": str(k)}))
        paths.append(str(path))
    with counted() as work:
        load_descriptor(paths[0])
        for path in paths[2:]:
            load_descriptor(path)
        load_descriptor(paths[0])  # a hit: now the most recently read
        load_descriptor(paths[1])  # one past the bound: the least recently read goes
    assert len(manifolds._VALIDATED) == MAX_VALIDATED_DESCRIPTORS
    assert work == {event: MAX_VALIDATED_DESCRIPTORS + 1 for event in _GATE}
    with counted() as work:
        load_descriptor(paths[0])
        load_descriptor(paths[2])
    assert work == _GATE


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        (b'{"b1": 0, "form": [[' + b"9" * 5000 + b']], "euler": 3}', "not readable JSON"),
        (b'{"b1": 0, "form": [[-1]], "euler": 3, "label": "\xe9"}', "not UTF-8"),
    ],
    ids=["deep-nesting", "long-integer", "latin-1"],
)
def test_load_descriptor_unreadable_file_is_validation_error(tmp_path, content, message):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match=message) as info:
        load_descriptor(str(path))
    assert str(path) in str(info.value)


def _random_piece(rng):
    build = rng.choice(
        [
            k3,
            cp2,
            cp2bar,
            s1xs3,
            s4,
            lambda: surface_product(rng.randint(1, 3), rng.randint(1, 3)),
            lambda: custom(random_descriptor(rng)),
            lambda: custom({**random_descriptor(rng), "c1": None}),
        ]
    )
    return build()


def test_nary_connected_sum_equals_pairwise_fold():
    rng = random.Random(53)
    for _ in range(80):
        pieces = [_random_piece(rng) for _ in range(rng.randint(1, 6))]
        folded = pieces[0]
        for piece in pieces[1:]:
            folded = connected_sum(folded, piece)
        total = connected_sum(*pieces)
        assert total.b1 == folded.b1
        assert total.h2.rows == folded.h2.rows
        assert total.h2.invariants == folded.h2.invariants
        assert total.cup1 == folded.cup1
        assert total.euler == folded.euler
        assert total.summands == folded.summands
        assert total.canonical_c1 == folded.canonical_c1
        # Independently of the binary sum: each piece's cup classes sit at
        # its own offsets in H^1 and in H^2.
        b1 = rank = 0
        for piece in pieces:
            for i in range(piece.b1):
                for j in range(piece.b1):
                    inner = cup_class(piece, i, j)
                    padded = (0,) * rank + inner + (0,) * (total.h2.rank - rank - len(inner))
                    assert cup_class(total, i + b1, j + b1) == padded
            b1, rank = b1 + piece.b1, rank + piece.h2.rank


# JSON values of every type, for fields that expect another one.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12,
)


@st.composite
def descriptors(draw):
    """Descriptor-shaped JSON objects: mostly valid, with forms that are
    often disconnected or have zero rows, half of them unimodular so that
    custom admits some, then one field corrupted."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        lattice, _ = random_unimodular_symmetric(n, draw(st.randoms(use_true_random=False)))
        form = [list(row) for row in lattice.form]
    else:
        form = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                form[i][j] = form[j][i] = draw(st.sampled_from((0, 0, 0, 1, -1, 2)))
    b1 = draw(st.integers(0, 4))
    d = {"b1": b1, "form": form, "euler": 2 - 2 * b1 + n}
    if draw(st.booleans()):
        pair = st.tuples(st.integers(-1, b1 + 1), st.integers(-1, b1 + 1))
        keys = pair.map(lambda p: f"{p[0]},{p[1]}") | st.text(max_size=4)
        d["cup1"] = draw(
            st.dictionaries(keys, st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=4)
        )
    if draw(st.booleans()):
        d["c1"] = draw(st.none() | st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        d["label"] = draw(st.text(max_size=4))
    fields = ["b1", "form", "euler", "cup1", "c1", "label"]
    corruption = draw(st.sampled_from(["none", "replace", "delete", "unknown", "shape"]))
    if corruption == "replace":
        d[draw(st.sampled_from(fields))] = draw(JSON_VALUES)
    elif corruption == "delete":
        d.pop(draw(st.sampled_from(fields)), None)
    elif corruption == "unknown":
        d[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    elif corruption == "shape" and n:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        row = form[i]
        edit = draw(st.sampled_from(["ragged", "asymmetric", "bool", "value"]))
        if edit == "ragged":
            del row[-1]
        elif edit == "asymmetric":
            row[j] += 1
        elif edit == "bool":
            row[j] = bool(row[j])
        else:
            row[j] = draw(JSON_VALUES)
    return d


@settings(max_examples=200, deadline=None)
@given(descriptors())
def test_custom_raises_only_validation_errors(descriptor):
    try:
        m = custom(descriptor)
    except ValidationError:
        return
    assert m.h2.invariants == Lattice(m.h2.rows).invariants
    assert abs(determinant(m.h2)) == 1
    assert inertia(m.h2)[2] == 0


GENERATOR_PIECES = st.sampled_from([k3, cp2, cp2bar, s1xs3, s4]).map(
    lambda make: make()
) | st.builds(surface_product, st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(GENERATOR_PIECES, min_size=1, max_size=5))
def test_descriptor_round_trip_of_random_sums(pieces):
    # connected_sum skips the whole-sum checks; custom runs all of them on
    # the exported descriptor, and fills the invariants again from its
    # components by `_components`.
    m = connected_sum(*pieces)
    again = custom(descriptor_of(m))
    assert again.h2.rows == m.h2.rows
    assert (again.b1, again.cup1, again.euler) == (m.b1, m.cup1, m.euler)
    assert again.canonical_c1 == m.canonical_c1
    assert again.h2.invariants == m.h2.invariants


def test_surface_product_rank_is_the_built_rank():
    for g, gp in ((1, 1), (1, 2), (3, 3), (2, 5)):
        assert surface_product_rank(g, gp) == surface_product(g, gp).h2.rank


def test_surface_product_rank_refuses_what_the_builder_refuses():
    for refuse in (surface_product_rank, surface_product):
        with pytest.raises(ValidationError, match=r"genus must be positive, got \(0,1\)"):
            refuse(0, 1)


@pytest.mark.parametrize("value", [k3(), Summand(SP, (3, 3)), k3().h2], ids=type)
def test_values_are_immutable(value):
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def _with_canonical_spinc(m: ManifoldData) -> ManifoldData:
    canonical_spinc(m)
    return m


# The sum is given its canonical spin^c structure, the last value keeps an
# empty slot, and the k3() is filled by the structure built on it.
@pytest.mark.parametrize("value", [k3(),
                                   _with_canonical_spinc(connected_sum(k3(), surface_product(3, 1))),
                                   canonical_spinc(k3()), connected_sum(k3(), cp2bar())],
                         ids=type)
def test_values_survive_pickle_and_copy(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(again) is type(value)
        assert all(getattr(again, f) == getattr(value, f) for f in type(value).__slots__)
        if isinstance(value, ManifoldData) and value.canonical_c1 is not None:
            # The kept structure is copied whole, and is the copy's own.
            kept, s = again.canonical_spinc, value.canonical_spinc
            assert all(getattr(kept, f) == getattr(s, f) for f in type(s).__slots__)
            with counted() as work:
                assert canonical_spinc(again) is kept
            assert work == {}
        elif isinstance(value, ManifoldData):
            assert again.canonical_spinc is None


def test_canonical_spinc_is_derived_once_and_kept_on_the_manifold():
    m = connected_sum(k3(), surface_product(3, 1))
    assert m.canonical_spinc is None
    with counted() as work:
        s = canonical_spinc(m)
    assert work == {"pairing": 1, "pairings": 1}
    assert m.canonical_spinc is s
    with counted() as work:
        assert canonical_spinc(m) is s
    assert work == {}
    # A manifold without a canonical class is refused on every call, and
    # its slot stays empty.
    blown = connected_sum(k3(), cp2())
    for _ in range(2):
        with pytest.raises(ValidationError, match="no canonical spin"):
            canonical_spinc(blown)
    assert blown.canonical_spinc is None


def test_the_canonical_spinc_slot_does_not_count():
    # Equality, hashing and repr read the fields only: a sum with its
    # structure kept equals one without, and neither fills the other's.
    # Hashing reads the key that equality compares (the cup1 dict makes a
    # ManifoldData itself unhashable).
    filled, empty = (connected_sum(k3(), surface_product(3, 1)) for _ in range(2))
    canonical_spinc(filled)
    assert "canonical_spinc" not in ManifoldData._fields
    assert filled == empty and repr(filled) == repr(empty)
    assert ManifoldData._key(filled) == ManifoldData._key(empty)
    assert "canonical_spinc" not in repr(filled)
    assert empty.canonical_spinc is None
    with pytest.raises(AttributeError, match="cannot assign to field 'canonical_spinc'"):
        filled.canonical_spinc = None


def test_value_equality_reads_fields_and_class():
    assert Summand(SP, (3, 3)) == Summand(SP, genera=(3, 3))
    assert hash(Summand(SP, (3, 3))) == hash(Summand(SP, (3, 3)))
    assert Summand(SP, (3, 3)) != Summand(SP, (3, 5))
    assert Summand("K3") != "K3" and Summand("K3") != ("K3", None, None, None)
    assert repr(Summand(SP, (3, 3))) == "Summand(kind='SP', genera=(3, 3), label=None, path=None)"
    # The invariants of a lattice are derived from its rows and do not
    # count: a lattice whose invariants are not filled yet equals one whose
    # are, with the same hash and repr, and neither fills the other's.
    h2 = k3().h2
    again = Lattice(h2.rows)
    assert again == h2 and hash(again) == hash(h2) and repr(again) == repr(h2)
    with pytest.raises(AttributeError):
        Lattice.invariants.__get__(again)
    assert again.invariants == h2.invariants
