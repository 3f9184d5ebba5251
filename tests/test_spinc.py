import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.cli import main
from fourfold.errors import IntegralityError, ShapeError, ValidationError
from fourfold.lattice import pairing
from fourfold.manifolds import connected_sum, cp2bar, custom, k3, surface_product
from fourfold.report import spinc_summary
from fourfold.spinc import (
    canonical_spinc,
    cup_pairing_matrix,
    dirac_index,
    index_chern_form,
    moduli_dimension,
    spin_condition,
    spinc,
)

from genforms import (
    cup_class,
    dense_direct_sum,
    random_descriptor,
    random_unimodular,
    random_unimodular_symmetric,
    solve_characteristic_mod2,
    transform,
)

GENERATOR_POOL = [
    k3,
    lambda: surface_product(1, 1),
    lambda: surface_product(1, 3),
    lambda: surface_product(3, 3),
    lambda: surface_product(5, 1),
    lambda: surface_product(3, 5),
]


def odd_pairing_fixture():
    # b1 = 2 with an odd-diagonal form: the cup pairing of the symplectic
    # pair against c1 = (0,1) is odd, tripping the integrality gate.
    return custom(
        {
            "b1": 2,
            "form": [[1, 1], [1, 0]],
            "euler": 0,
            "cup1": {"1,2": [1, 0]},
            "c1": [0, 1],
        }
    )


def densify(size, upper):
    """The antisymmetric size x size matrix with the given upper entries."""
    rows = [[0] * size for _ in range(size)]
    for (i, j), x in upper.items():
        assert 0 <= i < j < size and x != 0
        rows[i][j], rows[j][i] = x, -x
    return tuple(tuple(row) for row in rows)


def cup_matrix(m, s):
    return densify(m.b1, cup_pairing_matrix(m, s))


def test_dirac_index_k3():
    m = k3()
    assert dirac_index(m, canonical_spinc(m)) == 2


def test_dirac_index_surface_product():
    m = surface_product(3, 3)
    assert dirac_index(m, canonical_spinc(m)) == 4


def test_dirac_index_cp2bar():
    m = cp2bar()
    assert dirac_index(m, spinc(m, (-1,))) == 0


def test_spinc_rejects_non_characteristic():
    with pytest.raises(ValidationError, match="characteristic"):
        spinc(cp2bar(), (0,))


def test_spinc_rejects_wrong_length():
    with pytest.raises(ValidationError, match="length"):
        spinc(cp2bar(), (1, 0))


def test_canonical_spinc_missing():
    with pytest.raises(ValidationError, match="canonical"):
        canonical_spinc(cp2bar())


def test_structure_of_another_rank_raises_shape_error():
    other = canonical_spinc(surface_product(1, 1))
    for fact in (dirac_index, moduli_dimension):
        with pytest.raises(ShapeError, match="x has length 6, lattice rank is 22"):
            fact(k3(), other)


def test_structure_equality_and_repr_read_c1_only():
    m = surface_product(3, 1)
    s = canonical_spinc(m)
    assert s == spinc(m, m.canonical_c1) and hash(s) == hash(spinc(m, m.canonical_c1))
    assert repr(s) == f"SpinCStructure(c1={m.canonical_c1!r})"


def test_cup_pairing_matrix_empty_for_b1_zero():
    m = k3()
    assert cup_pairing_matrix(m, canonical_spinc(m)) == {}


def test_cup_pairing_matrix_surface_product_mod4():
    m = surface_product(3, 3)
    t = cup_matrix(m, canonical_spinc(m))
    assert len(t) == m.b1
    assert any(any(row) for row in t)
    for i in range(m.b1):
        assert t[i][i] == 0
        for j in range(m.b1):
            assert t[i][j] == -t[j][i]
            assert t[i][j] % 4 == 0


def test_cup_pairing_matrix_block_diagonal_on_sums():
    a, b = surface_product(1, 1), surface_product(3, 1)
    m = connected_sum(a, b)
    t = cup_matrix(m, canonical_spinc(m))
    ta = cup_matrix(a, canonical_spinc(a))
    tb = cup_matrix(b, canonical_spinc(b))
    for i in range(a.b1):
        for j in range(a.b1, m.b1):
            assert t[i][j] == 0
        assert t[i][: a.b1] == ta[i]
    for i in range(b.b1):
        assert t[a.b1 + i][a.b1 :] == tb[i]


def test_cup_pairing_matrix_matches_dense_oracle():
    rng = random.Random(47)
    for k in range(40):
        m = custom(random_descriptor(rng))
        if k % 3 == 1:
            m = connected_sum(surface_product(1, 3), m)
        elif k % 3 == 2:
            m = connected_sum(m, custom(random_descriptor(rng)))
        s = canonical_spinc(m)
        oracle = tuple(
            tuple(pairing(m.h2, s.c1, cup_class(m, i, j)) for j in range(m.b1))
            for i in range(m.b1)
        )
        assert cup_matrix(m, s) == oracle


def test_index_chern_form_halves_pairings():
    m = surface_product(3, 3)
    s = canonical_spinc(m)
    t = cup_matrix(m, s)
    c = index_chern_form(m, s)
    assert c.size == m.b1
    assert c.dense() == densify(c.size, c.entries)
    for i in range(m.b1):
        for j in range(m.b1):
            assert 2 * c.dense()[i][j] == t[i][j]
    assert c.all_even()


def test_index_chern_form_integrality_gate():
    m = odd_pairing_fixture()
    with pytest.raises(IntegralityError, match="odd"):
        index_chern_form(m, canonical_spinc(m))


def test_integrality_error_names_first_odd_entry_in_row_major_order():
    # Two odd pairings, listed in reverse order: the error names (0,1),
    # the first odd entry of the dense matrix, not the first key given.
    m = custom(
        {
            "b1": 3,
            "form": [[1, 1], [1, 0]],
            "euler": -2,
            "cup1": {"2,3": [1, 0], "1,2": [3, 0]},
            "c1": [0, 1],
        }
    )
    message = "cup pairing at (0,1) is odd (3); half-integral index Chern class is not allowed"
    with pytest.raises(IntegralityError) as err:
        index_chern_form(m, canonical_spinc(m))
    assert str(err.value) == message


def test_spin_condition_k3():
    m = k3()
    cond = spin_condition(m, canonical_spinc(m))
    assert (cond.index_even, cond.chern_even, cond.holds) == (True, True, True)


def test_spin_condition_odd_genus_grid():
    for g in (1, 3, 5, 7):
        for gp in (1, 3, 5, 7):
            m = surface_product(g, gp)
            assert spin_condition(m, canonical_spinc(m)).holds


def test_spin_condition_even_genus_fails_chern_parity():
    m = surface_product(2, 2)
    cond = spin_condition(m, canonical_spinc(m))
    assert not cond.chern_even
    assert not cond.holds


def _w2(m):
    return spinc_summary(m, canonical_spinc(m), "canonical")["w2"]


def test_w2_k3_parities():
    assert _w2(k3()) == {
        "m_parity": 0,
        "torus_part_zero": True,
        "h_coefficient": 0,
        "e_h_coefficient": 0,
    }


def test_w2_torus_part_nonzero_for_even_genus():
    assert _w2(surface_product(2, 2))["torus_part_zero"] is False


def test_w2_vanishes_iff_condition_holds():
    cases = GENERATOR_POOL + [
        lambda: surface_product(2, 2),
        lambda: surface_product(2, 1),
        lambda: surface_product(1, 2),
    ]
    for build in cases:
        m = build()
        w2 = _w2(m)
        vanishes = w2["torus_part_zero"] and w2["h_coefficient"] == w2["e_h_coefficient"] == 0
        assert vanishes == spin_condition(m, canonical_spinc(m)).holds


def test_moduli_dimension_generators():
    m = k3()
    assert moduli_dimension(m, canonical_spinc(m)) == 0
    m = surface_product(3, 3)
    assert moduli_dimension(m, canonical_spinc(m)) == 0


def test_moduli_dimension_counts_summands():
    rng = random.Random(29)
    for l in range(1, 7):
        m = rng.choice(GENERATOR_POOL)()
        for _ in range(l - 1):
            m = connected_sum(m, rng.choice(GENERATOR_POOL)())
        assert moduli_dimension(m, canonical_spinc(m)) == l - 1


def test_dirac_index_additive():
    rng = random.Random(31)
    for _ in range(30):
        a = rng.choice(GENERATOR_POOL)()
        b = rng.choice(GENERATOR_POOL)()
        m = connected_sum(a, b)
        assert dirac_index(m, canonical_spinc(m)) == dirac_index(
            a, canonical_spinc(a)
        ) + dirac_index(b, canonical_spinc(b))


def test_spin_condition_stable_under_sums():
    rng = random.Random(37)
    for _ in range(30):
        a = rng.choice(GENERATOR_POOL)()
        b = rng.choice(GENERATOR_POOL)()
        assert spin_condition(a, canonical_spinc(a)).holds
        assert spin_condition(b, canonical_spinc(b)).holds
        m = connected_sum(a, b)
        assert spin_condition(m, canonical_spinc(m)).holds


def test_index_chern_form_block_sum():
    a, b = surface_product(3, 1), surface_product(1, 1)
    m = connected_sum(a, b)
    cm = index_chern_form(m, canonical_spinc(m)).dense()
    ca = index_chern_form(a, canonical_spinc(a)).dense()
    cb = index_chern_form(b, canonical_spinc(b)).dense()
    for i in range(a.b1):
        assert cm[i][: a.b1] == ca[i]
        assert not any(cm[i][a.b1 :])
    for i in range(b.b1):
        assert cm[a.b1 + i][a.b1 :] == cb[i]
        assert not any(cm[a.b1 + i][: a.b1])


def test_text_analyze_memory_is_linear_in_summands(capsys):
    # b1 grows linearly with k, so a b1 x b1 matrix would quadruple the
    # peak when k doubles; text mode builds none.  Each peak is counted
    # above the memory already held when the request starts (the parser,
    # the memos and what they keep of earlier requests).
    assert main(["analyze", "SP(3,3)"]) == 0
    peaks = {}
    tracemalloc.start()
    try:
        for k in (50, 100):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert main(["analyze", f"{k}*SP(3,3)"]) == 0
            peaks[k] = tracemalloc.get_traced_memory()[1] - held
            capsys.readouterr()
    finally:
        tracemalloc.stop()
    assert peaks[100] <= 2.5 * peaks[50], peaks


_E8 = [list(row[:8]) for row in k3().h2.form[:8]]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 5), st.integers(0, 2), st.sampled_from((0, -1, 1)), st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_admitted_descriptors_have_integral_index_and_dimension(odd, h, e8, b1, rng):
    # The theorems behind the exact divisions of dirac_index and
    # moduli_dimension, over every descriptor custom admits: odd and even
    # unimodular forms, mixed by a random change of basis, with a random
    # b1 and a random characteristic c1.
    blocks = [[list(row) for row in random_unimodular_symmetric(odd, rng)[0].form]] if odd else []
    blocks += [[[0, 1], [1, 0]]] * h + ([[[e8 * x for x in row] for row in _E8]] if e8 else [])
    form = dense_direct_sum(blocks)
    form = transform(form, random_unimodular(len(form), rng))
    c1 = solve_characteristic_mod2(form, rng)
    m = custom({"b1": b1, "form": form, "euler": 2 - 2 * b1 + len(form), "c1": list(c1)})
    s = canonical_spinc(m)
    assert (s.c1_square - s.tau) % 8 == 0
    assert (s.c1_square - 2 * m.euler - 3 * s.tau) % 4 == 0
