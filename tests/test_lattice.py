import enum
import inspect
import random
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.errors import ShapeError, ValidationError
from fourfold.lattice import (
    Lattice,
    _block_invariants,
    _components,
    as_vector,
    determinant,
    direct_sum,
    inertia,
    is_characteristic,
    is_negative_definite,
    pairing,
    signature,
    sparse,
    zero_vector,
)
from fourfold.expressions import parse_manifold
from fourfold.manifolds import custom, descriptor_of, k3, surface_product

from genforms import (
    dense_determinant,
    dense_direct_sum,
    dense_inertia,
    diagonal_lattice,
    full_block_invariants,
    permuted,
    random_symmetric,
    random_unimodular,
    random_unimodular_symmetric,
    solve_characteristic_mod2,
    transform,
    union_find_components,
)
from test_refusals import traced

HYPERBOLIC = Lattice.from_rows(((0, 1), (1, 0)))


def test_pairing_hyperbolic():
    assert pairing(HYPERBOLIC, (1, 0), (0, 1)) == 1


def test_pairing_negative_generator():
    lat = Lattice.from_rows(((-1,),))
    assert pairing(lat, (1,), (1,)) == -1


def test_pairing_zero_vector_on_k3():
    lat = k3().h2
    z = zero_vector(lat)
    assert pairing(lat, z, z) == 0


def test_pairing_shape_error():
    with pytest.raises(ShapeError):
        pairing(HYPERBOLIC, (1,), (0, 1))


def test_pairing_bilinear_and_symmetric():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        lat = Lattice.from_rows(random_symmetric(n, rng))
        x = tuple(rng.randint(-4, 4) for _ in range(n))
        y = tuple(rng.randint(-4, 4) for _ in range(n))
        z = tuple(rng.randint(-4, 4) for _ in range(n))
        assert pairing(lat, x, y) == pairing(lat, y, x)
        xz = tuple(a + 3 * b for a, b in zip(x, z))
        assert pairing(lat, xz, y) == pairing(lat, x, y) + 3 * pairing(lat, z, y)


def test_signature_k3():
    assert signature(k3().h2) == -16


def test_signature_cp2bar_form():
    assert signature(Lattice.from_rows(((-1,),))) == -1


def test_signature_rank0():
    assert signature(Lattice.from_rows(())) == 0


def test_inertia_k3():
    assert inertia(k3().h2) == (3, 19, 0)


def test_inertia_degenerate():
    assert inertia(diagonal_lattice([1, 0, -1])) == (1, 1, 1)
    assert inertia(Lattice.from_rows(((0, 0), (0, 0)))) == (0, 0, 2)


def test_signature_matches_eigenvalue_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 6)
        rows = random_symmetric(n, rng)
        eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
        tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))))
        if np.any(np.abs(eig) <= 1000 * tol):
            continue  # fp oracle cannot call signs reliably; resample
        pos = int(np.sum(eig > 0))
        neg = int(np.sum(eig < 0))
        assert inertia(Lattice.from_rows(rows)) == (pos, neg, n - pos - neg)
        checked += 1


def test_signature_congruence_invariance():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = random_symmetric(n, rng)
        p = random_unimodular(n, rng)
        lat = Lattice.from_rows(rows)
        lat2 = Lattice.from_rows(transform(rows, p))
        assert signature(lat) == signature(lat2)


def test_negative_definite_rank0():
    assert is_negative_definite(Lattice.from_rows(()))


def test_negative_definite_diag_minus_ones():
    assert is_negative_definite(diagonal_lattice([-1] * 7))


def test_negative_definite_k3_false():
    assert not is_negative_definite(k3().h2)


def test_negative_definite_rejects_null_directions():
    assert not is_negative_definite(diagonal_lattice([-1, 0]))


def test_negative_definite_implies_signature_minus_rank():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        lat = Lattice.from_rows(random_symmetric(n, rng))
        if is_negative_definite(lat):
            assert signature(lat) == -lat.rank


def test_van_der_blij_congruence():
    # Q(c,c) = signature mod 8 for every characteristic vector of a
    # unimodular form.
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 8)
        lat, sig = random_unimodular_symmetric(n, rng)
        assert signature(lat) == sig
        c = solve_characteristic_mod2(lat.form, rng)
        assert is_characteristic(lat, c)
        assert (pairing(lat, c, c) - sig) % 8 == 0


def test_is_characteristic_k3_zero():
    lat = k3().h2
    assert is_characteristic(lat, zero_vector(lat))


def test_is_characteristic_odd_form():
    lat = Lattice.from_rows(((-1,),))
    assert not is_characteristic(lat, (0,))
    assert is_characteristic(lat, (1,))


def test_determinant():
    assert determinant(Lattice.from_rows(())) == 1
    assert determinant(HYPERBOLIC) == -1
    assert determinant(diagonal_lattice([2, 3])) == 6
    assert determinant(diagonal_lattice([1, 0, -1])) == 0
    assert determinant(k3().h2) == -1


def test_determinant_multiplicative_over_direct_sum():
    a = diagonal_lattice([2, -3])
    assert determinant(direct_sum(a, HYPERBOLIC)) == determinant(a) * determinant(HYPERBOLIC)


def test_direct_sum_signature_additive():
    a = k3().h2
    b = diagonal_lattice([-1, -1, 5])
    assert signature(direct_sum(a, b)) == signature(a) + signature(b)


def test_from_rows_rejects_asymmetric():
    with pytest.raises(ValidationError):
        Lattice.from_rows([[0, 1], [2, 0]])


def test_from_rows_rejects_ragged():
    with pytest.raises(ShapeError):
        Lattice.from_rows([[0, 1], [1]])


def _random_block(rng):
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        return [list(row) for row in random_unimodular_symmetric(n, rng)[0].form]
    return random_symmetric(n, rng, bound=3)


def _assert_matches_dense_oracle(rows):
    lat = Lattice.from_rows(rows)
    assert determinant(lat) == dense_determinant(rows)
    assert inertia(lat) == dense_inertia(rows)


def _zero_diagonal(n, rng):
    rows = random_symmetric(n, rng)
    for i in range(n):
        rows[i][i] = 0
    return rows


def _rank_deficient(n, rng):
    """P^T (D + 0_r) P with r >= 1: a congruent form with a radical."""
    r = rng.randint(1, n)
    d = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n - r)] + [0] * r
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return transform(diag, random_unimodular(n, rng))


def test_blockwise_matches_dense_oracle_on_random_forms():
    # Besides forms with a full diagonal: all-zero diagonals, where an
    # off-diagonal entry must be promoted to a pivot, and forms with a
    # radical, whose elimination ends in an all-zero trailing block.
    rng = random.Random(31)
    for family in (random_symmetric, _zero_diagonal, _rank_deficient):
        for _ in range(150):
            _assert_matches_dense_oracle(family(rng.randint(1, 8), rng))


def test_blockwise_matches_dense_oracle_on_permuted_direct_sums():
    # Blocks interleaved by a random basis permutation, so no component
    # is a contiguous range of indices.
    rng = random.Random(37)
    for _ in range(100):
        blocks = [_random_block(rng) for _ in range(rng.randint(2, 5))]
        rows = dense_direct_sum(blocks)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        rows = permuted(rows, perm)
        _assert_matches_dense_oracle(rows)
        product = 1
        for b in blocks:
            product *= dense_determinant(b)
        assert determinant(Lattice.from_rows(rows)) == product


def test_blockwise_matches_dense_oracle_with_isolated_zero_rows():
    rng = random.Random(41)
    for _ in range(100):
        rows = dense_direct_sum(
            [_random_block(rng)] + [[[0]] for _ in range(rng.randint(1, 3))]
        )
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        rows = permuted(rows, perm)
        _assert_matches_dense_oracle(rows)
        lat = Lattice.from_rows(rows)
        assert determinant(lat) == 0
        assert inertia(lat)[2] >= 1


def test_from_rows_round_trip():
    rng = random.Random(43)
    lattices = [k3().h2, surface_product(3, 3).h2, Lattice.from_rows(()), HYPERBOLIC]
    lattices += [Lattice.from_rows(random_symmetric(rng.randint(1, 6), rng)) for _ in range(30)]
    for lat in lattices:
        assert Lattice.from_rows(lat.form) == lat


def test_descriptor_round_trip_of_mixed_sum():
    m = parse_manifold("K3 # SP(3,3) # 5*~CP2")
    again = custom(descriptor_of(m))
    assert again.h2 == m.h2
    assert (again.b1, again.euler, again.cup1) == (m.b1, m.euler, m.cup1)
    assert again.canonical_c1 == m.canonical_c1
    assert descriptor_of(again) == descriptor_of(m)


def test_direct_sum_does_not_pad():
    a, b = k3().h2, surface_product(1, 1).h2
    total = direct_sum(a, b)
    assert total.rows[: a.rank] == a.rows
    assert sum(len(row) for row in total.rows) == sum(
        len(row) for row in a.rows + b.rows
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: Lattice.from_rows([[2, 1], [1, 2]]),
        lambda: Lattice((((0, 2), (1, 1)), ((0, 1), (1, 2)))),
    ],
    ids=["from_rows", "rows"],
)
def test_invariants_are_filled_on_first_read(build):
    # No constructor eliminates: a descriptor's checks run first.
    lat = build()
    with pytest.raises(AttributeError):
        Lattice.invariants.__get__(lat)
    assert lat.invariants == (2, 0, 0, 3)
    assert Lattice.invariants.__get__(lat) == (2, 0, 0, 3)


def test_direct_sum_keeps_first_part_rows():
    # Only the rows after the first part are shifted; the first part's
    # row tuples are shared, as a connected sum shares its first piece's
    # cup classes.
    a, b = surface_product(3, 3).h2, k3().h2
    total = direct_sum(a, b)
    assert all(total.rows[i] is a.rows[i] for i in range(a.rank))
    assert total.rows[a.rank] is not b.rows[0]


def _random_lattice(rng):
    """A generator form, a random form with zeros, or a direct sum of
    random blocks under a random basis permutation."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(
            [k3().h2, surface_product(rng.randint(1, 2), rng.randint(1, 2)).h2, HYPERBOLIC,
             Lattice.from_rows(())]
        )
    if kind == 1:
        return Lattice.from_rows(random_symmetric(rng.randint(1, 6), rng, bound=1))
    rows = dense_direct_sum([_random_block(rng) for _ in range(rng.randint(2, 5))])
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return Lattice.from_rows(permuted(rows, perm))


def test_direct_sum_invariants_match_a_fresh_fill():
    # A sum adds up its parts' invariants; a lattice of the same rows
    # fills them from its components, and the dense elimination of the
    # whole matrix finds them again.
    rng = random.Random(47)
    for _ in range(100):
        lats = [_random_lattice(rng) for _ in range(rng.randint(1, 5))]
        total = direct_sum(*lats)
        recomputed = Lattice(total.rows)
        assert total.invariants == recomputed.invariants == full_block_invariants(total.form)
        assert total == recomputed and hash(total) == hash(recomputed)
        folded = reduce(direct_sum, lats)
        assert (total.rows, total.invariants) == (folded.rows, folded.invariants)
        assert inertia(total) == dense_inertia(total.form)
        assert determinant(total) == dense_determinant(total.form)


@st.composite
def symmetric_forms(draw):
    """A symmetric form of rank 1-12 with entries -3..3: half of them with
    a zero diagonal, and half degenerate, holding copies of other basis
    vectors (each copy adds a radical direction), in a random basis
    order."""
    rank = draw(st.integers(1, 12))
    copies = draw(st.integers(0, rank - 1)) if draw(st.booleans()) else 0
    zero_diagonal = draw(st.booleans())
    n = rank - copies
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    for _ in range(copies):
        i = draw(st.integers(0, len(rows) - 1))
        rows = [row + [row[i]] for row in rows] + [rows[i] + [rows[i][i]]]
    return permuted(rows, draw(st.permutations(range(rank))))


@settings(max_examples=400, deadline=None)
@given(symmetric_forms())
def test_upper_triangle_elimination_matches_the_full_matrix(rows):
    block = tuple(map(sparse, rows))
    assert _block_invariants(block) == full_block_invariants(rows)


@pytest.mark.parametrize("g", range(1, 7))
def test_surface_product_invariants_in_closed_form_match_the_elimination(g):
    for gp in range(1, 7):
        form = surface_product(g, gp).h2
        half = 1 + 2 * g * gp
        assert form.invariants == (half, half, 0, -1)
        assert Lattice(form.rows).invariants == form.invariants
        assert full_block_invariants(form.form) == form.invariants


# Forms whose first pivot is zero while a later diagonal entry is not:
# the second swaps index 0 with 2, across index 1 and with a tail.
SWAP_FORMS = [
    [[0, 1], [1, 1]],
    [[0, 1, 2, 1], [1, 0, 1, 3], [2, 1, 1, 1], [1, 3, 1, 2]],
]
# Forms with a zero diagonal: H; a pair (0, 2) whose row gains the
# mirror of (1, 2); a zero row before the pair (1, 2), which is then
# swapped to the front.
PROMOTE_FORMS = [
    [[0, 1], [1, 0]],
    [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
]


def _line_of(function, text):
    """(file, line number) of the one line of ``function`` holding ``text``."""
    source, start = inspect.getsourcelines(function)
    (offset,) = [t for t, line in enumerate(source) if text in line]
    return inspect.getsourcefile(function), start + offset


def test_hand_built_forms_reach_the_swap_and_the_promotion():
    eliminate = _block_invariants
    swap = _line_of(eliminate, "rk[0], rj[0] = rj[0], rk[0]")
    promote = _line_of(eliminate, "ri[0] = 2 * ri[d]")
    for forms, line in ((SWAP_FORMS, swap), (PROMOTE_FORMS, promote)):
        for rows in forms:
            block = tuple(map(sparse, rows))
            outcome, executed = traced([eliminate], lambda: eliminate(block))
            assert outcome == full_block_invariants(rows), rows
            assert line in executed, rows


def test_components_match_union_find():
    # Permuted direct sums with isolated zero rows, and random sparse
    # forms with some rows and columns zeroed: the same blocks in the same
    # order, by smallest member.
    rng = random.Random(53)
    for _ in range(150):
        blocks = [_random_block(rng) for _ in range(rng.randint(1, 5))]
        rows = dense_direct_sum(blocks + [[[0]]] * rng.randint(0, 3))
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        sparse_rows = tuple(map(sparse, permuted(rows, perm)))
        assert _components(sparse_rows) == union_find_components(sparse_rows)
    for _ in range(150):
        n = rng.randint(1, 10)
        rows = random_symmetric(n, rng, bound=1)
        for i in rng.sample(range(n), rng.randint(0, n)):
            for j in range(n):
                rows[i][j] = rows[j][i] = 0
        sparse_rows = tuple(map(sparse, rows))
        assert _components(sparse_rows) == union_find_components(sparse_rows)


@pytest.mark.parametrize(
    "rows, pair",
    [
        ([[0, 1, 2], [1, 0, 5], [3, 4, 0]], "(0,2): 2 != 3"),
        # (1,2) comes first column by column, (0,3) row by row.
        ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 2, 0, 0], [2, 0, 0, 0]], "(0,3): 1 != 2"),
    ],
)
def test_from_rows_names_the_first_asymmetric_pair_in_row_major_order(rows, pair):
    with pytest.raises(ValidationError, match=f"^{re.escape(f'form is not symmetric at {pair}')}$"):
        Lattice.from_rows(rows)


class _Small(enum.IntEnum):
    ONE = 1


def test_entries_may_be_int_subclasses_but_not_bool_float_or_str():
    assert Lattice.from_rows([[_Small.ONE, 0], [0, -1]]) == Lattice.from_rows([[1, 0], [0, -1]])
    assert as_vector([_Small.ONE, 0]) == (1, 0)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValidationError, match="^form must be a list of lists of integers$"):
            Lattice.from_rows([[1, 0], [0, bad]])
        with pytest.raises(ValidationError, match="^c1 must be a list of integers$"):
            as_vector([1, bad], "c1")

