"""Random matrix generators shared by the lattice and property tests, the
dense oracles that the block-wise lattice invariants and the sparse cup
classes are checked against, the full-matrix elimination and the
union-find that the lattice's upper-triangle elimination and component
search are checked against, descriptors with wrongly typed fields,
diagonal forms, and the work that a block of code counts in
``fourfold.lattice.EVENTS``."""

import json
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from fourfold.lattice import EVENTS, Lattice, dense


@contextmanager
def counted():
    """A Counter of the events that the block adds to ``EVENTS``, filled
    when it ends: compare it whole, so that extra work fails too."""
    work = Counter()
    before = EVENTS.copy()
    try:
        yield work
    finally:
        work.update(EVENTS - before)


# (field, value): a valid descriptor with one field replaced by a value of
# the wrong JSON type.  Floats used to be truncated and strings and
# booleans read as integers.
WRONG_TYPES = [
    pytest.param(field, value, id=f"{field}={json.dumps(value)}")
    for field, value in (
        ("form", [[1.7]]),
        ("form", "1"),
        ("form", [["1"]]),
        ("form", [[True]]),
        ("b1", False),
        ("c1", [1.9]),
        ("label", 5),
    )
]


def wrong_type_descriptor(field, value):
    descriptor = {"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "blown"}
    descriptor[field] = value
    return descriptor


def diagonal_lattice(entries):
    """The diagonal form with these entries, read as outside data."""
    n = len(entries)
    return Lattice.from_rows([[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)])


def random_unimodular(n, rng, steps=None):
    """Integer matrix with determinant +-1, built from elementary ops."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return m
    steps = 3 * n if steps is None else steps
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(n):
                m[i][t] += c * m[j][t]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def transform(form, p):
    """Congruent form P^T Q P as row lists."""
    n = len(p)
    qp = [[sum(form[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * qp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def random_symmetric(n, rng, bound=6):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


def random_unimodular_symmetric(n, rng):
    """(Lattice, signature) for a random unimodular symmetric form.

    Built as P^T D P with D = diag(+-1), so the signature is known
    independently of any diagonalization code.
    """
    diag = [rng.choice([-1, 1]) for _ in range(n)]
    d_rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    p = random_unimodular(n, rng)
    return Lattice.from_rows(transform(d_rows, p)), sum(diag)


def solve_characteristic_mod2(form, rng):
    """A characteristic vector for a unimodular form: solve Qc = diag(Q)
    mod 2 by Gaussian elimination, then add a random even vector."""
    n = len(form)
    a = [[form[i][j] % 2 for j in range(n)] + [form[i][i] % 2] for i in range(n)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(n):
            if r != row and a[r][col]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    c = [0] * n
    for r, col in enumerate(pivots):
        c[col] = a[r][n]
    return tuple(c[i] + 2 * rng.randint(-2, 2) for i in range(n))


def dense_determinant(rows):
    """Bareiss elimination over the whole dense matrix."""
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_inertia(rows):
    """(positive, negative, zero) by congruent diagonalization of the whole
    dense matrix over the rationals: pivot on a nonzero diagonal entry,
    or first make one from a nonzero off-diagonal entry (i, j) by adding
    basis vector j to basis vector i."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None
            )
            if pair is None:
                return (pos, neg, n - k)
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            piv = i
        a[k], a[piv] = a[piv], a[k]
        for row in a:
            row[k], row[piv] = row[piv], row[k]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for t in range(k, n):
                    a[i][t] -= f * a[k][t]
                for t in range(k, n):
                    a[t][i] -= f * a[t][k]
    return (pos, neg, 0)


def full_block_invariants(rows):
    """(positive, negative, zero, determinant) of a symmetric form by the
    symmetric fraction-free (Bareiss) elimination over the whole dense
    matrix, with the pivot moves of ``lattice._block_invariants``: a zero
    pivot is swapped symmetrically with the next nonzero diagonal entry,
    and once the trailing diagonal is zero the first nonzero (i, j) in
    row-major order is promoted by adding row/column j to row/column i."""
    n = len(rows)
    a = [list(row) for row in rows]
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is None:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None
                )
                if pair is None:
                    return (pos, neg, n - k, 0)
                i, j = pair
                for t in range(k, n):
                    a[i][t] += a[j][t]
                for t in range(k, n):
                    a[t][i] += a[t][j]
                j = i
            if j != k:
                a[k], a[j] = a[j], a[k]
                for t in range(k, n):
                    a[t][k], a[t][j] = a[t][j], a[t][k]
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        row_k = a[k][k + 1:]
        for row in a[k + 1:]:
            c = row[k]
            row[k + 1:] = [(x * p - c * y) // prev for x, y in zip(row[k + 1:], row_k)]
        prev = p
    return (pos, neg, 0, prev)


def union_find_components(rows):
    """The blocks of ``lattice._components``, found by union-find over the
    nonzero entries of the sparse rows: components by smallest member,
    members by index, renumbered from 0."""
    root = list(range(len(rows)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, row in enumerate(rows):
        for j, _ in row:
            root[find(j)] = find(i)
    members = {}
    for i in range(len(rows)):
        members.setdefault(find(i), []).append(i)
    blocks = []
    for component in members.values():
        local = {i: t for t, i in enumerate(component)}
        blocks.append(tuple(tuple((local[j], x) for j, x in rows[i]) for i in component))
    return tuple(blocks)


def permuted(rows, perm):
    """The same form in the basis reordered by ``perm``."""
    return [[rows[i][j] for j in perm] for i in perm]


def dense_direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def random_descriptor(rng, max_rank=6, max_b1=5):
    """A valid descriptor on a random unimodular form whose cup classes are
    random integer vectors: some zero, most not basis vectors."""
    n = rng.randint(1, max_rank)
    lat, _ = random_unimodular_symmetric(n, rng)
    b1 = rng.randint(2, max_b1)
    cup1 = {
        f"{i},{j}": [rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)]
        for i in range(1, b1 + 1)
        for j in range(i + 1, b1 + 1)
        if rng.random() < 0.6
    }
    return {
        "b1": b1,
        "form": [list(row) for row in lat.form],
        "cup1": cup1,
        "euler": 2 - 2 * b1 + n,
        "c1": list(solve_characteristic_mod2(lat.form, rng)),
        "label": "random",
    }


def cup_class(m, i, j):
    """alpha_i cup alpha_j of the manifold ``m`` as a dense H^2 vector,
    for any i, j below b1."""
    if i < j:
        return dense(m.cup1.get((i, j), ()), m.h2.rank)
    return tuple(-x for x in dense(m.cup1.get((j, i), ()), m.h2.rank))
