"""Exact integer linear algebra for lattices with symmetric bilinear forms.

Everything here is exact: pairings, inertia and determinants stay in
arbitrary precision integers, and each block is eliminated once, by a
symmetric fraction-free (Bareiss) elimination that yields both its
inertia and its determinant.  No floating point touches any verdict path.

:data:`EVENTS` counts units of work by name, with one increment where
each unit happens and never one per matrix entry or per scan row:
``eliminate`` (one block), ``components`` (one search for a form's
connected components), ``decode`` and ``validate`` (one descriptor's JSON
decoded, then checked by ``manifolds._checked``), ``generator`` (one built,
on a miss of its cache), ``sum`` (one connected sum), ``pairing`` (one
x^T Q y), ``pairings`` (one spin^c structure's cup pairings) and
``certify`` (one family check).  Tests read its difference across a call.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import compress
from operator import add, attrgetter, itemgetter

from .errors import ShapeError, ValidationError

Vector = tuple[int, ...]
# The nonzero (index, value) entries of a vector by increasing index, the
# way each row of ``Lattice.rows`` is stored.
SparseVector = tuple[tuple[int, int], ...]
Block = tuple[SparseVector, ...]
# (positive, negative, zero, determinant) of a form, as ``Lattice.invariants``.
Invariants = tuple[int, int, int, int]

EVENTS: Counter[str] = Counter()


class _Value:
    """Base of the package's immutable values.

    A subclass keeps its fields in ``__slots__``, sets each once in its
    constructor with ``object.__setattr__``, and names in ``_fields`` the
    ones that count: equality, hashing and repr read those, and a value
    never equals one of another class.  Two fields are set after
    construction, and neither is in ``_fields``: ``Lattice.invariants``
    of outside data, derived from the rows and filled on first read, and
    ``ManifoldData.canonical_spinc``, filled by the first
    ``canonical_spinc`` of the manifold.  Assigning or deleting an
    attribute raises :class:`AttributeError`; :meth:`_trusted` builds a
    value from all its fields without the constructor's work, and
    pickling and copying go through it.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # ``cls._key(value)`` reads the _fields in one C call: a tuple of
        # them, or the field itself when there is one.
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in ``__slots__`` order, unchecked:
        for a caller whose construction keeps every invariant."""
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            object.__setattr__(value, name, field)
        return value

    def __reduce__(self):
        return self._trusted, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")


class Lattice(_Value):
    """Finitely generated free abelian group with a symmetric integer form.

    ``rows[i]`` lists the nonzero entries of row i of the Gram matrix as
    ``(column, value)`` pairs by increasing column, so equality and hashing
    cost O(nnz).  Internal constructors build structurally symmetric forms;
    data from outside the package must come in through :meth:`from_rows`,
    which checks types, squareness and symmetry.

    ``invariants`` is (positive, negative, zero, determinant) of the form,
    left out of equality, hashing and repr.  The generators build their
    forms with it and :func:`direct_sum` adds it up; a form from outside
    the package fills it on first read, from its connected components, so
    that a descriptor's checks run before its form is eliminated.
    """

    __slots__ = ("rows", "invariants")
    _fields = ("rows",)

    def __init__(self, rows: tuple[SparseVector, ...]):
        object.__setattr__(self, "rows", rows)

    def __getattr__(self, name: str):
        # Called only where the usual lookup fails, as for an unset slot:
        # ``invariants`` is filled, and any other name fails as usual.
        if name != "invariants":
            return object.__getattribute__(self, name)
        invariants = _add_invariants(map(_block_invariants, _components(self.rows)))
        object.__setattr__(self, "invariants", invariants)
        return invariants

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def form(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix, O(rank^2): for export only."""
        return tuple(dense(row, self.rank) for row in self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Lattice":
        """Validating constructor for an externally supplied dense Gram
        matrix: a list of lists of ``int``, where ``bool`` is no integer.

        The types and the symmetry are checked by C-level passes over the
        rows, symmetry by comparing each row with the column of its index;
        only a mismatch looks for the first asymmetric pair in row-major
        order, for the message."""
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and _all_int(row) for row in rows
        ):
            raise ValidationError("form must be a list of lists of integers")
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ShapeError(f"form row {i} has length {len(row)}, expected {n}")
        if [*zip(*rows)] != [*map(tuple, rows)]:
            i, j = next(
                (i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] != rows[j][i]
            )
            raise ValidationError(
                f"form is not symmetric at ({i},{j}): {rows[i][j]} != {rows[j][i]}"
            )
        return cls(tuple(map(sparse, rows)))


_INT = {int}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _all_int(values: Sequence) -> bool:
    """Whether every value is an ``int`` and none a ``bool``: one C-level
    pass over the types, and a walk over the values only when one is not
    exactly ``int`` (an ``IntEnum`` member is an integer)."""
    return {*map(type, values)} <= _INT or all(map(_is_int, values))


def as_vector(coords: Sequence[int], name: str = "vector") -> Vector:
    """Validating constructor for an externally supplied list of ``int``."""
    if not isinstance(coords, (list, tuple)) or not _all_int(coords):
        raise ValidationError(f"{name} must be a list of integers")
    return tuple(coords)


def zero_vector(lat: Lattice) -> Vector:
    return (0,) * lat.rank


def sparse(v: Sequence[int]) -> SparseVector:
    return tuple(zip(compress(range(len(v)), v), filter(None, v)))


def dense(v: SparseVector, rank: int) -> Vector:
    out = [0] * rank
    for i, x in v:
        out[i] = x
    return tuple(out)


def direct_sum(*lattices: Lattice) -> Lattice:
    """Orthogonal direct sum: each lattice's rows follow the previous ones',
    shifted by their ranks (the first lattice's row tuples are kept as
    they are); the invariants are added up from the parts', not
    recomputed."""
    rows: list[SparseVector] = []
    for lat in lattices:
        off = len(rows)
        rows.extend(tuple((j + off, x) for j, x in row) if off else row for row in lat.rows)
    return Lattice._trusted(tuple(rows), _add_invariants(lat.invariants for lat in lattices))


def _add_invariants(parts: Iterable[Invariants]) -> Invariants:
    """The invariants of an orthogonal sum from its parts': by Sylvester's
    law of inertia the sign counts add, and the determinants multiply."""
    pos = neg = zero = 0
    det = 1
    for p, n, z, d in parts:
        pos += p
        neg += n
        zero += z
        det *= d
    return (pos, neg, zero, det)


def _check_length(lat: Lattice, v: Sequence[int], name: str) -> None:
    if len(v) != lat.rank:
        raise ShapeError(f"{name} has length {len(v)}, lattice rank is {lat.rank}")


def pairing(lat: Lattice, x: Sequence[int], y: Sequence[int]) -> int:
    """Evaluate the bilinear form x^T Q y over the nonzero entries of the
    rows where x is nonzero."""
    _check_length(lat, x, "x")
    _check_length(lat, y, "y")
    EVENTS["pairing"] += 1
    return sum(xi * sum(q * y[j] for j, q in lat.rows[i]) for i, xi in enumerate(x) if xi)


def _components(rows: Sequence[SparseVector]) -> tuple[Block, ...]:
    """The rows of each connected component of the graph of nonzero
    entries, by smallest member, renumbered from 0; a zero row is a 1x1
    zero block.

    A component grows from its smallest unseen row: each row it reaches
    adds the unseen rows among its columns, by one set intersection, and
    the search stops early once no row is unseen.  A form that is one
    component is its own block."""
    EVENTS["components"] += 1
    n = len(rows)
    unseen = set(range(n))
    first = itemgetter(0)
    blocks = []
    for start in range(n):
        if start not in unseen:
            continue
        unseen.remove(start)
        component = [start]
        for i in component:
            if not unseen:
                break
            reached = unseen.intersection(map(first, rows[i]))
            unseen -= reached
            component += reached
        if len(component) == n:
            return (tuple(rows),)
        component.sort()
        local = {i: t for t, i in enumerate(component)}
        blocks.append(tuple(tuple((local[j], x) for j, x in rows[i]) for i in component))
    return tuple(blocks)


def _block_invariants(block: Block) -> Invariants:
    """(positive, negative, zero, determinant) of one connected block, by a
    single symmetric fraction-free (Bareiss) elimination on its upper
    triangle.

    Before step k the trailing block is ``prev``, the previous pivot (a
    leading principal minor), times the Schur complement, so the LDL^T
    pivot of step k is p / prev (Jacobi's rule) and the last pivot is the
    determinant.  The trailing block stays symmetric, so ``u[i]`` holds
    row i from its diagonal on: ``u[i][t]`` is entry (i, i + t), and an
    entry below the diagonal is read from its mirror.  A zero pivot is
    first swapped symmetrically with a later nonzero diagonal entry; once
    the trailing diagonal is zero, an off-diagonal (i,j) is promoted by
    adding row/column j to row/column i.  Both moves are unimodular
    congruences, which keep the determinant and the exactness of the
    divisions, and each moves O(n) entries of ``u``.  A row with a zero
    entry in the pivot's column is only rescaled.  An all-zero trailing
    block is the radical.

    It runs only on forms from outside the package, and memoizes
    nothing."""
    EVENTS["eliminate"] += 1
    n = len(block)
    u = [list(dense(row, n)[i:]) for i, row in enumerate(block)]
    pos = neg = 0
    prev = 1
    for k in range(n):
        if u[k][0] == 0:
            j = next((j for j in range(k + 1, n) if u[j][0]), None)
            if j is None:
                # The first nonzero row holds the first nonzero pair (i, j)
                # in row-major order; the rows before it are zero.
                i = next((i for i in range(k, n) if any(u[i])), None)
                if i is None:
                    return (pos, neg, n - k, 0)
                ri = u[i]
                d = next(t for t, x in enumerate(ri) if x)
                j = i + d
                # row_i += row_j, col_i += col_j: column i gains nothing
                # above row i, and (i, i) becomes twice (i, j).
                for t in range(i + 1, j):
                    ri[t - i] += u[t][j - t]
                ri[d:] = map(add, ri[d:], u[j])
                ri[0] = 2 * ri[d]
                j = i
            if j != k:
                # Swap index k with j: the diagonals, (k, t) with (t, j)
                # for k < t < j, and the rows' tails past column j.
                rk, rj, d = u[k], u[j], j - k
                rk[0], rj[0] = rj[0], rk[0]
                for t in range(k + 1, j):
                    rk[t - k], u[t][j - t] = u[t][j - t], rk[t - k]
                rk[d + 1:], rj[1:] = rj[1:], rk[d + 1:]
        row_k = u[k]
        p = row_k[0]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            c = row_k[i - k]
            if c:
                u[i] = [(x * p - c * y) // prev for x, y in zip(u[i], row_k[i - k:])]
            elif p != prev:
                u[i] = [x * p // prev for x in u[i]]
        prev = p
    return (pos, neg, 0, prev)


# The decorator stores and hashes nothing: it stays only as the call
# counter that the bench's trace mode reads (``inertia.cache_clear()`` and
# ``inertia.cache_info()`` in bench/child.py).  ROADMAP item 1b deletes it
# together with those two calls.
@lru_cache(maxsize=0)
def inertia(lat: Lattice) -> tuple[int, int, int]:
    """Return (positive, negative, zero) inertia indices of the form, read
    off ``lat.invariants``: sums over its blocks, by Sylvester's law, which
    also makes the sign counts basis independent."""
    return lat.invariants[:3]


def signature(lat: Lattice) -> int:
    """b+ minus b-; zero directions of a degenerate form contribute 0."""
    pos, neg, _, _ = lat.invariants
    return pos - neg


def is_negative_definite(lat: Lattice) -> bool:
    """True iff the form has no positive and no null directions.

    Rank 0 is vacuously negative definite.  Definiteness refers to the
    form only; a manifold may have b1 > 0 and still count as negative
    definite here.
    """
    pos, _, zero, _ = lat.invariants
    return pos == 0 and zero == 0


def is_characteristic(lat: Lattice, c: Sequence[int]) -> bool:
    """Whether Q(c, x) == Q(x, x) mod 2 for every basis vector x."""
    _check_length(lat, c, "c")
    return all(
        sum(x * (c[j] - (j == i)) for j, x in row) % 2 == 0 for i, row in enumerate(lat.rows)
    )


def determinant(lat: Lattice) -> int:
    """Exact determinant of the Gram matrix, read off ``lat.invariants``:
    the product over its blocks."""
    return lat.invariants[3]
