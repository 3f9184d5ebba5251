"""Spin^c structures, the Dirac index, and the evenness conditions.

A spin^c structure is modeled by the first Chern class of its determinant
line bundle, a characteristic vector of the intersection form.  The index
bundle of the family of Dirac operators over the torus of flat twistings
has a first Chern class expressed by half the cup-pairing matrix; the two
parity conditions checked here (index even, all half-pairings even) are
exactly what guarantees the monopole moduli space carries a spin
structure.
"""

from __future__ import annotations

from .errors import IntegralityError, ValidationError
from .lattice import (
    Vector,
    _check_length,
    _Value,
    as_vector,
    is_characteristic,
    pairing,
    signature,
)
from .manifolds import ManifoldData


class SpinCStructure(_Value):
    """A spin^c structure on a manifold: c1 of its determinant line bundle,
    in the fixed H^2 basis, built by :func:`spinc` or
    :func:`canonical_spinc`.

    The facts of the pair that cannot fail are derived once, on the
    manifold the structure is built on: ``c1_square`` = c1^2, ``pairings``
    (the nonzero cup pairings of :func:`cup_pairing_matrix`),
    ``dirac_index``, ``moduli_dimension``, ``chern`` (half the pairings,
    None if one is odd) and ``condition``.  The signature is the form's:
    :func:`signature` reads it off the lattice.  Equality and hashing
    read ``c1`` only.  The functions of this module
    raise :class:`ShapeError` for a structure of another rank than the
    manifold, as :func:`pairing` does for a vector.
    """

    __slots__ = ("c1", "c1_square", "pairings", "dirac_index", "moduli_dimension", "chern",
                 "condition")
    _fields = ("c1",)

    def __init__(self, c1: Vector, manifold: ManifoldData):
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c1_square", c1_square := pairing(manifold.h2, c1, c1))
        tau = signature(manifold.h2)
        object.__setattr__(self, "pairings", pairings := cup_pairing_matrix(manifold, self))
        # Both divisions are exact on a unimodular form: a characteristic
        # c1 has c1^2 = tau mod 8 (van der Blij), and chi + tau =
        # 2 - 2*b1 + 2*b+ is even.
        object.__setattr__(self, "dirac_index", index := (c1_square - tau) // 8)
        d = (c1_square - 2 * manifold.euler - 3 * tau) // 4
        object.__setattr__(self, "moduli_dimension", d)
        chern = None
        if not any(x % 2 for x in pairings.values()):
            chern = TorusTwoForm(manifold.b1, {key: x // 2 for key, x in pairings.items()})
        object.__setattr__(self, "chern", chern)
        condition = SpinCondition(index % 2 == 0, chern is not None and chern.all_even())
        object.__setattr__(self, "condition", condition)


class TorusTwoForm(_Value):
    """Integer 2-form on the Jacobian torus, antisymmetric by construction.

    ``entries`` maps (i, j) with i < j to the nonzero coefficient of
    beta_i beta_j in the basis dual to the chosen H^1 generators; the
    entry at (j, i) is its negative and every other entry is zero.
    """

    __slots__ = _fields = ("size", "entries")

    def __init__(self, size: int, entries: dict[tuple[int, int], int]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)

    def all_even(self) -> bool:
        return all(x % 2 == 0 for x in self.entries.values())

    def dense(self, scale: int = 1) -> tuple[tuple[int, ...], ...]:
        """The full size x size matrix times ``scale``, O(size^2): export only."""
        rows = [[0] * self.size for _ in range(self.size)]
        for (i, j), x in self.entries.items():
            rows[i][j] = scale * x
            rows[j][i] = -scale * x
        return tuple(tuple(row) for row in rows)


class SpinCondition(_Value):
    """Verdict of the two parity conditions for a spin moduli space: the
    Dirac index is even, and so is the index Chern class."""

    __slots__ = _fields = ("index_even", "chern_even")

    def __init__(self, index_even: bool, chern_even: bool):
        object.__setattr__(self, "index_even", index_even)
        object.__setattr__(self, "chern_even", chern_even)

    @property
    def holds(self) -> bool:
        return self.index_even and self.chern_even


def spinc(manifold: ManifoldData, coords) -> SpinCStructure:
    """Validating constructor: c1 must be characteristic for the form."""
    c1 = as_vector(coords, "c1")
    if len(c1) != manifold.h2.rank:
        raise ValidationError(
            f"c1 has length {len(c1)}, form rank is {manifold.h2.rank}"
        )
    if not is_characteristic(manifold.h2, c1):
        raise ValidationError("c1 is not characteristic for the intersection form")
    return SpinCStructure(c1, manifold)


def canonical_spinc(manifold: ManifoldData) -> SpinCStructure:
    if manifold.canonical_c1 is None:
        raise ValidationError(
            "manifold carries no canonical spin^c structure; supply c1 explicitly"
        )
    return SpinCStructure(manifold.canonical_c1, manifold)


def dirac_index(manifold: ManifoldData, s: SpinCStructure) -> int:
    """Index of the spin^c Dirac operator: (c1^2 - tau) / 8."""
    _check_length(manifold.h2, s.c1, "c1")
    return s.dirac_index


def cup_pairing_matrix(manifold: ManifoldData, s: SpinCStructure) -> dict[tuple[int, int], int]:
    """The nonzero pairings {(i, j): <c1 alpha_i alpha_j, [M]>}, i < j,
    over the H^1 generators.

    Q c1 is formed once over the rows where c1 is nonzero; each pairing
    is then a dot product with a sparse cup class, so the cost is
    O(rank + nnz of those rows + len(cup1)) and no b1 x b1 matrix is built.
    :class:`SpinCStructure` calls it once and keeps the result."""
    _check_length(manifold.h2, s.c1, "c1")
    rows = manifold.h2.rows
    q_c1: dict[int, int] = {}
    for i, c in enumerate(s.c1):
        if c:
            for j, q in rows[i]:
                q_c1[j] = q_c1.get(j, 0) + q * c
    pairings = {}
    for key, v in manifold.cup1.items():
        p = sum(q_c1.get(k, 0) * x for k, x in v)
        if p:
            pairings[key] = p
    return pairings


def index_chern_form(manifold: ManifoldData, s: SpinCStructure) -> TorusTwoForm:
    """First Chern class of the Dirac index bundle on the Jacobian torus:
    half the cup pairings.

    An odd pairing contradicts the integrality of the index Chern class
    and flags corrupt input data; the error names the first odd entry of
    the dense matrix in row-major order.
    """
    _check_length(manifold.h2, s.c1, "c1")
    if s.chern is None:
        i, j = min(key for key, x in s.pairings.items() if x % 2)
        raise IntegralityError(
            f"cup pairing at ({i},{j}) is odd ({s.pairings[i, j]}); "
            "half-integral index Chern class is not allowed"
        )
    return s.chern


def spin_condition(manifold: ManifoldData, s: SpinCStructure) -> SpinCondition:
    """Both parity conditions, behind the gate of :func:`index_chern_form`."""
    index_chern_form(manifold, s)
    return s.condition


def moduli_dimension(manifold: ManifoldData, s: SpinCStructure) -> int:
    """Expected dimension of the monopole moduli space,
    d = (c1^2 - 2*chi - 3*tau) / 4."""
    _check_length(manifold.h2, s.c1, "c1")
    return s.moduli_dimension
