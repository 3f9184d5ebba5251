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

from dataclasses import dataclass

from .errors import IntegralityError, ValidationError
from .lattice import Vector, apply_form, as_vector, is_characteristic, pairing, signature
from .manifolds import ManifoldData


@dataclass(frozen=True)
class SpinCStructure:
    """c1 of the determinant line bundle, in the fixed H^2 basis."""

    c1: Vector


@dataclass(frozen=True)
class TorusTwoForm:
    """Antisymmetric integer matrix of a 2-form on the Jacobian torus.

    Entry (i, j) is the coefficient of beta_i beta_j in the basis dual to
    the chosen H^1 generators.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValidationError(f"torus 2-form row {i} has length {len(row)}, expected {n}")
        for i in range(n):
            if self.entries[i][i] != 0:
                raise ValidationError(f"torus 2-form has nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ValidationError(f"torus 2-form not antisymmetric at ({i},{j})")

    @classmethod
    def halving(cls, pairings: tuple[tuple[int, ...], ...]) -> "TorusTwoForm":
        """Half of a cup-pairing matrix.  An odd pairing contradicts the
        integrality of the index Chern class and flags corrupt input data."""
        rows = []
        for i, row in enumerate(pairings):
            out = []
            for j, x in enumerate(row):
                if x % 2 != 0:
                    raise IntegralityError(
                        f"cup pairing at ({i},{j}) is odd ({x}); "
                        "half-integral index Chern class is not allowed"
                    )
                out.append(x // 2)
            rows.append(tuple(out))
        return cls(tuple(rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def all_even(self) -> bool:
        return all(x % 2 == 0 for row in self.entries for x in row)


@dataclass(frozen=True)
class SpinCondition:
    """Verdict of the two parity conditions for a spin moduli space."""

    index_even: bool
    chern_even: bool

    @classmethod
    def of(cls, index: int, chern: TorusTwoForm) -> "SpinCondition":
        """The conditions read off the Dirac index and the index Chern class."""
        return cls(index_even=index % 2 == 0, chern_even=chern.all_even())

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
    return SpinCStructure(c1)


def canonical_spinc(manifold: ManifoldData) -> SpinCStructure:
    if manifold.canonical_c1 is None:
        raise ValidationError(
            "manifold carries no canonical spin^c structure; supply c1 explicitly"
        )
    return SpinCStructure(manifold.canonical_c1)


def dirac_index(manifold: ManifoldData, s: SpinCStructure) -> int:
    """Index of the spin^c Dirac operator: (c1^2 - tau) / 8, exact."""
    square = pairing(manifold.h2, s.c1, s.c1)
    tau = signature(manifold.h2)
    num = square - tau
    if num % 8 != 0:
        raise ValidationError(
            f"c1^2 - tau = {num} is not divisible by 8; c1 is not a valid spin^c class"
        )
    return num // 8


def cup_pairing_matrix(manifold: ManifoldData, s: SpinCStructure) -> tuple[tuple[int, ...], ...]:
    """Matrix of pairings <c1 alpha_i alpha_j, [M]> over the H^1 generators.

    Q c1 is formed once, in O(nnz); each entry is then a dot product with
    a sparse cup class."""
    q_c1 = apply_form(manifold.h2, s.c1)
    b1 = manifold.b1
    t = [[0] * b1 for _ in range(b1)]
    for (i, j), v in manifold.cup1.items():
        p = sum(q_c1[k] * x for k, x in v)
        t[i][j] = p
        t[j][i] = -p
    return tuple(tuple(row) for row in t)


def index_chern_form(manifold: ManifoldData, s: SpinCStructure) -> TorusTwoForm:
    """First Chern class of the Dirac index bundle on the Jacobian torus.

    Entries are half the cup pairings; see :meth:`TorusTwoForm.halving`.
    """
    return TorusTwoForm.halving(cup_pairing_matrix(manifold, s))


def spin_condition(manifold: ManifoldData, s: SpinCStructure) -> SpinCondition:
    """Evaluate both parity conditions for the pair (manifold, spin^c)."""
    return SpinCondition.of(dirac_index(manifold, s), index_chern_form(manifold, s))


def moduli_dimension(manifold: ManifoldData, s: SpinCStructure) -> int:
    """Expected dimension of the monopole moduli space.

    d = (c1^2 - 2*chi - 3*tau) / 4; a non-integer value means the input
    data cannot come from a closed oriented 4-manifold.
    """
    square = pairing(manifold.h2, s.c1, s.c1)
    tau = signature(manifold.h2)
    num = square - 2 * manifold.euler - 3 * tau
    if num % 4 != 0:
        raise ValidationError(
            f"c1^2 - 2*chi - 3*tau = {num} is not divisible by 4; inconsistent input"
        )
    return num // 4
