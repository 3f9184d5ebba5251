"""Spin-bordism verdict for the covered connected-sum family.

The verdict is a theorem lookup, not a computation of spin structures:
for connected sums of K3 surfaces and products of two odd-genus surfaces,
each carrying its complex-structure spin^c class, the bordism class of
the monopole moduli space in the point bordism group is known to be
nontrivial for 2 or 3 summands and trivial for 4 or more.  Everything
else is refused with an explicit applicability error.
"""

from __future__ import annotations

from .errors import InapplicableError, UnsupportedFamilyError, ValidationError
from .lattice import EVENTS, _Value
from .manifolds import K3, SP, ManifoldData
from .spinc import SpinCStructure

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"

# Point spin bordism groups by dimension.  The d = 1, 2 entries carry the
# verdicts; the others are standard values kept for display only.
POINT_SPIN_BORDISM = {
    0: "Z",
    1: "Z/2",
    2: "Z/2",
    3: "0",
    4: "Z",
    5: "0",
    6: "0",
    7: "0",
}


class SpinBordismClass(_Value):
    """Value of the moduli-space bordism invariant in the point group."""

    __slots__ = _fields = ("dimension", "group", "value")

    def __init__(self, dimension: int, group: str, value: str):
        if value == NONTRIVIAL and group == "0":
            raise ValueError("nontrivial value in the zero group")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "value", value)


def certify_family(manifold: ManifoldData, s: SpinCStructure) -> SpinBordismClass:
    """Check membership in the covered family and return the bordism
    class: nontrivial for 2 or 3 summands, trivial for 4 or more.

    Every summand must be a K3 surface or a product of two odd-genus
    surfaces, and the spin^c class must be the concatenation of the
    summands' canonical classes; anything else raises
    :class:`UnsupportedFamilyError`.  The spin condition must hold and
    the moduli dimension must be l - 1, as ``s`` derived them; data that
    breaks either cannot come from the family and raises
    :class:`ValidationError`.  A single summand is refused: the moduli
    space is a point but its class in the 0-dimensional group is not
    established, so no verdict is offered.
    """
    EVENTS["certify"] += 1
    for summand in manifold.summands:
        if summand.kind not in (K3, SP):
            raise UnsupportedFamilyError(
                f"summand {summand} is outside the covered family "
                "(K3 or odd-genus surface products only)"
            )
        if summand.kind == SP and any(g % 2 == 0 for g in summand.genera):
            raise UnsupportedFamilyError(
                f"summand {summand} has even genus; only odd-genus surface "
                "products are covered"
            )
    if manifold.canonical_c1 is None or s.c1 != manifold.canonical_c1:
        raise UnsupportedFamilyError(
            "spin^c structure is not the canonical (complex-structure) one "
            "on every summand"
        )
    if not s.condition.holds:
        raise ValidationError(
            "spin condition fails for a covered-family manifold (index even: "
            f"{s.condition.index_even}, index Chern class even: {s.condition.chern_even}); "
            "inconsistent input"
        )
    l = len(manifold.summands)
    d = s.moduli_dimension
    if d != l - 1:
        raise ValidationError(
            f"moduli dimension {d} does not match {l} summands (expected {l - 1}); "
            "inconsistent input"
        )
    if l < 2:
        raise InapplicableError(
            "single-summand manifolds are not covered; no bordism verdict "
            "is established in dimension 0"
        )
    value = NONTRIVIAL if l in (2, 3) else TRIVIAL
    return SpinBordismClass(dimension=d, group=POINT_SPIN_BORDISM.get(d, "?"), value=value)


def spin_bordism_class(manifold: ManifoldData, s: SpinCStructure) -> SpinBordismClass:
    """The class :func:`certify_family` returns, by the acceptance suite's name."""
    return certify_family(manifold, s)
