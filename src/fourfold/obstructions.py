"""Geometric consequence theorems: genus bounds, Einstein obstructions,
Yamabe values, and the parameter scan over blown-up connected sums.

All inequality verdicts are evaluated over exact integers with cleared
denominators; equality counts as satisfied, matching the non-strict
inequalities of the underlying theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bordism import NONTRIVIAL, FamilyCertificate, certify_family
from .errors import InapplicableError, ValidationError
from .lattice import inertia, is_negative_definite
from .manifolds import ManifoldData, cp2bar, connected_sum, s1xs3, s4, surface_product
from .spinc import SpinCondition, SpinCStructure, canonical_spinc

# Largest r_max a scan accepts.  A row is O(1), so the bound caps the
# size of the table, not the work per row.
SCAN_R_MAX = 100_000

Inertia = tuple[int, int, int]


@dataclass(frozen=True)
class SurfaceCandidate:
    """A hypothetical embedded surface: self-intersection, genus, and the
    pairing of the spin^c class with its fundamental class."""

    self_intersection: int
    genus: int
    pairing: int


@dataclass(frozen=True)
class PiRadical:
    """Exact value coefficient * sqrt(radicand) * pi with squarefree radicand."""

    coefficient: int
    radicand: int

    @classmethod
    def of(cls, coefficient: int, radicand: int) -> "PiRadical":
        if radicand < 0:
            raise ValidationError(f"radicand must be nonnegative, got {radicand}")
        if coefficient == 0 or radicand == 0:
            return cls(0, 0)
        out = 1
        rad = radicand
        d = 2
        while d * d <= rad:
            while rad % (d * d) == 0:
                rad //= d * d
                out *= d
            d += 1
        return cls(coefficient * out, rad)

    def is_zero(self) -> bool:
        return self.coefficient == 0

    def approx(self) -> float:
        if self.is_zero():
            return 0.0
        return self.coefficient * math.sqrt(self.radicand) * math.pi

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.radicand == 1:
            return f"{self.coefficient}*pi"
        return f"{self.coefficient}*sqrt({self.radicand})*pi"


def _nontrivial_certificate(
    manifold: ManifoldData, s: SpinCStructure, condition: SpinCondition | None = None
) -> FamilyCertificate:
    """Certify the family once and require a nontrivial bordism class.
    ``condition`` is passed on to :func:`certify_family`."""
    certificate = certify_family(manifold, s, condition)
    klass = certificate.bordism_class()
    if klass.value != NONTRIVIAL:
        raise InapplicableError(
            f"bordism class is {klass.value} for {klass.dimension + 1} summands; "
            "the obstruction theorems require a nontrivial class"
        )
    return certificate


def embedding_obstructed(
    manifold: ManifoldData,
    s: SpinCStructure,
    cand: SurfaceCandidate,
    condition: SpinCondition | None = None,
) -> bool:
    """Adjunction test for an embedded surface of nonnegative
    self-intersection and positive genus.

    True means the candidate violates n <= p + 2g - 2 and cannot embed;
    False means the inequality is satisfied (no conclusion about
    existence).  ``condition``, here and in the other theorem functions,
    is the pair's spin condition if the caller has derived it already.
    """
    _nontrivial_certificate(manifold, s, condition)
    if cand.genus < 1:
        raise InapplicableError("adjunction bound requires a surface of positive genus")
    if cand.self_intersection < 0:
        raise InapplicableError(
            "adjunction bound requires nonnegative self-intersection"
        )
    return cand.self_intersection > cand.pairing + 2 * cand.genus - 2


def min_genus(
    manifold: ManifoldData,
    s: SpinCStructure,
    n: int,
    p: int,
    condition: SpinCondition | None = None,
) -> int:
    """Smallest genus g >= 1 compatible with the adjunction bound for
    self-intersection n and pairing p."""
    _nontrivial_certificate(manifold, s, condition)
    if n < 0:
        raise InapplicableError(
            "adjunction bound requires nonnegative self-intersection"
        )
    return max(1, -(-(n - p + 2) // 2))


def _hitchin_thorpe(chi: int, inert: Inertia) -> bool:
    pos, neg, _ = inert
    return 3 * abs(pos - neg) <= 2 * chi


def hitchin_thorpe(x: ManifoldData) -> bool:
    """3|tau| <= 2*chi, the topological necessary condition for an
    Einstein metric."""
    return _hitchin_thorpe(x.euler, inertia(x.h2))


def _einstein_obstructed(certificate: FamilyCertificate, chi2: int, inert2: Inertia) -> bool:
    pos, neg, zero = inert2
    if pos or zero:
        raise InapplicableError("N2 is not negative definite")
    tau2 = pos - neg
    return 12 * certificate.summand_count - 3 * (2 * chi2 + 3 * tau2) >= certificate.c1_square


def einstein_nonexistence(
    manifold: ManifoldData,
    s: SpinCStructure,
    n2: ManifoldData,
    condition: SpinCondition | None = None,
) -> bool:
    """Whether the sum with a negative definite piece admits no Einstein
    metric.

    With l certified summands, the verdict is
    12*l - 3*(2*chi(N2) + 3*tau(N2)) >= sum of the summands' c1^2,
    evaluated exactly with cleared denominators.
    """
    certificate = _nontrivial_certificate(manifold, s, condition)
    return _einstein_obstructed(certificate, n2.euler, inertia(n2.h2))


def yamabe_value(
    manifold: ManifoldData,
    s: SpinCStructure,
    n1: ManifoldData,
    n1_admits_nonneg_scalar: bool,
    condition: SpinCondition | None = None,
) -> PiRadical:
    """Yamabe invariant of the sum with N1: -4*pi*sqrt(2 * sum c1^2).

    N1 must be negative definite and carry a metric of nonnegative scalar
    curvature; the metric hypothesis is not decidable from our data and
    must be asserted by the caller.
    """
    certificate = _nontrivial_certificate(manifold, s, condition)
    if not is_negative_definite(n1.h2):
        raise InapplicableError("metric hypothesis not certified: N1 is not negative definite")
    if not n1_admits_nonneg_scalar:
        raise InapplicableError(
            "metric hypothesis not certified: N1 must be asserted to admit a "
            "metric with nonnegative scalar curvature"
        )
    return PiRadical.of(-4, 2 * certificate.c1_square)


def _sum_invariants(pieces: list[tuple[int, int, Inertia]]) -> tuple[int, Inertia]:
    """(chi, inertia) of a connected sum from (count, chi, inertia) per
    piece kind: chi = sum of chi_i - 2(k-1) over k pieces, inertia adds."""
    k = sum(count for count, _, _ in pieces)
    chi = sum(count * c for count, c, _ in pieces) - 2 * (k - 1)
    inert = tuple(sum(count * i[t] for count, _, i in pieces) for t in range(3))
    return chi, inert


def example_scan(
    g1: int, g1p: int, g2: int, g2p: int, s: int, r_max: int
) -> dict:
    """Scan blow-up counts r for the sum of two odd-genus surface products
    with r copies of reversed CP^2 and s copies of S^1 x S^3.

    The fixed sum M of the two products is certified once.  For each r in
    0..r_max, chi and the inertia of N2 = S^4 # s S^1xS^3 # r ~CP^2 and of
    M # N2 are added up from the pieces, and the Einstein-nonexistence and
    Hitchin-Thorpe verdicts are evaluated on them with the same formulas
    as :func:`einstein_nonexistence` and :func:`hitchin_thorpe`.  The
    returned table also carries the closed-form window: the rational lower
    bound (8/3)G - 4s - 4 and the integer window of r values satisfying
    both verdicts.
    """
    for g in (g1, g1p, g2, g2p):
        if g < 1 or g % 2 == 0:
            raise ValidationError(f"scan genera must be odd and positive, got {g}")
    if s < 0:
        raise ValidationError(f"s must be nonnegative, got {s}")
    if r_max < 1:
        raise ValidationError(f"r_max must be positive, got {r_max}")
    if r_max > SCAN_R_MAX:
        raise ValidationError(f"r_max must be at most {SCAN_R_MAX}, got {r_max}")

    m = connected_sum(surface_product(g1, g1p), surface_product(g2, g2p))
    certificate = _nontrivial_certificate(m, canonical_spinc(m))
    big_g = (g1 - 1) * (g1p - 1) + (g2 - 1) * (g2p - 1)

    m_inv, s4_inv, s1xs3_inv, cp2bar_inv = (
        (x.euler, inertia(x.h2)) for x in (m, s4(), s1xs3(), cp2bar())
    )
    rows = []
    for r in range(r_max + 1):
        n2_inv = _sum_invariants([(1, *s4_inv), (s, *s1xs3_inv), (r, *cp2bar_inv)])
        x_inv = _sum_invariants([(1, *m_inv), (1, *n2_inv)])
        rows.append(
            {
                "r": r,
                "einstein_obstructed": _einstein_obstructed(certificate, *n2_inv),
                "hitchin_thorpe": _hitchin_thorpe(*x_inv),
            }
        )

    lower = Fraction(8 * big_g, 3) - 4 * s - 4
    upper = 8 * big_g - 4 * s - 4
    window_lo = max(0, math.ceil(lower))
    window = [window_lo, upper] if window_lo <= upper else None
    return {
        "G": big_g,
        "s": s,
        "r_max": r_max,
        "einstein_lower_bound": {"numerator": lower.numerator, "denominator": lower.denominator},
        "hitchin_thorpe_upper_bound": upper,
        "integer_window": window,
        "rows": rows,
    }
