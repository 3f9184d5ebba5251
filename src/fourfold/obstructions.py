"""Geometric consequence theorems: genus bounds, Einstein obstructions,
Yamabe values, and the parameter scan over blown-up connected sums.

All inequality verdicts are evaluated over exact integers with cleared
denominators; equality counts as satisfied, matching the non-strict
inequalities of the underlying theorems.
"""

from __future__ import annotations

import math

from .bordism import NONTRIVIAL, certify_family
from .errors import InapplicableError, ValidationError
from .expressions import parse_manifold
from .lattice import _Value, is_negative_definite, signature
from .manifolds import ManifoldData, cp2bar, s1xs3, s4
from .spinc import SpinCStructure, canonical_spinc

# Largest r_max a scan accepts.  Each row steps the previous one by one
# ~CP^2 in a few integer additions, so the bound caps the size of the
# table, not the work per row.
SCAN_R_MAX = 100_000

class SurfaceCandidate(_Value):
    """A hypothetical embedded surface: self-intersection, genus, and the
    pairing of the spin^c class with its fundamental class."""

    __slots__ = _fields = ("self_intersection", "genus", "pairing")

    def __init__(self, self_intersection: int, genus: int, pairing: int):
        object.__setattr__(self, "self_intersection", self_intersection)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "pairing", pairing)


class PiRadical(_Value):
    """Exact value coefficient * sqrt(radicand) * pi with squarefree radicand."""

    __slots__ = _fields = ("coefficient", "radicand")

    def __init__(self, coefficient: int, radicand: int):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "radicand", radicand)

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


def _require_nontrivial(manifold: ManifoldData, s: SpinCStructure) -> None:
    """Certify the family once and require a nontrivial bordism class."""
    klass = certify_family(manifold, s)
    if klass.value != NONTRIVIAL:
        raise InapplicableError(
            f"bordism class is {klass.value} for {klass.dimension + 1} summands; "
            "the obstruction theorems require a nontrivial class"
        )


def embedding_obstructed(
    manifold: ManifoldData, s: SpinCStructure, cand: SurfaceCandidate
) -> bool:
    """Adjunction test for an embedded surface of nonnegative
    self-intersection and positive genus.

    True means the candidate violates n <= p + 2g - 2 and cannot embed;
    False means the inequality is satisfied (no conclusion about
    existence).
    """
    _require_nontrivial(manifold, s)
    if cand.genus < 1:
        raise InapplicableError("adjunction bound requires a surface of positive genus")
    if cand.self_intersection < 0:
        raise InapplicableError(
            "adjunction bound requires nonnegative self-intersection"
        )
    return cand.self_intersection > cand.pairing + 2 * cand.genus - 2


def min_genus(manifold: ManifoldData, s: SpinCStructure, n: int, p: int) -> int:
    """Smallest genus g >= 1 compatible with the adjunction bound for
    self-intersection n and pairing p."""
    _require_nontrivial(manifold, s)
    if n < 0:
        raise InapplicableError(
            "adjunction bound requires nonnegative self-intersection"
        )
    return max(1, -(-(n - p + 2) // 2))


def _hitchin_thorpe(chi: int, tau: int) -> bool:
    return 3 * abs(tau) <= 2 * chi


def hitchin_thorpe(x: ManifoldData) -> bool:
    """3|tau| <= 2*chi, the topological necessary condition for an
    Einstein metric."""
    return _hitchin_thorpe(x.euler, signature(x.h2))


def _einstein_obstructed(l: int, c1_square: int, chi2: int, tau2: int) -> bool:
    return 12 * l - 3 * (2 * chi2 + 3 * tau2) >= c1_square


def _negative_definite(n: ManifoldData, name: str, refusal: str) -> None:
    """The hypotheses on N that both theorems need: refuse a form that is
    not negative definite with ``refusal``, then a definite form of
    positive rank that is even.

    By Donaldson's theorem the definite form of a smooth closed oriented
    4-manifold is diagonal, so it is odd when its rank is positive.  Only
    the parity is checked, in O(nnz): an odd form that is not diagonal,
    such as E8 + <-1>, still passes.
    """
    if not is_negative_definite(n.h2):
        raise InapplicableError(refusal)
    if n.h2.rank and not any(x % 2 for i, row in enumerate(n.h2.rows) for j, x in row if i == j):
        raise InapplicableError(
            f"{name} has an even definite form of rank {n.h2.rank}, which by "
            "Donaldson's theorem no smooth closed oriented 4-manifold has"
        )


def einstein_nonexistence(manifold: ManifoldData, s: SpinCStructure, n2: ManifoldData) -> bool:
    """Whether the sum with a negative definite piece admits no Einstein
    metric.

    With l certified summands, the verdict is
    12*l - 3*(2*chi(N2) + 3*tau(N2)) >= sum of the summands' c1^2,
    evaluated exactly with cleared denominators.  N2 must pass
    :func:`_negative_definite` first.
    """
    _require_nontrivial(manifold, s)
    _negative_definite(n2, "N2", "N2 is not negative definite")
    return _einstein_obstructed(len(manifold.summands), s.c1_square, n2.euler, signature(n2.h2))


def yamabe_value(
    manifold: ManifoldData, s: SpinCStructure, n1: ManifoldData, n1_admits_nonneg_scalar: bool
) -> PiRadical:
    """Yamabe invariant of the sum with N1: -4*pi*sqrt(2 * sum c1^2).

    N1 must pass :func:`_negative_definite` and carry a metric of
    nonnegative scalar curvature; the metric hypothesis is not decidable
    from our data and must be asserted by the caller.
    """
    _require_nontrivial(manifold, s)
    _negative_definite(n1, "N1", "metric hypothesis not certified: N1 is not negative definite")
    if not n1_admits_nonneg_scalar:
        raise InapplicableError(
            "metric hypothesis not certified: N1 must be asserted to admit a "
            "metric with nonnegative scalar curvature"
        )
    return PiRadical.of(-4, 2 * s.c1_square)


def blowup_scan(manifold: ManifoldData, s: int, r_max: int) -> dict:
    """Scan blow-up counts r for M # N2, where M is a certified sum of l
    = 2 or 3 covered summands with its canonical spin^c structure and N2
    = S^4 # s S^1xS^3 # r ~CP^2.

    chi and tau of N2 are added up for r = 0, and each further row adds
    one ~CP^2: chi grows by chi(~CP^2) - 2 (the neck of the connected
    sum), tau by tau(~CP^2).  M # N2 has chi(M) + chi(N2) - 2 and tau(M)
    + tau(N2).  N2's form is diagonal and negative definite by
    construction, so it meets :func:`_negative_definite`, and every row's
    Einstein-nonexistence and Hitchin-Thorpe verdicts are the inequalities
    of :func:`einstein_nonexistence` and :func:`hitchin_thorpe`.

    Each covered summand has 2*chi + 3*tau = c1^2 and tau <= 0, so the
    verdicts follow closed forms, which the table also carries: G =
    c1^2/8, the exact lower bound (c1^2 - 12(l-1) - 12s)/3 as a reduced
    fraction, the upper bound c1^2 - 4(l-1) - 4s, and the integer window
    of r values satisfying both verdicts.
    """
    if s < 0:
        raise ValidationError(f"s must be nonnegative, got {s}")
    if r_max < 1:
        raise ValidationError(f"r_max must be positive, got {r_max}")
    if r_max > SCAN_R_MAX:
        raise ValidationError(f"r_max must be at most {SCAN_R_MAX}, got {r_max}")
    if manifold.canonical_c1 is None:
        raise ValidationError(
            "scan requires the canonical spin^c structure, which the manifold does not carry"
        )
    spin = canonical_spinc(manifold)
    _require_nontrivial(manifold, spin)
    l = len(manifold.summands)
    c1_square = spin.c1_square
    tau = signature(manifold.h2)

    (chi_s4, tau_s4), (chi_h, tau_h), (chi_b, tau_b) = (
        (x.euler, signature(x.h2)) for x in (s4(), s1xs3(), cp2bar())
    )
    # N2 at r = 0 is S^4 # s S^1xS^3; every connected sum loses 2 from chi.
    chi2 = chi_s4 + s * (chi_h - 2)
    tau2 = tau_s4 + s * tau_h
    rows = []
    for r in range(r_max + 1):
        rows.append(
            {
                "r": r,
                "einstein_obstructed": _einstein_obstructed(l, c1_square, chi2, tau2),
                "hitchin_thorpe": _hitchin_thorpe(manifold.euler + chi2 - 2, tau + tau2),
            }
        )
        chi2 += chi_b - 2
        tau2 += tau_b

    # num/3 in lowest terms: gcd(num, 3) is 1 or 3.
    num, den = c1_square - 12 * (l - 1) - 12 * s, 3
    if num % 3 == 0:
        num, den = num // 3, 1
    upper = c1_square - 4 * (l - 1) - 4 * s
    window_lo = max(0, -(-num // den))
    window = [window_lo, upper] if window_lo <= upper else None
    return {
        "G": c1_square // 8,
        "s": s,
        "r_max": r_max,
        "einstein_lower_bound": {"numerator": num, "denominator": den},
        "hitchin_thorpe_upper_bound": upper,
        "integer_window": window,
        "rows": rows,
    }


def example_scan(
    g1: int, g1p: int, g2: int, g2p: int, s: int, r_max: int
) -> dict:
    """:func:`blowup_scan` of SP(g1,g1p) # SP(g2,g2p), which is resolved
    like any expression, so its size is checked before it is built."""
    return blowup_scan(parse_manifold(f"SP({g1},{g1p}) # SP({g2},{g2p})"), s, r_max)
