"""Generator 4-manifolds, connected sums, and user-supplied descriptors.

A :class:`ManifoldData` records the algebraic-topological profile of a
closed oriented 4-manifold: first Betti number, the intersection form on
the free part of H^2, the cup products of H^1 generators, provenance
tags, and (when the generator carries one) the first Chern class of the
complex-structure spin^c structure; the Euler number is derived.

Torsion in H^1 and H^2 is ignored throughout; every downstream formula
factors through the free parts.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import cache, lru_cache

from .errors import ValidationError
from .lattice import (
    EVENTS,
    Lattice,
    SparseVector,
    Vector,
    _Value,
    as_vector,
    dense,
    determinant,
    direct_sum,
    is_characteristic,
    sparse,
    zero_vector,
)

K3 = "K3"
SP = "SP"
CP2 = "CP2"
CP2BAR = "~CP2"
S1XS3 = "S1xS3"
S4 = "S4"
CUSTOM = "CUSTOM"

# Longer integers in an expression or a descriptor name manifolds far beyond
# anything that can be built; the cap keeps int() and str() in CPython's limit.
MAX_INTEGER_DIGITS = 18

# Largest descriptor file, in bytes: at most one byte more is read, so a
# larger file (or /dev/zero) is refused without reading the rest.  A
# compact dense descriptor of rank 2800 with one-digit entries is 15 MiB.
MAX_DESCRIPTOR_BYTES = 16 * 2**20

# Largest rank of a descriptor's form, checked before the form is read
# further: the determinant of a dense form costs O(rank^3).  The bound
# was set where the analyze of a dense connected descriptor (n K3 blocks
# mixed by a unimodular change of basis) stayed under 10 s in every run
# of an elimination over the whole matrix.  On the upper triangle it
# takes 3.8-5.2 s at rank 462 and 0.30-0.48 s at rank 198 (CPU time of
# `fourfold analyze` as a subprocess, three and five runs, 2-vCPU
# machine, Python 3.11).
MAX_DESCRIPTOR_RANK = 462


class Summand(_Value):
    """One connected-sum piece by name: a generator of :data:`GENERATORS`
    (``SP`` with its genera) or a ``CUSTOM`` descriptor.  The parser gives
    a descriptor its ``path`` and it prints as ``@path``; a built one
    carries its ``label`` instead."""

    __slots__ = _fields = ("kind", "genera", "label", "path")

    def __init__(
        self,
        kind: str,
        genera: tuple[int, int] | None = None,
        label: str | None = None,
        path: str | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "path", path)

    def __str__(self) -> str:
        if self.kind == SP:
            g, gp = self.genera
            return f"SP({g},{gp})"
        if self.path is not None:
            return f"@{self.path}"
        if self.kind == CUSTOM and self.label:
            return f"CUSTOM({self.label})"
        return self.kind


class ManifoldData(_Value):
    """Algebraic-topological profile of a closed oriented 4-manifold.

    ``cup1`` maps index pairs (i, j) with 0 <= i < j < b1 to the class
    alpha_i cup alpha_j in the H^2 basis, stored sparsely like a row of
    the form; pairs with zero cup product are omitted, and the pair
    (j, i) is the negative of (i, j).  The constructor checks nothing:
    :func:`custom` checks outside data, and the package's builders keep
    every invariant.

    ``canonical_spinc`` is the :class:`~fourfold.spinc.SpinCStructure` of
    ``canonical_c1``, None until the first
    :func:`~fourfold.spinc.canonical_spinc` of the manifold fills it.
    Like ``Lattice.invariants`` it is derived, so equality, hashing and
    repr leave it out.
    """

    __slots__ = ("b1", "h2", "cup1", "summands", "canonical_c1", "canonical_spinc")
    _fields = ("b1", "h2", "cup1", "summands", "canonical_c1")

    def __init__(
        self,
        b1: int,
        h2: Lattice,
        cup1: dict[tuple[int, int], SparseVector] | None = None,
        summands: tuple[Summand, ...] = (),
        canonical_c1: Vector | None = None,
    ):
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "cup1", {} if cup1 is None else cup1)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "canonical_c1", canonical_c1)
        object.__setattr__(self, "canonical_spinc", None)

    @property
    def euler(self) -> int:
        """chi = 2 - 2*b1 + b2, as for every closed oriented 4-manifold."""
        return 2 - 2 * self.b1 + self.h2.rank


# E8 Dynkin diagram edges in Bourbaki labeling (0-based nodes), and the
# hyperbolic plane H and the forms of the 1x1 and rank-0 generators, each
# with its invariants.
_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))
_H = Lattice._trusted((((1, 1),), ((0, 1),)), (1, 1, 0, -1))
_PLUS_ONE = Lattice._trusted((((0, 1),),), (1, 0, 0, 1))
_MINUS_ONE = Lattice._trusted((((0, -1),),), (0, 1, 0, -1))
_RANK_ZERO = Lattice._trusted((), (0, 0, 0, 1))


# Generators are built on first call and shared: no code mutates a
# ManifoldData, and a connected sum adds up its pieces' invariants.  Each
# generator's form is built with its invariants, so none is eliminated.
@cache
def k3() -> ManifoldData:
    """The K3 surface: b1 = 0, chi = 24, form 2E8(-1) + 3H, tau = -16."""
    EVENTS["generator"] += 1
    # E8(-1): -2 on the diagonal and 1 on each edge of the Dynkin diagram.
    rows = [{i: -2} for i in range(8)]
    for i, j in _E8_EDGES:
        rows[i][j] = rows[j][i] = 1
    e8 = Lattice._trusted(tuple(tuple(sorted(row.items())) for row in rows), (0, 8, 0, 1))
    form = direct_sum(e8, e8, _H, _H, _H)
    return ManifoldData(
        b1=0,
        h2=form,
        summands=(Summand(K3),),
        canonical_c1=zero_vector(form),
    )


@lru_cache(maxsize=32)
def surface_product(g: int, gp: int) -> ManifoldData:
    """Product of two closed oriented surfaces of genus g and gp.

    Basis conventions, fixed once and for all:

    * H^1 generators are factor-major and symplectically interleaved:
      x_1, y_1, ..., x_g, y_g from the first factor, then the same
      pattern from the second, b1 = 2(g+gp) in total.
    * H^2 basis: alpha (fundamental class of the first factor), alpha'
      (second factor), then the 4*g*gp mixed classes u x v with u running
      over the first factor's H^1 basis (major) and v over the second's.
    * Pairings: alpha.alpha' = 1, alpha^2 = alpha'^2 = 0, and
      (u x v).(u' x v') = -<u u'> <v v'> with <x_i y_i> = 1 per factor.

    The canonical complex-structure spin^c class is
    2(1-g) alpha + 2(1-gp) alpha'.
    """
    rank = surface_product_rank(g, gp)
    EVENTS["generator"] += 1
    n1, n2 = 2 * g, 2 * gp

    def mix(i: int, j: int) -> int:
        return 2 + i * n2 + j

    # u x v pairs only with the product of the symplectic partners,
    # (i ^ 1, j ^ 1), and <u u'> <v v'> = (-1)^i (-1)^j.  The form is H plus
    # 2*g*gp hyperbolic planes, so b+ = b- = 1 + 2*g*gp and det = -1.
    rows = list(_H.rows)
    rows += [((mix(i ^ 1, j ^ 1), (-1) ** (i + j + 1)),) for i in range(n1) for j in range(n2)]
    half = 1 + 2 * g * gp
    form = Lattice._trusted(tuple(rows), (half, half, 0, -1))

    cup: dict[tuple[int, int], SparseVector] = {}
    for t in range(g):
        cup[(2 * t, 2 * t + 1)] = ((0, 1),)
    for t in range(gp):
        cup[(n1 + 2 * t, n1 + 2 * t + 1)] = ((1, 1),)
    for i in range(n1):
        for j in range(n2):
            cup[(i, n1 + j)] = ((mix(i, j), 1),)

    c1 = [0] * rank
    c1[0] = 2 * (1 - g)
    c1[1] = 2 * (1 - gp)
    return ManifoldData(
        b1=n1 + n2,
        h2=form,
        cup1=cup,
        summands=(Summand(SP, (g, gp)),),
        canonical_c1=tuple(c1),
    )


@cache
def cp2() -> ManifoldData:
    EVENTS["generator"] += 1
    return ManifoldData(b1=0, h2=_PLUS_ONE, summands=(Summand(CP2),))


@cache
def cp2bar() -> ManifoldData:
    EVENTS["generator"] += 1
    return ManifoldData(b1=0, h2=_MINUS_ONE, summands=(Summand(CP2BAR),))


@cache
def s1xs3() -> ManifoldData:
    EVENTS["generator"] += 1
    return ManifoldData(b1=1, h2=_RANK_ZERO, summands=(Summand(S1XS3),))


@cache
def s4() -> ManifoldData:
    EVENTS["generator"] += 1
    return ManifoldData(b1=0, h2=_RANK_ZERO, summands=(Summand(S4),))


# The generator names of the expression grammar and their builders; the
# SP builder takes the two genera.
GENERATORS = {K3: k3, SP: surface_product, CP2: cp2, CP2BAR: cp2bar, S1XS3: s1xs3, S4: s4}


def surface_product_rank(g: int, gp: int) -> int:
    """rank H^2 of :func:`surface_product`, 2 + 4*g*gp, without building
    it; genera it would refuse are refused with the same error."""
    if g < 1 or gp < 1:
        raise ValidationError(f"genus must be positive, got ({g},{gp})")
    return 2 + 4 * g * gp


def connected_sum(*pieces: ManifoldData) -> ManifoldData:
    """Connected sum of the pieces in order: forms add orthogonally, and
    cross cup products vanish.

    Each piece's cup classes are shifted past the indices of the pieces
    before it, and the first piece's are reused as they are, so nothing is
    padded.  The sum is not validated again: every piece was validated
    when it was built, and an orthogonal sum keeps each invariant.  The
    shifted cup indices stay in range, and the concatenated c1 is
    characteristic because each of its parts is characteristic for its
    own block of the form."""
    EVENTS["sum"] += 1
    cup: dict[tuple[int, int], SparseVector] = {}
    b1 = rank = 0
    for m in pieces:
        for (i, j), v in m.cup1.items():
            cup[(i + b1, j + b1)] = tuple((k + rank, x) for k, x in v) if rank else v
        b1, rank = b1 + m.b1, rank + m.h2.rank
    c1 = None
    if all(m.canonical_c1 is not None for m in pieces):
        c1 = tuple(x for m in pieces for x in m.canonical_c1)
    return ManifoldData._trusted(
        b1,
        direct_sum(*(m.h2 for m in pieces)),
        cup,
        tuple(s for m in pieces for s in m.summands),
        c1,
        None,
    )


_DESCRIPTOR_FIELDS = {"b1", "form", "cup1", "euler", "c1", "label"}

_INTEGER_BOUND = 10**MAX_INTEGER_DIGITS
_INDEX = rf"[1-9][0-9]{{0,{MAX_INTEGER_DIGITS - 1}}}"
# A cup1 key has one spelling: ASCII digits with no sign, space,
# underscore or leading zero, so that no two keys name the same pair.
_CUP_KEY = re.compile(rf"({_INDEX}),({_INDEX})")


def custom(descriptor: Mapping) -> ManifoldData:
    """Build a validated ManifoldData from a JSON-style descriptor: the one
    gate for manifold data from outside the package.

    Expected shape::

        {"b1": int, "form": [[int]], "cup1": {"i,j": [int, ...]},
         "euler": int, "c1": [int, ...] | null, "label": str}

    cup1 keys are 1-based pairs "i,j" with i < j <= b1, spelled as
    ``_CUP_KEY`` requires; omitted pairs are zero.  Every invariant is
    checked once, the first being the rank budget
    :data:`MAX_DESCRIPTOR_RANK` and the last Poincare duality
    (|det Q| = 1), and the error names the invariant that failed.
    """
    return _unimodular(_checked(descriptor))


def _checked(descriptor: Mapping) -> ManifoldData:
    """The piece of a descriptor that passes every check of :func:`custom`
    but the last; its form is not eliminated yet."""
    EVENTS["validate"] += 1
    unknown = set(descriptor) - _DESCRIPTOR_FIELDS
    if unknown:
        raise ValidationError(f"unknown descriptor fields: {sorted(unknown)}")
    for req in ("b1", "form", "euler"):
        if req not in descriptor:
            raise ValidationError(f"descriptor missing required field '{req}'")
    b1 = descriptor["b1"]
    if isinstance(b1, bool) or not isinstance(b1, int) or b1 < 0:
        raise ValidationError("b1 must be a nonnegative integer")
    rows = descriptor["form"]
    if isinstance(rows, list) and len(rows) > MAX_DESCRIPTOR_RANK:
        raise ValidationError(
            f"form has {len(rows)} rows, over the rank budget of "
            f"MAX_DESCRIPTOR_RANK = {MAX_DESCRIPTOR_RANK}"
        )
    form = Lattice.from_rows(rows)
    euler = descriptor["euler"]
    if isinstance(euler, bool) or not isinstance(euler, int):
        raise ValidationError("euler must be an integer")

    cup1 = descriptor.get("cup1")
    if not isinstance(cup1, (dict, type(None))):
        raise ValidationError("cup1 must be an object mapping 'i,j' to integer lists")
    dense_cup: dict[tuple[int, int], Vector] = {}
    for key, value in (cup1 or {}).items():
        match = _CUP_KEY.fullmatch(key)
        if match is None:
            raise ValidationError(f"cup1 key '{key}' is not of the form 'i,j'")
        i, j = int(match[1]), int(match[2])
        if not (1 <= i < j <= b1):
            raise ValidationError(f"cup1 key '{key}' out of range: need 1 <= i < j <= b1={b1}")
        vec = as_vector(value, f"cup1 class '{key}'")
        if any(vec):
            dense_cup[(i - 1, j - 1)] = vec

    c1_raw = descriptor.get("c1")
    c1 = as_vector(c1_raw, "c1") if c1_raw is not None else None
    label = descriptor.get("label")
    if "label" in descriptor and not isinstance(label, str):
        raise ValidationError("label must be a string")
    try:
        (label or "").encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError("label must be valid Unicode text, without lone surrogates") from None
    for name, vectors in (
        ("b1", [(b1,)]), ("euler", [(euler,)]), ("form", descriptor["form"]),
        ("cup1", dense_cup.values()), ("c1", [c1] if c1 else []),
    ):
        if (max(map(max, vectors), default=0) >= _INTEGER_BOUND
                or min(map(min, vectors), default=0) <= -_INTEGER_BOUND):
            raise ValidationError(f"{name} has an integer of more than {MAX_INTEGER_DIGITS} digits")
    # The Euler relation is checked before the cup lengths.
    rank = form.rank
    if euler != 2 - 2 * b1 + rank:
        raise ValidationError(
            f"euler number {euler} violates chi = 2 - 2*b1 + rank(H2) = {2 - 2 * b1 + rank}"
        )
    cup: dict[tuple[int, int], SparseVector] = {}
    for (i, j), vec in dense_cup.items():
        if len(vec) != rank:
            raise ValidationError(
                f"cup1 class at ({i},{j}) has length {len(vec)}, expected {rank}"
            )
        cup[(i, j)] = sparse(vec)
    if c1 is not None:
        if len(c1) != rank:
            raise ValidationError(f"canonical c1 has length {len(c1)}, expected {rank}")
        if not is_characteristic(form, c1):
            raise ValidationError("canonical c1 is not characteristic for the form")
    return ManifoldData(
        b1=b1,
        h2=form,
        cup1=cup,
        summands=(Summand(CUSTOM, label=label),),
        canonical_c1=c1,
    )


def _unimodular(piece: ManifoldData) -> ManifoldData:
    """The piece, once its form is unimodular: the last check of
    :func:`custom`, and the first that eliminates the form."""
    det = determinant(piece.h2)
    if abs(det) != 1:
        # A long determinant is not printed: str() refuses past 4300 digits.
        shown = det if abs(det) < _INTEGER_BOUND else f"over {MAX_INTEGER_DIGITS} digits long"
        raise ValidationError(
            f"form determinant is {shown}, but Poincare duality makes the intersection "
            "form of a closed oriented 4-manifold unimodular (|det| = 1)"
        )
    return piece


# The pieces that passed the whole gate in this process, by the bytes of
# the file they were read from, least recently read first.  A piece holds
# no path, so the same bytes under two paths are validated once, and a
# refused file is never entered: it is refused again on every read, by a
# message that names the path it was read from.  32 entries hold the 12
# dense descriptor files that the bench's ``queries`` workload reads 30
# times a run each.  At worst they pin 32 x 16 MiB of bytes and their
# pieces (a dense rank-462 form is about 14 MB of nested tuples), less
# than the 256-entry memo of eliminated blocks that this replaced.
_VALIDATED: dict[bytes, ManifoldData] = {}
MAX_VALIDATED_DESCRIPTORS = 32


def read_descriptor(path: str, checked: Mapping[bytes, ManifoldData]) -> tuple[bytes, ManifoldData]:
    """The bytes of a descriptor file and its piece, which has passed every
    check of :func:`custom` but unimodularity, so that a caller can weigh
    its rank before the form is eliminated; :func:`admit_descriptor` makes
    the last check.  Bytes that passed the whole gate before, or that are
    among the caller's ``checked`` pieces by their bytes, give that piece,
    and are not decoded or checked again."""
    import json

    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_DESCRIPTOR_BYTES + 1)
    except OSError as exc:
        raise ValidationError(f"cannot read descriptor file '{path}': {exc}") from exc
    if len(data) > MAX_DESCRIPTOR_BYTES:
        raise ValidationError(
            f"descriptor file '{path}' is larger than the budget of "
            f"MAX_DESCRIPTOR_BYTES = {MAX_DESCRIPTOR_BYTES} bytes"
        )
    piece = _VALIDATED.get(data) or checked.get(data)
    if piece is not None:
        return data, piece
    EVENTS["decode"] += 1
    try:
        descriptor = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"descriptor file '{path}' is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"descriptor file '{path}' is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer literal past CPython's digit limit
        raise ValidationError(f"descriptor file '{path}' is not readable JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"descriptor file '{path}' is nested too deeply") from None
    if not isinstance(descriptor, dict):
        raise ValidationError(f"descriptor file '{path}' must contain a JSON object")
    return data, _checked(descriptor)


def admit_descriptor(data: bytes, piece: ManifoldData) -> ManifoldData:
    """The piece that :func:`read_descriptor` gave for ``data``, once its
    form is unimodular, remembered as the most recently read: the one
    remembered before, if these bytes passed the gate already."""
    piece = _unimodular(_VALIDATED.pop(data, piece))
    _VALIDATED[data] = piece
    if len(_VALIDATED) > MAX_VALIDATED_DESCRIPTORS:
        del _VALIDATED[next(iter(_VALIDATED))]
    return piece


def load_descriptor(path: str) -> ManifoldData:
    """The validated piece of a descriptor file: :func:`custom` of its JSON
    object, with the refusals of the file's reading naming its path."""
    return admit_descriptor(*read_descriptor(path, {}))


def descriptor_of(m: ManifoldData, label: str = "export") -> dict:
    """Serialize a ManifoldData back to the descriptor format."""
    return {
        "b1": m.b1,
        "form": [list(row) for row in m.h2.form],
        "cup1": {
            f"{i + 1},{j + 1}": list(dense(v, m.h2.rank)) for (i, j), v in sorted(m.cup1.items())
        },
        "euler": m.euler,
        "c1": list(m.canonical_c1) if m.canonical_c1 is not None else None,
        "label": label,
    }
