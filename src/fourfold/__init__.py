"""Compositional calculator for closed oriented 4-manifolds.

Builds connected sums of generator manifolds, decides the parity
conditions under which the monopole moduli space carries a spin
structure, evaluates the associated spin-bordism verdict for the covered
family, and applies the geometric consequence theorems (adjunction genus
bounds, Hitchin-Thorpe, Einstein nonexistence, Yamabe values) with exact
arithmetic throughout.
"""

from .bordism import (
    NONTRIVIAL,
    POINT_SPIN_BORDISM,
    TRIVIAL,
    FamilyCertificate,
    SpinBordismClass,
    certify_family,
    spin_bordism_class,
)
from .errors import (
    InapplicableError,
    IntegralityError,
    ParseError,
    ShapeError,
    UnsupportedFamilyError,
    ValidationError,
)
from .expressions import ManifoldExpression, parse, parse_manifold, resolve
from .lattice import (
    Lattice,
    Vector,
    as_vector,
    determinant,
    diagonal_lattice,
    direct_sum,
    inertia,
    is_characteristic,
    is_negative_definite,
    pairing,
    signature,
    zero_vector,
)
from .manifolds import (
    ManifoldData,
    Summand,
    connected_sum,
    cp2,
    cp2bar,
    custom,
    descriptor_of,
    k3,
    load_descriptor,
    s1xs3,
    s4,
    surface_product,
)
from .obstructions import (
    PiRadical,
    SurfaceCandidate,
    einstein_nonexistence,
    embedding_obstructed,
    example_scan,
    hitchin_thorpe,
    min_genus,
    yamabe_value,
)
from .spinc import (
    SpinCondition,
    SpinCStructure,
    TorusTwoForm,
    canonical_spinc,
    cup_pairing_matrix,
    dirac_index,
    index_chern_form,
    moduli_dimension,
    spin_condition,
    spinc,
)

__version__ = "0.1.0"
