import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fourfold.bordism import (
    NONTRIVIAL,
    TRIVIAL,
    SpinBordismClass,
    certify_family,
    spin_bordism_class,
)
from fourfold.errors import (
    InapplicableError,
    IntegralityError,
    UnsupportedFamilyError,
    ValidationError,
)
from fourfold.lattice import Lattice
from fourfold.manifolds import (
    K3,
    ManifoldData,
    Summand,
    connected_sum,
    cp2bar,
    custom,
    descriptor_of,
    k3,
    surface_product,
)
from fourfold.spinc import canonical_spinc, index_chern_form, moduli_dimension, spinc

GENERATOR_POOL = [
    k3,
    lambda: surface_product(1, 1),
    lambda: surface_product(3, 3),
    lambda: surface_product(5, 1),
]


def _sum_of(builders):
    m = builders[0]()
    for b in builders[1:]:
        m = connected_sum(m, b())
    return m


def test_certify_k3_sum():
    m = connected_sum(k3(), k3())
    cert = certify_family(m, canonical_spinc(m))
    assert cert == SpinBordismClass(1, "Z/2", NONTRIVIAL)


def test_certify_c1_square():
    # The certified c1^2 is the one the spin^c structure carries.
    m = connected_sum(surface_product(3, 3), surface_product(3, 3))
    s = canonical_spinc(m)
    assert certify_family(m, s).value == NONTRIVIAL and s.c1_square == 64
    m = connected_sum(k3(), k3())
    s = canonical_spinc(m)
    assert certify_family(m, s).value == NONTRIVIAL and s.c1_square == 0


def test_certify_mixed_sum():
    m = connected_sum(k3(), surface_product(3, 1))
    # SP(3,1) has c1 = -4 alpha + 0 alpha', so c1^2 = 2 * (-4) * 0 = 0.
    assert certify_family(m, canonical_spinc(m)) == SpinBordismClass(1, "Z/2", NONTRIVIAL)


def test_certify_rejects_cp2bar():
    m = connected_sum(k3(), cp2bar())
    s = spinc(m, k3().canonical_c1 + (-1,))
    with pytest.raises(UnsupportedFamilyError, match="outside the covered family"):
        certify_family(m, s)


def test_certify_rejects_even_genus():
    m = surface_product(2, 2)
    with pytest.raises(UnsupportedFamilyError, match="even genus"):
        certify_family(m, canonical_spinc(m))


def test_certify_rejects_custom_even_when_data_matches():
    m = custom(descriptor_of(k3()))
    with pytest.raises(UnsupportedFamilyError, match="outside the covered family"):
        certify_family(m, canonical_spinc(m))


def test_certify_rejects_non_canonical_spinc():
    m = connected_sum(surface_product(3, 3), surface_product(3, 3))
    # characteristic (the form is even, 4*alpha is even) but not canonical
    other = list(m.canonical_c1)
    other[0] += 4
    s = spinc(m, tuple(other))
    with pytest.raises(UnsupportedFamilyError, match="canonical"):
        certify_family(m, s)


def test_bordism_class_two_summands():
    m = connected_sum(k3(), k3())
    klass = spin_bordism_class(m, canonical_spinc(m))
    assert (klass.dimension, klass.group, klass.value) == (1, "Z/2", NONTRIVIAL)


def test_bordism_class_three_summands():
    m = _sum_of([k3, k3, lambda: surface_product(3, 1)])
    klass = spin_bordism_class(m, canonical_spinc(m))
    assert (klass.dimension, klass.group, klass.value) == (2, "Z/2", NONTRIVIAL)


def test_bordism_class_trivial_for_four_or_more():
    for l in (4, 5, 6):
        m = _sum_of([k3] * l)
        klass = spin_bordism_class(m, canonical_spinc(m))
        assert klass.dimension == l - 1
        assert klass.value == TRIVIAL


def test_bordism_refuses_single_summand():
    m = k3()
    with pytest.raises(InapplicableError, match="single-summand"):
        spin_bordism_class(m, canonical_spinc(m))


def test_bordism_invariant_under_summand_permutation():
    rng = random.Random(41)
    for _ in range(20):
        builders = [rng.choice(GENERATOR_POOL) for _ in range(rng.randint(2, 5))]
        m1 = _sum_of(builders)
        rng.shuffle(builders)
        m2 = _sum_of(builders)
        k1 = spin_bordism_class(m1, canonical_spinc(m1))
        k2 = spin_bordism_class(m2, canonical_spinc(m2))
        assert (k1.dimension, k1.group, k1.value) == (k2.dimension, k2.group, k2.value)


def test_bordism_dimension_matches_moduli_dimension():
    rng = random.Random(43)
    for _ in range(20):
        builders = [rng.choice(GENERATOR_POOL) for _ in range(rng.randint(2, 6))]
        m = _sum_of(builders)
        s = canonical_spinc(m)
        assert spin_bordism_class(m, s).dimension == moduli_dimension(m, s)


def _mislabelled_k3_pair():
    # Tagged as K3 # K3 but carrying the data of ~CP2: the spin condition
    # holds, the moduli dimension is -1 instead of 1.
    return ManifoldData(
        b1=0,
        h2=Lattice.from_rows(((-1,),)),
        summands=(Summand(K3), Summand(K3)),
        canonical_c1=(1,),
    )


def test_bordism_rejects_moduli_dimension_mismatch():
    m = _mislabelled_k3_pair()
    with pytest.raises(ValidationError, match="moduli dimension -1 does not match 2 summands"):
        spin_bordism_class(m, canonical_spinc(m))


def test_bordism_rejects_failed_spin_condition():
    # Tagged as K3 # K3 but carrying 8<1> with c1^2 = 16: Dirac index 1.
    m = ManifoldData(
        b1=0,
        h2=Lattice.from_rows(tuple(tuple(int(i == j) for j in range(8)) for i in range(8))),
        summands=(Summand(K3), Summand(K3)),
        canonical_c1=(3, 1, 1, 1, 1, 1, 1, 1),
    )
    with pytest.raises(ValidationError, match="spin condition fails"):
        spin_bordism_class(m, canonical_spinc(m))


def test_certify_rejects_odd_cup_pairing():
    # Tagged as K3 # K3 but carrying an odd cup pairing: half of it is no
    # integer, so the index Chern class is not even and the spin condition
    # fails.  The integrality gate of index_chern_form still refuses it.
    m = ManifoldData(
        b1=2,
        h2=Lattice.from_rows(((1, 1), (1, 0))),
        cup1={(0, 1): ((0, 1),)},
        summands=(Summand(K3), Summand(K3)),
        canonical_c1=(0, 1),
    )
    s = canonical_spinc(m)
    with pytest.raises(ValidationError) as err:
        certify_family(m, s)
    assert type(err.value) is ValidationError
    assert str(err.value) == (
        "spin condition fails for a covered-family manifold (index even: True, "
        "index Chern class even: False); inconsistent input"
    )
    with pytest.raises(IntegralityError, match=r"cup pairing at \(0,1\) is odd \(1\)"):
        index_chern_form(m, s)


def test_bordism_rejects_moduli_dimension_mismatch_without_asserts():
    # The check must not be an assert, which ``python -O`` strips.
    script = """
import sys
from fourfold.bordism import spin_bordism_class
from fourfold.errors import ValidationError
from fourfold.lattice import Lattice
from fourfold.manifolds import K3, ManifoldData, Summand
from fourfold.spinc import canonical_spinc

m = ManifoldData(b1=0, h2=Lattice.from_rows(((-1,),)),
                 summands=(Summand(K3), Summand(K3)), canonical_c1=(1,))
print("optimize", sys.flags.optimize)
try:
    print(spin_bordism_class(m, canonical_spinc(m)))
except ValidationError as exc:
    print(exc)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert "moduli dimension -1 does not match 2 summands" in lines[1]
