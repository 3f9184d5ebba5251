import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourfold.cli import main
from fourfold.errors import InapplicableError, UnsupportedFamilyError, ValidationError
from fourfold.expressions import parse_manifold
from fourfold.manifolds import (
    connected_sum,
    cp2,
    cp2bar,
    custom,
    k3,
    s1xs3,
    s4,
    surface_product,
)
from fourfold.obstructions import (
    SCAN_R_MAX,
    PiRadical,
    SurfaceCandidate,
    blowup_scan,
    einstein_nonexistence,
    embedding_obstructed,
    example_scan,
    hitchin_thorpe,
    min_genus,
    yamabe_value,
)
from fourfold.spinc import canonical_spinc
from test_refusals import negative_e8


def k3_pair():
    m = connected_sum(k3(), k3())
    return m, canonical_spinc(m)


def sp33_pair():
    m = connected_sum(surface_product(3, 3), surface_product(3, 3))
    return m, canonical_spinc(m)


def repeat_sum(build, count):
    m = build()
    for _ in range(count - 1):
        m = connected_sum(m, build())
    return m


def test_embedding_boundary_case_not_obstructed():
    m, s = k3_pair()
    cand = SurfaceCandidate(self_intersection=0, genus=1, pairing=0)
    assert embedding_obstructed(m, s, cand) is False


def test_embedding_obstructed_positive_square_torus():
    m, s = k3_pair()
    cand = SurfaceCandidate(self_intersection=2, genus=1, pairing=0)
    assert embedding_obstructed(m, s, cand) is True


def test_embedding_rejects_genus_zero():
    m, s = k3_pair()
    with pytest.raises(InapplicableError, match="positive genus"):
        embedding_obstructed(m, s, SurfaceCandidate(0, 0, 0))


def test_embedding_rejects_negative_self_intersection():
    m, s = k3_pair()
    with pytest.raises(InapplicableError, match="nonnegative"):
        embedding_obstructed(m, s, SurfaceCandidate(-1, 2, 0))


def test_embedding_requires_nontrivial_bordism_class():
    m = repeat_sum(k3, 4)
    s = canonical_spinc(m)
    with pytest.raises(InapplicableError, match="nontrivial"):
        embedding_obstructed(m, s, SurfaceCandidate(0, 1, 0))
    single = k3()
    with pytest.raises(InapplicableError):
        embedding_obstructed(single, canonical_spinc(single), SurfaceCandidate(0, 1, 0))
    bad = surface_product(2, 2)
    with pytest.raises(UnsupportedFamilyError):
        embedding_obstructed(bad, canonical_spinc(bad), SurfaceCandidate(0, 1, 0))


def test_embedding_monotone():
    m, s = k3_pair()
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(0, 12)
        g = rng.randint(1, 8)
        p = rng.randint(-6, 6)
        base = embedding_obstructed(m, s, SurfaceCandidate(n, g, p))
        harder = embedding_obstructed(m, s, SurfaceCandidate(n + 1, g, p))
        easier_g = embedding_obstructed(m, s, SurfaceCandidate(n, g + 1, p))
        if base:
            assert harder
        if easier_g:
            assert base


def test_min_genus_worked_examples():
    m, s = k3_pair()
    assert min_genus(m, s, 0, 0) == 1
    assert min_genus(m, s, 6, 0) == 4
    assert min_genus(m, s, 4, 10) == 1


def test_min_genus_consistent_with_obstruction():
    m, s = k3_pair()
    for n in range(0, 10):
        for p in range(-5, 6):
            g = min_genus(m, s, n, p)
            assert not embedding_obstructed(m, s, SurfaceCandidate(n, g, p))
            if g > 1:
                assert embedding_obstructed(m, s, SurfaceCandidate(n, g - 1, p))


def test_hitchin_thorpe():
    assert hitchin_thorpe(s4()) is True
    assert hitchin_thorpe(k3()) is True  # equality: 48 <= 48
    assert hitchin_thorpe(repeat_sum(cp2bar, 50)) is False


def test_einstein_worked_example():
    m, s = sp33_pair()
    n2 = repeat_sum(cp2bar, 40)
    assert einstein_nonexistence(m, s, n2) is True


def test_einstein_k3k3_s4():
    m, s = k3_pair()
    assert einstein_nonexistence(m, s, s4()) is True


def test_einstein_threshold_exact():
    # G = 8, s = 0: verdict flips between r = 17 and r = 18 (bound 52/3)
    m, s = sp33_pair()
    assert einstein_nonexistence(m, s, repeat_sum(cp2bar, 17)) is False
    assert einstein_nonexistence(m, s, repeat_sum(cp2bar, 18)) is True


def test_einstein_rejects_positive_definite_n2():
    m, s = sp33_pair()
    with pytest.raises(InapplicableError, match="negative definite"):
        einstein_nonexistence(m, s, cp2())


def test_yamabe_k3_sum_vanishes():
    m, s = k3_pair()
    value = yamabe_value(m, s, repeat_sum(cp2bar, 3), True)
    assert value == PiRadical(0, 0)
    assert str(value) == "0"


def test_yamabe_exact_radical():
    m, s = sp33_pair()
    value = yamabe_value(m, s, cp2bar(), True)
    assert value == PiRadical(-32, 2)
    assert str(value) == "-32*sqrt(2)*pi"


def test_yamabe_odd_genus_with_torus_factor_vanishes():
    m = connected_sum(surface_product(3, 1), surface_product(3, 1))
    value = yamabe_value(m, canonical_spinc(m), s4(), True)
    assert value == PiRadical(0, 0)


def test_yamabe_requires_metric_assertion():
    m, s = sp33_pair()
    with pytest.raises(InapplicableError, match="metric hypothesis"):
        yamabe_value(m, s, cp2bar(), False)
    with pytest.raises(InapplicableError, match="metric hypothesis"):
        yamabe_value(m, s, cp2(), True)


# Descriptors for N: the even -E8 of tests/test_refusals.py and the odd
# -E8 + <-1>, which no smooth closed 4-manifold has either but whose
# parity passes.
N_DESCRIPTORS = {
    "e8.json": {"b1": 0, "form": negative_e8(), "euler": 10, "c1": [0] * 8},
    "e8-odd.json": {
        "b1": 0, "form": [row + [0] for row in negative_e8()] + [[0] * 8 + [-1]],
        "euler": 11, "c1": [0] * 8 + [1],
    },
}
N_PIECES = ("CP2", "~CP2", "S1xS3", "S4", "K3", "SP(1,1)", "@e8.json", "@e8-odd.json")


def test_donaldson_check_passes_an_odd_form_that_is_not_diagonal():
    # No smooth closed 4-manifold has -E8 + <-1>, but only the parity is
    # checked; tests/test_refusals.py sends the even -E8.
    m, s = k3_pair()
    odd = custom(N_DESCRIPTORS["e8-odd.json"])
    assert einstein_nonexistence(m, s, odd) is True
    assert yamabe_value(m, s, odd, True) == PiRadical(0, 0)


@pytest.fixture(scope="module")
def n_descriptors(tmp_path_factory):
    root = tmp_path_factory.mktemp("n")
    for name, descriptor in N_DESCRIPTORS.items():
        (root / name).write_text(json.dumps(descriptor))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        yield


def _decision(argv, name):
    """Exit code and refusal of a request, with the name of N and the
    Yamabe theorem's prefix set aside."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    reason = err.getvalue().replace("metric hypothesis not certified: ", "")
    return code, reason.replace(name, "N")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from(N_PIECES)), min_size=1, max_size=4))
@example([(1, "@e8.json")])
@example([(1, "@e8-odd.json")])
@example([(1, "CP2")])
def test_einstein_and_yamabe_decide_n_the_same_way(n_descriptors, terms):
    n = " # ".join(f"{count}*{piece}" for count, piece in terms)
    einstein = _decision(["einstein", "K3 # K3", "--n2", n], "N2")
    yamabe = _decision(["yamabe", "K3 # K3", "--n1", n, "--nonneg-scalar"], "N1")
    assert einstein[0] in (0, 2), (n, einstein)
    assert einstein == yamabe, n


def test_yamabe_permutation_invariant_and_zero_iff_flat_summands():
    a = connected_sum(surface_product(3, 3), surface_product(3, 1))
    b = connected_sum(surface_product(3, 1), surface_product(3, 3))
    va = yamabe_value(a, canonical_spinc(a), s4(), True)
    vb = yamabe_value(b, canonical_spinc(b), s4(), True)
    assert va == vb
    # SP(3,1) contributes c1^2 = 0, SP(3,3) contributes 64: nonzero total
    assert not va.is_zero()
    flat = connected_sum(surface_product(1, 1), k3())
    assert yamabe_value(flat, canonical_spinc(flat), s4(), True).is_zero()


def test_pi_radical_normalization():
    assert PiRadical.of(-4, 128) == PiRadical(-32, 2)
    assert PiRadical.of(-4, 0) == PiRadical(0, 0)
    assert PiRadical.of(2, 18) == PiRadical(6, 2)
    assert PiRadical.of(-4, 16) == PiRadical(-16, 1)
    assert str(PiRadical.of(-4, 16)) == "-16*pi"
    with pytest.raises(ValidationError):
        PiRadical.of(1, -1)


def test_example_scan_matches_closed_form():
    for genera, s in [((3, 3, 3, 3), 0), ((1, 1, 1, 1), 0), ((3, 3, 5, 1), 2)]:
        res = example_scan(*genera, s=s, r_max=70)
        big_g = res["G"]
        for row in res["rows"]:
            r = row["r"]
            assert row["einstein_obstructed"] == (3 * r >= 8 * big_g - 12 * s - 12)
            assert row["hitchin_thorpe"] == (r <= 8 * big_g - 4 * s - 4)


@pytest.mark.parametrize("s", [0, 1, 3])
@pytest.mark.parametrize("genera", [(1, 1, 1, 1), (3, 3, 5, 1)])
def test_example_scan_rows_match_built_manifolds(genera, s):
    # Each stepped row agrees with the theorem functions evaluated on the
    # connected sums themselves.
    g1, g1p, g2, g2p = genera
    m = connected_sum(surface_product(g1, g1p), surface_product(g2, g2p))
    spinc = canonical_spinc(m)
    rows = example_scan(*genera, s=s, r_max=6)["rows"]
    assert [row["r"] for row in rows] == list(range(7))
    for row in rows:
        r = row["r"]
        n2 = connected_sum(s4(), *[s1xs3()] * s, *[cp2bar()] * r)
        assert row["einstein_obstructed"] == einstein_nonexistence(m, spinc, n2)
        assert row["hitchin_thorpe"] == hitchin_thorpe(connected_sum(m, n2))


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "expression, window",
    [
        ("2*SP(3,3)", [18, 60]),
        ("K3 # SP(3,3)", [7, 28]),
        ("3*SP(3,3)", [24, 88]),
        ("K3 # SP(3,1) # SP(5,3)", [14, 56]),
        ("K3 # K3", None),
    ],
)
def test_blowup_scan_rows_match_built_manifolds(expression, window, s):
    # Over the covered family, each stepped row agrees with the theorem
    # functions evaluated on the connected sums themselves, and the
    # closed-form window is where both verdicts hold.
    m = parse_manifold(expression)
    spinc = canonical_spinc(m)
    r_max = 90
    res = blowup_scan(m, s, r_max)
    assert res["G"] * 8 == spinc.c1_square
    rows = res["rows"]
    assert [row["r"] for row in rows] == list(range(r_max + 1))
    n2 = connected_sum(s4(), *[s1xs3()] * s)
    for row in rows:
        assert row["einstein_obstructed"] == einstein_nonexistence(m, spinc, n2)
        assert row["hitchin_thorpe"] == hitchin_thorpe(connected_sum(m, n2))
        n2 = connected_sum(n2, cp2bar())
    both = [row["r"] for row in rows if row["einstein_obstructed"] and row["hitchin_thorpe"]]
    if s == 0:
        assert res["integer_window"] == window
    if res["integer_window"] is None:
        assert both == []
    else:
        lo, hi = res["integer_window"]
        assert both == list(range(lo, hi + 1))


def test_example_scan_at_r_max_bound_matches_closed_form():
    res = example_scan(3, 3, 3, 3, s=0, r_max=SCAN_R_MAX)
    rows = res["rows"]
    assert len(rows) == SCAN_R_MAX + 1 == 100_001
    big_g = res["G"]
    for row, r in ((rows[0], 0), (rows[-1], SCAN_R_MAX)):
        assert row["r"] == r
        assert row["einstein_obstructed"] == (3 * r >= 8 * big_g - 12)
        assert row["hitchin_thorpe"] == (r <= 8 * big_g - 4)


def test_example_scan_reports_rational_bound_and_window():
    res = example_scan(3, 3, 3, 3, s=0, r_max=70)
    assert res["G"] == 8
    lb = res["einstein_lower_bound"]
    assert Fraction(lb["numerator"], lb["denominator"]) == Fraction(52, 3)
    assert res["integer_window"] == [18, 60]


def test_example_scan_torus_case():
    # G = 0: every r is Einstein-obstructed, Hitchin-Thorpe never holds
    res = example_scan(1, 1, 1, 1, s=0, r_max=20)
    assert all(row["einstein_obstructed"] for row in res["rows"])
    assert not any(row["hitchin_thorpe"] for row in res["rows"])
    assert res["integer_window"] is None


def test_example_scan_empty_window_for_large_s():
    res = example_scan(3, 3, 3, 3, s=16, r_max=5)
    assert 8 * res["G"] - 4 * 16 - 4 < 0
    assert res["integer_window"] is None


def test_example_scan_rejects_even_genus():
    with pytest.raises(UnsupportedFamilyError, match="even genus"):
        example_scan(2, 3, 3, 3, s=0, r_max=5)


def test_example_scan_rejects_bad_parameters():
    with pytest.raises(ValidationError, match="s must"):
        example_scan(1, 1, 1, 1, s=-1, r_max=5)
    with pytest.raises(ValidationError, match="r_max"):
        example_scan(1, 1, 1, 1, s=0, r_max=0)
