"""Each request certifies the covered family once, runs each public
function of ``fourfold.bordism`` at most once and builds the
cup-pairing matrix and the index Chern form at most once, and the
certificate reads the spin^c facts without deriving them again; a
scan's cost in connected sums and inertia computations does not grow
with r_max while each row evaluates both verdicts once, resolving k*X
takes one connected sum, and each distinct block and generator is built
once."""

import inspect
import sys
from collections import Counter

import pytest

import fourfold
from fourfold.cli import main
from fourfold.expressions import parse_manifold
from fourfold.manifolds import custom, k3, surface_product
from fourfold import bordism, manifolds, obstructions, spinc
from fourfold.obstructions import example_scan

COUNTED = (
    ("fourfold.bordism", "certify_family"),
    ("fourfold.manifolds", "connected_sum"),
    ("fourfold.lattice", "inertia"),
    ("fourfold.lattice", "pairing"),
    ("fourfold.spinc", "cup_pairing_matrix"),
)


def count_calls(monkeypatch, counts, module_name, name):
    """Count calls of ``module_name.name`` in ``counts[name]`` through every
    module binding of it, including ``from``-import re-bindings."""
    original = getattr(sys.modules[module_name], name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is fourfold or getattr(module, "__name__", "").startswith("fourfold."):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the counted functions."""
    counts = Counter()
    for module_name, name in COUNTED:
        count_calls(monkeypatch, counts, module_name, name)
    return counts


@pytest.mark.parametrize(
    "argv",
    [
        ["einstein", "2*SP(3,3)", "--n2", "40*~CP2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"],
        ["genus", "K3 # K3", "--self-int", "6"],
        ["genus", "K3 # K3", "--self-int", "2", "--genus", "1"],
        ["sigma0", "K3 # K3 # SP(3,1)"],
    ],
)
def test_request_certifies_once(calls, capsys, argv):
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert calls["certify_family"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8*SP(3,3)"],
        ["analyze", "K3 # SP(3,3)"],
        ["analyze", "SP(2,2) # K3"],
        ["sigma0", "K3 # K3 # SP(3,1)"],
        ["sigma0", "2*SP(3,3)"],
        ["genus", "K3 # SP(3,3)", "--self-int", "6"],
        ["genus", "K3 # SP(3,3)", "--self-int", "2", "--genus", "3"],
        ["einstein", "2*SP(3,3)", "--n2", "40*~CP2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"],
    ],
)
def test_request_builds_one_cup_pairing_matrix(calls, capsys, argv):
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert calls["cup_pairing_matrix"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8*SP(3,3)"],
        ["analyze", "K3 # SP(3,3)"],
        ["analyze", "SP(2,2) # K3"],
        ["sigma0", "K3 # K3 # SP(3,1)"],
        ["sigma0", "2*SP(3,3)"],
        ["genus", "K3 # SP(3,3)", "--self-int", "6"],
        ["genus", "K3 # SP(3,3)", "--self-int", "2", "--genus", "3"],
        ["einstein", "2*SP(3,3)", "--n2", "40*~CP2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"],
    ],
)
def test_request_derives_spinc_facts_once(calls, capsys, argv):
    # c1^2 and the cup pairings are derived when the spin^c structure is
    # built; the spin^c section, the Dirac index, the moduli dimension and
    # the family certificate read them from there.
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert (calls["pairing"], calls["cup_pairing_matrix"], calls["certify_family"]) == (1, 1, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8*SP(3,3)"],
        ["analyze", "K3 # SP(3,3)"],
        ["analyze", "SP(2,2) # K3"],
        ["sigma0", "K3 # K3 # SP(3,1)"],
        ["sigma0", "2*SP(3,3)"],
        ["genus", "K3 # SP(3,3)", "--self-int", "6"],
        ["genus", "K3 # SP(3,3)", "--self-int", "2", "--genus", "3"],
        ["einstein", "2*SP(3,3)", "--n2", "40*~CP2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"],
    ],
)
def test_request_checks_the_family_once(monkeypatch, capsys, argv):
    # Every public function of fourfold.bordism, so that a second check
    # of the family cannot hide in a new helper.
    public = [
        name for name, value in vars(bordism).items()
        if inspect.isfunction(value) and value.__module__ == bordism.__name__
        and not name.startswith("_")
    ]
    assert "certify_family" in public
    counts = Counter()
    for name in public:
        count_calls(monkeypatch, counts, bordism.__name__, name)
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert counts["certify_family"] == 1
    assert max(counts.values()) == 1, counts


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "8*SP(3,3)"],
        ["analyze", "K3 # SP(3,3)"],
        ["analyze", "SP(2,2) # K3"],
        ["sigma0", "K3 # K3 # SP(3,1)"],
        ["sigma0", "2*SP(3,3)"],
        ["genus", "K3 # SP(3,3)", "--self-int", "6"],
        ["genus", "K3 # SP(3,3)", "--self-int", "2", "--genus", "3"],
        ["einstein", "2*SP(3,3)", "--n2", "40*~CP2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"],
    ],
)
def test_certificate_reads_the_spinc_facts(monkeypatch, capsys, argv):
    # The spin^c structure derives its facts once, and the halved cup
    # pairings are the request's one TorusTwoForm (the JSON cup-pairing
    # matrix is read off it); certify_family calls no function of
    # fourfold.spinc.
    built = Counter()
    init = spinc.TorusTwoForm.__init__

    def counting_init(self, *args):
        built["TorusTwoForm"] += 1
        init(self, *args)

    monkeypatch.setattr(spinc.TorusTwoForm, "__init__", counting_init)
    spinc_calls = Counter()
    for name, value in list(vars(spinc).items()):
        if inspect.isfunction(value) and value.__module__ == spinc.__name__:
            count_calls(monkeypatch, spinc_calls, spinc.__name__, name)
    during = Counter()
    certify = bordism.certify_family

    def certifying(*args):
        before = spinc_calls.copy()
        try:
            return certify(*args)
        finally:
            during.update(spinc_calls - before)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("fourfold."):
            if getattr(module, "certify_family", None) is certify:
                monkeypatch.setattr(module, "certify_family", certifying)
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert built["TorusTwoForm"] == 1
    assert not during, during


def test_example_scan_work_independent_of_r_max(calls):
    per_r_max = {}
    for r_max in (10, 100):
        calls.clear()
        example_scan(3, 3, 5, 3, s=1, r_max=r_max)
        per_r_max[r_max] = dict(calls)
    assert per_r_max[10]["certify_family"] == 1
    assert per_r_max[10] == per_r_max[100]


def test_example_scan_evaluates_each_verdict_once_per_row(monkeypatch):
    counts = Counter()
    for name in ("_einstein_obstructed", "_hitchin_thorpe"):
        original = getattr(obstructions, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(obstructions, name, counting)
    r_max = 25
    example_scan(3, 3, 5, 3, s=1, r_max=r_max)
    assert counts == {"_einstein_obstructed": r_max + 1, "_hitchin_thorpe": r_max + 1}


def test_resolving_k_copies_is_one_connected_sum(calls, monkeypatch):
    constructed = Counter()
    init = manifolds.ManifoldData.__init__

    def counting(self, *args, **kwargs):
        constructed["ManifoldData"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(manifolds.ManifoldData, "__init__", counting)
    per_k = {}
    for k in (10, 40):
        surface_product.cache_clear()
        calls.clear()
        constructed.clear()
        parse_manifold(f"{k}*SP(3,3)")
        per_k[k] = (calls["connected_sum"], constructed["ManifoldData"])
    # One connected sum, and only the one SP(3,3) it is built from goes
    # through the constructor: the sum is assembled with ``_trusted``.
    assert per_k[10] == per_k[40] == (1, 1)


def test_analyze_k3_sum_eliminates_two_distinct_blocks(capsys):
    block_invariants = fourfold.lattice._block_invariants
    block_invariants.cache_clear()
    k3.cache_clear()
    assert main(["analyze", "20*K3", "--json"]) == 0
    capsys.readouterr()
    # E8(-1) and the hyperbolic plane H, when K3 is built; every other
    # block is a hit, and the sum adds up K3's invariants.
    assert block_invariants.cache_info().misses == 2


@pytest.mark.parametrize("expression", ["20*K3", "K3 # 438*~CP2"])
def test_sums_never_search_for_components(monkeypatch, capsys, expression):
    # Once the generators are built, a sum takes its invariants from its
    # pieces and never looks for the components of its form.
    parse_manifold(expression)
    searches = Counter()
    count_calls(monkeypatch, searches, "fourfold.lattice", "_components")
    assert main(["analyze", expression, "--json"]) == 0
    capsys.readouterr()
    assert searches["_components"] == 0


def test_generators_are_built_once_and_descriptors_never_cached():
    assert surface_product(3, 3) is surface_product(3, 3)
    assert k3() is k3()
    descriptor = {"b1": 0, "form": [[-1]], "euler": 3, "c1": [1]}
    assert custom(descriptor) is not custom(descriptor)
