"""The work of each request, as the events it adds to
``fourfold.lattice.EVENTS``; and, by counting calls, that the family is
checked once and without ``fourfold.spinc``, and each scan row once."""

import inspect
import json
import sys
from collections import Counter

import pytest

import fourfold
from fourfold.cli import main
from fourfold.expressions import _RESOLVED, parse_manifold
from fourfold.manifolds import (
    GENERATORS,
    custom,
    descriptor_of,
    k3,
    load_descriptor,
    surface_product,
)
from fourfold import bordism, obstructions, spinc
from fourfold.obstructions import example_scan
from genforms import counted

# Once per process: each generator.  Each is built with its invariants,
# so no generator's form is searched for components or eliminated.
BUILT = ("generator",)

# Once per sum among the last two resolved: the sum, and the c1^2 and cup
# pairings of the spin^c structure kept on it.
SHARED = ("sum", "pairing", "pairings")

# One connected sum, c1^2 and the cup pairings, and one family check.
ONCE = {"sum": 1, "pairing": 1, "pairings": 1, "certify": 1}

# The whole work of each request, served with every generator cache and
# the memo of resolved sums empty.
WORK = {
    ("analyze", "8*SP(3,3)"): dict(ONCE, generator=1),
    ("analyze", "K3 # SP(3,3)"): dict(ONCE, generator=2),
    ("analyze", "SP(2,2) # K3"): dict(ONCE, generator=2),
    ("sigma0", "K3 # K3 # SP(3,1)"): dict(ONCE, generator=2),
    ("sigma0", "2*SP(3,3)"): dict(ONCE, generator=1),
    ("genus", "K3 # SP(3,3)", "--self-int", "6"): dict(ONCE, generator=2),
    ("genus", "K3 # SP(3,3)", "--self-int", "2", "--genus", "3"): dict(ONCE, generator=2),
    ("einstein", "2*SP(3,3)", "--n2", "40*~CP2"): dict(ONCE, sum=2, generator=2),
    ("yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"): dict(ONCE, sum=2, generator=2),
    ("star", "K3 # SP(3,3)"): {"sum": 1, "pairing": 1, "pairings": 1, "generator": 2},
    ("scan", "--G-from", "SP(3,3) # SP(5,3)", "--s", "1", "--r-max", "10"):
        dict(ONCE, generator=5),
}

# Refused requests, with their exit codes: a refusal of the family or of
# a later hypothesis comes after the one check of the family, and one
# before the spin^c structure is built checks nothing.  A sum refused by
# its budget has built only the fixed generators it names.
REFUSED = {
    ("sigma0", "K3"): (2, dict(ONCE, generator=1)),
    ("einstein", "2*SP(3,3)", "--n2", "CP2"): (2, dict(ONCE, sum=2, generator=2)),
    ("yamabe", "4*K3", "--n1", "~CP2", "--nonneg-scalar"): (2, dict(ONCE, sum=2, generator=2)),
    ("star", "K3 # K3", "--c1=1"): (1, dict(sum=1, generator=1)),
    ("analyze", "K3 #"): (1, {}),
    ("analyze", "1000000*K3"): (1, {"generator": 1}),
    ("analyze", "SP(999,999)"): (1, {}),
}


def cold(call, *args):
    """What ``call(*args)`` returns, and its work, from empty generator
    caches and an empty memo of resolved sums."""
    for build in GENERATORS.values():
        build.cache_clear()
    _RESOLVED.clear()
    with counted() as work:
        result = call(*args)
    return result, work


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


@pytest.mark.parametrize("argv", WORK)
def test_request_derives_spinc_facts_once(capsys, argv):
    # Every unit of work of the request, the spin^c facts among them.
    assert cold(main, [*argv, "--json"]) == (0, WORK[argv])
    capsys.readouterr()


@pytest.mark.parametrize("argv", WORK)
def test_request_builds_one_cup_pairing_matrix(capsys, argv):
    # Served cold in text, a request does the work it does in JSON.
    # Served again, in text and in JSON, it builds nothing and reuses its
    # sums and the spin^c structure kept on M, so the JSON report reads its
    # cup-pairing matrix off the one set of pairings; only the family is
    # checked again.
    assert cold(main, [*argv]) == (0, WORK[argv])
    warm = {event: n for event, n in WORK[argv].items() if event not in BUILT + SHARED}
    assert warm in ({"certify": 1}, {}), warm
    for form in ([], ["--json"]):
        with counted() as work:
            assert main([*argv, *form]) == 0
        assert work == warm, form
    capsys.readouterr()


def test_a_group_about_one_manifold_sums_and_pairs_it_once(capsys):
    # A caller's questions about one M, as the bench's queries workload
    # groups them: star reuses the sum of M that einstein resolved, and its
    # spin^c structure, so the group does the work of einstein alone.
    group = [["einstein", "2*SP(3,3)", "--n2", "40*~CP2", "--json"],
             ["star", "2*SP(3,3)", "--json"]]
    einstein = tuple(group[0][:-1])
    assert cold(lambda: [main(argv) for argv in group]) == ([0, 0], WORK[einstein])
    # One sum for M and one for N; one c1^2 and one set of pairings, M's.
    assert [WORK[einstein][event] for event in SHARED] == [2, 1, 1]
    capsys.readouterr()


@pytest.mark.parametrize("argv", REFUSED)
def test_request_certifies_once(capsys, argv):
    assert cold(main, [*argv, "--json"]) == REFUSED[argv]
    capsys.readouterr()


@pytest.mark.parametrize("argv", WORK)
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
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert counts["certify_family"] == WORK[argv].get("certify", 0)
    assert max(counts.values(), default=0) <= 1, counts


@pytest.mark.parametrize("argv", WORK)
def test_certificate_reads_the_spinc_facts(monkeypatch, capsys, argv):
    # The spin^c structure derives its facts once; certify_family calls
    # no function of fourfold.spinc.
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
    assert main([*argv, "--json"]) == 0
    capsys.readouterr()
    assert not during, during


def test_only_outside_data_is_eliminated(capsys, tmp_path, empty_memos):
    # K3 is built with the invariants of its E8(-1) and H blocks, and the
    # sum adds them up: nothing is searched or eliminated.  The same form
    # read from a descriptor is searched once and each of its five blocks
    # eliminated once.
    assert cold(main, ["analyze", "20*K3", "--json"]) == (0, dict(ONCE, generator=1))
    capsys.readouterr()
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(descriptor_of(k3())))
    with counted() as work:
        assert load_descriptor(str(path)).h2.invariants == k3().h2.invariants
    assert work == {"decode": 1, "validate": 1, "components": 1, "eliminate": 5}


@pytest.mark.parametrize("expression, work", [("20*K3", ONCE), ("K3 # 438*~CP2", {"sum": 1})],
                         ids=["20*K3", "K3 # 438*~CP2"])
def test_sums_never_search_for_components(capsys, expression, work):
    # Once the generators are built, a sum takes its invariants from its
    # pieces and never looks for the components of its form.  The memo of
    # resolved sums is emptied, so that the sum is built again.
    parse_manifold(expression)
    _RESOLVED.clear()
    with counted() as again:
        assert main(["analyze", expression, "--json"]) == 0
    capsys.readouterr()
    assert again == work


def test_example_scan_work_independent_of_r_max():
    for r_max in (10, 100):
        _, work = cold(example_scan, 3, 3, 5, 3, 1, r_max)
        # SP(3,3), SP(5,3) and the S4, S1xS3 and ~CP2 that N2 adds up.
        assert work == dict(ONCE, generator=5), r_max


def test_example_scan_evaluates_each_verdict_once_per_row(monkeypatch):
    counts = Counter()
    for name in ("_einstein_obstructed", "_hitchin_thorpe"):
        count_calls(monkeypatch, counts, obstructions.__name__, name)
    r_max = 25
    example_scan(3, 3, 5, 3, s=1, r_max=r_max)
    assert counts == {"_einstein_obstructed": r_max + 1, "_hitchin_thorpe": r_max + 1}


def test_resolving_k_copies_is_one_connected_sum():
    for k in (10, 40):
        assert cold(parse_manifold, f"{k}*SP(3,3)")[1] == {"generator": 1, "sum": 1}, k


def test_generators_are_built_once_and_descriptors_never_cached():
    assert surface_product(3, 3) is surface_product(3, 3)
    assert k3() is k3()
    descriptor = {"b1": 0, "form": [[-1]], "euler": 3, "c1": [1]}
    assert custom(descriptor) is not custom(descriptor)
