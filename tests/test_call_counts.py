"""Each request certifies the covered family once and builds the
cup-pairing matrix at most once, and a scan's cost in connected sums
and inertia computations does not grow with r_max."""

import sys
from collections import Counter

import pytest

import fourfold
from fourfold.cli import main
from fourfold.obstructions import example_scan

COUNTED = (
    ("fourfold.bordism", "certify_family"),
    ("fourfold.manifolds", "connected_sum"),
    ("fourfold.lattice", "inertia"),
    ("fourfold.spinc", "cup_pairing_matrix"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls through every module binding of the counted functions,
    including ``from``-import re-bindings."""
    counts = Counter()
    for module_name, name in COUNTED:
        original = getattr(sys.modules[module_name], name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module is fourfold or getattr(module, "__name__", "").startswith("fourfold."):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
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


def test_example_scan_work_independent_of_r_max(calls):
    per_r_max = {}
    for r_max in (10, 100):
        calls.clear()
        example_scan(3, 3, 5, 3, s=1, r_max=r_max)
        per_r_max[r_max] = dict(calls)
    assert per_r_max[10]["certify_family"] == 1
    assert per_r_max[10] == per_r_max[100]
