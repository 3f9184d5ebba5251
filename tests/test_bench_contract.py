"""What the benchmark under ``bench/`` reads of the program: its self-check
passes, its trace mode serves each workload correctly, the ``inertia``
cache can be cleared and inspected, and a resolved manifold's dense form
is a tuple of integer tuples."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import fourfold.lattice
from fourfold.expressions import parse_manifold

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["ok"] is True


@pytest.mark.parametrize("workload", ["queries", "scan", "rank_ladder"])
def test_bench_trace_mode_serves_the_workload_correctly(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True


def test_inertia_cache_is_inspectable():
    inertia = fourfold.lattice.inertia
    assert callable(inertia.cache_clear)
    assert callable(inertia.cache_info)


def test_resolved_form_is_tuple_of_int_tuples():
    form = parse_manifold("K3 # SP(3,3) # 2*~CP2").h2.form
    assert isinstance(form, tuple) and len(form) == 22 + 38 + 2
    for row in form:
        assert isinstance(row, tuple) and len(row) == len(form)
        assert all(type(x) is int for x in row)
