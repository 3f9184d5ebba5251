"""Differential test of the command line against the closed-form oracle of
the benchmark.

Requests are drawn from the seeded workloads of ``bench/workloads.py``:
a workload, a seed, a round and a sample of that round's requests, each
served in text or with ``--json``.  ``bench/oracle.py`` computes the
expected exit code and verdicts of every request from its summand list
alone (ranks, chi and tau add, determinants multiply, the Dirac index,
the moduli dimension and the bordism value follow), so a fault in the
lattice, the spin^c facts, the family certificate or the report shows up
as a mismatch.  Both modules are only read.

Every explicit ``--c1`` of the workloads is the canonical class where
there is one, so a drawn request may instead carry a characteristic
class that is not canonical (:func:`_off_canonical`).
"""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

SEEDS = st.integers(0, 10**6)
ROUND_INDICES = st.integers(0, 3)


@pytest.fixture(scope="module")
def descriptor_root(tmp_path_factory):
    return tmp_path_factory.mktemp("descriptors")


def _round(workload, seed, round_index, descriptor_root):
    """The requests of one round; the dense descriptors a ``queries``
    round refers to are written under ``descriptor_root`` once per seed."""
    tmpdir = descriptor_root / f"{workload}-{seed}"
    if workload == "queries" and not tmpdir.exists():
        tmpdir.mkdir()
        workloads.write_descriptors(seed, str(tmpdir))
    return workloads.ROUNDS[workload](seed, round_index, str(tmpdir))


def _off_canonical(req):
    """The ``analyze`` or ``star`` request with an explicit c1 that is
    characteristic but not canonical, or None for other commands,
    refusals, and sums with no surface product or with a summand that
    has no explicit coordinates.

    The canonical class gains 4 in the first coordinate of the first
    SP(g,h).  Its first two basis vectors span a hyperbolic plane, so
    c1^2 grows by 8 times the second coordinate; the class stays even,
    and the halved cup pairings keep their parity."""
    summands, command = req["summands"], req["argv"][0]
    if command not in ("analyze", "star") or req["code"]:
        return None
    if not any(s[0] == "SP" for s in summands) or any(s[0] == "FILE" for s in summands):
        return None
    coords, square = oracle.explicit_c1(summands, [1] * len(summands))
    at = 0
    for s in summands:
        if s[0] == "SP":
            break
        at += oracle.summand_invariants(s)["rank"]
    coords[at] += 4
    square += 8 * coords[at + 1]
    spec = {
        "command": command,
        "summands": summands,
        "c1": {"square": square, "characteristic": True, "canonical": False},
    }
    code, expected = oracle.expect(spec)
    argv = [command, req["argv"][1], "--c1=" + ",".join(map(str, coords))]
    return {"argv": argv, "code": code, "expected": expected}


def _serve(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(req, json_mode):
    argv = [a for a in req["argv"] if a != "--json"] + (["--json"] if json_mode else [])
    code, stdout, stderr = _serve(argv)
    reason = oracle.check(req["code"], req["expected"], json_mode, code, stdout, stderr)
    assert reason is None, f"{argv}: {reason}"


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(workloads.WORKLOADS), SEEDS, ROUND_INDICES, st.randoms(use_true_random=False),
    st.data(),
)
def test_replies_match_oracle(descriptor_root, workload, seed, round_index, rng, data):
    requests = _round(workload, seed, round_index, descriptor_root)
    for req in rng.sample(requests, min(len(requests), 4 if workload == "rank_ladder" else 8)):
        if data.draw(st.booleans(), "off canonical"):
            req = _off_canonical(req) or req
        _check(req, data.draw(st.booleans(), "json"))


def test_workloads_cover_every_command_and_refusal(tmp_path):
    """What the drawn requests can reach: all seven commands with and
    without ``--json``, explicit c1, and both kinds of refusal."""
    seen = Counter()
    for workload in workloads.WORKLOADS:
        for req in _round(workload, 0, 0, tmp_path):
            seen[req["argv"][0]] += 1
            seen["c1"] += any(a.startswith("--c1") for a in req["argv"])
            seen[f"exit {req['code']}"] += 1
            seen["off canonical"] += _off_canonical(req) is not None
    commands = ("analyze", "star", "sigma0", "genus", "yamabe", "einstein", "scan")
    for key in commands + ("c1", "exit 0", "exit 1", "exit 2", "off canonical"):
        assert seen[key], key
