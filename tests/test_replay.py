"""The comparison that ``tools/replay.py`` reports, on fixture replies:
no commit is exported and no request is served."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import replay  # noqa: E402

PARENT = [
    {"argv": ["analyze", "K3"], "code": 0, "stdout_sha256": "ab", "stderr": ""},
    {"argv": ["sigma0", "K3"], "code": 2, "stdout_sha256": "e3", "stderr": "not applicable\n"},
]


def test_each_differing_field_is_a_line_with_its_argv(monkeypatch):
    assert replay.report(PARENT, [dict(r) for r in PARENT]) == (
        "replay: 2 requests, 0 differences", 0)
    change = [dict(PARENT[0], stdout_sha256="cd"), dict(PARENT[1], code=1, stderr="error\n")]
    assert replay.report(PARENT, change) == ("\n".join([
        "replay: 2 requests, 3 differences",
        "analyze K3: stdout_sha256 'ab' != 'cd'",
        "sigma0 K3: code 2 != 1",
        "sigma0 K3: stderr 'not applicable\\n' != 'error\\n'",
    ]), 1)
    monkeypatch.setattr(replay, "MAX_SHOWN", 1)
    assert replay.report(PARENT, change)[0].splitlines()[1:] == [
        "analyze K3: stdout_sha256 'ab' != 'cd'", "... and 2 more"]
    with pytest.raises(ValueError, match="different requests"):
        replay.compare(PARENT, PARENT[:1])
