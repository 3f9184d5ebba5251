"""``report.to_json`` writes the same text as ``json.dumps(x, indent=2)``."""

import argparse
import enum
import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.cli import _cmd_analyze
from fourfold.report import to_json

from test_acceptance import _expression_corpus


class _Small(enum.IntEnum):
    ONE = 1


# Non-ASCII and control characters, next to the full default alphabet.
TEXT = st.text(st.characters(max_codepoint=0x2FF)) | st.text()

SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-5, 5) | st.floats() | TEXT
)

TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(TEXT, kids),
    max_leaves=60,
)


@settings(deadline=None)
@given(TREES)
def test_to_json_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2)


def test_to_json_edge_values():
    for value in (
        [],
        {},
        [[], {}, [[]], {"": {}}],
        [True, False, None, 0, 1, -1, 2**100, 0.5, -0.0, 1e300, float("nan"),
         float("inf"), float("-inf")],
        {"s": "café ☃ \U0001f600 \x00\x1f\x7f \"\\ /\n\t"},
        [0],
        [0, 0],
        [0] * 300,
        {"a": {"m": [[0, 0, 0], [0, 0, 0]]}},
        [0, False],
        [False, 0],
        [0, 0.0],
        [0, None],
        [0, True],
        [_Small.ONE, 0],
        _cmd_analyze(
            argparse.Namespace(expression="8*SP(1,1) # SP(1,3)", c1=None, json=True)
        ),
    ):
        assert to_json(value) == json.dumps(value, indent=2)


def test_to_json_deep_nesting():
    value = 0
    for depth in range(200):
        value = [value, depth] if depth % 2 else {"k": value, "b": True}
    assert to_json(value) == json.dumps(value, indent=2)


def test_to_json_on_criterion_10_corpus():
    with tempfile.TemporaryDirectory() as tmp_dir:
        for text in _expression_corpus(tmp_dir):
            report = _cmd_analyze(argparse.Namespace(expression=text, c1=None, json=True))
            assert to_json(report) == json.dumps(report, indent=2)
