"""The refusal table of the descriptor gate.

Every ``raise`` in :func:`fourfold.manifolds.custom` and
:func:`fourfold.manifolds.load_descriptor`, found by walking their
``ast``, needs a row: a descriptor file that reaches it through
``fourfold analyze @file``, with the exit code and the message.  Each row
runs under a line tracer limited to those two functions.  The test fails
when a ``raise`` has no row, or when a row stops reaching a ``raise`` of
the table.
"""

import ast
import inspect
import json
import sys
import textwrap

from fourfold import manifolds
from fourfold.cli import main

GATE = (manifolds.custom, manifolds.load_descriptor)

_NOT_UNIMODULAR = (
    "but Poincare duality makes the intersection form of a closed oriented 4-manifold "
    "unimodular (|det| = 1)"
)

# (id, file content, exit code, message).  The content is a JSON value to
# dump, raw bytes, or None for no file.  A message ends at a text that
# depends on the Python version; "{path}" stands for the file's path.
TABLE = [
    ("unknown-field", {"b1": 0, "form": [], "euler": 2, "x": 1}, 1,
     "unknown descriptor fields: ['x']"),
    ("missing-field", {"b1": 0, "form": []}, 1, "descriptor missing required field 'euler'"),
    ("negative-b1", {"b1": -1, "form": [], "euler": 4}, 1, "b1 must be a nonnegative integer"),
    ("euler-type", {"b1": 0, "form": [], "euler": "2"}, 1, "euler must be an integer"),
    ("cup1-type", {"b1": 0, "form": [], "euler": 2, "cup1": []}, 1,
     "cup1 must be an object mapping 'i,j' to integer lists"),
    ("cup1-key-spelling", {"b1": 2, "form": [], "euler": -2, "cup1": {"1,02": []}}, 1,
     "cup1 key '1,02' is not of the form 'i,j'"),
    ("cup1-key-range", {"b1": 2, "form": [], "euler": -2, "cup1": {"2,3": []}}, 1,
     "cup1 key '2,3' out of range: need 1 <= i < j <= b1=2"),
    ("label-type", {"b1": 0, "form": [], "euler": 2, "label": 5}, 1, "label must be a string"),
    ("label-surrogate", b'{"b1": 0, "form": [], "euler": 2, "label": "\\ud800"}', 1,
     "label must be valid Unicode text, without lone surrogates"),
    ("digits", {"b1": 0, "form": [[1]], "euler": 3, "c1": [10**18 + 1]}, 1,
     "c1 has an integer of more than 18 digits"),
    ("euler-relation", {"b1": 0, "form": [[1]], "euler": 5}, 1,
     "euler number 5 violates chi = 2 - 2*b1 + rank(H2) = 3"),
    ("cup1-length", {"b1": 2, "form": [[1]], "euler": -1, "cup1": {"1,2": [2, 2]}}, 1,
     "cup1 class at (0,1) has length 2, expected 1"),
    ("c1-length", {"b1": 0, "form": [[1]], "euler": 3, "c1": [1, 1]}, 1,
     "canonical c1 has length 2, expected 1"),
    ("c1-characteristic", {"b1": 0, "form": [[-1]], "euler": 3, "c1": [0]}, 1,
     "canonical c1 is not characteristic for the form"),
    ("unimodular", {"b1": 0, "form": [[2]], "euler": 3, "c1": [0]}, 1,
     f"form determinant is 2, {_NOT_UNIMODULAR}"),
    ("unreadable", None, 1, "cannot read descriptor file '{path}': "),
    ("not-json", b"not json", 1, "descriptor file '{path}' is not valid JSON: "),
    ("not-utf8", b'{"label": "\xe9"}', 1, "descriptor file '{path}' is not UTF-8 text: "),
    ("long-literal", b"[" + b"9" * 5000 + b"]", 1,
     "descriptor file '{path}' is not readable JSON: "),
    ("deep-nesting", b"[" * 100_000 + b"]" * 100_000, 1,
     "descriptor file '{path}' is nested too deeply"),
    ("not-an-object", b"[]", 1, "descriptor file '{path}' must contain a JSON object"),
]


def raise_lines() -> dict[int, str]:
    """{line number: source} of every ``raise`` in the gate's functions."""
    lines = {}
    for func in GATE:
        source, start = inspect.getsourcelines(func)
        for node in ast.walk(ast.parse(textwrap.dedent("".join(source)))):
            if isinstance(node, ast.Raise):
                line = start + node.lineno - 1
                lines[line] = f"{func.__name__}: {source[node.lineno - 1].strip()}"
    return lines


def run_traced(capsys, path):
    """Exit code, stderr and the lines of the gate's functions that
    ``fourfold analyze @path`` executed."""
    gate = {func.__code__ for func in GATE}
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in gate else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        code = main(["analyze", f"@{path}"])
    finally:
        sys.settrace(previous)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err, executed


def test_every_raise_of_the_gate_has_one_row_that_reaches_it(capsys, tmp_path):
    lines = raise_lines()
    reached = {}
    for row_id, content, code, message in TABLE:
        path = tmp_path / f"{row_id}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(json.dumps(content))
        got_code, err, executed = run_traced(capsys, path)
        assert got_code == code, (row_id, err)
        assert err.startswith("error: " + message.format(path=path)), (row_id, err)
        assert err.count("\n") == 1, (row_id, err)
        hit = executed & lines.keys()
        assert len(hit) == 1, (row_id, sorted(hit))
        (line,) = hit
        assert line not in reached, (row_id, "reaches the raise of row", reached.get(line))
        reached[line] = row_id
    missing = [lines[line] for line in sorted(lines.keys() - reached.keys())]
    assert not missing, f"raises without a row: {missing}"

