"""The refusal tables of the descriptor gate and of the theorems.

Every ``raise`` of the descriptor gate, found by walking the ``ast`` of
:func:`fourfold.manifolds.custom`, :func:`fourfold.manifolds.load_descriptor`
and the functions they call to read, check and admit a descriptor, needs
a row: a descriptor file that reaches it through ``fourfold analyze
@file``, with the exit code and the message.  Each row runs under a line
tracer limited to those functions.  The test fails
when a ``raise`` has no row, or when a row stops reaching a ``raise`` of
the table.

The same holds for every ``raise`` in :mod:`fourfold.bordism` and
:mod:`fourfold.obstructions`, and for every ``raise`` in
:mod:`fourfold.spinc` and :mod:`fourfold.lattice`.  A row there is a
request wherever a request reaches the ``raise``, and a library call
otherwise.  Rows may share a ``raise``: the definiteness and Donaldson
refusals of N are each reached from ``yamabe`` and from ``einstein``.  A
fourth table covers the rest of the package: :mod:`fourfold.cli`,
:mod:`fourfold.expressions`, :func:`fourfold.report._write_json` and
:func:`fourfold.manifolds.surface_product_rank`.

No row of the gate's table but the determinant's eliminates a block: the
unimodularity check is the first elimination a descriptor pays for.
"""

import argparse
import ast
import inspect
import json
import os
import sys
import textwrap

import pytest

from fourfold import bordism, cli, expressions, lattice, manifolds, obstructions, report, spinc
from fourfold.bordism import NONTRIVIAL, SpinBordismClass, spin_bordism_class
from fourfold.cli import main
from fourfold.errors import IntegralityError, ShapeError, ValidationError
from fourfold.lattice import Lattice
from fourfold.manifolds import (
    MAX_DESCRIPTOR_BYTES,
    MAX_DESCRIPTOR_RANK,
    K3,
    ManifoldData,
    Summand,
    k3,
    surface_product,
)
from fourfold.obstructions import PiRadical
from fourfold.spinc import canonical_spinc, dirac_index
from genforms import counted

GATE = (
    manifolds.custom, manifolds._checked, manifolds._unimodular,
    manifolds.load_descriptor, manifolds.read_descriptor, manifolds.admit_descriptor,
)
THEOREMS = (bordism, obstructions)
SPINC = (spinc, lattice)

_NOT_UNIMODULAR = (
    "but Poincare duality makes the intersection form of a closed oriented 4-manifold "
    "unimodular (|det| = 1)"
)

# (id, file content, exit code, message).  The content is a JSON value to
# dump, raw bytes, an int for a file of that many zero bytes, or None for
# no file.  A message ends at a text that depends on the Python version;
# "{path}" stands for the file's path.
TABLE = [
    ("unknown-field", {"b1": 0, "form": [], "euler": 2, "x": 1}, 1,
     "unknown descriptor fields: ['x']"),
    ("missing-field", {"b1": 0, "form": []}, 1, "descriptor missing required field 'euler'"),
    ("negative-b1", {"b1": -1, "form": [], "euler": 4}, 1, "b1 must be a nonnegative integer"),
    ("rank-budget",
     {"b1": 0, "form": [[-(i == j) for j in range(MAX_DESCRIPTOR_RANK + 1)]
                        for i in range(MAX_DESCRIPTOR_RANK + 1)],
      "euler": MAX_DESCRIPTOR_RANK + 3}, 1,
     f"form has {MAX_DESCRIPTOR_RANK + 1} rows, over the rank budget of "
     f"MAX_DESCRIPTOR_RANK = {MAX_DESCRIPTOR_RANK}"),
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
    ("too-large", MAX_DESCRIPTOR_BYTES + 1, 1,
     "descriptor file '{path}' is larger than the budget of "
     f"MAX_DESCRIPTOR_BYTES = {MAX_DESCRIPTOR_BYTES} bytes"),
]


def raise_lines(objects=GATE) -> dict[tuple[str, int], str]:
    """{(file, line number): source} of every ``raise`` in the given
    functions or modules."""
    lines = {}
    for obj in objects:
        source, start = inspect.getsourcelines(obj)
        start = max(start, 1)  # 0 for a module
        for node in ast.walk(ast.parse(textwrap.dedent("".join(source)))):
            if isinstance(node, ast.Raise):
                line = start + node.lineno - 1
                lines[inspect.getsourcefile(obj), line] = (
                    f"{obj.__name__}: {source[node.lineno - 1].strip()}"
                )
    return lines


def traced(objects, call):
    """What ``call()`` returns, or the exception it raises, and the
    (file, line) pairs it executed in the given functions or modules."""
    codes = {obj.__code__ for obj in objects if inspect.isfunction(obj)}
    files = {obj.__file__ for obj in objects if inspect.ismodule(obj)}
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes or frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        outcome = call()
    except Exception as exc:
        outcome = exc
    finally:
        sys.settrace(previous)
    return outcome, executed


def write_descriptor(path, content):
    """Write a row's file content to ``path``, as :data:`TABLE` says."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, int):
        path.write_bytes(b"")
        os.truncate(path, content)  # sparse: no disk and no memory
    elif content is not None:
        path.write_text(json.dumps(content))


def run_traced(capsys, path):
    """Exit code, stderr and the lines of the gate's functions that
    ``fourfold analyze @path`` executed."""
    code, executed = traced(GATE, lambda: main(["analyze", f"@{path}"]))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err, executed


def test_every_raise_of_the_gate_has_one_row_that_reaches_it(capsys, tmp_path):
    lines = raise_lines()
    reached = {}
    for row_id, content, code, message in TABLE:
        path = tmp_path / f"{row_id}.json"
        write_descriptor(path, content)
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


@pytest.mark.parametrize("row", TABLE, ids=[row[0] for row in TABLE])
def test_the_gate_eliminates_no_block_before_the_determinant(capsys, tmp_path, row):
    row_id, content, code, message = row
    path = tmp_path / f"{row_id}.json"
    write_descriptor(path, content)
    with counted() as work:
        assert main(["analyze", f"@{path}"]) == code
    capsys.readouterr()
    searched = 1 if row_id == "unimodular" else 0
    assert (work["components"], work["eliminate"]) == (searched, searched)


def test_a_dense_form_at_the_rank_budget_is_refused_by_the_digit_cap_uneliminated():
    n = MAX_DESCRIPTOR_RANK
    descriptor = {"b1": 0, "form": [[1 + (i == j) for j in range(n)] for i in range(n)],
                  "euler": n + 2, "c1": [10**18] + [0] * (n - 1)}
    with counted() as work, pytest.raises(ValidationError,
                                          match="^c1 has an integer of more than 18 digits$"):
        manifolds.custom(descriptor)
    assert work == {"validate": 1}


@pytest.mark.parametrize("form, euler", [("e8", 10), ([[2]], 3)], ids=["unimodular", "det-2"])
def test_an_over_budget_sum_of_a_descriptor_is_refused_uneliminated(empty_memos, capsys,
                                                                     tmp_path, form, euler):
    # Every check of the descriptor but unimodularity comes before the sum
    # budget, and unimodularity after it: a form that is not unimodular
    # gets the budget's refusal too.
    rows = negative_e8() if form == "e8" else form
    (tmp_path / "d.json").write_text(json.dumps({"b1": 0, "form": rows, "euler": euler}))
    with counted() as work:
        assert main(["analyze", f"999999*@{tmp_path / 'd.json'}"]) == 1
    size = 999999 * (1 + len(rows))
    assert capsys.readouterr().err == (
        f"error: connected sum too large: the sum of count*(1 + rank(H2)) over the terms "
        f"is {size}, over the budget of 1000000\n"
    )
    assert work == {"decode": 1, "validate": 1}


# The files of the order table: bad.json fails a check before
# unimodularity (its Euler number), det2.json only unimodularity.
ORDER_FILES = {
    "bad.json": {"b1": 0, "form": [[-1]], "euler": 5},
    "det2.json": {"b1": 0, "form": [[2]], "euler": 3},
}

_GENUS = "genus must be positive, got (0,1)"

# (expression, first error).  The terms are read and sized in order, a
# descriptor's checks but unimodularity and SP's genus alike; then the sum
# budget is checked; then each descriptor's unimodularity.
ORDER_TABLE = [
    ("SP(0,1) # @bad.json", _GENUS),
    ("@bad.json # SP(0,1)", "euler number 5 violates chi = 2 - 2*b1 + rank(H2) = 3"),
    ("@det2.json # SP(0,1)", _GENUS),
    ("1000000*K3 # @det2.json",
     "connected sum too large: the sum of count*(1 + rank(H2)) over the terms is 23000002, "
     "over the budget of 1000000"),
    ("@det2.json # K3", f"form determinant is 2, {_NOT_UNIMODULAR}"),
]


@pytest.mark.parametrize("expression, message", ORDER_TABLE, ids=[row[0] for row in ORDER_TABLE])
def test_terms_then_the_budget_then_unimodularity(empty_memos, capsys, monkeypatch, tmp_path,
                                                 expression, message):
    for name, descriptor in ORDER_FILES.items():
        (tmp_path / name).write_text(json.dumps(descriptor))
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", expression]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def negative_e8() -> list[list[int]]:
    rows = [[-2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
        rows[i][j] = rows[j][i] = 1
    return rows


def _mislabelled(rows, c1):
    """The data of another manifold, tagged as K3 # K3 with canonical c1."""
    m = ManifoldData(
        b1=0, h2=Lattice.from_rows(rows),
        summands=(Summand(K3), Summand(K3)), canonical_c1=c1,
    )
    return m, canonical_spinc(m)


_EVEN_N = ", which by Donaldson's theorem no smooth closed oriented 4-manifold has"

# (id, argv or library call, exit code or exception type, message).  The
# requests run in a directory holding e8.json, a descriptor with the
# -E8 form, which no smooth closed 4-manifold has.
THEOREM_TABLE = [
    ("zero-group", lambda: SpinBordismClass(3, "0", NONTRIVIAL), ValueError,
     "nontrivial value in the zero group"),
    ("single-summand", ["sigma0", "K3"], 2,
     "single-summand manifolds are not covered; no bordism verdict is established"),
    ("outside-family", ["sigma0", "K3 # CP2", "--c1=" + "0," * 22 + "1"], 2,
     "summand CP2 is outside the covered family (K3 or odd-genus surface products only)"),
    ("even-genus", ["sigma0", "K3 # SP(3,2)"], 2,
     "summand SP(3,2) has even genus; only odd-genus surface products are covered"),
    ("not-canonical", ["sigma0", "K3 # K3", "--c1=2" + ",0" * 43], 2,
     "spin^c structure is not the canonical (complex-structure) one on every summand"),
    # 8<1> with c1^2 = 16: Dirac index 1.
    ("spin-condition",
     lambda: spin_bordism_class(*_mislabelled(
         [[int(i == j) for j in range(8)] for i in range(8)], (3,) + (1,) * 7)),
     ValidationError, "spin condition fails for a covered-family manifold"),
    # ~CP2: the spin condition holds, the moduli dimension is -1.
    ("moduli-dimension", lambda: spin_bordism_class(*_mislabelled([[-1]], (1,))),
     ValidationError, "moduli dimension -1 does not match 2 summands (expected 1)"),
    ("radicand", lambda: PiRadical.of(-4, -1), ValidationError,
     "radicand must be nonnegative, got -1"),
    ("trivial-class", ["yamabe", "4*K3", "--n1", "~CP2", "--nonneg-scalar"], 2,
     "bordism class is trivial for 4 summands; the obstruction theorems require"),
    ("genus-zero", ["genus", "K3 # K3", "--self-int", "0", "--genus", "0"], 2,
     "adjunction bound requires a surface of positive genus"),
    ("embedding-negative", ["genus", "K3 # K3", "--self-int=-1", "--genus", "2"], 2,
     "adjunction bound requires nonnegative self-intersection"),
    ("min-genus-negative", ["genus", "K3 # K3", "--self-int=-1"], 2,
     "adjunction bound requires nonnegative self-intersection"),
    ("n2-indefinite", ["einstein", "2*SP(3,3)", "--n2", "CP2"], 2,
     "N2 is not negative definite"),
    ("n2-even", ["einstein", "K3 # K3", "--n2", "@e8.json"], 2,
     "N2 has an even definite form of rank 8" + _EVEN_N),
    ("n1-indefinite", ["yamabe", "2*SP(3,3)", "--n1", "CP2", "--nonneg-scalar"], 2,
     "metric hypothesis not certified: N1 is not negative definite"),
    ("n1-even", ["yamabe", "K3 # K3", "--n1", "@e8.json", "--nonneg-scalar"], 2,
     "N1 has an even definite form of rank 8" + _EVEN_N),
    ("n1-scalar", ["yamabe", "2*SP(3,3)", "--n1", "~CP2"], 2,
     "metric hypothesis not certified: N1 must be asserted to admit a metric"),
    ("scan-genus", ["scan", "--G-from", "SP(3,3) # SP(2,3)", "--r-max", "5"], 2,
     "summand SP(2,3) has even genus"),
    ("scan-s", ["scan", "--G-from", "2*SP(3,3)", "--s=-1", "--r-max", "5"], 1,
     "s must be nonnegative, got -1"),
    ("scan-r-positive", ["scan", "--G-from", "2*SP(3,3)", "--r-max", "0"], 1,
     "r_max must be positive, got 0"),
    ("scan-r-bound", ["scan", "--G-from", "2*SP(3,3)", "--r-max", "100001"], 1,
     "r_max must be at most 100000, got 100001"),
    ("scan-canonical", ["scan", "--G-from", "SP(3,3) # ~CP2", "--r-max", "5"], 1,
     "scan requires the canonical spin^c structure, which the manifold does not carry"),
]


def reach_every_raise(capsys, modules, table):
    """Run each row of ``table`` under the line tracer limited to
    ``modules``, check its outcome, and fail when a ``raise`` of the
    modules has no row that reaches it."""
    lines = raise_lines(modules)
    reached = set()
    for row_id, request, expected, message in table:
        if callable(request):
            outcome, executed = traced(modules, request)
            assert type(outcome) is expected, (row_id, outcome)
            assert str(outcome).startswith(message), (row_id, outcome)
        else:
            code, executed = traced(modules, lambda: main(request))
            captured = capsys.readouterr()
            prefix = {1: "error: ", 2: "not applicable: "}[expected]
            assert (code, captured.out) == (expected, ""), (row_id, captured.err)
            assert captured.err.startswith(prefix + message), (row_id, captured.err)
            assert captured.err.count("\n") == 1, (row_id, captured.err)
        hit = executed & lines.keys()
        assert len(hit) == 1, (row_id, sorted(hit))
        reached |= hit
    missing = [lines[line] for line in sorted(lines.keys() - reached)]
    assert not missing, f"raises without a row: {missing}"


def test_every_raise_of_the_theorems_is_reached_by_a_row(capsys, monkeypatch, tmp_path):
    e8 = {"b1": 0, "form": negative_e8(), "euler": 10, "c1": [0] * 8}
    (tmp_path / "e8.json").write_text(json.dumps(e8))
    monkeypatch.chdir(tmp_path)
    reach_every_raise(capsys, THEOREMS, THEOREM_TABLE)


# Descriptors the spin^c table's requests read, by file name.  They pass
# the gate of ``custom`` up to the lattice's own checks, or all of it.
SPINC_FILES = {
    # b1 = 2 with an odd-diagonal form: c1 = (0, 1) pairs oddly with the
    # cup class of the one pair of H^1 generators.
    "odd.json": {"b1": 2, "form": [[1, 1], [1, 0]], "euler": 0, "cup1": {"1,2": [1, 0]},
                 "c1": [0, 1]},
    "form-type.json": {"b1": 0, "form": [[True]], "euler": 3},
    "form-square.json": {"b1": 0, "form": [[1, 0]], "euler": 3},
    "form-symmetric.json": {"b1": 0, "form": [[0, 1], [2, 0]], "euler": 4},
    "c1-type.json": {"b1": 0, "form": [[1]], "euler": 3, "c1": "x"},
}

# (id, argv or library call, exit code or exception type, message), as in
# THEOREM_TABLE.
SPINC_TABLE = [
    ("odd-pairing", ["star", "@odd.json"], 1,
     "cup pairing at (0,1) is odd (1); half-integral index Chern class is not allowed"),
    ("odd-pairing-library", lambda: spinc.spin_condition(*_with_canonical("odd.json")),
     IntegralityError, "cup pairing at (0,1) is odd (1)"),
    ("c1-length", ["star", "K3", "--c1="], 1, "c1 has length 0, form rank is 22"),
    ("c1-characteristic", ["star", "~CP2", "--c1=0"], 1,
     "c1 is not characteristic for the intersection form"),
    ("no-canonical", ["star", "~CP2"], 1,
     "manifold carries no canonical spin^c structure; supply c1 explicitly"),
    ("assign", lambda: setattr(k3().h2, "rows", ()), AttributeError,
     "cannot assign to field 'rows'"),
    ("delete", lambda: delattr(k3().h2, "rows"), AttributeError, "cannot delete field 'rows'"),
    ("form-type", ["analyze", "@form-type.json"], 1, "form must be a list of lists of integers"),
    ("form-square", ["analyze", "@form-square.json"], 1, "form row 0 has length 2, expected 1"),
    ("form-symmetric", ["analyze", "@form-symmetric.json"], 1,
     "form is not symmetric at (0,1): 1 != 2"),
    ("vector-type", ["analyze", "@c1-type.json"], 1, "c1 must be a list of integers"),
    ("rank", lambda: dirac_index(k3(), canonical_spinc(surface_product(1, 1))), ShapeError,
     "c1 has length 6, lattice rank is 22"),
]


def _with_canonical(name):
    m = manifolds.load_descriptor(name)
    return m, canonical_spinc(m)


def test_every_raise_of_spinc_and_lattice_is_reached_by_a_row(capsys, monkeypatch, tmp_path):
    for name, descriptor in SPINC_FILES.items():
        (tmp_path / name).write_text(json.dumps(descriptor))
    monkeypatch.chdir(tmp_path)
    reach_every_raise(capsys, SPINC, SPINC_TABLE)


# The rest of the package: the command line, the expression parser, the
# spin^c section and the JSON writer of a report, and the closed-form rank
# of a surface product.
REST = (cli, expressions, report.spinc_summary, report._write_json,
        manifolds.surface_product_rank)

# (id, argv or library call, exit code or exception type, message), as in
# THEOREM_TABLE.  No request reaches ``_integer``'s refusal alone:
# argparse turns it into a call of the parser's ``error``.
REST_TABLE = [
    ("argparse-error", ["genus", "K3"], 1, "the following arguments are required: --self-int"),
    ("integer-option", lambda: cli._integer("x"), argparse.ArgumentTypeError,
     "invalid int value: 'x'"),
    ("c1-syntax", ["star", "K3", "--c1=1,x"], 1,
     "--c1 must be a comma-separated integer list, got '1,x'"),
    ("analyze-explicit-c1", ["analyze", "K3", "--c1="], 1, "c1 has length 0, form rank is 22"),
    ("expect", ["analyze", "K3 % K3"], 1, "expected '#' (at offset 3)"),
    ("integer", ["analyze", "SP(,1)"], 1, "expected an integer (at offset 3)"),
    ("integer-digits", ["analyze", "SP(1234567890123456789,1)"], 1,
     "integer has more than 18 digits (at offset 3)"),
    ("file-path", ["analyze", "K3 # @"], 1, "expected a file path after '@' (at offset 6)"),
    ("term-at-end", ["analyze", "K3 #"], 1, "expected a generator (at offset 4)"),
    ("multiplicity", ["analyze", "0*K3"], 1, "multiplicity must be positive (at offset 1)"),
    ("no-generator", ["analyze", "K3 # ,"], 1, "expected a generator (at offset 5)"),
    ("unknown-generator", ["analyze", "K3 # ~Foo"], 1, "unknown generator '~Foo' (at offset 5)"),
    ("sum-size", ["analyze", "1000000*K3"], 1,
     "connected sum too large: the sum of count*(1 + rank(H2)) over the terms is 23000000, "
     "over the budget of 1000000"),
    ("matrix-budget", ["analyze", "1000*SP(3,3)", "--json"], 1,
     "JSON report too large: its b1 x b1 matrices have b1 = 12000, over the budget of "
     "MAX_MATRIX_B1 = 3000"),
    ("json-type", lambda: report._write_json(object(), "\n", [], json.dumps), TypeError,
     "Object of type object is not JSON serializable"),
    ("genus", ["analyze", "SP(0,1)"], 1, "genus must be positive, got (0,1)"),
]


def test_every_raise_of_the_rest_is_reached_by_a_row(capsys):
    reach_every_raise(capsys, REST, REST_TABLE)


def test_the_matrix_budget_refuses_only_json_reports_over_it(monkeypatch, capsys):
    # SP(1,1) has b1 = 4 and 2*SP(1,1) has b1 = 8.  The text report builds
    # no matrix, so no b1 refuses it.
    monkeypatch.setattr(report, "MAX_MATRIX_B1", 4)
    assert main(["analyze", "SP(1,1)", "--json"]) == 0
    assert main(["analyze", "2*SP(1,1)"]) == 0
    capsys.readouterr()
    assert main(["star", "2*SP(1,1)", "--json"]) == 1
    assert capsys.readouterr() == ("", (
        "error: JSON report too large: its b1 x b1 matrices have b1 = 8, over the budget of "
        "MAX_MATRIX_B1 = 4; the text report builds neither\n"))
