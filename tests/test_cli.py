import json
import os
import subprocess
import sys

import jsonschema
import pytest

import fourfold
from fourfold.cli import main
from fourfold.report import REPORT_SCHEMA

from genforms import WRONG_TYPES, wrong_type_descriptor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    report = json.loads(out) if out else None
    return code, report, err


def test_analyze_k3_sum(capsys):
    code, report, _ = run_json(capsys, "analyze", "K3 # K3")
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["manifold"]["signature"] == -32
    assert report["spinc"]["dirac_index"] == 4
    assert report["spinc"]["condition"]["holds"] is True
    assert report["spinc"]["moduli_dimension"] == 1
    assert report["bordism"]["value"] == "nontrivial"
    assert report["hitchin_thorpe"] is False


def test_analyze_text_output_mentions_caveats(capsys):
    code, out, _ = run_cli(capsys, "analyze", "K3")
    assert code == 0
    assert "caveats:" in out
    assert "torsion" in out


def test_analyze_without_canonical_spinc_skips_section(capsys):
    code, report, _ = run_json(capsys, "analyze", "3*~CP2")
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["spinc"] is None
    assert "spinc_skipped" in report
    assert report["hitchin_thorpe"] is True


def test_analyze_explicit_c1(capsys):
    code, report, _ = run_json(capsys, "analyze", "~CP2", "--c1", "-1")
    assert code == 0
    assert report["spinc"]["source"] == "explicit"
    assert report["spinc"]["dirac_index"] == 0
    # Entries may carry a sign and spaces, as in --c1="1, 3".
    code, report, _ = run_json(capsys, "analyze", "CP2 # ~CP2", "--c1=+1, 3 ")
    assert (code, report["input"]["c1"]) == (0, [1, 3])


def test_empty_c1_is_the_class_of_rank_zero(capsys):
    # S4, S1xS3 and their sums have no canonical class; --c1= names their
    # only one.
    code, report, _ = run_json(capsys, "star", "S4 # S1xS3", "--c1=")
    assert (code, report["input"]["c1"], report["spinc"]["c1"]) == (0, [], [])
    assert report["result"]["holds"] is True
    code, out, err = run_cli(capsys, "star", "K3", "--c1=")
    assert (code, out) == (1, "")
    assert err == "error: c1 has length 0, form rank is 22\n"


def test_analyze_bad_c1_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "~CP2", "--c1", "0")
    assert code == 1
    assert "characteristic" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "~CP2", "--c1=-\u0661"], "--c1 must be a comma-separated integer list"),
        (["analyze", "CP2 # ~CP2", "--c1=1,\t3"], "--c1 must be a comma-separated integer list"),
        (["genus", "K3 # K3", "--self-int", "\u0666"], "invalid int value: '\u0666'"),
        (["genus", "K3 # K3", "--self-int", "1_0"], "invalid int value: '1_0'"),
        (["genus", "K3 # K3", "--self-int", "6", "--pairing", "1" * 19], "invalid int value"),
        (["scan", "--G-from", "2*SP(3,3)", "--r-max", "\u0663"], "invalid int value"),
    ],
)
def test_integer_options_take_short_ascii_digit_runs(capsys, argv, message):
    # int() alone would read Arabic-Indic digits and underscores; the
    # options take what the expression scanner takes.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "expression, torus_part_zero, h_coefficient",
    [("K3", True, 0), ("SP(2,2)", False, 1)],
)
def test_w2_block(capsys, expression, torus_part_zero, h_coefficient):
    code, report, _ = run_json(capsys, "analyze", expression)
    assert code == 0
    assert report["spinc"]["w2"] == {
        "m_parity": 0,
        "torus_part_zero": torus_part_zero,
        "h_coefficient": h_coefficient,
        "e_h_coefficient": 0,
    }


def test_star_command(capsys):
    code, report, _ = run_json(capsys, "star", "SP(2,2)")
    assert code == 0
    assert report["result"] == {"index_even": False, "chern_even": False, "holds": False}


def test_sigma0_success(capsys):
    code, report, _ = run_json(capsys, "sigma0", "K3 # K3 # SP(3,1)")
    assert code == 0
    assert report["result"] == {
        "applicable": True,
        "dimension": 2,
        "group": "Z/2",
        "value": "nontrivial",
    }


def test_sigma0_uncertified_exits_2(capsys):
    code, _, err = run_cli(capsys, "sigma0", "K3 # CP2", "--c1", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1")
    assert code == 2
    assert "covered family" in err


def test_sigma0_single_summand_exits_2(capsys):
    code, _, err = run_cli(capsys, "sigma0", "K3")
    assert code == 2
    assert "single-summand" in err


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "K3 #")
    assert code == 1
    assert "offset" in err


def test_einstein_inapplicable_exits_2(capsys):
    code, _, err = run_cli(capsys, "einstein", "2*SP(3,3)", "--n2", "CP2")
    assert code == 2
    assert "negative definite" in err


def test_einstein_success(capsys):
    code, report, _ = run_json(capsys, "einstein", "2*SP(3,3)", "--n2", "40*~CP2")
    assert code == 0
    assert report["result"]["einstein_obstructed"] is True


def test_yamabe_requires_assertion_flag(capsys):
    code, _, err = run_cli(capsys, "yamabe", "2*SP(3,3)", "--n1", "~CP2")
    assert code == 2
    assert "metric hypothesis" in err


def test_yamabe_success(capsys):
    code, report, _ = run_json(
        capsys, "yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"
    )
    assert code == 0
    assert report["result"]["coefficient"] == -32
    assert report["result"]["radicand"] == 2
    assert report["result"]["text"] == "-32*sqrt(2)*pi"


def test_genus_min_genus(capsys):
    code, report, _ = run_json(capsys, "genus", "K3 # K3", "--self-int", "6")
    assert code == 0
    assert report["result"]["min_genus"] == 4


def test_genus_candidate_obstructed(capsys):
    code, report, _ = run_json(
        capsys, "genus", "K3 # K3", "--self-int", "2", "--genus", "1"
    )
    assert code == 0
    assert report["result"]["embedding_obstructed"] is True


def test_genus_zero_candidate_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "genus", "K3 # K3", "--self-int", "0", "--genus", "0"
    )
    assert code == 2
    assert "positive genus" in err


def test_scan_command(capsys):
    code, report, _ = run_json(
        capsys, "scan", "--G-from", "2*SP(3,3)", "--s", "0", "--r-max", "70"
    )
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    res = report["result"]
    assert res["G"] == 8
    assert res["einstein_lower_bound"] == {"numerator": 52, "denominator": 3}
    assert res["hitchin_thorpe_upper_bound"] == 60
    assert len(res["rows"]) == 71


def test_scan_takes_any_covered_pair(capsys):
    code, report, _ = run_json(capsys, "scan", "--G-from", "K3 # SP(3,3)", "--r-max", "5")
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"]["integer_window"] == [7, 28]


def test_scan_rejects_wrong_shape(capsys):
    # One summand, or four, is outside the theorem, as for einstein.
    assert run_cli(capsys, "scan", "--G-from", "SP(3,3)", "--r-max", "5") == (
        2, "", "not applicable: single-summand manifolds are not covered; no bordism "
        "verdict is established in dimension 0\n",
    )
    assert run_cli(capsys, "scan", "--G-from", "4*SP(3,3)", "--r-max", "5") == (
        2, "", "not applicable: bordism class is trivial for 4 summands; the obstruction "
        "theorems require a nontrivial class\n",
    )


def test_scan_needs_a_canonical_class(capsys):
    assert run_cli(capsys, "scan", "--G-from", "SP(3,3) # ~CP2", "--r-max", "5") == (
        1, "", "error: scan requires the canonical spin^c structure, which the manifold "
        "does not carry\n",
    )


def test_scan_rejects_r_max_over_bound(capsys):
    from fourfold.obstructions import SCAN_R_MAX

    code, out, err = run_cli(
        capsys, "scan", "--G-from", "2*SP(3,3)", "--r-max", str(SCAN_R_MAX + 1)
    )
    assert code == 1
    assert out == ""
    assert f"r_max must be at most {SCAN_R_MAX}" in err
    code, _, err = run_cli(capsys, "scan", "--G-from", "2*SP(3,3)", "--r-max", "1000000000")
    assert code == 1
    assert str(SCAN_R_MAX) in err


def test_scan_text_table(capsys):
    code, out, _ = run_cli(capsys, "scan", "--G-from", "2*SP(1,1)", "--r-max", "3")
    assert code == 0
    assert "integer window: empty" in out


def test_missing_required_flag_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "einstein", "2*SP(3,3)")
    assert code == 1


def test_unknown_command_is_validation_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_report_json_roundtrip_lossless(capsys):
    import argparse

    from fourfold.cli import _cmd_analyze
    from fourfold.report import to_json

    args = argparse.Namespace(expression="K3 # SP(3,1)", c1=None, json=True)
    report = _cmd_analyze(args)
    assert json.loads(to_json(report)) == report


def test_descriptor_file_via_cli(capsys, tmp_path):
    from fourfold.manifolds import descriptor_of, surface_product

    path = tmp_path / "m.json"
    path.write_text(json.dumps(descriptor_of(surface_product(3, 3))))
    code, report, _ = run_json(capsys, "star", f"@{path}")
    assert code == 0
    assert report["result"]["holds"] is True


@pytest.mark.parametrize("field, value", WRONG_TYPES)
def test_descriptor_wrongly_typed_field_exits_1(capsys, tmp_path, field, value):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(wrong_type_descriptor(field, value)))
    code, out, err = run_cli(capsys, "analyze", f"@{path}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and field in err


def test_analyze_large_blowup(capsys):
    code, report, _ = run_json(capsys, "analyze", "3000*~CP2")
    assert code == 0
    m = report["manifold"]
    assert (m["h2_rank"], m["signature"], m["form_determinant"]) == (3000, -3000, 1)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    original = fourfold.cli.build_parser
    monkeypatch.setattr(fourfold.cli, "_parser", None)
    monkeypatch.setattr(fourfold.cli, "build_parser", lambda: built.append(1) or original())
    assert run_cli(capsys, "star", "K3")[0] == 0
    assert run_cli(capsys, "star", "K3", "--json")[0] == 0
    assert len(built) == 1


# Pairs where the second request would show state that the first left in
# a reused parser: an option given then omitted, an exit through
# SystemExit, and a flag error raised in the middle of parsing.  Then
# the argv lists that the top-level parser still reads (none, an unknown
# command, an option before the command) next to ones that go straight
# to a subparser (its own help, an unknown flag, a "--").
PARSER_REUSE_SEQUENCE = [
    ["analyze", "~CP2", "--c1", "-1", "--json"],
    ["analyze", "~CP2", "--json"],
    ["genus", "K3 # K3", "--self-int", "2", "--genus", "3"],
    ["genus", "K3 # K3", "--self-int", "2"],
    ["--help"],
    ["star", "SP(3,3)"],
    ["genus", "K3 # K3", "--self-int", "2", "--pairing", "x"],
    ["sigma0", "K3 # K3 # SP(3,1)", "--json"],
    [],
    ["frobnicate"],
    ["analyze", "K3", "-h"],
    ["analyze", "K3", "--bogus"],
    ["--json", "analyze", "K3"],
    ["analyze", "--", "K3"],
]


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    in_process = []
    for argv in PARSER_REUSE_SEQUENCE:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = os.path.dirname(os.path.dirname(fourfold.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    fresh = []
    for argv in PARSER_REUSE_SEQUENCE:
        proc = subprocess.run(
            [sys.executable, "-m", "fourfold.cli", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0]
    assert in_process == fresh


def test_closed_stdout_exits_1_without_traceback():
    # The JSON report of 20*SP(3,3), 1.3 MB, is far larger than a pipe
    # buffer, so the writer is still writing when the reader closes the pipe.
    src = os.path.dirname(os.path.dirname(fourfold.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fourfold.cli", "analyze", "20*SP(3,3)", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_descriptor_label_with_lone_surrogate_is_refused(capsys, tmp_path, json_flag):
    # JSON's \ud800 escape decodes to a lone surrogate, which no
    # encoding of the report can write.
    path = tmp_path / "sur.json"
    path.write_text('{"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "x\\ud800"}')
    code, out, err = run_cli(capsys, "analyze", f"@{path}", *json_flag)
    assert code == 1
    assert out == ""
    assert err.startswith("error: label ")


def test_unencodable_text_report_exits_1_without_traceback(tmp_path):
    # A valid POSIX file name that is not UTF-8 is echoed in the report;
    # a strict UTF-8 stdout cannot write it.
    name = os.path.join(os.fsencode(tmp_path), b"\xff.json")
    with open(name, "w", encoding="utf-8") as fh:
        fh.write('{"b1": 0, "form": [[-1]], "euler": 3, "c1": [1], "label": "x"}')
    src = os.path.dirname(os.path.dirname(fourfold.__file__))
    proc = subprocess.run(
        [os.fsencode(sys.executable), b"-m", b"fourfold.cli", b"analyze", b"@" + name],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8:strict"),
    )
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 1, err
    assert proc.stdout == b""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_import_does_not_load_fractions():
    # Every verdict is computed over integers, so the CLI needs no
    # rational arithmetic at import time.
    src = os.path.dirname(os.path.dirname(fourfold.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fourfold.cli; print('fractions' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_scan_huge_multiplicity_is_refused_before_expansion(capsys):
    from fourfold.expressions import MAX_SUM_SIZE

    count = 999999999999999999
    code, out, err = run_cli(capsys, "scan", "--G-from", f"{count}*SP(3,3)", "--r-max", "5")
    assert code == 1
    assert out == ""
    assert err == (
        "error: connected sum too large: the sum of count*(1 + rank(H2)) over the terms "
        f"is {count * (1 + 38)}, over the budget of {MAX_SUM_SIZE}\n"
    )


def test_scan_names_descriptor_term_by_its_path(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--G-from", "@x.json # SP(3,3)", "--r-max", "5"]
    # The expression is resolved, so a missing file is named by its path.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read descriptor file 'x.json': ")
    # A descriptor that loads is outside the covered family.
    (tmp_path / "x.json").write_text('{"b1": 0, "form": [[-1]], "euler": 3, "c1": [1]}')
    assert run_cli(capsys, *argv) == (
        2, "", "not applicable: summand CUSTOM is outside the covered family "
        "(K3 or odd-genus surface products only)\n",
    )


@pytest.mark.parametrize("gen, rank", [("K3", 22), ("S4", 0), ("S1xS3", 0), ("SP(3,3)", 38)])
def test_huge_sum_is_refused_before_expansion(capsys, gen, rank):
    from fourfold.expressions import MAX_SUM_SIZE

    count = 999999999999999999
    code, out, err = run_cli(capsys, "analyze", f"{count}*{gen}")
    assert code == 1
    assert out == ""
    assert err == (
        "error: connected sum too large: the sum of count*(1 + rank(H2)) over the terms "
        f"is {count * (1 + rank)}, over the budget of {MAX_SUM_SIZE}\n"
    )


_EXTRA = {
    "star": [],
    "sigma0": [],
    "genus": ["--self-int", "2"],
    "yamabe": ["--n1", "{n}", "--nonneg-scalar"],
    "einstein": ["--n2", "{n}"],
}


def _request(command, expression, c1, n):
    argv = [command, expression] + [a.format(n=n) for a in _EXTRA[command]]
    return argv if c1 is None else argv + [f"--c1={c1}"]


@pytest.mark.parametrize("command", ["analyze", *_EXTRA])
def test_c1_is_parsed_once_per_request(capsys, monkeypatch, command):
    import fourfold.cli as cli
    from fourfold.expressions import parse_manifold
    from fourfold.spinc import canonical_spinc

    parse_c1, calls = cli._parse_c1, []

    def counting(text):
        calls.append(text)
        return parse_c1(text)

    monkeypatch.setattr(cli, "_parse_c1", counting)
    c1 = ",".join(map(str, canonical_spinc(parse_manifold("K3 # K3")).c1))
    argv = [command, "K3 # K3", f"--c1={c1}"] if command == "analyze" else (
        _request(command, "K3 # K3", c1, "~CP2")
    )
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == [c1]


_UNCOVERED = "@odd_cup.json # K3"  # a custom summand with an odd cup pairing
_COVERED_NOT = "not applicable: summand CUSTOM is outside the covered family"


@pytest.mark.parametrize(
    "expression, c1, n, commands, code, message",
    [
        # The expression comes before --c1 (and before N1/N2).
        ("K3 #", "x", "FOO", _EXTRA, 1, "error: expected a generator (at offset 4)"),
        # The syntax of --c1 comes before N1/N2.
        ("K3 # K3", "x", "FOO", _EXTRA, 1,
         "error: --c1 must be a comma-separated integer list, got 'x'"),
        # The spin^c structure comes before N1/N2.
        ("K3 # K3", "0", "FOO", _EXTRA, 1, "error: c1 has length 1, form rank is 44"),
        # N1/N2 come before the covered family.
        (_UNCOVERED, None, "FOO", ["yamabe", "einstein"], 1,
         "error: unknown generator 'FOO' (at offset 0)"),
        # The covered family comes before the spin^c data ...
        (_UNCOVERED, None, "~CP2", ["sigma0", "yamabe", "einstein"], 2, _COVERED_NOT),
        # ... which star and genus check without it.
        (_UNCOVERED, None, "~CP2", ["star", "genus"], 1,
         "error: cup pairing at (0,1) is odd (1)"),
    ],
    ids=["expression", "c1-syntax", "spinc-structure", "n", "family", "spinc-data"],
)
def test_refusal_order_with_two_faults(
    capsys, monkeypatch, tmp_path, expression, c1, n, commands, code, message
):
    from test_golden_reports import descriptor_files

    (tmp_path / "odd_cup.json").write_text(descriptor_files()["odd_cup.json"])
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = _request(command, expression, c1, n)
        got_code, out, err = run_cli(capsys, *argv)
        assert got_code == code and out == "", (argv, err)
        assert err.startswith(message) and err.count("\n") == 1, (argv, err)


def _run_limited(*argv):
    """Run the CLI in a subprocess under a 2 GB address-space limit; return
    its exit code, stdout, stderr and CPU seconds."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(fourfold.__file__))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "fourfold.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return proc.returncode, proc.stdout, proc.stderr, cpu_s


@pytest.mark.parametrize(
    "argv, size",
    [
        (["analyze", "SP(99999999999,1)"], 1 + 2 + 4 * 99999999999),
        (["scan", "--G-from", "2*SP(100000000000000001,1)", "--r-max", "5"],
         2 * (1 + 2 + 4 * 100000000000000001)),
    ],
    ids=["analyze", "scan"],
)
def test_huge_generator_is_refused_before_it_is_built(argv, size):
    from fourfold.expressions import MAX_SUM_SIZE

    code, out, err, cpu_s = _run_limited(*argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: connected sum too large: the sum of count*(1 + rank(H2)) over the terms "
        f"is {size}, over the budget of {MAX_SUM_SIZE}\n"
    )
    assert cpu_s < 1.0


def test_descriptor_over_the_rank_budget_is_refused_before_elimination(tmp_path):
    from fourfold.manifolds import MAX_DESCRIPTOR_RANK

    # Dense, so that eliminating it would take seconds.
    n = MAX_DESCRIPTOR_RANK + 1
    form = [[-1 if i == j else 1 for j in range(n)] for i in range(n)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"b1": 0, "form": form, "euler": n + 2}))
    code, out, err, cpu_s = _run_limited("analyze", f"@{path}")
    assert (code, out) == (1, "")
    assert err == (
        f"error: form has {n} rows, over the rank budget of "
        f"MAX_DESCRIPTOR_RANK = {MAX_DESCRIPTOR_RANK}\n"
    )
    assert cpu_s < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        # A genus the builder refuses is refused before the budget.
        (["analyze", "SP(0,99999999999) # 999999999999999999*K3"],
         "error: genus must be positive, got (0,99999999999)\n"),
        # scan resolves its expression the same way, before --r-max.
        (["scan", "--G-from", "SP(0,99999999999) # 999999999999999999*K3", "--r-max", "5"],
         "error: genus must be positive, got (0,99999999999)\n"),
        (["scan", "--G-from", "999999999999999999*K3 # $", "--r-max", "0"],
         "error: expected a generator (at offset 24)\n"),
        # A character that starts no generator is refused by the parser,
        # before anything is built.
        (["analyze", "K3 # $"], "error: expected a generator (at offset 5)\n"),
    ],
)
def test_generator_budget_comes_after_the_generator_checks(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize(
    "argv",
    [["sigma0"], ["yamabe", "--n1", "~CP2", "--nonneg-scalar"], ["einstein", "--n2", "~CP2"]],
    ids=["sigma0", "yamabe", "einstein"],
)
def test_even_genus_summand_is_outside_the_family(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "K3 # SP(3,2)", *argv[1:])
    assert (code, out) == (2, "")
    assert err == (
        "not applicable: summand SP(3,2) has even genus; only odd-genus surface "
        "products are covered\n"
    )


_NOT_UNIMODULAR = (
    "but Poincare duality makes the intersection form of a closed oriented 4-manifold "
    "unimodular (|det| = 1)"
)


def test_einstein_refuses_a_degenerate_n2(capsys, tmp_path):
    # A degenerate form is refused when the descriptor is read.
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"b1": 0, "form": [[-1, 0], [0, 0]], "euler": 4}))
    code, out, err = run_cli(capsys, "einstein", "2*SP(3,3)", "--n2", f"@{path}")
    assert (code, out, err) == (1, "", f"error: form determinant is 0, {_NOT_UNIMODULAR}\n")


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ({"b1": 0, "form": [[1]], "euler": 3, "cup1": []},
         "cup1 must be an object mapping 'i,j' to integer lists"),
        ({"b1": 0, "form": [[1]], "euler": 3, "c1": [1, 1]},
         "canonical c1 has length 2, expected 1"),
        ({"b1": 0, "form": [[2]], "euler": 3, "c1": [0]},
         f"form determinant is 2, {_NOT_UNIMODULAR}"),
        # Each of these used to end in a ValueError traceback past CPython's
        # 4300-digit limit for str(), from c1^2 and from det(Q).
        ({"b1": 0, "form": [[1]], "euler": 3, "c1": [10**4299 + 1]},
         "c1 has an integer of more than 18 digits"),
        ({"b1": 0, "form": [[10**299 * (i == j) for j in range(40)] for i in range(40)],
          "euler": 42}, "form has an integer of more than 18 digits"),
    ],
    ids=["cup1-not-an-object", "c1-length", "not-unimodular", "long-c1", "long-form"],
)
def test_descriptor_refusals(capsys, tmp_path, descriptor, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(descriptor))
    for argv in (["analyze", f"@{path}"], ["star", f"@{path}", "--json"]):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_at_sign_without_a_path_is_refused(capsys):
    assert run_cli(capsys, "analyze", "@") == (
        1, "", "error: expected a file path after '@' (at offset 1)\n"
    )
