"""Golden reports: exit code and the sha256 of stdout and of stderr for a
fixed list of requests, covering all seven commands in text and JSON,
the README examples, refusals with exit 1 and 2, and every ``--help``.

``golden_reports.json`` holds the descriptor files the requests read and
one record per request.  The requests run one after another in one
process, in a directory that holds only those files, with ``COLUMNS=80``
so that the help text wraps the same everywhere.  Regenerate the file
only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from fourfold.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

CORPUS = [
    "K3", "K3 # K3", "2*K3", "3*K3", "K3 # K3 # K3 # K3", "SP(1,1)", "SP(3,3)", "SP(7,7)",
    "SP(1,3) # SP(3,1)", "2*SP(3,3)", "2*SP(3,3) # 40*~CP2", "2*SP(1,1) # 5*~CP2 # 2*S1xS3",
    "K3 # SP(3,3)", "K3 # SP(5,1) # K3", "S4", "S4 # S4", "S1xS3", "4*S1xS3", "CP2", "~CP2",
    "CP2 # ~CP2", "SP(2,2)", "SP(2,2) # K3", "3*~CP2", "K3 # 10*~CP2", "7*SP(3,3)",
    "K3 # SP(3,3) # 5*~CP2", "@sp33.json", "@sp33.json # K3", "@odd_h2.json",
]

REQUESTS = (
    [["analyze", e] for e in CORPUS]
    + [
        ["analyze", "~CP2", "--c1", "-1"],
        ["analyze", "CP2 # ~CP2", "--c1=1,3"],
        ["star", "SP(3,3)"], ["star", "K3 # K3"], ["star", "SP(2,2)"], ["star", "@sp33.json"],
        ["star", "@odd_h2.json"],
        ["sigma0", "K3 # K3 # SP(3,1)"], ["sigma0", "2*SP(3,3)"], ["sigma0", "4*K3"],
        ["genus", "K3 # K3", "--self-int", "6"],
        ["genus", "K3 # K3", "--self-int", "2", "--genus", "1"],
        ["genus", "K3 # SP(3,3)", "--self-int", "6", "--pairing", "2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2", "--nonneg-scalar"],
        ["yamabe", "K3 # SP(1,1)", "--n1", "3*~CP2 # S1xS3", "--nonneg-scalar"],
        ["einstein", "2*SP(3,3)", "--n2", "40*~CP2"],
        ["einstein", "K3 # K3", "--n2", "S4"],
        ["scan", "--G-from", "2*SP(3,3)", "--s", "0", "--r-max", "70"],
        ["scan", "--G-from", "SP(3,1) # SP(5,3)", "--s", "2", "--r-max", "40"],
    ]
    # Exit 1: syntax, flags, descriptors and inconsistent data.
    + [
        ["analyze", "K3 #"], ["analyze", "K4"], ["analyze", "0*K3"], ["analyze", "SP(0,1)"],
        ["analyze", "~CP2", "--c1", "0"], ["analyze", "~CP2", "--c1", "x"],
        ["analyze", "~CP2", "--c1", "1,1"], ["star", "~CP2"], ["star", "@odd_cup.json"],
        ["analyze", "@absent.json"], ["analyze", "@not_json.json"], ["analyze", "@list.json"],
        ["analyze", "@bad_euler.json"], ["analyze", "@bad_euler_and_cup.json"],
        ["analyze", "@cup_length.json"], ["analyze", "@float_form.json"],
        ["analyze", "@noncharacteristic.json"],
        ["einstein", "2*SP(3,3)"], ["genus", "K3 # K3"], ["genus", "K3", "--self-int", "x"],
        ["scan", "--G-from", "K3 # SP(3,3)", "--r-max", "5"],
        ["scan", "--G-from", "SP(2,1) # SP(3,3)", "--r-max", "5"],
        ["scan", "--G-from", "2*SP(3,3)", "--r-max", "100001"],
        ["scan", "--G-from", "SP(3,3)", "--r-max", "5"], ["frobnicate"], [], ["analyze"],
        # genus builds the spin^c section before it checks the family.
        ["genus", "@odd_cup.json # K3", "--self-int", "2"],
    ]
    # Exit 2: the hypotheses of a theorem do not hold.
    + [
        ["sigma0", "K3"], ["sigma0", "SP(2,2) # K3"], ["sigma0", "@sp33.json # K3"],
        ["sigma0", "K3 # K3", "--c1=2" + ",0" * 43],
        ["genus", "K3 # K3", "--self-int", "2", "--genus", "0"],
        ["genus", "K3 # K3", "--self-int", "-1"], ["genus", "4*K3", "--self-int", "2"],
        ["genus", "@sp33.json # K3", "--self-int", "2"],
        ["yamabe", "2*SP(3,3)", "--n1", "~CP2"], ["yamabe", "2*SP(3,3)", "--n1", "CP2"],
        ["yamabe", "SP(2,2) # K3", "--n1", "~CP2", "--nonneg-scalar"],
        ["einstein", "2*SP(3,3)", "--n2", "CP2"], ["einstein", "K3", "--n2", "~CP2"],
        ["einstein", "@odd_h2.json # K3", "--n2", "~CP2"],
        # yamabe and einstein check the family before the spin^c data.
        ["yamabe", "@odd_cup.json # K3", "--n1", "~CP2", "--nonneg-scalar"],
        ["einstein", "@odd_cup.json # K3", "--n2", "~CP2"],
    ]
)

COMMANDS = ("analyze", "star", "sigma0", "genus", "yamabe", "einstein", "scan")

ARGVS = (
    [argv + mode for argv in REQUESTS if argv for mode in ([], ["--json"])]
    + [[]]
    + [[cmd, "--help"] for cmd in COMMANDS]
    + [["--help"]]
)


def descriptor_files() -> dict:
    """File name -> text of the descriptor files the requests read."""
    from fourfold.manifolds import descriptor_of, surface_product

    def text(descriptor):
        return json.dumps(descriptor)

    def broken(**fields):
        # rank 1, b1 2: the cup classes have length 1
        base = {"b1": 2, "form": [[1]], "euler": -1, "cup1": {"1,2": [2]}, "c1": [1]}
        return text({**base, **fields})

    return {
        "sp33.json": text(descriptor_of(surface_product(3, 3), label="corpus")),
        # Cup classes that are not basis vectors, on a form with an odd row.
        "odd_h2.json": text({
            "b1": 4, "form": [[1, 1, 0], [1, 0, 0], [0, 0, -1]], "euler": -3,
            "cup1": {"1,2": [2, 0, 4], "1,3": [0, 2, 0], "2,4": [4, -2, 2], "3,4": [0, 0, 0]},
            "c1": [2, 1, 1], "label": "odd",
        }),
        "odd_cup.json": broken(cup1={"1,2": [1]}),
        "not_json.json": "{",
        "list.json": "[1]",
        "bad_euler.json": broken(euler=4),
        "bad_euler_and_cup.json": broken(euler=4, cup1={"1,2": [2, 2]}),
        "cup_length.json": broken(cup1={"1,2": [0, 0], "2,3": [2, 2]}, b1=3, euler=-3),
        "float_form.json": broken(form=[[1.0]]),
        "noncharacteristic.json": broken(c1=[0]),
    }


def run_requests(argvs, monkeypatch) -> list[dict]:
    monkeypatch.setenv("COLUMNS", "80")
    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        records.append({
            "argv": argv,
            "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        })
    return records


def _write_files(files: dict, directory: Path) -> None:
    for name, content in files.items():
        (directory / name).write_text(content, encoding="utf-8")


def test_golden_reports(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    _write_files(golden["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    records = run_requests([case["argv"] for case in golden["cases"]], monkeypatch)
    assert {r["exit"] for r in records} == {0, 1, 2}
    for expected, got in zip(golden["cases"], records):
        assert got == expected


def test_golden_file_covers_the_request_list():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [case["argv"] for case in golden["cases"]] == ARGVS


if __name__ == "__main__":
    import tempfile

    import pytest

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    files = descriptor_files()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        _write_files(files, Path(tmp))
        patch.chdir(tmp)
        cases = run_requests(ARGVS, patch)
    text = json.dumps({"files": files, "cases": cases}, indent=1) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
