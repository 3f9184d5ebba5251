"""Serve the same requests on two commits and compare the replies byte for
byte: ROADMAP aim 3 asks that every verdict and every report stay the
same across a refactor.

Run from the repository root:

    python3 tools/replay.py --commits PARENT CHANGE --seeds 7 8

Both commits are exported as ``tools/trajectory.py`` exports them.  The
requests are built once, from the first commit's files:
- round 0 of every workload of its ``bench/workloads.py``, for each seed
- criterion 10's expression corpus of its ``tests/test_acceptance.py``,
  under every command that takes an expression
- every request of the four refusal tables of its ``tests/test_refusals.py``

The files they read are written into one directory.  Each commit serves
the whole list there, in one fresh interpreter, each request in text and
with ``--json``.  Per request the exit code, the sha256 of stdout and the
stderr are compared.  The first differences are printed with their argv,
and the exit status is 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from trajectory import export

FIELDS = ("code", "stdout_sha256", "stderr")
MAX_SHOWN = 20

# How each command takes an expression, with the fewest other arguments.
EXPRESSION_ARGV = {
    "analyze": ["analyze", "{}"],
    "star": ["star", "{}"],
    "sigma0": ["sigma0", "{}"],
    "genus": ["genus", "{}", "--self-int", "2"],
    "einstein": ["einstein", "{}", "--n2", "~CP2"],
    "yamabe": ["yamabe", "{}", "--n1", "~CP2", "--nonneg-scalar"],
    "scan": ["scan", "--G-from", "{}", "--r-max", "5"],
}


def build_requests(copy: Path, files: Path, seeds: list[int]) -> list[list[str]]:
    """Each request's argv, without ``--json``, from the modules of
    ``copy``; the files they read are written under ``files``."""
    sys.path[:0] = [str(copy / "src"), str(copy / "bench"), str(copy / "tests")]
    import test_acceptance
    import test_refusals
    import workloads

    requests = []
    for seed in seeds:
        workloads.write_descriptors(seed, str(files))
        for name in workloads.WORKLOADS:
            for request in workloads.ROUNDS[name](seed, 0, str(files)):
                requests.append([a for a in request["argv"] if a != "--json"])
    for text in test_acceptance._expression_corpus(files):
        requests += [[a.format(text) for a in argv] for argv in EXPRESSION_ARGV.values()]
    for row_id, content, _, _ in test_refusals.TABLE:
        test_refusals.write_descriptor(files / f"gate-{row_id}.json", content)
        requests.append(["analyze", f"@gate-{row_id}.json"])
    e8 = {"b1": 0, "form": test_refusals.negative_e8(), "euler": 10, "c1": [0] * 8}
    for name, descriptor in {"e8.json": e8, **test_refusals.SPINC_FILES}.items():
        (files / name).write_text(json.dumps(descriptor))
    for table in (test_refusals.THEOREM_TABLE, test_refusals.SPINC_TABLE,
                  test_refusals.REST_TABLE):
        requests += [request for _, request, _, _ in table if not callable(request)]
    return requests


def serve(requests: list[list[str]]) -> list[dict]:
    """Each request's reply from ``fourfold.cli.main``, in text and then
    with ``--json``: its argv, exit code, stdout sha256 and stderr."""
    from fourfold.cli import main

    replies = []
    for argv in (argv + form for argv in requests for form in ([], ["--json"])):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                print("traceback: " + traceback.format_exc().strip().splitlines()[-1],
                      file=sys.stderr)
        replies.append({"argv": argv, "code": code, "stderr": err.getvalue(),
                        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})
    return replies


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """One line for each field of a reply that differs between the two
    sides, with the request's argv."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        raise ValueError("the two sides served different requests")
    return [
        f"{shlex.join(a['argv'])}: {field} {a[field]!r} != {b[field]!r}"
        for a, b in zip(parent, change) for field in FIELDS if a[field] != b[field]
    ]


def report(parent: list[dict], change: list[dict]) -> tuple[str, int]:
    """The report of the comparison, and the exit status."""
    differences = compare(parent, change)
    lines = [f"replay: {len(parent)} requests, {len(differences)} differences"]
    lines += differences[:MAX_SHOWN]
    if len(differences) > MAX_SHOWN:
        lines.append(f"... and {len(differences) - MAX_SHOWN} more")
    return "\n".join(lines), int(bool(differences))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--seeds", nargs="+", type=int, default=[7, 8])
    parser.add_argument("--serve", nargs=2, metavar=("REQUESTS", "REPLIES"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        import fourfold

        source = Path(fourfold.__file__).resolve()
        if not source.is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
            parser.error(f"fourfold was imported from {source}, not from PYTHONPATH")
        requests = json.loads(Path(args.serve[0]).read_text())
        Path(args.serve[1]).write_text(json.dumps(serve(requests)))
        return 0
    if not args.commits:
        parser.error("--commits is required")
    work = Path(tempfile.mkdtemp(prefix="replay-"))
    try:
        copies = [work / "parent", work / "change"]
        for commit, copy in zip(args.commits, copies):
            export(commit, copy)
        files = work / "files"
        files.mkdir()
        (work / "requests.json").write_text(json.dumps(build_requests(copies[0], files,
                                                                      args.seeds)))
        sides = []
        for copy in copies:
            replies = copy / "replies.json"
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--serve",
                 str(work / "requests.json"), str(replies)],
                cwd=files, check=True,
                env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONHASHSEED="0",
                         PYTHONDONTWRITEBYTECODE="1"),
            )
            sides.append(json.loads(replies.read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text, status = report(*sides)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
