"""Run the benchmark over a list of seeds on one or more commits and write
the trajectory file of ROADMAP aim 1 (``BENCH_<n>.json`` at the root).

Run from the repository root:

    python3 tools/trajectory.py --commits PARENT CHANGE --seeds 3401 3402 --out BENCH_<n>.json

Each commit is exported with ``git archive`` into a fresh temporary
directory (under ``$TMPDIR``), and ``bench/run.py --workload W --seed S``
runs there at its default length with ``PYTHONDONTWRITEBYTECODE=1``, for
every workload that the commit's ``BENCHMARK.json`` declares.  For each
workload and seed every commit runs once, and the order of the commits is
reversed from one seed to the next, so that two commits make interleaved
pairs with each side first in half of them.

The file holds the machine, the Python version and the commits.  For each
commit and workload it holds the median, the quartiles and the run count
of every end-to-end metric over the runs that exited 0, the fewest speed
samples of a run and the number of runs with exactly two, and every run
with its seed, exit code, metrics, speed-sample count and peak RSS, read
from the record that ``bench/run.py`` writes under ``.bench_results/``.  A
run that exits nonzero is kept, with the last lines of its stderr (the
child's traceback comes before the bench's own last line), and listed
again under ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The lines of a failed run's stderr that are kept, joined into one string.
STDERR_LINES_KEPT = 5


def export(commit: str, into: Path) -> None:
    """The tree of ``commit``, written under ``into`` by ``git archive``."""
    tree = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=tree, check=True)


def bench_run(copy: Path, workload: str, seed: int) -> dict:
    """One default-length run of ``bench/run.py`` in ``copy``."""
    record = copy / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    record.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=copy, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return read_run(record, seed, proc.returncode, proc.stderr)


def read_run(record: Path, seed: int, exit_code: int, stderr: str) -> dict:
    """A run's entry: from its record when it exited 0, whether every
    reply was correct, its metrics (peak RSS among them) and its number
    of speed samples; else the last lines of its stderr."""
    run = {"seed": seed, "exit_code": exit_code}
    if exit_code != 0:
        run["stderr"] = "\n".join(stderr.strip().splitlines()[-STDERR_LINES_KEPT:])
        return run
    data = json.loads(record.read_text())
    metrics = {name: m["value"] for name, m in data["line"]["metrics"].items()}
    run.update(correct=data["line"]["correct"], metrics=metrics,
               speed_samples=data["child"]["speed"]["samples"])
    return run


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and run count of each metric over the runs that
    exited 0; quartiles need two runs.  Also the fewest speed samples a
    run collected and the number of runs at exactly two, the least that
    the bench's quartiles of machine speed accept (None and 0 when no run
    exited 0)."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run.get("metrics", {}).items():
            values.setdefault(name, []).append(value)
    summary = {}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (None, xs[0], None)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(xs)}
    samples = [run["speed_samples"] for run in runs if "speed_samples" in run]
    return {
        "metrics": summary,
        "speed_samples": {"min": min(samples, default=None),
                          "runs_at_2": samples.count(2)},
        "runs": runs,
        "failed": [{"seed": r["seed"], "exit_code": r["exit_code"], "stderr": r["stderr"]}
                   for r in runs if r["exit_code"] != 0],
    }


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commits", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    commits = [
        subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                       check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
        for ref in args.commits
    ]
    work = Path(tempfile.mkdtemp(prefix="trajectory-"))
    copies = [work / str(k) for k in range(len(commits))]
    runs = [{} for _ in commits]
    try:
        for commit, copy in zip(commits, copies):
            export(commit, copy)
        spec = json.loads((copies[0] / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for i, seed in enumerate(args.seeds):
                order = range(len(commits)) if i % 2 == 0 else reversed(range(len(commits)))
                for k in order:
                    run = bench_run(copies[k], workload, seed)
                    runs[k].setdefault(workload, []).append(run)
                    print(json.dumps(dict(run, commit=commits[k][:12], workload=workload)),
                          file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {
        "machine": machine(),
        "python": platform.python_version(),
        "command": "python3 bench/run.py --workload W --seed S",
        "seeds": args.seeds,
        "commits": [
            {"commit": commit, "ref": ref,
             "workloads": {w: summarize(rs) for w, rs in side.items()}}
            for ref, commit, side in zip(args.commits, commits, runs)
        ],
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
