"""End-to-end and per-layer benchmark of the ``fourfold`` calculator.

Run from the repository root:

    python3 bench/run.py --workload queries --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --self-check

One client drives the public entry point ``fourfold.cli.main(argv)`` in a
closed loop (the next request is sent when the previous one returns),
with stdout captured, inside a fresh child interpreter per run.  The
child imports the package from ``src/`` of this checkout; nothing needs
building.  Interpreter start-up is paid once per run and reported as
``setup_s``.

Workloads (see ``workloads.py``):

* ``queries``: small requests covering all seven commands, grouped per
  manifold, ranks at most 66, a pool of 84 manifolds (more than the
  64-entry inertia cache), dense ``@file`` descriptors and about one
  request in ten refused with exit 1 or 2.
* ``scan``: ``scan`` over a grid of odd genera with seeded ``s`` in
  0..3, ``r_max`` from 100 to 300.
* ``rank_ladder``: ``analyze`` on SP(g,g), n*K3, K3 # n*~CP2 and
  n*SP(3,3), ranks 102 to 460, in seeded order.

All times (``setup_s``, ``requests_per_s``, ``latency_p50_ms``,
``latency_tail_ms``) are CPU times scaled to a nominal machine speed,
which a fixed reference loop samples as the run goes (see ``speed.py``):
on a shared host, steal time and slow phases of the CPU otherwise move
them more than the program does.  The record keeps the wall-clock
figures beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` serves one
fixed round untraced, traced, traced and untraced in one process and
reports per-layer self times, exact counts and the tracing overhead.
Every reply is checked by the closed-form oracle in ``oracle.py``; a
wrong verdict, wrong exit code, traceback or exceeded time cap is a
failed request.  The last stdout line is the JSON result;
the full record (provenance, raw samples, tail percentile, failures) is
written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_results"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 7          # set-up-only children; the measuring child adds one sample
RUN_BUDGET_S = 170.0      # a whole run, set-up included, ends within this

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "setup_s": "s",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


LAYER_FUNCTIONS = (
    "cli.calls",
    "expressions.parse.self_s", "expressions.resolve.self_s",
    "expressions.resolve.calls", "expressions.resolve.rank",
    "expressions.resolve.max_rank", "expressions.resolve.b1",
    "expressions.resolve.cup_entries", "expressions.resolve.form_nnz",
    "manifolds.generators.self_s", "manifolds.connected_sum.self_s",
    "manifolds.connected_sum.calls", "manifolds.connected_sum.cells",
    "lattice.determinant.self_s", "lattice.determinant.calls",
    "lattice.determinant.max_rank",
    "lattice.inertia.self_s", "lattice.inertia.calls", "lattice.inertia.cache_hit_ratio",
    "lattice.pairing.self_s", "lattice.pairing.calls",
    "lattice.direct_sum.self_s", "lattice.is_characteristic.self_s",
    "spinc.cup_pairing_matrix.calls", "spinc.spin_condition.calls",
    "bordism.certify_family.calls",
    "obstructions.hitchin_thorpe.calls",
    "report.to_json.self_s", "report.output_bytes",
    "trace.overhead_s", "trace.wall_s", "trace.traced_wall_s", "trace.self_sum_s",
)
PER_LAYER = {name: _unit(name) for name in
             [f"{layer}.self_s" for layer in tracer.LAYERS] + list(LAYER_FUNCTIONS)}


class BenchError(Exception):
    pass


def spawn(mode: str, *args: str, deadline: float) -> tuple[float, float, dict]:
    """Run child.py; returns its set-up time at nominal speed (CPU time of
    interpreter start-up and importing ``fourfold.cli``), the wall time
    from launch until it reported that, and its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(SRC), mode, *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().split()
        wall_s = time.perf_counter() - start
        if len(ready) != 2 or ready[0] != "ready":
            raise BenchError(f"child ({mode}) did not import fourfold.cli")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child ({mode}) ran past the run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child ({mode}) exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return float(ready[1]), wall_s, json.loads(lines[-1]) if lines else {}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _digest(SRC / "fourfold"),
        "bench_sha256": _digest(BENCH),
        "time": time.time(),
    }


def _inputs(workload: str, seed: int) -> str:
    """Temp dir for the run's generated files, relative to the checkout
    root (descriptor paths go into expressions, which stop at spaces)."""
    TMP.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=TMP)
    if workload == "queries":
        workloads.write_descriptors(seed, os.path.relpath(tmpdir, ROOT), base=str(ROOT))
    return tmpdir


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    setup, setup_wall = [], []
    if not trace:
        spawn("setup", deadline=deadline)  # the first import may compile bytecode
        for _ in range(SETUP_SPAWNS):
            setup_s, wall_s, _ = spawn("setup", deadline=deadline)
            setup.append(setup_s)
            setup_wall.append(wall_s)
    tmpdir = _inputs(workload, seed)
    args = (workload, str(seed), str(seconds), os.path.relpath(tmpdir, ROOT))
    try:
        if trace:
            res = spawn("trace", *args, deadline=deadline)[2]
        else:
            child_setup_s, child_wall_s, res = spawn("run", *args, deadline=deadline)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    checks = res["oracle_self_check"]
    correct = (res["failed"] == 0 and res["warmup"]["failed"] == 0
               and checks["tried"] > 0 and checks["rejected"] == checks["tried"])
    if trace:
        units = PER_LAYER
        metrics = res["metrics"]
        correct = correct and res["counts_repeat"] and not any(res["wrappers_untraced"])
    else:
        setup.append(child_setup_s)
        setup_wall.append(child_wall_s)
        units = END_TO_END
        metrics = dict(res["metrics"], setup_s=statistics.median(setup))
        correct = correct and res["wrappers_installed"] == 0
    return {
        "line": {
            "correct": correct,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "child": res,
    }


def self_check() -> int:
    """Shows that the oracle rejects deliberately wrong expected verdicts,
    that the untraced path installs no wrappers, and that BENCHMARK.json
    names the metrics this script reports."""
    res = spawn("selfcheck", deadline=time.monotonic() + RUN_BUDGET_S)[2]
    ok = (res["warmup_failed"] == 0 and res["oracle"]["tried"] > 0
          and res["oracle"]["rejected"] == res["oracle"]["tried"]
          and res["wrappers_untraced"] == 0 and res["wrappers_traced"] > 0)
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
        res["benchmark_json_matches"] = declared == END_TO_END and layered == PER_LAYER
        ok = ok and res["benchmark_json_matches"]
    res["ok"] = ok
    print(json.dumps(res))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "fourfold" / "cli.py").is_file():
        print(f"bench: no fourfold sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    record = dict(run, provenance=provenance(), argv=sys.argv[1:])
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(run["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
