"""One benchmark process: imports ``fourfold.cli``, then serves requests.

Usage: child.py SRC_DIR MODE [WORKLOAD SEED SECONDS TMPDIR]

MODE is ``setup`` (import and exit), ``run`` (the timed closed loop),
``trace`` (one fixed round served untraced and traced) or ``selfcheck``.
The first stdout line, ``ready SETUP_S``, is written as soon as
``fourfold.cli`` is imported; SETUP_S is the CPU time of interpreter
start-up and that import at nominal speed (see ``speed.py``).  The last
stdout line is a JSON result.
"""

import sys

SRC = sys.argv[1]
sys.path.insert(0, SRC)

import fourfold.cli  # noqa: E402  (set-up ends with this import)
import speed  # noqa: E402

sys.stdout.write(f"ready {speed.nominal_setup_s()!r}\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_KEPT = 10

SPEED = speed.Speedometer()


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


def serve(req: dict) -> dict:
    """Send one request through ``fourfold.cli.main`` and check the reply."""
    main = fourfold.cli.main
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, req["cap_s"])
        start = time.perf_counter()
        cpu_start, spent_start = time.thread_time(), SPEED.spent_s
        try:
            code = main(req["argv"])
        except RequestTimeout:
            code, failure = None, f"exceeded its {req['cap_s']:g} s time cap"
        except SystemExit as exc:
            code = exc.code
        except Exception:  # any traceback is a failed request, never a crash
            code = None
            failure = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        finally:
            cpu_s = time.thread_time() - cpu_start - (SPEED.spent_s - spent_start)
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    stdout = out.getvalue()
    if failure is None:
        failure = oracle.check(req["code"], req["expected"], req["json"], code,
                               stdout, err.getvalue())
    return {"start": start, "elapsed": elapsed, "cpu_s": cpu_s,
            "failure": failure, "bytes": len(stdout.encode()),
            "stdout": stdout, "stderr": err.getvalue(), "code": code}


class Tally:
    def __init__(self):
        self.samples = []   # wall seconds per request
        self.cpu = []       # (start, end, CPU seconds) per request
        self.failures = []
        self.failed = 0
        self.output_bytes = 0

    def add(self, req, reply):
        self.samples.append(reply["elapsed"])
        self.cpu.append((reply["start"], reply["start"] + reply["elapsed"], reply["cpu_s"]))
        self.output_bytes += reply["bytes"]
        if reply["failure"] is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append({"argv": req["argv"], "reason": reply["failure"]})


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, list):
        return value[::-1] + [0]
    return 0


def oracle_rejects_wrong_verdicts(pairs) -> dict:
    """For each (request, reply) answered correctly, corrupt one expected
    verdict field and the expected exit code; the oracle must reject
    both.  Returns counts."""
    tried = rejected = 0
    for req, reply in pairs:
        if reply["failure"] is not None:
            continue
        variants = [(req["code"] + 1, req["expected"])]
        shown = [k for k in sorted(req["expected"])
                 if req["json"] or not k.startswith(oracle.TEXT_HIDDEN)]
        if shown:
            key = shown[len(req["argv"]) % len(shown)]
            wrong = dict(req["expected"], **{key: _corrupt(req["expected"][key])})
            variants.append((req["code"], wrong))
        for code, expected in variants:
            tried += 1
            if oracle.check(code, expected, req["json"], reply["code"],
                            reply["stdout"], reply["stderr"]) is not None:
                rejected += 1
    return {"tried": tried, "rejected": rejected}


def warm_up() -> tuple[Tally, dict]:
    tally = Tally()
    pairs = []
    for req in workloads.warmup_requests():
        reply = serve(req)
        tally.add(req, reply)
        pairs.append((req, reply))
    return tally, oracle_rejects_wrong_verdicts(pairs)


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n, "beyond": 10}


def _time_metrics(samples: list[float]) -> dict:
    t = tail(samples)
    return {
        "requests_per_s": len(samples) / sum(samples),
        "latency_p50_ms": 1000.0 * statistics.median(samples),
        "latency_tail_ms": 1000.0 * t["value"],
        "tail": t,
    }


def run(workload: str, seed: int, seconds: float, tmpdir: str) -> dict:
    SPEED.start()  # before warm-up, so the first request has samples before it
    warm, self_check = warm_up()
    wrappers = tracer.installed_wrappers()
    make_round = workloads.ROUNDS[workload]
    tally = Tally()
    # Whole rounds, and as many as fit the requested time at the nominal
    # round time, so that every run of a seed serves the same requests
    # and the tail percentile rests on the same sample count.
    rounds = max(1, round(seconds / workloads.NOMINAL_ROUND_S[workload]))
    for index in range(rounds):
        for req in make_round(seed, index, tmpdir):
            tally.add(req, serve(req))
    SPEED.stop()
    nominal = [cpu_s * SPEED.scale(start, end) for start, end, cpu_s in tally.cpu]
    n = len(nominal)
    metrics = _time_metrics(nominal)
    tail_info = metrics.pop("tail")
    metrics.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        success_ratio=(n - tally.failed) / n,
    )
    wall = _time_metrics(tally.samples)
    return {
        "attempted": n,
        "failed": tally.failed,
        "metrics": metrics,
        "rounds": rounds,
        "busy_s": sum(nominal),
        "tail": tail_info,
        "wall_metrics": wall,
        "speed": {"reference_s": speed.REFERENCE_S, "samples": len(SPEED.cpu_s),
                  "quartiles_s": statistics.quantiles(SPEED.cpu_s, n=4)},
        "output_bytes": tally.output_bytes,
        "failures": tally.failures,
        "latency_samples_s": nominal,
        "wall_samples_s": tally.samples,
        "cpu_spans": tally.cpu,
        "speed_samples": list(zip(SPEED.when, SPEED.cpu_s)),
        "warmup": {"attempted": len(warm.samples), "failed": warm.failed,
                   "failures": warm.failures},
        "oracle_self_check": self_check,
        "wrappers_installed": wrappers,
    }


def _sizes(manifolds) -> dict:
    out = {"rank": 0, "max_rank": 0, "b1": 0, "cup_entries": 0, "form_nnz": 0}
    for m in manifolds:
        rank = m.h2.rank
        out["rank"] += rank
        out["max_rank"] = max(out["max_rank"], rank)
        out["b1"] += m.b1
        out["cup_entries"] += len(m.cup1)
        out["form_nnz"] += sum(1 for row in m.h2.form for x in row if x)
    return out


def _serve_pass(requests, spans: tracer.Tracer | None) -> tuple[Tally, dict]:
    """One pass over ``requests`` from an empty inertia cache, with spans
    when ``spans`` is given.  Returns the tally and the resolved sizes."""
    inertia = fourfold.lattice.inertia
    if spans is not None:
        spans.install()
    inertia.cache_clear()
    tally = Tally()
    sizes = _sizes(())
    try:
        for req in requests:
            tally.add(req, serve(req))
            if spans is not None:
                for key, value in _sizes(spans.resolved).items():
                    sizes[key] = (max(sizes[key], value) if key == "max_rank"
                                  else sizes[key] + value)
                spans.resolved.clear()
    finally:
        if spans is not None:
            spans.uninstall()
    info = inertia.cache_info()
    sizes["cache_hit_ratio"] = info.hits / max(1, info.hits + info.misses)
    return tally, sizes


def trace(workload: str, seed: int, tmpdir: str) -> dict:
    """Serve round 0 of the workload four times in one process: untraced,
    traced, traced, untraced.  Each pass starts from an empty inertia
    cache, so all four see the same calls; the symmetric order cancels a
    steady drift in machine speed from the tracing overhead.  Times are
    means of the two passes of a kind; counts come from one traced pass
    (both traced passes count the same)."""
    warm, self_check = warm_up()
    requests = workloads.ROUNDS[workload](seed, 0, tmpdir)
    plain, traced, wrappers_untraced = [], [], []
    for kind in ("plain", "traced", "traced", "plain"):
        if kind == "plain":
            wrappers_untraced.append(tracer.installed_wrappers())
            plain.append(_serve_pass(requests, None)[0])
        else:
            spans = tracer.Tracer()
            tally, sizes = _serve_pass(requests, spans)
            traced.append((tally, sizes, spans))
    tally, sizes, spans = traced[0]
    both = [t[2] for t in traced]

    def self_s(key):
        return sum(s.self_s(key) for s in both) / 2

    layer_self = {layer: sum(s.layer_self_s(layer) for s in both) / 2
                  for layer in tracer.LAYERS}
    wall_plain = sum(sum(t.samples) for t in plain) / 2
    wall_traced = sum(sum(t[0].samples) for t in traced) / 2
    m = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    m.update({
        "cli.calls": spans.calls("cli.main"),
        "expressions.parse.self_s": self_s("expressions.parse"),
        "expressions.resolve.self_s": self_s("expressions.resolve"),
        "expressions.resolve.calls": spans.calls("expressions.resolve"),
        "expressions.resolve.rank": sizes["rank"],
        "expressions.resolve.max_rank": sizes["max_rank"],
        "expressions.resolve.b1": sizes["b1"],
        "expressions.resolve.cup_entries": sizes["cup_entries"],
        "expressions.resolve.form_nnz": sizes["form_nnz"],
        "manifolds.generators.self_s": sum(self_s(f"manifolds.{g}") for g in tracer.GENERATORS),
        "manifolds.connected_sum.self_s": self_s("manifolds.connected_sum"),
        "manifolds.connected_sum.calls": spans.calls("manifolds.connected_sum"),
        "manifolds.connected_sum.cells": spans.connected_sum_cells,
        "lattice.determinant.self_s": self_s("lattice.determinant"),
        "lattice.determinant.calls": spans.calls("lattice.determinant"),
        "lattice.determinant.max_rank": spans.determinant_max_rank,
        "lattice.inertia.self_s": self_s("lattice.inertia"),
        "lattice.inertia.calls": spans.calls("lattice.inertia"),
        "lattice.inertia.cache_hit_ratio": sizes["cache_hit_ratio"],
        "lattice.pairing.self_s": self_s("lattice.pairing"),
        "lattice.pairing.calls": spans.calls("lattice.pairing"),
        "lattice.direct_sum.self_s": self_s("lattice.direct_sum"),
        "lattice.is_characteristic.self_s": self_s("lattice.is_characteristic"),
        "spinc.cup_pairing_matrix.calls": spans.calls("spinc.cup_pairing_matrix"),
        "spinc.spin_condition.calls": spans.calls("spinc.spin_condition"),
        "bordism.certify_family.calls": spans.calls("bordism.certify_family"),
        "obstructions.hitchin_thorpe.calls": spans.calls("obstructions.hitchin_thorpe"),
        "report.to_json.self_s": self_s("report.to_json"),
        "report.output_bytes": tally.output_bytes,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.wall_s": wall_plain,
        "trace.traced_wall_s": wall_traced,
        "trace.self_sum_s": sum(layer_self.values()),
    })
    passes = [t for t in plain] + [t[0] for t in traced]
    counts_repeat = traced[0][2].stats.keys() == traced[1][2].stats.keys() and all(
        traced[0][2].calls(k) == traced[1][2].calls(k) for k in traced[0][2].stats)
    return {
        "attempted": sum(len(t.samples) for t in passes),
        "failed": sum(t.failed for t in passes),
        "metrics": m,
        "failures": [f for t in passes for f in t.failures][:MAX_FAILURES_KEPT],
        "pass_walls_s": [sum(t.samples) for t in passes],
        "wrappers_untraced": wrappers_untraced,
        "counts_repeat": counts_repeat,
        "functions": {key: {"self_s": s, "calls": c} for key, (s, c) in spans.stats.items()},
        "warmup": {"attempted": len(warm.samples), "failed": warm.failed,
                   "failures": warm.failures},
        "oracle_self_check": self_check,
    }


def selfcheck() -> dict:
    warm, rejection = warm_up()
    untraced = tracer.installed_wrappers()
    replaced = tracer.Tracer().install()
    return {"warmup_failed": warm.failed, "oracle": rejection,
            "wrappers_untraced": untraced, "bindings_wrapped_when_traced": replaced,
            "wrappers_traced": tracer.installed_wrappers()}


def main() -> None:
    if not os.path.abspath(fourfold.cli.__file__).startswith(os.path.abspath(SRC) + os.sep):
        sys.exit(f"fourfold was imported from {fourfold.cli.__file__}, not from {SRC}")
    mode = sys.argv[2]
    if mode == "setup":
        return
    signal.signal(signal.SIGALRM, _on_alarm)
    if mode == "selfcheck":
        result = selfcheck()
    else:
        workload, seed, tmpdir = sys.argv[3], int(sys.argv[4]), sys.argv[6]
        if mode == "run":
            result = run(workload, seed, float(sys.argv[5]), tmpdir)
        else:
            result = trace(workload, seed, tmpdir)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
