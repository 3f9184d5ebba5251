"""The trajectory file that ``tools/trajectory.py`` writes: its entries are
built from fixture run records here, without running the bench, and every
``BENCH_*.json`` checked in at the root has the same shape."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import trajectory  # noqa: E402

END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def check_workload(entry):
    """One commit's entry for one workload: a summary of every end-to-end
    metric over the runs that exited 0, every run, and the failed runs."""
    assert set(entry) == {"metrics", "runs", "failed"}
    passed = [run for run in entry["runs"] if run["exit_code"] == 0]
    failed = [run for run in entry["runs"] if run["exit_code"] != 0]
    for run in passed:
        assert set(run) == {"seed", "exit_code", "correct", "metrics", "speed_samples"}
        assert set(run["metrics"]) == END_TO_END
        assert isinstance(run["speed_samples"], int)
    for run in failed:
        assert set(run) == {"seed", "exit_code", "stderr"}
    assert entry["failed"] == failed
    assert set(entry["metrics"]) == (END_TO_END if passed else set())
    for name, summary in entry["metrics"].items():
        values = sorted(run["metrics"][name] for run in passed)
        assert summary["runs"] == len(values)
        assert values[0] <= summary["median"] <= values[-1]
        if len(values) > 1:
            assert summary["q1"] <= summary["median"] <= summary["q3"]
        else:
            assert summary["q1"] is summary["q3"] is None


def check_file(doc):
    assert set(doc) == {"machine", "python", "command", "seeds", "commits"}
    assert {"platform", "machine", "nproc"} <= set(doc["machine"])
    for side in doc["commits"]:
        assert set(side) == {"commit", "ref", "workloads"}
        assert len(side["commit"]) == 40
        for entry in side["workloads"].values():
            check_workload(entry)
            assert sorted(run["seed"] for run in entry["runs"]) == sorted(doc["seeds"])


def write_record(path, requests_per_s, samples):
    metrics = {name: {"value": 1.0, "unit": "x"} for name in END_TO_END}
    metrics["requests_per_s"]["value"] = requests_per_s
    path.write_text(json.dumps({
        "line": {"correct": True, "metrics": metrics},
        "child": {"speed": {"samples": samples}},
    }))


def test_runs_are_read_from_their_records_and_summarized(tmp_path):
    runs = []
    for seed, (rate, samples) in enumerate([(900.0, 2), (1000.0, 4), (800.0, 3)]):
        record = tmp_path / f"scan-seed{seed}-trace0.json"
        write_record(record, rate, samples)
        runs.append(trajectory.read_run(record, seed, 0, ""))
    runs.append(trajectory.read_run(tmp_path / "missing.json", 3, 1,
                                    "record: x\nstatistics.StatisticsError: need 2\n"))
    entry = trajectory.summarize(runs)
    check_workload(entry)
    assert [run["speed_samples"] for run in entry["runs"][:3]] == [2, 4, 3]
    assert entry["metrics"]["requests_per_s"]["median"] == 900.0
    assert entry["metrics"]["requests_per_s"]["runs"] == 3
    assert entry["failed"] == [
        {"seed": 3, "exit_code": 1, "stderr": "statistics.StatisticsError: need 2"}
    ]


def test_a_single_run_has_no_quartiles(tmp_path):
    record = tmp_path / "r.json"
    write_record(record, 500.0, 2)
    entry = trajectory.summarize([trajectory.read_run(record, 7, 0, "")])
    check_workload(entry)
    assert entry["metrics"]["requests_per_s"] == {"median": 500.0, "q1": None, "q3": None,
                                                  "runs": 1}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_checked_in_trajectories_have_the_shape(path):
    check_file(json.loads(path.read_text()))
