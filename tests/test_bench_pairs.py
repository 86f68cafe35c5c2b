import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_seeds_spans_first_to_last(bench_pairs):
    assert bench_pairs.workload_seeds("train-prep:5-7") == ("train-prep", [5, 6, 7])


@pytest.mark.parametrize("spec", ["train-prep:5-5", "train-prep:6-5", "train-prep", ":1-2"])
def test_workload_seeds_rejects_fewer_than_two_pairs(bench_pairs, spec):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.workload_seeds(spec)


def test_summary_totals_each_sides_operations(bench_pairs):
    runs = [
        {"side": side, "attempted": attempted, "failed": failed, "item_s_p50": value}
        for side, attempted, failed, value in [
            ("parent", 10, 0, 0.2), ("change", 12, 1, 0.1),
            ("change", 11, 2, 0.3), ("parent", 9, 0, 0.2),
        ]
    ]
    summary = bench_pairs.summarize(runs, {"item_s_p50": "lower"})
    assert summary["operations"] == {"parent": {"attempted": 19, "failed": 0},
                                     "change": {"attempted": 23, "failed": 3}}
    assert summary["item_s_p50"]["change_wins"] == "1/2"


def test_failed_run_keeps_runs_made_so_far(bench_pairs, tmp_path, monkeypatch):
    """The third run fails: the file still holds the first two and names the third."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 30, "end_to_end": [{"name": "item_s_p50", "better": "lower"}]}))
    monkeypatch.chdir(tmp_path)

    def extract(rev, into):
        (into / "tree").mkdir()
        return "0123456789abcdef"

    calls = []

    def fake_run(command, cwd, **kwargs):
        calls.append((command, Path(cwd)))
        if len(calls) == 3:
            return subprocess.CompletedProcess(command, 1, "", "boom\n")
        out = {"attempted": 4, "failed": 0, "metrics": {"item_s_p50": {"value": 0.1}}}
        return subprocess.CompletedProcess(command, 0, json.dumps(out) + "\n", "")

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--parent", "HEAD~1", "--name", "t",
                             "--workload", "train-prep:1-3"]) == 1

    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = doc["workloads"]["train-prep"]["runs"]
    assert [(r["side"], r["seed"]) for r in runs] == [("parent", 1), ("change", 1)]
    assert doc["failed"] == {"workload": "train-prep", "side": "change", "seed": 2,
                             "trace": 0, "returncode": 1}
    assert all(command[command.index("--seconds") + 1] == "30" for command, _ in calls)
    # The parent tree sits beside the checkout, on the same filesystem.
    assert calls[0][1].parent.parent == tmp_path.parent
    assert calls[1][1] == tmp_path
