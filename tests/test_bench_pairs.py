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
    summary = bench_pairs.summarize(runs, [{"name": "item_s_p50", "better": "lower",
                                            "bound": 0.25}])
    assert summary["operations"] == {"parent": {"attempted": 19, "failed": 0},
                                     "change": {"attempted": 23, "failed": 3}}
    assert summary["item_s_p50"]["change_wins"] == "1/2"


def _alternating(parent, change, metric="item_s_p50"):
    runs = []
    for p, c in zip(parent, change):
        runs += [{"side": "parent", "attempted": 1, "failed": 0, metric: p},
                 {"side": "change", "attempted": 1, "failed": 0, metric: c}]
    return runs


@pytest.mark.parametrize(
    "better, parent, change, worse_by, expected",
    [
        # medians 1.0 -> 1.1: 10 % slower, within the 25 % bound
        ("lower", [0.98, 1.0, 1.02, 0.99, 1.01], [1.08, 1.1, 1.12, 1.09, 1.11], 0.1, "ok"),
        # medians 1.0 -> 1.5: 50 % slower, past the bound
        ("lower", [0.98, 1.0, 1.02, 0.99, 1.01], [1.48, 1.5, 1.52, 1.49, 1.51], 0.5, "worse"),
        # a rate that halves is worse by 50 %
        ("higher", [9.8, 10.0, 10.2, 9.9, 10.1], [4.8, 5.0, 5.2, 4.9, 5.1], 0.5, "worse"),
        # parent quartiles 0.5..1.5 around a median of 1.0: spread 100 % > 25 %
        ("lower", [0.4, 0.5, 1.0, 1.5, 1.6], [1.0, 1.1, 1.2, 1.3, 1.4], 0.2, "unresolved"),
        # the same spread, but every change run beats every parent run
        ("lower", [0.4, 0.5, 1.0, 1.5, 1.6], [0.1, 0.2, 0.3, 0.2, 0.1], -0.8, "ok"),
    ],
    ids=["ok", "worse", "worse-higher", "unresolved", "wide-but-every-run-wins"],
)
def test_summary_gives_the_gate_verdict(bench_pairs, better, parent, change, worse_by, expected):
    summary = bench_pairs.summarize(_alternating(parent, change),
                                    [{"name": "item_s_p50", "better": better, "bound": 0.25}])
    row = summary["item_s_p50"]
    assert row["worse_by"] == pytest.approx(worse_by)
    assert row["verdict"] == expected


def _fake_runs(bench_pairs, tmp_path, monkeypatch, third):
    """Runs in ``tmp_path`` that each time 0.1 s, but the third returns ``third``:
    ``(returncode, stdout)``. Returns the list of calls made."""
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
            return subprocess.CompletedProcess(command, third[0], third[1], "boom\n")
        out = {"correct": True, "attempted": 4, "failed": 0,
               "metrics": {"item_s_p50": {"value": 0.1}}}
        return subprocess.CompletedProcess(command, 0, json.dumps(out) + "\n", "")

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    return calls


def test_failed_run_keeps_runs_made_so_far(bench_pairs, tmp_path, monkeypatch):
    """The third run fails: the file still holds the first two and names the third."""
    calls = _fake_runs(bench_pairs, tmp_path, monkeypatch, (1, ""))
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


def test_incorrect_run_is_a_failed_run(bench_pairs, tmp_path, monkeypatch):
    """A run that exits 0 but reports ``"correct": false`` is not summarised as timing."""
    incorrect = {"correct": False, "attempted": 4, "failed": 0,
                 "metrics": {"item_s_p50": {"value": 0.01}}}
    _fake_runs(bench_pairs, tmp_path, monkeypatch, (0, json.dumps(incorrect) + "\n"))
    assert bench_pairs.main(["--parent", "HEAD~1", "--name", "t",
                             "--workload", "train-prep:1-3"]) == 1

    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    workload = doc["workloads"]["train-prep"]
    assert "summary" not in workload
    assert [(r["side"], r["seed"]) for r in workload["runs"]] == [("parent", 1), ("change", 1)]
    assert doc["failed"] == {"workload": "train-prep", "side": "change", "seed": 2,
                             "trace": 0, "returncode": 0, "correct": False}
