"""Alternating parent/change benchmark pairs, written as one BENCH_<name>.json.

Run from the root of a sulcikit checkout (the change side), naming the
parent commit:

    python3 tools/bench_pairs.py --parent HEAD~1 --name deflate_policy \\
        --workload generate-headcrop:41-50 --workload evaluate-headcrop:41-46

The parent's files are extracted with ``git archive`` into a temporary
directory beside the checkout, so the working tree is left alone and both
sides import their code and write perfbench's work files on the same
filesystem. For each workload, pair k runs ``perfbench/run.py --trace 0``
once in each checkout on seed k, for BENCHMARK.json's ``run_seconds``, the
parent first in odd pairs and the change first in even ones. Each side runs
its own ``perfbench/``. The summary gives each end-to-end metric's median and
quartiles per side and how many pairs the change won (ties count for
neither side); the direction of "better" and the bound come from
BENCHMARK.json. It also gives ``worse_by``, the relative change of the
median (positive when worse), and a ``verdict`` against the bound: ``ok``,
``worse`` (``worse_by`` past the bound) or ``unresolved`` (the parent's
quartile spread, relative to its median, is wider than the bound, and not
every change run beats every parent run). Under
``operations`` it gives each side's total operations attempted and failed
over its runs.
``--trace-seed S`` adds one traced run per side and workload on seed S,
whose per-layer metrics land under ``layers``. A run fails when it exits
non-zero or its last line reads ``"correct": false`` (a check of its
outputs failed, so its timings are not evidence). If a run fails, the file
is still written, with every run made so far and the failed one under
``failed``, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path


def workload_seeds(spec: str) -> tuple[str, list[int]]:
    """``name:first-last`` -> (name, seeds first..last); quartiles need two pairs."""
    name, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    if not (name and first.isdigit() and last.isdigit() and int(first) < int(last)):
        raise argparse.ArgumentTypeError(
            f"expected NAME:FIRST-LAST with FIRST < LAST, got {spec!r}")
    return name, list(range(int(first), int(last) + 1))


def extract(rev: str, into: Path) -> str:
    """Write the files of commit ``rev`` under ``into``; returns its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = into / "parent.tar"
    subprocess.run(["git", "archive", "--output", str(archive), commit], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()
    return commit


class RunFailed(Exception):
    """A perfbench run exited non-zero or reported ``"correct": false``; ``args[0]``
    is its record."""


def run(sides: dict[str, Path], side: str, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One perfbench run in ``sides[side]``; its final stdout line, parsed.

    A run whose checks failed is not timing evidence: it fails as a crash does.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=sides[side], capture_output=True, text=True,
    )
    record = {"workload": workload, "side": side, "seed": seed, "trace": trace,
              "returncode": done.returncode}
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RunFailed(record)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        sys.stderr.write(done.stdout)
        raise RunFailed({**record, "correct": False})
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], sign: float, bound: float) -> dict:
    """``worse_by`` and ``verdict`` of one metric; ``sign`` is +1 when higher is better."""
    p, c = spread(parent), spread(change)
    worse_by = sign * (p["median"] - c["median"]) / p["median"]
    clear_win = min(sign * v for v in change) > max(sign * v for v in parent)
    if (p["q3"] - p["q1"]) / p["median"] > bound and not clear_win:
        return {"worse_by": worse_by, "verdict": "unresolved"}
    return {"worse_by": worse_by, "verdict": "worse" if worse_by > bound else "ok"}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per BENCHMARK.json end-to-end metric: each side's median and quartiles,
    the change's wins over pairs, ``worse_by`` and the ``verdict``.

    Under ``operations``: each side's total operations attempted and failed.
    """
    parent = [r for r in runs if r["side"] == "parent"]
    change = [r for r in runs if r["side"] == "change"]
    summary = {"operations": {
        side: {key: sum(r[key] for r in rows) for key in ("attempted", "failed")}
        for side, rows in (("parent", parent), ("change", change))
    }}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        before, after = [r[name] for r in parent], [r[name] for r in change]
        wins = sum(sign * (c - p) > 0 for p, c in zip(before, after))
        summary[name] = {
            "parent": spread(before),
            "change": spread(after),
            "change_wins": f"{wins}/{len(parent)}",
            **verdict(before, after, sign, metric["bound"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--workload", action="append", required=True, type=workload_seeds,
                        metavar="NAME:FIRST-LAST", help="a workload and its pair seeds")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also record one traced run per side and workload")
    args = parser.parse_args(argv)

    change = Path.cwd()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    described = ", ".join(f"seeds {s[0]}-{s[-1]} ({n})" for n, s in args.workload)
    doc = {
        "what": f"perfbench/run.py --seconds {seconds:g} --trace 0, alternating parent and"
                f" change runs (odd pairs parent first), {described}"
                + ("" if args.trace_seed is None else
                   f"; layers: one --trace 1 run per side on seed {args.trace_seed}"),
        "parent": None,
        "host": f"{os.cpu_count()}-vCPU {platform.system()}, CPython"
                f" {platform.python_version()}, numpy {metadata.version('numpy')}, scipy"
                f" {metadata.version('scipy')}, native thread pools pinned to 1 thread by"
                " perfbench",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=change.parent, prefix="bench_pairs-") as tmp:
        doc["parent"] = extract(args.parent, Path(tmp))[:7]
        sides = {"parent": Path(tmp) / "tree", "change": change}
        try:
            for name, seeds in args.workload:
                runs = []
                doc["workloads"][name] = {"runs": runs}
                for k, seed in enumerate(seeds, start=1):
                    order = ("parent", "change") if k % 2 else ("change", "parent")
                    for side in order:
                        out = run(sides, side, name, seed, seconds, 0)
                        runs.append({"side": side, "seed": seed, "attempted": out["attempted"],
                                     "failed": out["failed"],
                                     **{m: out["metrics"][m]["value"] for m in better}})
                        print(f"{name} seed {seed} {side}: "
                              + " ".join(f"{m}={runs[-1][m]:.4f}" for m in better), flush=True)
                doc["workloads"][name] = {"summary": summarize(runs, bench["end_to_end"]),
                                          "runs": runs}
                if args.trace_seed is not None:
                    doc["workloads"][name]["layers"] = {
                        side: {m: v["value"] for m, v in
                               run(sides, side, name, args.trace_seed, seconds, 1)
                               ["metrics"].items()}
                        for side in ("parent", "change")
                    }
        except RunFailed as failure:
            doc["failed"] = failure.args[0]
    out = change / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    if "failed" in doc:
        print(f"bench_pairs: run failed: {doc['failed']}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
