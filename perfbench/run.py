"""sulcikit benchmark: one workload per run, outputs checked, metrics on stdout.

Run from the root of a sulcikit checkout:

    python3 perfbench/run.py --workload generate-headcrop --seed 1 --seconds 12 --trace 0

Workloads (see workloads.py): generate-headcrop, evaluate-headcrop,
train-prep. The run imports sulcikit from ./src, sets up the workload's
fixed inputs SETUP_REPEATS times, then runs items until ``--seconds`` have
passed (at least WARMUP + 1), checking every output. The first WARMUP items
are checked but left out of the timings.

``--trace 0`` reports the end-to-end metrics: setup_s (the median import
of sulcikit, this one and SETUP_REPEATS - 1 in fresh interpreters, plus the
median set-up), peak_rss_mib (the process's peak, set-up and input
preparation included), item_s_p50 (median seconds per item: per sample,
per pair or per step) and items_per_s (items over their summed seconds).
``--trace 1`` repeats the same items through traced mirrors, then fills
the layers this workload does not load from one traced item of every other
workload at phantom size, and reports the per-layer metrics and the trace
overhead of each end-to-end timing.
Human-readable lines come first; the last stdout line is one JSON object.
Results, the environment and (traced) spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3
WARMUP = 1  # items run and checked before the timed ones
# end-to-end timings whose trace overhead is reported
TIMINGS = ("item_s_p50", "postprocess_s_p50", "evaluate_s_p50", "aggregate_s")
OUT_DIR = Path(".perfbench_out")
# workloads.WORKLOADS' keys, listed here so that parsing arguments imports no numpy
WORKLOAD_NAMES = ("generate-headcrop", "evaluate-headcrop", "train-prep")
# What item_s_p50 and items_per_s measure on each workload, as named in the report.
ITEM_NAMES = {
    "generate-headcrop": ("sample_s_p50", "samples_per_s"),
    "evaluate-headcrop": ("pair_s_p50", "pairs_per_s"),
    "train-prep": ("step_s_p50", "steps_per_s"),
}


def prepare_environment() -> None:
    """Pin native thread pools to one thread and import sulcikit from ./src only."""
    if not (Path("src") / "sulcikit" / "__init__.py").is_file():
        raise SystemExit("perfbench: run from the root of a sulcikit checkout (no src/sulcikit)")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SULCIKIT_JOBS", None)  # the CLI lets it override --jobs
    sys.path.insert(0, str(Path("src").resolve()))


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    head = Path(".git") / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "memory_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2.0**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import sulcikit and the benchmark's modules."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import sulcikit, tracing, workloads; print(time.perf_counter() - t)")
    here = str(Path(__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", code, str(Path("src").resolve()), here],
                         check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def run_items(wl, n_items, seconds, tr, checks, log):
    """Run exactly ``n_items`` items, or with ``n_items=0`` as many as fit in ``seconds``.

    The warm-up items and one more always run; a further one starts only if,
    taking as long as the previous one, it would end within ``seconds``, so
    the run length stays near ``seconds`` even when one item takes most of it. Returns one
    entry per item (None when it raised or failed a check) and counts of items
    attempted and failed.
    """
    done, attempted, failed = [], 0, 0
    start = time.perf_counter()
    elapsed = took = 0.0
    i = 0
    while (i < n_items) if n_items else (i <= WARMUP or elapsed + took <= seconds):
        t = time.perf_counter()
        attempted += 1
        before = checks.failures
        try:
            result = wl.item(i, tr, checks)
        except Exception:  # an item that raises is a failed operation; keep measuring
            log(traceback.format_exc())
            result = None
        if result is None or checks.failures != before:
            failed += 1
            done.append(None)
        else:
            done.append(result)
        i += 1
        took = time.perf_counter() - t
        elapsed = time.perf_counter() - start
    return done, attempted, failed


def summarize(items, finish_timings) -> dict:
    """Medians of every timing key over the items after the warm-up, plus throughput."""
    ok = [it for it in items[WARMUP:] if it is not None]
    out = {"n_items": len(ok)}
    if not ok:
        return out
    for key in ok[0].timings:
        out[f"{key}_p50"] = statistics.median(it.timings[key] for it in ok)
    out["items_per_s"] = len(ok) / sum(it.timings["item_s"] for it in ok)
    out.update(finish_timings)
    return out


def run_phase(wl, n_items, seconds, tr, checks, log):
    items, attempted, failed = run_items(wl, n_items, seconds, tr, checks, log)
    before = checks.failures
    try:
        finish = wl.finish(tr, checks)
        ok = checks.failures == before
    except Exception:
        log(traceback.format_exc())
        finish, ok = {}, False
    if finish is not None:
        attempted, failed = attempted + 1, failed + (not ok)
    return items, attempted, failed, finish or {}


def traced_replay(wl, untraced, tr, checks, log):
    """Re-run the untraced items through the traced mirrors; outputs must match bitwise."""
    import tracemalloc

    tracemalloc.start()
    try:
        traced, attempted, failed, finish = run_phase(wl, len(untraced), 0, tr, checks, log)
    finally:
        tracemalloc.stop()
    for a, b in zip(untraced, traced):
        if a is not None and b is not None:
            failed += not checks(f"mirror_equal_{wl.name}", a.fingerprint == b.fingerprint)
    return traced, attempted, failed, finish


def run_workload(name, seed, seconds, trace, work_dir, shape=None, log=None):
    """One benchmark run in this process. Returns the result document."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    t0 = time.perf_counter()
    import sulcikit
    import tracing
    import workloads
    imports = [time.perf_counter() - t0] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    import_s = statistics.median(imports)
    src = Path("src").resolve()
    if Path(sulcikit.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported sulcikit from {sulcikit.__file__}, not {src}")

    cls = workloads.WORKLOADS[name]
    loads = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = cls(seed, work_dir / name, shape)
        wl.setup()
        loads.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(loads)

    checks = workloads.Checks()
    null = tracing.NullTracer()
    untraced, attempted, failed, finish = run_phase(wl, 0, seconds, null, checks, log)
    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "shape": list(wl.shape), "setup_s": setup_s, "import_s": import_s,
        "imports_s": imports, "setup_loads_s": loads,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "untraced": summarize(untraced, finish),
    }
    if trace:
        tr = tracing.Tracer()
        traced, a, f, finish = traced_replay(wl, untraced, tr, checks, log)
        attempted, failed = attempted + a, failed + f
        doc["traced"] = summarize(traced, finish)
        doc["trace_overhead_s"] = {
            k: doc["traced"][k] - v for k, v in doc["untraced"].items()
            if k in TIMINGS and k in doc["traced"]
        }
        sweeps = []
        for other in workloads.WORKLOADS.values():
            if other is cls:
                continue
            sw = other(seed, work_dir / f"sweep-{other.name}", workloads.PHANTOM_SHAPE)
            sw.setup()
            items, a, f, _ = run_phase(sw, 1, 0, null, checks, log)
            sweep_tr = tracing.Tracer()
            _, a2, f2, _ = traced_replay(sw, items, sweep_tr, checks, log)
            attempted, failed = attempted + a + a2, failed + f + f2
            size = "x".join(map(str, workloads.PHANTOM_SHAPE))
            sweeps.append((f"sweep:{other.name}@{size}", sweep_tr))
        doc["per_layer"] = tracing.layer_metrics(tr, sweeps)
        doc["counts"] = tracing.item_counts(tr)
        doc["spans"] = [("workload", tr)] + sweeps
    doc["checks"] = checks.results
    doc["attempted"], doc["failed"] = attempted, failed
    doc["correct"] = failed == 0 and checks.failures == 0
    return doc


def end_to_end(doc) -> dict:
    u = doc["untraced"]
    return {
        "setup_s": {"value": doc["setup_s"], "unit": "s"},
        "peak_rss_mib": {"value": doc["peak_rss_mib"], "unit": "MiB"},
        "item_s_p50": {"value": u["item_s_p50"], "unit": "s"},
        "items_per_s": {"value": u["items_per_s"], "unit": "1/s"},
    }


def report(doc, env) -> list[str]:
    """Human-readable lines: every metric by name with unit and sample count."""
    name = doc["workload"]
    u = doc["untraced"]
    shape = "x".join(map(str, doc["shape"]))
    lines = [f"perfbench {name} seed={doc['seed']} trace={doc['trace']} shape={shape}",
             "env " + json.dumps(env, sort_keys=True),
             f"metric setup_s = {doc['setup_s']:.6f} s (median of {SETUP_REPEATS} imports,"
             f" {doc['import_s']:.6f} s, + median of {SETUP_REPEATS} set-ups)",
             f"metric peak_rss_mib = {doc['peak_rss_mib']:.3f} MiB (process peak, set-up and input"
             " preparation included)"]
    p50_name, rate_name = ITEM_NAMES[name]
    n = u.get("n_items", 0)
    if n:
        lines.append(f"metric {p50_name} = item_s_p50 = {u['item_s_p50']:.6f} s (n={n})")
        lines.append(f"metric {rate_name} = items_per_s = {u['items_per_s']:.6f} 1/s (n={n})")
        for key in ("postprocess_s_p50", "evaluate_s_p50"):
            if key in u:
                lines.append(f"metric {key} = {u[key]:.6f} s (n={n})")
        if "aggregate_s" in u:
            lines.append(f"metric aggregate_s = {u['aggregate_s']:.6f} s (n=1)")
    lines.append(f"metric error_rate = {doc['failed'] / max(doc['attempted'], 1):.6f}"
                 f" ({doc['failed']} failed of {doc['attempted']} attempted)")
    for check, (passed, total) in sorted(doc["checks"].items()):
        lines.append(f"check {check}: {passed}/{total} passed")
    if doc["trace"]:
        for key, delta in sorted(doc["trace_overhead_s"].items()):
            base = u[key]
            lines.append(f"trace_overhead {key} = {delta:+.6f} s ({100.0 * delta / base:+.2f}%)")
        for metric, (value, unit, count, source) in doc["per_layer"].items():
            lines.append(f"layer {metric} = {value:.6f} {unit} (n={count}, from {source})")
        for name, value in doc["counts"].items():
            kind = "computed" if name.endswith("bytes_computed") else "exact"
            lines.append(f"count {name} = {value} (item 0, {kind})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not doc["untraced"].get("n_items"):
        print("perfbench: no item completed; no result", file=sys.stderr)
        return 1

    import tracing

    env = environment()
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = doc.pop("spans", [])
    if spans:
        span_path = Path(f"{stem}.spans.jsonl")
        span_path.unlink(missing_ok=True)
        for source, tr in spans:
            tr.write(span_path, source)
    Path(f"{stem}.json").write_text(json.dumps(dict(doc, env=env), indent=2, sort_keys=True))
    for line in report(doc, env):
        print(line)
    if args.trace:
        metrics = {m: {"value": v[0], "unit": v[1]} for m, v in doc["per_layer"].items()}
        missing = {m for m, *_ in tracing.PER_LAYER} - set(metrics)
        if missing:
            print(f"perfbench: per-layer metrics not measured: {sorted(missing)}", file=sys.stderr)
            return 1
    else:
        metrics = end_to_end(doc)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
