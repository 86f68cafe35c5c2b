"""In-memory spans for the traced benchmark run, and the per-layer metrics made from them.

A span is (id, name, start, end, parent, item, counts). Spans are recorded
from the benchmark's own code around calls into sulcikit's public functions;
nothing inside the package is instrumented. Every span a per-layer metric
reads is a leaf, so its duration is also its self time, except cli.generate
and cli.write, whose busy time includes the synth and nifti spans inside.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager

MIB = 1024.0 * 1024.0

SYNTH_STAGES = (
    "affine", "elastic", "deform", "substitute", "intensities", "blur", "bias", "normalize",
)

# (metric, unit, better, span name, what to sum per item)
# "ms" sums span durations; any other key sums that count from the spans.
PER_LAYER = (
    [(f"synth.{s}_ms", "ms", "lower", f"synth.{s}", "ms") for s in SYNTH_STAGES]
    + [(f"synth.{s}_peak_mib", "MiB", "lower", f"synth.{s}", "peak_mib") for s in SYNTH_STAGES]
    + [
        ("nifti.write_ms", "ms", "lower", "nifti.write", "ms"),
        ("nifti.read_ms", "ms", "lower", "nifti.read", "ms"),
        ("nifti.bytes_written", "bytes", "lower", "nifti.write", "bytes"),
        ("volume.crop_ms", "ms", "lower", "volume.crop", "ms"),
        ("volume.resample_trilinear_ms", "ms", "lower", "volume.resample_trilinear", "ms"),
        ("volume.resample_nearest_ms", "ms", "lower", "volume.resample_nearest", "ms"),
        ("volume.binarize_ms", "ms", "lower", "volume.binarize", "ms"),
        ("losses.soft_dice_loss_ms", "ms", "lower", "losses.soft_dice_loss", "ms"),
        ("losses.tversky_loss_ms", "ms", "lower", "losses.tversky_loss", "ms"),
        ("losses.seg_loss_grad_dice_ms", "ms", "lower", "losses.seg_loss_grad_dice", "ms"),
        ("losses.seg_loss_grad_tversky_ms", "ms", "lower", "losses.seg_loss_grad_tversky", "ms"),
        ("losses.contrastive_loss_ms", "ms", "lower", "losses.contrastive_loss", "ms"),
        ("losses.contrastive_loss_grad_ms", "ms", "lower", "losses.contrastive_loss_grad", "ms"),
        ("postproc.dilate_ms", "ms", "lower", "postproc.dilate", "ms"),
        ("postproc.components_ms", "ms", "lower", "postproc.components", "ms"),
        ("postproc.raw_components", "count", "lower", "postproc.components", "raw_components"),
        ("postproc.kept_fraction", "ratio", "higher", "postproc.keep", "kept_fraction"),
        ("metrics.dice_ms", "ms", "lower", "metrics.dice", "ms"),
        ("metrics.hausdorff_ms", "ms", "lower", "metrics.hausdorff", "ms"),
        ("metrics.surface_ms", "ms", "lower", "metrics.surface", "ms"),
        ("metrics.volume_ms", "ms", "lower", "metrics.volume", "ms"),
        ("metrics.aggregate_ms", "ms", "lower", "metrics.aggregate", "ms"),
        ("cli.generate_busy_ms", "ms", "lower", "cli.generate", "ms"),
        ("cli.write_busy_ms", "ms", "lower", "cli.write", "ms"),
        ("cli.thread_utilization", "ratio", "higher", "cli.main", "utilization"),
    ]
)


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    enabled = False

    @contextmanager
    def span(self, name, item, memory=False, parent=None):
        yield {}

    def current(self):
        return None


class Tracer:
    """Records spans in memory; thread-safe, with a per-thread parent stack.

    With ``memory=True`` and tracemalloc running, the span also records the
    peak traced allocation above the level at entry, in MiB. That peak is
    process-wide, so use it only where one thread does the work.
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name, item, memory=False, parent=None):
        """Time the block; the parent defaults to this thread's innermost open span."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        counts: dict = {}
        memory = memory and tracemalloc.is_tracing()
        if memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            if memory:
                counts["peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
            record = {
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "item": item, "counts": counts,
            }
            with self._lock:
                self.spans.append(record)

    def _stack(self) -> list:
        return self._local.__dict__.setdefault("stack", [])

    def current(self):
        """Id of this thread's innermost open span, to parent spans made in other threads."""
        stack = self._stack()
        return stack[-1] if stack else None

    def busy_ms(self, name, parent) -> float:
        """Summed duration of the spans called ``name`` under span ``parent``."""
        with self._lock:
            return 1000.0 * sum(
                s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["parent"] == parent
            )

    def per_item(self, name, key) -> list[float]:
        """Per item, the sum over spans called ``name`` of ``key`` ("ms" or a count)."""
        totals: dict = {}
        for s in self.spans:
            if s["name"] != name:
                continue
            value = 1000.0 * (s["end"] - s["start"]) if key == "ms" else s["counts"].get(key)
            if value is not None:
                totals[s["item"]] = totals.get(s["item"], 0.0) + value
        return list(totals.values())

    def write(self, path, source: str) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, source=source), sort_keys=True) + "\n")


# Counts that are measurements, not exact repeats of the same seed's work.
MEASURED_COUNTS = {"peak_mib", "utilization"}


def item_counts(tracer: Tracer, item=0) -> dict:
    """Per span name and count key, the sum over one item's spans.

    These repeat exactly for a given seed on any machine, so two commits can
    be compared on them; ``bytes_computed`` is an estimate (bytes of the
    arrays a stage reads and writes), the others are observed.
    """
    out: dict = {}
    for s in tracer.spans:
        if s["item"] != item:
            continue
        for key, value in s["counts"].items():
            if key not in MEASURED_COUNTS:
                name = f"{s['name']}.{key}"
                out[name] = out.get(name, 0) + value
    return dict(sorted(out.items()))


def layer_metrics(main: Tracer, sweeps: list[tuple[str, Tracer]]):
    """Median per item of every per-layer metric.

    A metric is read from the workload's own traced items when they produce
    its spans, and otherwise from the first sweep that does. Returns
    ``{metric: (value, unit, n_items, source)}``.
    """
    out = {}
    for metric, unit, _better, name, key in PER_LAYER:
        for source, tracer in [("workload", main)] + sweeps:
            values = tracer.per_item(name, key)
            if values:
                out[metric] = (statistics.median(values), unit, len(values), source)
                break
    return out
