"""Fast self-test of the benchmark at phantom size (48x48x40), under a minute on 2 cores.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at phantom size and
requires every output check and mirror-equality check to pass and every
metric to be reported. It then shows that each check rejects a corrupted
output, including a traced mirror that drifts from the real call. Exits 0
when all of that holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import run

EXPECTED_CHECKS = {
    "nifti_readback_equal", "image_in_unit_range", "seg_labels_from_source",
    "cli_exit_ok", "cli_manifest_complete", "jobs2_bytes_equal_serial",
    "postprocess_subset_of_input", "inputs_nonempty",
    "hausdorff_vs_scipy", "dice_vs_counts", "volume_vs_counts", "aggregate_matches_pairs",
    "crop_offsets_agree", "resample_shapes", "resampled_labels_from_source",
    "tversky_half_equals_dice_bitwise", "losses_finite_in_range",
    "contrastive_grad_orthogonal",
} | {f"mirror_equal_{name}" for name in run.WORKLOAD_NAMES}


def workload_runs(work: Path, expect) -> None:
    import tracing
    import workloads

    expect(list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS), "workload names disagree")
    seen = set()
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            doc = run.run_workload(name, 7, 0, trace, work / f"{name}-{trace}",
                                   shape=workloads.PHANTOM_SHAPE, log=print)
            tag = f"{name} trace={trace}"
            expect(doc["correct"] and doc["failed"] == 0, f"{tag}: not correct: {doc['checks']}")
            expect(all(p == t for p, t in doc["checks"].values()), f"{tag}: a check failed")
            seen |= set(doc["checks"])
            if trace:
                missing = {m for m, *_ in tracing.PER_LAYER} - set(doc["per_layer"])
                expect(not missing, f"{tag}: per-layer metrics missing: {sorted(missing)}")
                expect(all(v[0] > 0 for v in doc["per_layer"].values()),
                       f"{tag}: a per-layer metric is not positive")
            else:
                values = [m["value"] for m in run.end_to_end(doc).values()]
                expect(all(v > 0 for v in values), f"{tag}: an end-to-end metric is not positive")
    expect(seen == EXPECTED_CHECKS, f"checks run {sorted(seen)} != expected")


def corrupted_outputs(work: Path, expect) -> None:
    """Every check rejects a wrong output."""
    import numpy as np
    from sulcikit import losses, metrics, nifti, presets, volume

    import tracing
    import workloads as w

    labels = presets.make_phantom(w.PHANTOM_SHAPE)
    gt = volume.binarize(labels, w.SULCUS_LABELS)
    pred = gt.with_voxels(np.roll(gt.voxels, 2, axis=1))
    hd = metrics.hausdorff(pred, gt)
    oracle = w.hausdorff_oracle(pred.voxels, gt.voxels, gt.grid.spacing)
    expect(w.close(hd, oracle) and not w.close(hd + 1e-6, oracle), "hausdorff oracle")
    dsc = metrics.dice(pred, gt)
    expect(w.close(dsc, w.dice_from_counts(pred.voxels, gt.voxels))
           and not w.close(dsc * (1 + 1e-7), w.dice_from_counts(pred.voxels, gt.voxels)),
           "dice oracle")

    rng = np.random.default_rng(0)
    batch = rng.standard_normal((8, 16))
    grad = losses.contrastive_loss_grad(batch)
    expect(w.rows_orthogonal(grad, batch) and not w.rows_orthogonal(grad + 1e-6 * batch, batch),
           "gradient orthogonality")
    p, t = rng.random((8, 8, 8)), rng.random((8, 8, 8)) > 0.5
    expect(losses.tversky_loss(p, t, 0.5, 0.5, 0.0) == losses.soft_dice_loss(p, t, 0.0)
           and losses.tversky_loss(p, t, 0.5, 0.5, 1e-5) != losses.soft_dice_loss(p, t, 0.0),
           "tversky equals dice")

    a, b = work / "bytes-a", work / "bytes-b"
    for d in (a, b):
        d.mkdir(parents=True)
        nifti.write_nifti(labels, d / "x.nii.gz")
    expect(w.files_digest(a) == w.files_digest(b), "same bytes on equal outputs")
    raw = bytearray((b / "x.nii.gz").read_bytes())
    raw[-9] ^= 1
    (b / "x.nii.gz").write_bytes(bytes(raw))
    expect(w.files_digest(a) != w.files_digest(b), "same bytes on a flipped byte")

    gen = w.GenerateHeadcrop(7, work / "mirror", w.PHANTOM_SHAPE)
    gen.setup()
    real = gen.item(0, tracing.NullTracer(), w.Checks())
    mirror = gen.item(0, tracing.Tracer(), w.Checks())
    stages = gen._stages
    gen._stages = lambda labels, priors, config, *rest: stages(
        labels, priors, dataclasses.replace(config, blur_sigma_range=(0.4, 1.5)), *rest)
    drifted = gen.item(0, tracing.Tracer(), w.Checks())
    expect(real.fingerprint == mirror.fingerprint != drifted.fingerprint, "mirror equality")

    checks = w.Checks()
    checks("readback", np.array_equal(labels.voxels, labels.voxels.copy()))
    broken = labels.voxels.copy()
    broken[0, 0, 0] += 1
    checks("readback", np.array_equal(labels.voxels, broken))
    expect(checks.results["readback"] == [1, 2] and checks.failures == 1, "check counting")


def main() -> int:
    run.prepare_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    work = run.OUT_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    try:
        workload_runs(work, expect)
        corrupted_outputs(work, expect)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"selftest FAIL: {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
