"""Self-check suite behind ``sulcikit check``.

Every check compares a library result against an independent reference
computation from ``sulcikit.oracles`` (brute-force loops, finite differences,
voxel-by-voxel dilation, flood fill) or a known closed-form value, and
reports the observed error against its tolerance. ``inject_fault``
deliberately corrupts one of the gradient checks so harnesses can verify
that failures are detected and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import losses, metrics, postproc, synth
from .oracles import (
    brute_force_contrastive,
    brute_force_hausdorff,
    central_difference,
    flood_fill_components,
    grow_by_neighbours,
    max_rel_error,
    postprocess_by_flood_fill,
)
from .presets import PHANTOM_SUBSTITUTIONS, default_generator_config, default_priors, make_phantom
from .volume import BinaryMask, VoxelGrid

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check."""

    name: str
    passed: bool
    tolerance: float
    observed: float
    expected: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "observed": self.observed,
            "expected": self.expected,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# individual checks


def _check_nt_xent_fixture() -> CheckResult:
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    observed = losses.contrastive_loss(rows, temperature=1.0)
    brute = brute_force_contrastive(rows, 1.0)
    expected = math.log(1.0 + 2.0 / math.e)
    err = max(abs(observed - brute), abs(observed - expected))
    return CheckResult(
        "nt-xent-fixture",
        err < 1e-9,
        1e-9,
        observed,
        expected,
        "paired batch (1,0)x2,(0,1)x2 at temperature 1 vs brute-force loops",
    )


def _check_degenerate_batch() -> CheckResult:
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((2, 16))
    loss = losses.contrastive_loss(rows, 0.5)
    grad = losses.contrastive_loss_grad(rows, 0.5)
    observed = max(abs(loss), float(np.abs(grad).max()))
    return CheckResult(
        "contrastive-degenerate", observed == 0.0, 0.0, observed, 0.0,
        "single positive pair must give exactly zero loss and gradient",
    )


def _grad_check(loss_id: str, fault: bool = False) -> CheckResult:
    """Analytic gradient vs central differences over 20 seeded inputs.

    With ``fault`` the analytic gradient is shifted by 1e-3 before the
    comparison, so the check must fail.
    """
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        if loss_id == "contrastive":
            x = rng.standard_normal((8, 8))
            point = {"batch": x, "temperature": 0.5}
        else:
            x = rng.uniform(0.05, 0.95, size=(4, 4, 4))
            target = (rng.random((4, 4, 4)) < 0.4).astype(float)
            point = {"pred": x, "target": target, "smooth": 1.0, "alpha": 0.3, "beta": 0.7}
        func, x, analytic = losses._loss_and_gradient(loss_id, point)
        if fault:
            analytic = analytic + 1e-3
        worst = max(worst, max_rel_error(analytic, central_difference(func, x, 1e-4)))
    return CheckResult(
        f"{loss_id}-gradient", worst < 1e-5, 1e-5, worst, None,
        "max relative error vs central differences over 20 seeded inputs",
    )


def _check_tversky_dice_identity() -> CheckResult:
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        pred = rng.random((5, 5, 5))
        target = (rng.random((5, 5, 5)) < 0.4).astype(float)
        d = losses.soft_dice_loss(pred, target, smooth=0.0)
        t = losses.tversky_loss(pred, target, alpha=0.5, beta=0.5, smooth=0.0)
        worst = max(worst, abs(d - t))
    return CheckResult(
        "tversky-dice-identity", worst == 0.0, 0.0, worst, 0.0,
        "tversky(0.5, 0.5) must equal soft dice bitwise at smooth 0",
    )


def _check_contrastive_invariance() -> CheckResult:
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((8, 16))
    base = losses.contrastive_loss(rows, 0.5)
    scaled = rows.copy()
    scaled[3] *= 3.0
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    observed = max(
        abs(losses.contrastive_loss(scaled, 0.5) - base),
        abs(losses.contrastive_loss(rows @ q, 0.5) - base),
    )
    return CheckResult(
        "contrastive-invariance", observed < 1e-6, 1e-6, observed, 0.0,
        "per-row positive scaling and common rotation leave the loss unchanged",
    )


def _check_descent_demo() -> CheckResult:
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((16, 16))
    trajectory = losses.optimize_embeddings_demo(rows, temperature=0.5, steps=200, step_size=0.5)
    decrease = trajectory[0].loss - trajectory[-1].loss
    margin = trajectory[-1].positive_similarity - trajectory[-1].negative_similarity
    observed = min(decrease, margin)
    return CheckResult(
        "descent-demo", observed > 0.0, 0.0, observed, None,
        "loss must drop over 200 steps and positives must end more similar than negatives",
    )


def _check_connected_components() -> CheckResult:
    mismatches = 0
    grid = VoxelGrid.from_spacing((20, 20, 20))
    for connectivity in (6, 18, 26):
        for seed in range(12):
            rng = np.random.default_rng(3000 + seed)
            mask = rng.random((20, 20, 20)) < 0.25
            ours = postproc.connected_components(BinaryMask(grid, mask), connectivity)
            reference = flood_fill_components(mask, connectivity)
            if not np.array_equal(ours.labels.voxels.astype(np.int64), reference):
                mismatches += 1
    return CheckResult(
        "connected-components-oracle", mismatches == 0, 0.0, float(mismatches), 0.0,
        "labelings vs breadth-first flood fill, 12 random masks x 3 connectivities",
    )


def _check_hausdorff() -> CheckResult:
    grid = VoxelGrid.from_spacing((12, 12, 12))
    worst = 0.0
    for seed in range(15):
        rng = np.random.default_rng(4000 + seed)
        a = rng.random((12, 12, 12)) < 0.08
        b = rng.random((12, 12, 12)) < 0.08
        if not a.any() or not b.any():
            continue
        ours = metrics.hausdorff(BinaryMask(grid, a), BinaryMask(grid, b))
        worst = max(worst, abs(ours - brute_force_hausdorff(a, b, (1.0, 1.0, 1.0))))
    fixture_grid = VoxelGrid.from_spacing((5, 6, 4))
    x = np.zeros((5, 6, 4), dtype=bool)
    y = np.zeros((5, 6, 4), dtype=bool)
    x[0, 0, 0] = True
    y[3, 4, 0] = True
    fixture = metrics.hausdorff(BinaryMask(fixture_grid, x), BinaryMask(fixture_grid, y))
    worst = max(worst, abs(fixture - 5.0))
    return CheckResult(
        "hausdorff-oracle", worst == 0.0, 0.0, worst, 0.0,
        "distance-transform result vs brute-force pairwise distances, plus 3-4-5 fixture",
    )


def _check_generator_determinism() -> CheckResult:
    labels = make_phantom(shape=(24, 24, 20))
    priors = default_priors()
    config = default_generator_config()
    img_a, seg_a = synth.generate_sample(labels, priors, config, seed=42)
    img_b, seg_b = synth.generate_sample(labels, priors, config, seed=42)
    img_c, _ = synth.generate_sample(labels, priors, config, seed=43)
    same = np.array_equal(img_a.voxels, img_b.voxels) and np.array_equal(
        seg_a.voxels, seg_b.voxels
    )
    differs = not np.array_equal(img_a.voxels, img_c.voxels)
    observed = 0.0 if (same and differs) else 1.0
    return CheckResult(
        "generator-determinism", observed == 0.0, 0.0, observed, 0.0,
        "equal seeds give bit-identical output; different seeds differ",
    )


def _check_generator_closure() -> CheckResult:
    labels = make_phantom(shape=(24, 24, 20))
    allowed = set(labels.labels_present()) | {0}
    priors = default_priors()
    config = default_generator_config()
    views = synth.generate_views(labels, priors, config, seed=9, n=20, jobs=4)
    unseen = 0
    for _, seg in views:
        unseen += len(set(seg.labels_present()) - allowed)
    return CheckResult(
        "generator-closure", unseen == 0, 0.0, float(unseen), 0.0,
        "no generated segmentation may contain a label absent from the input",
    )


def _check_generator_identity() -> CheckResult:
    labels = make_phantom(shape=(20, 20, 16))
    means = {1: 30.0, 2: 100.0, 3: 150.0}
    priors = synth.TissuePriors(
        {l: ((m, m), (0.0, 0.0)) for l, m in means.items()}
    )
    config = synth.GeneratorConfig.identity(substitution_table=dict(PHANTOM_SUBSTITUTIONS))
    image, seg = synth.generate_sample(labels, priors, config, seed=1)
    synth_map = synth.substitute_sulci(labels, config.substitution_table)
    paint = np.zeros(labels.grid.shape, dtype=np.float64)
    for label, mu in means.items():
        paint[synth_map.voxels == label] = np.float32(mu)
    top = max(means.values())
    expected = (paint / top).astype(np.float32)
    observed = float(np.abs(image.voxels - expected).max())
    seg_ok = np.array_equal(seg.voxels, labels.voxels)
    return CheckResult(
        "generator-identity", observed == 0.0 and seg_ok, 0.0, observed, 0.0,
        "all randomization disabled paints prior means exactly and keeps labels",
    )


def _check_postproc_fixture() -> CheckResult:
    shape = (30, 12, 12)
    grid = VoxelGrid.from_spacing(shape)
    mask = np.zeros(shape, dtype=bool)
    mask[1:6, 2:3, 2:4] = True  # 10 voxels
    mask[12:17, 2:3, 2:3] = True  # 5 voxels
    mask[25, 8, 8] = True  # 1 voxel
    cleaned = postproc.postprocess_cs(BinaryMask(grid, mask))
    kept = cleaned.count
    subset = bool((cleaned.voxels & ~mask).sum() == 0)
    return CheckResult(
        "postproc-fixture", kept == 15 and subset, 0.0, float(abs(kept - 15)), 0.0,
        "three blobs of 10/5/1 voxels: the two largest survive, 15 voxels total",
    )


def _check_postproc_oracle() -> CheckResult:
    shape = (14, 12, 10)
    grid = VoxelGrid.from_spacing(shape)
    ties = np.zeros(shape, dtype=bool)
    ties[[1, 5, 9], 6, 5] = True  # three equal components; keep 2 cuts between them
    masks = [np.random.default_rng(5000 + seed).random(shape) < 0.04 for seed in range(4)]
    masks.append(ties)
    mismatches = 0
    for connectivity in (6, 18, 26):
        for index, data in enumerate(masks):
            mask = BinaryMask(grid, data)
            config = postproc.PostprocConfig(1 + index % 2, connectivity, 1 + index % 3)
            radius = config.dilation_radius
            grown = postproc.dilate(mask, radius, connectivity)
            if not np.array_equal(grown.voxels, grow_by_neighbours(data, connectivity, radius)):
                mismatches += 1
            cleaned = postproc.postprocess_cs(mask, config)
            expected = postprocess_by_flood_fill(data, connectivity, radius, config.keep)
            if not np.array_equal(cleaned.voxels, expected):
                mismatches += 1
    return CheckResult(
        "postproc-oracle", mismatches == 0, 0.0, float(mismatches), 0.0,
        "dilation and clean-up vs voxel-by-voxel growth and flood fill,"
        " 4 random masks and an equal-size tie x 3 connectivities",
    )


_CHECK_BUILDERS = {
    "nt-xent-fixture": _check_nt_xent_fixture,
    "contrastive-degenerate": _check_degenerate_batch,
    "contrastive-gradient": partial(_grad_check, "contrastive"),
    "dice-gradient": partial(_grad_check, "dice"),
    "tversky-gradient": partial(_grad_check, "tversky"),
    "tversky-dice-identity": _check_tversky_dice_identity,
    "contrastive-invariance": _check_contrastive_invariance,
    "descent-demo": _check_descent_demo,
    "connected-components-oracle": _check_connected_components,
    "hausdorff-oracle": _check_hausdorff,
    "generator-determinism": _check_generator_determinism,
    "generator-closure": _check_generator_closure,
    "generator-identity": _check_generator_identity,
    "postproc-fixture": _check_postproc_fixture,
    "postproc-oracle": _check_postproc_oracle,
}

CHECK_NAMES = tuple(_CHECK_BUILDERS)

# checks whose builder accepts ``fault=True``
_FAULT_MODES = ("contrastive-gradient", "dice-gradient", "tversky-gradient")


def run_checks(name_filter: str | None = None, inject_fault: str | None = None) -> list[CheckResult]:
    """Run the self-check suite, optionally filtered by substring.

    ``inject_fault`` names a check to corrupt deliberately, to verify that
    failures are surfaced. Only the three gradient checks have a fault mode
    (their analytic gradient is shifted); any other name, or one the filter
    excludes, raises ValueError.
    """
    if inject_fault is not None and inject_fault not in _FAULT_MODES:
        raise ValueError(
            f"check {inject_fault!r} has no fault mode;"
            f" choose one of {', '.join(_FAULT_MODES)}"
        )
    if inject_fault is not None and name_filter and name_filter not in inject_fault:
        raise ValueError(f"filter {name_filter!r} excludes the faulted check {inject_fault!r}")
    results = []
    for name, builder in _CHECK_BUILDERS.items():
        if name_filter and name_filter not in name:
            continue
        results.append(builder(fault=True) if name == inject_fault else builder())
    return results
