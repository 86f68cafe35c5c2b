"""Self-check suite behind ``sulcikit check``.

Every check compares a library result against an independent reference
computation from ``sulcikit.oracles`` (brute-force loops, finite
differences, voxel-by-voxel dilation, flood fill, per-voxel warps, bias
fields, resamples and convolutions), a known closed-form value or a round
trip through the files. The suite is one table, ``_CHECKS``: each check's
name, its measure, its tolerance and its note. A measure returns
``(observed, expected, error)``, and a check passes when its error is 0 or
below its tolerance. A check whose verdict is not a comparison of
``observed`` with the tolerance folds that verdict into ``error``. A check's
verdict depends only on the library code it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import losses, metrics, nifti, postproc, synth, volume
from .errors import SulcikitError
from .oracles import (
    bias_by_voxel,
    brute_force_contrastive,
    brute_force_hausdorff,
    deform_by_voxel,
    flood_fill_components,
    grow_by_neighbours,
    postprocess_by_flood_fill,
    reflected_blur,
    resample_by_voxel,
)
from .presets import PHANTOM_SUBSTITUTIONS, default_generator_config, default_priors, make_phantom
from .volume import BinaryMask, IntensityVolume, LabelVolume, VoxelGrid

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


# ---------------------------------------------------------------------------
# measures: each returns (observed, expected, error)


def _nt_xent_fixture():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    observed = losses.contrastive_loss(rows, temperature=1.0)
    brute = brute_force_contrastive(rows, 1.0)
    expected = math.log(1.0 + 2.0 / math.e)
    return observed, expected, max(abs(observed - brute), abs(observed - expected))


def _degenerate_batch():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((2, 16))
    loss = losses.contrastive_loss(rows, 0.5)
    grad = losses.contrastive_loss_grad(rows, 0.5)
    observed = max(abs(loss), float(np.abs(grad).max()))
    return observed, 0.0, observed


def _gradient(loss_id: str):
    """Analytic gradient vs central differences over 20 seeded inputs."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        if loss_id == "contrastive":
            point = {"batch": rng.standard_normal((8, 8)), "temperature": 0.5}
        else:
            x = rng.uniform(0.05, 0.95, size=(4, 4, 4))
            target = (rng.random((4, 4, 4)) < 0.4).astype(float)
            point = {"pred": x, "target": target, "smooth": 1.0, "alpha": 0.3, "beta": 0.7}
        worst = max(worst, losses.finite_difference_check(loss_id, point))
    return worst, None, worst


def _tversky_dice_identity():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        pred = rng.random((5, 5, 5))
        target = (rng.random((5, 5, 5)) < 0.4).astype(float)
        d = losses.soft_dice_loss(pred, target, smooth=0.0)
        t = losses.tversky_loss(pred, target, alpha=0.5, beta=0.5, smooth=0.0)
        worst = max(worst, abs(d - t))
    return worst, 0.0, worst


def _contrastive_invariance():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((8, 16))
    base = losses.contrastive_loss(rows, 0.5)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    observed = abs(losses.contrastive_loss(rows @ q, 0.5) - base)
    for row, factor in enumerate(1.0 + 2.0 * rng.random(len(rows))):
        scaled = rows.copy()
        scaled[row] *= factor
        observed = max(observed, abs(losses.contrastive_loss(scaled, 0.5) - base))
    return observed, 0.0, observed


def _descent_demo():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((16, 16))
    trajectory = losses.optimize_embeddings_demo(rows, temperature=0.5, steps=200, step_size=0.5)
    decrease = trajectory[0].loss - trajectory[-1].loss
    margin = trajectory[-1].positive_similarity - trajectory[-1].negative_similarity
    observed = min(decrease, margin)
    return observed, None, 0.0 if observed > 0.0 else 1.0


def _connected_components():
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
    return float(mismatches), 0.0, mismatches


def _hausdorff():
    grid = VoxelGrid.from_spacing((16, 16, 16))
    worst = 0.0
    for seed in range(50):  # at 5 % of 16^3 voxels, no mask is empty
        rng = np.random.default_rng(4000 + seed)
        a = rng.random((16, 16, 16)) < 0.05
        b = rng.random((16, 16, 16)) < 0.05
        ours = metrics.hausdorff(BinaryMask(grid, a), BinaryMask(grid, b))
        worst = max(worst, abs(ours - brute_force_hausdorff(a, b, (1.0, 1.0, 1.0))))
    # at 0.7 mm two nearest voxels tie, and their distances round an ulp apart
    rng = np.random.default_rng(4)
    a = rng.random((12, 12, 12)) < 0.25
    b = rng.random((12, 12, 12)) < 0.02
    tie_grid = VoxelGrid.from_spacing((12, 12, 12), (0.7, 0.7, 0.7))
    ours = metrics.hausdorff(BinaryMask(tie_grid, a), BinaryMask(tie_grid, b))
    worst = max(worst, abs(ours - brute_force_hausdorff(a, b, (0.7, 0.7, 0.7))))
    fixture_grid = VoxelGrid.from_spacing((5, 6, 4))
    x = np.zeros((5, 6, 4), dtype=bool)
    y = np.zeros((5, 6, 4), dtype=bool)
    x[0, 0, 0] = True
    y[3, 4, 0] = True
    fixture = metrics.hausdorff(BinaryMask(fixture_grid, x), BinaryMask(fixture_grid, y))
    worst = max(worst, abs(fixture - 5.0))
    return worst, 0.0, worst


def _generator_determinism():
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
    serial = synth.generate_views(labels, priors, config, seed=5, n=4, jobs=1)
    parallel = synth.generate_views(labels, priors, config, seed=5, n=4, jobs=4)
    same = same and all(np.array_equal(s.voxels, p.voxels)
                        for views in zip(serial, parallel) for s, p in zip(*views))
    observed = 0.0 if (same and differs) else 1.0
    return observed, 0.0, observed


def _generator_closure():
    labels = make_phantom(shape=(24, 24, 20))
    allowed = set(labels.labels_present()) | {0}
    priors = default_priors()
    config = default_generator_config()
    views = synth.generate_views(labels, priors, config, seed=9, n=100, jobs=4)
    unseen = 0
    for _, seg in views:
        unseen += len(set(seg.labels_present()) - allowed)
    return float(unseen), 0.0, unseen


def _generator_identity():
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
    moved = not np.array_equal(seg.voxels, labels.voxels)
    return observed, 0.0, observed + moved


def _postproc_fixture():
    shape = (30, 12, 12)
    grid = VoxelGrid.from_spacing(shape)
    mask = np.zeros(shape, dtype=bool)
    mask[1:6, 2:3, 2:4] = True  # 10 voxels
    mask[12:17, 2:3, 2:3] = True  # 5 voxels
    mask[25, 8, 8] = True  # 1 voxel
    cleaned = postproc.postprocess_cs(BinaryMask(grid, mask))
    observed = float(abs(cleaned.count - 15))
    return observed, 0.0, observed + bool((cleaned.voxels & ~mask).any())


def _postproc_oracle():
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
    return float(mismatches), 0.0, mismatches


def _deform_oracle():
    shape = (9, 7, 5)
    grid = VoxelGrid.from_spacing(shape)
    rng = np.random.default_rng(6000)
    labels = LabelVolume(grid, rng.integers(1, 10, shape))  # so a read outside gives 0
    config = synth.GeneratorConfig(rotation_range=(-30.0, 30.0), translation_range=(-1.5, 1.5),
                                   elastic_grid=(3, 3, 3), elastic_std_range=(0.5, 1.5))
    # a 3x3x3 lattice, a dense one (as evaluate poses), and half-voxel nodes that read ties
    poses = [(synth.sample_affine(config, 6001),
              synth.sample_elastic(config, grid, 6002).displacement),
             (synth.sample_affine(config, 6003), rng.standard_normal(shape + (3,)) * 2.0),
             (np.eye(4), rng.integers(-2, 3, shape + (3,)) * 0.5)]
    mismatches = 0
    for affine, lattice in poses:
        field = synth.DeformationField(grid, lattice)
        out = synth.deform_labels(labels, affine, field).voxels
        expected = deform_by_voxel(labels.voxels, affine, field.displacement)
        mismatches += int(np.count_nonzero(out != expected))
    return float(mismatches), 0.0, mismatches


def _resample_oracle():
    rng = np.random.default_rng(7000)
    worst, mismatches = 0.0, 0
    # an upsample, a downsample by 2 (a nearest tie at every voxel) and one-voxel axes
    for src_shape, target in (((8, 6, 5), (16, 9, 7)), ((8, 6, 5), (4, 3, 2)),
                              ((1, 6, 5), (4, 1, 5))):
        src = rng.random(src_shape)
        probabilities = losses.ProbabilityVolume(VoxelGrid.from_spacing(src_shape), src)
        out = volume.resample(probabilities, target, mode="trilinear").voxels
        worst = max(worst, float(np.abs(out - resample_by_voxel(src, target, "trilinear")).max()))
        out = volume.resample(probabilities, target, mode="nearest").voxels
        mismatches += int(np.count_nonzero(out != resample_by_voxel(src, target, "nearest")))
    return worst, 0.0, worst + mismatches


def _blur_oracle():
    impulse = np.zeros((9, 9, 9), dtype=np.float32)
    impulse[4, 4, 4] = 1.0
    worst = 0.0
    for data, sigma in ((np.random.default_rng(8000).random((3, 4, 5)), 1.5), (impulse, 1.0)):
        image = IntensityVolume(VoxelGrid.from_spacing(data.shape), data)
        out = synth.gaussian_blur(image, sigma).voxels
        worst = max(worst, float(np.abs(out - reflected_blur(image.voxels, sigma)).max()))
    return worst, 0.0, worst


def _bias_oracle():
    shape = (9, 7, 5)
    data = np.random.default_rng(8500).uniform(1.0, 2.0, shape)
    image = IntensityVolume(VoxelGrid.from_spacing(shape), data)
    config = synth.GeneratorConfig(bias_grid=(3, 3, 3), bias_std_range=(0.5, 0.5))
    out = synth.apply_bias_field(image, config, 8501).voxels
    # the field's draws, as apply_bias_field makes them: its std, then the nodes
    rng = np.random.default_rng(8501)
    sigma = rng.uniform(*config.bias_std_range)
    control = rng.standard_normal(config.bias_grid) * sigma
    expected = bias_by_voxel(image.voxels, control)
    worst = float(np.abs(out / expected - 1.0).max())
    return worst, 0.0, worst


def _nifti_roundtrip():
    import tempfile
    from pathlib import Path

    shape = (5, 4, 3)
    rng = np.random.default_rng(9000)
    # entries float32 holds exactly, as the header stores them
    affine = np.array([[0.75, 0, 0.25, -10], [0, 1.25, 0, 5.5], [-0.5, 0, 1.5, 2.25], [0, 0, 0, 1]])
    grid = VoxelGrid(shape, affine)
    volumes = [IntensityVolume(grid, rng.standard_normal(shape)),
               LabelVolume(grid, rng.integers(0, 70, shape)),
               BinaryMask(grid, rng.random(shape) < 0.4)]
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for vol in volumes:
            kind = "intensity" if isinstance(vol, IntensityVolume) else "labels"
            for path in (Path(tmp) / f"{type(vol).__name__}{ext}" for ext in (".nii", ".nii.gz")):
                nifti.write_nifti(vol, path)
                try:  # a file the writer made that the reader rejects is a failed round trip
                    back = nifti.read_nifti(path, kind)
                except SulcikitError:
                    mismatches += 1
                    continue
                # a mask reads back as labels, nonzero being foreground, as the CLI reads it
                voxels = back.voxels != 0 if isinstance(vol, BinaryMask) else back.voxels
                mismatches += not (voxels.dtype == vol.voxels.dtype and np.array_equal(
                    voxels, vol.voxels) and np.array_equal(back.grid.affine, affine))
    return float(mismatches), 0.0, mismatches


# name -> (measure, tolerance, note), in report order
_CHECKS = {
    "nt-xent-fixture": (_nt_xent_fixture, 1e-9, "paired batch (1,0)x2,(0,1)x2 at"
                        " temperature 1 vs brute-force loops"),
    "contrastive-degenerate": (_degenerate_batch, 0.0, "single positive pair must give"
                               " exactly zero loss and gradient"),
    **{f"{loss_id}-gradient": (partial(_gradient, loss_id), 1e-5, "max relative error vs"
                               " central differences over 20 seeded inputs")
       for loss_id in ("contrastive", "dice", "tversky")},
    "tversky-dice-identity": (_tversky_dice_identity, 0.0, "tversky(0.5, 0.5) must equal"
                              " soft dice bitwise at smooth 0"),
    "contrastive-invariance": (_contrastive_invariance, 1e-6, "scaling each row in turn by a"
                               " seeded factor in [1, 3), and a common rotation, leave the"
                               " loss unchanged"),
    "descent-demo": (_descent_demo, 0.0, "loss must drop over 200 steps and positives must"
                     " end more similar than negatives"),
    "connected-components-oracle": (_connected_components, 0.0, "labelings vs breadth-first"
                                    " flood fill, 12 random masks x 3 connectivities"),
    "hausdorff-oracle": (_hausdorff, 0.0, "near offset scan and surface KD-tree vs brute-force"
                         " pairwise distances on 50 random 16^3 pairs and a 0.7 mm tie,"
                         " plus 3-4-5 fixture"),
    "generator-determinism": (_generator_determinism, 0.0, "equal seeds give bit-identical"
                              " output, and views at jobs 1 and 4 are bitwise equal;"
                              " different seeds differ"),
    "generator-closure": (_generator_closure, 0.0, "no segmentation of 100 generated views may"
                          " contain a label absent from the input"),
    "generator-identity": (_generator_identity, 0.0, "all randomization disabled paints prior"
                           " means exactly and keeps labels"),
    "postproc-fixture": (_postproc_fixture, 0.0, "three blobs of 10/5/1 voxels: the two"
                         " largest survive, 15 voxels total"),
    "postproc-oracle": (_postproc_oracle, 0.0, "dilation and clean-up vs voxel-by-voxel growth"
                        " and flood fill, 4 random masks and an equal-size tie x 3"
                        " connectivities"),
    "deform-oracle": (_deform_oracle, 0.0, "label warps vs the per-voxel warp: 3x3x3 and dense"
                      " lattices under random affines, and half-voxel ties"),
    "resample-oracle": (_resample_oracle, 1e-12, "float64 trilinear vs the 8-corner read, nearest"
                        " vs floor(p + 0.5) bitwise: up, down and one-voxel axes"),
    "blur-oracle": (_blur_oracle, 1e-6, "float32 blur vs direct reflected convolution: (3, 4, 5)"
                    " at sigma 1.5, past both ends, and a 9^3 impulse"),
    "bias-oracle": (_bias_oracle, 1e-6, "float32 bias product vs exp of the 8-corner read of"
                    " the same 3x3x3 node draws, relative, at (9, 7, 5)"),
    "nifti-roundtrip": (_nifti_roundtrip, 0.0, "intensity, label and mask volumes as .nii and"
                        " .nii.gz read back with equal voxels, dtype and affine"),
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run the self-check suite, in ``CHECK_NAMES`` order, optionally filtered
    to the checks whose name contains ``name_filter``."""
    results = []
    for name, (measure, tolerance, note) in _CHECKS.items():
        if name_filter and name_filter not in name:
            continue
        observed, expected, error = measure()
        passed = bool(error == 0 or error < tolerance)
        results.append(CheckResult(name, passed, tolerance, observed, expected, note))
    return results
