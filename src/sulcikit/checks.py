"""Self-check suite behind ``sulcikit check``.

Every check compares a library result against an independent reference
computation (brute-force loops, finite differences, flood fill) or a known
closed-form value, and reports the observed error against its tolerance.
``inject_fault`` deliberately corrupts one named check so harnesses can
verify that failures are detected and reported.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import losses, metrics, postproc, synth
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
# independent reference computations


def _brute_force_contrastive(rows: np.ndarray, temperature: float) -> float:
    """Direct loop evaluation of the paired contrastive loss."""
    rows = np.asarray(rows, dtype=np.float64)
    n_pairs = rows.shape[0] // 2

    def sim(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    def pair_term(i, j):
        num = math.exp(sim(rows[i], rows[j]) / temperature)
        den = sum(
            math.exp(sim(rows[i], rows[k]) / temperature)
            for k in range(rows.shape[0])
            if k != i
        )
        return -math.log(num / den)

    total = 0.0
    for k in range(n_pairs):
        total += pair_term(2 * k, 2 * k + 1) + pair_term(2 * k + 1, 2 * k)
    return total / (2 * n_pairs)


def _flood_fill_components(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Breadth-first flood fill with the same canonical id ordering."""
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if manhattan == 0:
                    continue
                if connectivity == 6 and manhattan > 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                offsets.append((dx, dy, dz))
    shape = mask.shape
    labels = np.zeros(shape, dtype=np.int64)
    components = []
    next_id = 0
    for start in map(tuple, np.argwhere(mask)):
        if labels[start]:
            continue
        next_id += 1
        labels[start] = next_id
        size = 1
        queue = deque([start])
        while queue:
            cx, cy, cz = queue.popleft()
            for dx, dy, dz in offsets:
                nx, ny, nz = cx + dx, cy + dy, cz + dz
                if 0 <= nx < shape[0] and 0 <= ny < shape[1] and 0 <= nz < shape[2]:
                    if mask[nx, ny, nz] and not labels[nx, ny, nz]:
                        labels[nx, ny, nz] = next_id
                        size += 1
                        queue.append((nx, ny, nz))
        first = int(np.ravel_multi_index(start, shape))
        components.append((next_id, size, first))
    components.sort(key=lambda c: (-c[1], c[2]))
    remap = np.zeros(next_id + 1, dtype=np.int64)
    for rank, (raw_id, _, _) in enumerate(components, start=1):
        remap[raw_id] = rank
    return remap[labels]


def _brute_force_hausdorff(x: np.ndarray, y: np.ndarray, spacing) -> float:
    sp = np.asarray(spacing, dtype=np.float64)
    xs = np.argwhere(x).astype(np.float64)
    ys = np.argwhere(y).astype(np.float64)
    d = np.sqrt((((xs[:, None, :] - ys[None, :, :]) * sp) ** 2).sum(axis=2))
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def _central_difference(func, x: np.ndarray, eps: float) -> np.ndarray:
    grad = np.zeros_like(x)
    flat_g = grad.reshape(-1)
    flat_x = x.reshape(-1)
    for k in range(flat_x.size):
        orig = flat_x[k]
        flat_x[k] = orig + eps
        f_plus = func(x)
        flat_x[k] = orig - eps
        f_minus = func(x)
        flat_x[k] = orig
        flat_g[k] = (f_plus - f_minus) / (2 * eps)
    return grad


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


# ---------------------------------------------------------------------------
# individual checks


def _check_nt_xent_fixture() -> CheckResult:
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    observed = losses.contrastive_loss(rows, temperature=1.0)
    brute = _brute_force_contrastive(rows, 1.0)
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


def _grad_check(name: str, loss_id: str, n_seeds: int, fault: bool) -> CheckResult:
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        if loss_id == "contrastive":
            x = rng.standard_normal((8, 8))
            point = {"batch": x, "temperature": 0.5}
        else:
            x = rng.uniform(0.05, 0.95, size=(4, 4, 4))
            target = (rng.random((4, 4, 4)) < 0.4).astype(float)
            point = {"pred": x, "target": target, "smooth": 1.0, "alpha": 0.3, "beta": 0.7}
        if fault:
            if loss_id == "contrastive":
                analytic = losses.contrastive_loss_grad(x, 0.5)
                func = lambda a: losses.contrastive_loss(a, 0.5)
            else:
                analytic = losses.seg_loss_grad(loss_id, x, point["target"], 0.3, 0.7, 1.0)
                if loss_id == "dice":
                    func = lambda a, t=point["target"]: losses.soft_dice_loss(a, t, smooth=1.0)
                else:
                    func = lambda a, t=point["target"]: losses.tversky_loss(a, t, 0.3, 0.7, 1.0)
            numeric = _central_difference(func, x.copy(), 1e-4)
            err = _max_rel_error(analytic + 1e-3, numeric)
        else:
            err = losses.finite_difference_check(loss_id, point, eps=1e-4)
        worst = max(worst, err)
    return CheckResult(
        name, worst < 1e-5, 1e-5, worst, None,
        f"max relative error vs central differences over {n_seeds} seeded inputs",
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
            reference = _flood_fill_components(mask, connectivity)
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
        worst = max(worst, abs(ours - _brute_force_hausdorff(a, b, (1.0, 1.0, 1.0))))
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


_CHECK_BUILDERS = {
    "nt-xent-fixture": lambda fault: _check_nt_xent_fixture(),
    "contrastive-degenerate": lambda fault: _check_degenerate_batch(),
    "contrastive-gradient": lambda fault: _grad_check(
        "contrastive-gradient", "contrastive", 20, fault
    ),
    "dice-gradient": lambda fault: _grad_check("dice-gradient", "dice", 20, fault),
    "tversky-gradient": lambda fault: _grad_check("tversky-gradient", "tversky", 20, fault),
    "tversky-dice-identity": lambda fault: _check_tversky_dice_identity(),
    "contrastive-invariance": lambda fault: _check_contrastive_invariance(),
    "descent-demo": lambda fault: _check_descent_demo(),
    "connected-components-oracle": lambda fault: _check_connected_components(),
    "hausdorff-oracle": lambda fault: _check_hausdorff(),
    "generator-determinism": lambda fault: _check_generator_determinism(),
    "generator-closure": lambda fault: _check_generator_closure(),
    "generator-identity": lambda fault: _check_generator_identity(),
    "postproc-fixture": lambda fault: _check_postproc_fixture(),
}

CHECK_NAMES = tuple(_CHECK_BUILDERS)


def run_checks(name_filter: str | None = None, inject_fault: str | None = None) -> list[CheckResult]:
    """Run the self-check suite, optionally filtered by substring.

    ``inject_fault`` names a check whose analytic input is deliberately
    corrupted, to verify failures are surfaced.
    """
    if inject_fault is not None and inject_fault not in _CHECK_BUILDERS:
        raise ValueError(f"unknown check {inject_fault!r}")
    results = []
    for name, builder in _CHECK_BUILDERS.items():
        if name_filter and name_filter not in name:
            continue
        results.append(builder(inject_fault == name))
    return results
