"""Segmentation evaluation: Dice, Hausdorff distance, volume and surface area.

Hausdorff distances are symmetric max-min Euclidean distances between
foreground voxel centres, measured in millimetres via the grid spacing; every
metric reads the spacing from the masks' grid, so for voxel units build the
masks on a unit-spacing grid. Each directed half takes the voxels outside
the other mask in two phases: a near phase reads the other mask at short
voxel offsets, shortest first, and resolves every voxel with a hit; a far
phase searches a KD-tree of the other mask's surface voxels from the rest
and re-resolves ties near the maximum. Every distance is formed from its
integer voxel offset, so values match brute-force pairwise computation.
Volume and surface area are voxel-based proxies: foreground count times
voxel volume, and the summed area of exposed voxel faces.

Hausdorff distance and surface area only look at the foreground's bounding
box (of both masks, for Hausdorff): every nearest counterpart and every
exposed face lies inside it, so the values are the same as over the whole
volume while the cost scales with the foreground.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import BothEmptyError, EmptySetError, NoValidEntriesError
from .volume import BinaryMask, _bounding_box, require_same_grid

__all__ = [
    "PairReport",
    "MetricSummary",
    "CohortSummary",
    "dice",
    "hausdorff",
    "voxel_volume",
    "voxel_surface_area",
    "evaluate_pair",
    "aggregate",
]


@dataclass(frozen=True)
class PairReport:
    """Metrics for one prediction/ground-truth pair.

    ``dsc`` and ``hd_mm`` are None when undefined (empty masks) rather than
    failing a whole cohort.
    """

    identifier: str
    dsc: float | None
    hd_mm: float | None
    pred_volume_mm3: float
    gt_volume_mm3: float
    pred_surface_mm2: float
    gt_surface_mm2: float

    def to_dict(self) -> dict:
        """The fields in order, with ``identifier`` stored under ``id``."""
        row = asdict(self)
        return {"id": row.pop("identifier"), **row}


@dataclass(frozen=True)
class MetricSummary:
    """Population statistics of one metric across a cohort."""

    mean: float
    std: float
    median: float
    min: float
    max: float
    count: int


@dataclass(frozen=True)
class CohortSummary:
    """Per-metric summaries plus counts of flagged (undefined) entries."""

    metrics: dict[str, MetricSummary]
    flagged: dict[str, int]


def dice(x: BinaryMask, y: BinaryMask) -> float:
    """Voxel overlap 2|X n Y| / (|X| + |Y|); errors when both masks are empty."""
    require_same_grid(x, y)
    nx = x.count
    ny = y.count
    if nx + ny == 0:
        raise BothEmptyError("Dice undefined: both masks are empty")
    overlap = int(np.count_nonzero(x.voxels & y.voxels))
    return 2.0 * overlap / (nx + ny)


def _mm(delta: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Lengths (mm) of integer voxel offsets, one per row."""
    return np.sqrt(((delta * spacing) ** 2).sum(axis=-1))


# the near phase's radius in voxels (see _directed_hausdorff)
_NEAR = 3


def _directed_hausdorff(sources: np.ndarray, b: np.ndarray, spacing: np.ndarray) -> float:
    """max over ``sources`` (voxels outside b) of the distance to the nearest b-voxel (mm).

    Near phase: b is padded by R = ``_NEAR``, and the nonzero offsets of the
    cube [-R, R]^3 shorter than T = (R + 1) * min(spacing) are read at every
    source, in groups of equal length, shortest first; a source with a hit
    is resolved at that length and leaves. The hit is its exact minimum: an
    offset outside the cube has a component of at least R + 1, so its
    length, formed in floats by ``_mm`` as every length here is, is at
    least fl(T), and every offset read is shorter.

    Far phase: each source left is farther from b than every resolved one,
    so the maximum is theirs. Only b's 6-surface voxels (those with a face
    neighbour outside b, or on the array edge) can be nearest: from any
    other b-voxel, one step towards the source stays in b and is strictly
    closer. A KD-tree of those voxels finds each source's nearest one.
    """
    from scipy.spatial import cKDTree  # here, so that importing sulcikit does not load SciPy

    if len(sources) == 0:
        return 0.0
    r = _NEAR
    cube = np.indices((2 * r + 1,) * 3).reshape(3, -1).T - r
    lengths = _mm(cube, spacing)
    near = (lengths > 0) & (lengths < (r + 1) * spacing.min())
    order = np.argsort(lengths[near], kind="stable")
    cube, lengths = cube[near][order], lengths[near][order]
    padded = np.pad(b, r)
    steps = np.array(padded.strides)  # bool: one byte per voxel
    at = (sources + r) @ steps
    padded = padded.ravel()
    worst = 0.0
    starts = np.flatnonzero(np.r_[True, lengths[1:] != lengths[:-1]])
    for start, stop in zip(starts, np.r_[starts[1:], len(lengths)]):
        hit = np.zeros(len(at), dtype=bool)
        for step in cube[start:stop] @ steps:
            hit |= padded[at + step]
        if hit.any():
            worst = float(lengths[start])
            at, sources = at[~hit], sources[~hit]
            if len(at) == 0:
                return worst

    p = np.pad(b, 1)
    interior = (
        b & p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1]
        & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:]
    )
    targets = np.argwhere(b & ~interior)
    tree = cKDTree(targets * spacing)
    _, nearest = tree.query(sources * spacing)
    dists = _mm(sources - targets[nearest], spacing)
    worst = float(dists.max())
    # the tree's rounding may pick a tied neighbour whose distance, formed
    # as above, is an ulp off: re-take the exact minimum of the near-worst
    # sources, largest first, until no source left can exceed the best one
    near = np.flatnonzero(dists >= worst * (1.0 - 1e-9))
    best = 0.0
    for i in near[np.argsort(-dists[near])]:
        if best >= dists[i]:
            break
        hits = tree.query_ball_point(sources[i] * spacing, worst * (1.0 + 1e-9))
        best = max(best, float(_mm(sources[i] - targets[hits], spacing).min()))
    return best


def hausdorff(x: BinaryMask, y: BinaryMask) -> float:
    """Symmetric Hausdorff distance between foreground voxel centres (mm).

    Raises EmptySetError naming the empty side.
    """
    require_same_grid(x, y)
    if x.count == 0:
        raise EmptySetError("first")
    if y.count == 0:
        raise EmptySetError("second")
    sp = np.asarray(x.grid.spacing)
    # every nearest counterpart lies in the joint bounding box
    box = _bounding_box(x.voxels | y.voxels)
    a, b = x.voxels[box], y.voxels[box]
    return max(_directed_hausdorff(np.argwhere(a & ~b), b, sp),
               _directed_hausdorff(np.argwhere(b & ~a), a, sp))


def voxel_volume(mask: BinaryMask) -> float:
    """Foreground voxel count times the voxel volume (mm^3)."""
    sx, sy, sz = mask.grid.spacing
    return mask.count * (sx * sy * sz)


def voxel_surface_area(mask: BinaryMask) -> float:
    """Total area of exposed voxel faces (mm^2).

    A face is exposed when a foreground voxel borders background or the
    volume boundary along that axis.
    """
    if not mask.voxels.any():
        return 0.0
    sp = np.asarray(mask.grid.spacing)
    # outside its bounding box the mask is background: same transitions
    data = mask.voxels[_bounding_box(mask.voxels)]
    area = 0.0
    for ax in range(3):
        face = float(np.prod(np.delete(sp, ax)))
        pad = [(1, 1) if a == ax else (0, 0) for a in range(3)]
        padded = np.pad(data, pad, mode="constant", constant_values=False)
        transitions = int((np.diff(padded, axis=ax) != 0).sum())
        area += transitions * face
    return area


def evaluate_pair(pred: BinaryMask, gt: BinaryMask, identifier: str = "") -> PairReport:
    """All four metrics for one pair; undefined values become None."""
    require_same_grid(pred, gt)
    dsc = None if pred.count + gt.count == 0 else dice(pred, gt)
    hd = hausdorff(pred, gt) if pred.count > 0 and gt.count > 0 else None
    return PairReport(
        identifier=str(identifier),
        dsc=dsc,
        hd_mm=hd,
        pred_volume_mm3=voxel_volume(pred),
        gt_volume_mm3=voxel_volume(gt),
        pred_surface_mm2=voxel_surface_area(pred),
        gt_surface_mm2=voxel_surface_area(gt),
    )


# every PairReport field after the identifier is a metric
_METRIC_FIELDS = tuple(f.name for f in fields(PairReport))[1:]


def aggregate(reports) -> CohortSummary:
    """Cohort statistics per metric; flagged (None) entries are excluded.

    Population standard deviation. Raises NoValidEntriesError when a metric
    has no valid entries at all.
    """
    reports = list(reports)
    if not reports:
        raise NoValidEntriesError("no reports to aggregate")
    metrics = {}
    flagged = {}
    for name in _METRIC_FIELDS:
        values = [getattr(r, name) for r in reports]
        valid = np.asarray([v for v in values if v is not None], dtype=np.float64)
        flagged[name] = len(values) - len(valid)
        if len(valid) == 0:
            raise NoValidEntriesError(f"metric {name!r} has no valid entries")
        metrics[name] = MetricSummary(
            mean=float(valid.mean()),
            std=float(valid.std()),
            median=float(np.median(valid)),
            min=float(valid.min()),
            max=float(valid.max()),
            count=int(len(valid)),
        )
    return CohortSummary(metrics=metrics, flagged=flagged)
