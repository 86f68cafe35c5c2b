"""Segmentation evaluation: Dice, Hausdorff distance, volume and surface area.

Hausdorff distances are symmetric max-min Euclidean distances between
foreground voxel centres, measured in millimetres via the grid spacing (pass
unit spacing for voxel units). The implementation uses an exact Euclidean
feature transform to find each voxel's nearest counterpart and recomputes
the distance from the index offsets, so values match brute-force pairwise
computation. Volume and surface area are voxel-based proxies: foreground
count times voxel volume, and the summed area of exposed voxel faces.

Hausdorff distance and surface area only look at the foreground's bounding
box (of both masks, for Hausdorff): every nearest counterpart and every
exposed face lies inside it, so the values are the same as over the whole
volume while the cost scales with the foreground.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return {
            "id": self.identifier,
            "dsc": self.dsc,
            "hd_mm": self.hd_mm,
            "pred_volume_mm3": self.pred_volume_mm3,
            "gt_volume_mm3": self.gt_volume_mm3,
            "pred_surface_mm2": self.pred_surface_mm2,
            "gt_surface_mm2": self.gt_surface_mm2,
        }


@dataclass(frozen=True)
class MetricSummary:
    """Population statistics of one metric across a cohort."""

    mean: float
    std: float
    median: float
    min: float
    max: float
    count: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "min": self.min,
            "max": self.max,
            "count": self.count,
        }


@dataclass(frozen=True)
class CohortSummary:
    """Per-metric summaries plus counts of flagged (undefined) entries."""

    metrics: dict[str, MetricSummary]
    flagged: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "metrics": {k: v.to_dict() for k, v in self.metrics.items()},
            "flagged": dict(self.flagged),
        }


def dice(x: BinaryMask, y: BinaryMask) -> float:
    """Voxel overlap 2|X n Y| / (|X| + |Y|); errors when both masks are empty."""
    require_same_grid(x, y)
    nx = x.count
    ny = y.count
    if nx + ny == 0:
        raise BothEmptyError("Dice undefined: both masks are empty")
    overlap = int(np.count_nonzero(x.voxels & y.voxels))
    return 2.0 * overlap / (nx + ny)


def _spacing(mask: BinaryMask, spacing) -> np.ndarray:
    return np.asarray(mask.grid.spacing if spacing is None else spacing, dtype=np.float64)


def _box(nonzero: np.ndarray) -> tuple[slice, slice, slice]:
    """Slices of the bounding box of a non-empty boolean array."""
    lo, hi = _bounding_box(nonzero)
    return tuple(slice(a, b + 1) for a, b in zip(lo, hi))


def _directed_hausdorff(a: np.ndarray, b: np.ndarray, spacing: np.ndarray) -> float:
    """max over a-voxels of the distance to the nearest b-voxel (mm)."""
    from scipy import ndimage  # here, so that importing sulcikit does not load SciPy

    nearest = ndimage.distance_transform_edt(
        ~b, sampling=spacing, return_distances=False, return_indices=True
    )
    sources = np.argwhere(a)
    targets = nearest[:, a].T
    dists = np.sqrt((((sources - targets) * spacing) ** 2).sum(axis=1))
    return float(dists.max())


def hausdorff(x: BinaryMask, y: BinaryMask, spacing=None) -> float:
    """Symmetric Hausdorff distance between foreground voxel centres.

    Distances use grid spacing unless an explicit ``spacing`` is given.
    Raises EmptySetError naming the empty side.
    """
    require_same_grid(x, y)
    if x.count == 0:
        raise EmptySetError("first")
    if y.count == 0:
        raise EmptySetError("second")
    sp = _spacing(x, spacing)
    # every nearest counterpart lies in the joint bounding box
    box = _box(x.voxels | y.voxels)
    a, b = x.voxels[box], y.voxels[box]
    return max(_directed_hausdorff(a, b, sp), _directed_hausdorff(b, a, sp))


def voxel_volume(mask: BinaryMask, spacing=None) -> float:
    """Foreground voxel count times the voxel volume (mm^3)."""
    sp = _spacing(mask, spacing)
    return mask.count * float(sp[0] * sp[1] * sp[2])


def voxel_surface_area(mask: BinaryMask, spacing=None) -> float:
    """Total area of exposed voxel faces (mm^2).

    A face is exposed when a foreground voxel borders background or the
    volume boundary along that axis.
    """
    sp = _spacing(mask, spacing)
    if not mask.voxels.any():
        return 0.0
    # outside its bounding box the mask is background: same transitions
    data = mask.voxels[_box(mask.voxels)]
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


_METRIC_FIELDS = (
    "dsc",
    "hd_mm",
    "pred_volume_mm3",
    "gt_volume_mm3",
    "pred_surface_mm2",
    "gt_surface_mm2",
)


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
