"""Post-processing of raw sulcus predictions before meshing.

The chain bridges nearby segments with a binary dilation, labels connected
components on the dilated mask, and keeps only the original voxels that fall
inside the largest components (two by default, one sulcus per hemisphere).
Isolated noise voxels disappear; kept voxels are never modified, so the
output is always a subset of the input and the chain is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import combinations

import numpy as np

from .volume import MAX_LABEL, BinaryMask, LabelVolume, _int

__all__ = [
    "ComponentLabeling",
    "PostprocConfig",
    "dilate",
    "connected_components",
    "postprocess_cs",
]

# number of axes a single neighbour step may move along
_CONNECTIVITY_RANK = {6: 1, 18: 2, 26: 3}


def _connectivity(value, name: str = "connectivity") -> int:
    connectivity = _int(value, name)
    if connectivity not in _CONNECTIVITY_RANK:
        raise ValueError(f"{name} must be 6, 18 or 26, got {connectivity}")
    return connectivity


# how PostprocConfig reads each of its fields: reader(value, field name)
_POSTPROC_READERS = {
    "dilation_radius": partial(_int, low=0),
    "connectivity": _connectivity,
    "keep": partial(_int, low=1),
}


@dataclass(frozen=True)
class PostprocConfig:
    """Dilation radius, neighbourhood connectivity and components to keep."""

    dilation_radius: int = 1
    connectivity: int = 26
    keep: int = 2

    def __post_init__(self):
        for name, read in _POSTPROC_READERS.items():
            object.__setattr__(self, name, read(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Connected components: id map (0 = background) and sizes.

    Component ids are 1..C, assigned in decreasing size order with ties
    broken by the smallest linear voxel index, so labelings are reproducible.
    ``sizes`` maps id -> voxel count in id order.
    """

    labels: LabelVolume
    sizes: dict[int, int] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.sizes)


def _grow_box(voxels: np.ndarray, axes, width: int) -> np.ndarray:
    """OR of ``voxels`` shifted by up to ``width`` voxels both ways along each
    of ``axes`` in turn: dilation by a box over those axes, zero outside."""
    for axis in axes:
        grown = voxels.copy()
        src, dst = np.moveaxis(voxels, axis, 0), np.moveaxis(grown, axis, 0)
        for shift in range(1, width + 1):
            dst[shift:] |= src[:-shift]
            dst[:-shift] |= src[shift:]
        voxels = grown
    return voxels


def dilate(mask: BinaryMask, radius: int, connectivity=PostprocConfig.connectivity) -> BinaryMask:
    """Binary dilation with the connectivity's structuring element, ``radius`` times.

    Equal bitwise to SciPy's ``binary_dilation`` with the 6/18/26 element,
    ``iterations=radius`` and a zero border. The element is the union of the
    boxes over every set of ``rank`` axes (rank 1, 2, 3 for 6, 18, 26):
    three axis segments, three in-plane squares, or the cube. ``radius``
    cubes compose into one cube ``2 * radius + 1`` wide.
    """
    radius = _int(radius, "radius", low=0)
    rank = _CONNECTIVITY_RANK[_connectivity(connectivity)]
    if radius == 0:
        return mask
    steps, width = (1, radius) if rank == 3 else (radius, 1)
    voxels = mask.voxels
    for _ in range(steps):
        voxels = reduce(np.logical_or, [
            _grow_box(voxels, axes, width) for axes in combinations(range(3), rank)
        ])
    return mask.with_voxels(voxels)


def _ranked_components(voxels: np.ndarray, connectivity: int):
    """Label ``voxels`` and rank the raw component ids.

    Returns the raw id map, the raw ids in rank order (size descending, ties
    broken by the smallest linear voxel index) and their sizes in that order.
    Raw ids are 1..C, so C is the number of ranked ids.
    """
    from scipy import ndimage  # here, so that importing sulcikit does not load SciPy

    structure = ndimage.generate_binary_structure(3, _CONNECTIVITY_RANK[connectivity])
    raw, _ = ndimage.label(voxels, structure=structure)
    fg = np.flatnonzero(raw)
    fg_ids = raw.ravel()[fg]
    ids, first = np.unique(fg_ids, return_index=True)
    counts = np.bincount(fg_ids)[ids]
    order = np.lexsort((fg[first], -counts))
    return raw, ids[order], counts[order]


def connected_components(
    mask: BinaryMask, connectivity=PostprocConfig.connectivity
) -> ComponentLabeling:
    """Label connected components under 6/18/26-connectivity."""
    raw, ranked, sizes = _ranked_components(mask.voxels, _connectivity(connectivity))
    if len(ranked) > MAX_LABEL:
        raise ValueError(f"too many components for a uint16 label map: {len(ranked)}")
    lut = np.zeros(len(ranked) + 1, dtype=np.uint16)
    lut[ranked] = np.arange(1, len(ranked) + 1, dtype=np.uint16)
    return ComponentLabeling(
        LabelVolume(mask.grid, lut[raw]),
        {rank: int(size) for rank, size in enumerate(sizes, start=1)},
    )


def postprocess_cs(pred: BinaryMask, config: PostprocConfig = PostprocConfig()) -> BinaryMask:
    """Full prediction clean-up: dilate, label, keep the largest components.

    Components are computed on the dilated mask; the output keeps exactly the
    original voxels whose dilated component ranks within ``config.keep``.
    With fewer components than ``keep``, everything is retained. Idempotent:
    the kept components reproduce themselves under a second pass. The cost is
    one component labeling, a few whole-volume boolean passes and work
    proportional to the foreground; no relabeled volume is built.
    """
    grown = dilate(pred, config.dilation_radius, config.connectivity)
    raw, ranked, _ = _ranked_components(grown.voxels, config.connectivity)
    keep = np.zeros(len(ranked) + 1, dtype=bool)
    keep[ranked[: config.keep]] = True
    # every input voxel lies in the dilated mask, so its raw id is nonzero
    fg = np.flatnonzero(pred.voxels)
    kept = np.zeros(pred.voxels.size, dtype=bool)
    kept[fg[keep[raw.ravel()[fg]]]] = True
    return pred.with_voxels(kept.reshape(pred.voxels.shape))
