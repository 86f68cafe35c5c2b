"""Post-processing of raw sulcus predictions before meshing.

The chain bridges nearby segments with a binary dilation, labels connected
components on the dilated mask, and keeps only the original voxels that fall
inside the largest components (two by default, one sulcus per hemisphere).
Isolated noise voxels disappear; kept voxels are never modified, so the
output is always a subset of the input and the chain is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .volume import BinaryMask, LabelVolume

__all__ = [
    "ComponentLabeling",
    "PostprocConfig",
    "dilate",
    "connected_components",
    "postprocess_cs",
]

_CONNECTIVITY_RANK = {6: 1, 18: 2, 26: 3}


def _structure(connectivity: int) -> np.ndarray:
    if connectivity not in _CONNECTIVITY_RANK:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    return ndimage.generate_binary_structure(3, _CONNECTIVITY_RANK[connectivity])


@dataclass(frozen=True)
class PostprocConfig:
    """Dilation radius, neighbourhood connectivity and components to keep."""

    dilation_radius: int = 1
    connectivity: int = 26
    keep: int = 2

    def __post_init__(self):
        if self.dilation_radius < 0:
            raise ValueError(f"dilation_radius must be >= 0, got {self.dilation_radius}")
        if self.connectivity not in _CONNECTIVITY_RANK:
            raise ValueError(f"connectivity must be 6, 18 or 26, got {self.connectivity}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")


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


def dilate(mask: BinaryMask, radius: int, connectivity: int = 26) -> BinaryMask:
    """Binary dilation with the connectivity's structuring element, ``radius`` times."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return mask
    grown = ndimage.binary_dilation(
        mask.voxels, structure=_structure(connectivity), iterations=radius
    )
    return mask.with_voxels(grown)


def connected_components(mask: BinaryMask, connectivity: int = 26) -> ComponentLabeling:
    """Label connected components under 6/18/26-connectivity."""
    raw, n_raw = ndimage.label(mask.voxels, structure=_structure(connectivity))
    if n_raw > np.iinfo(np.uint16).max:
        raise ValueError(f"too many components for a uint16 label map: {n_raw}")
    flat = raw.ravel()
    ids, first_index = np.unique(flat, return_index=True)
    foreground = ids != 0
    ids, first_index = ids[foreground], first_index[foreground]
    counts = np.bincount(flat)[ids]
    order = np.lexsort((first_index, -counts))

    lut = np.zeros(n_raw + 1, dtype=np.uint16)
    lut[ids[order]] = np.arange(1, len(ids) + 1, dtype=np.uint16)
    sizes = {rank + 1: int(counts[o]) for rank, o in enumerate(order)}
    return ComponentLabeling(LabelVolume(mask.grid, lut[raw]), sizes)


def postprocess_cs(pred: BinaryMask, config: PostprocConfig = PostprocConfig()) -> BinaryMask:
    """Full prediction clean-up: dilate, label, keep the largest components.

    Components are computed on the dilated mask; the output keeps exactly the
    original voxels whose dilated component ranks within ``config.keep``.
    With fewer components than ``keep``, everything is retained. Idempotent:
    the kept components reproduce themselves under a second pass.
    """
    grown = dilate(pred, config.dilation_radius, config.connectivity)
    labeling = connected_components(grown, config.connectivity)
    comp = labeling.labels.voxels
    kept = pred.voxels & (comp > 0) & (comp <= config.keep)
    return pred.with_voxels(kept)
