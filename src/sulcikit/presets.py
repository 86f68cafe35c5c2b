"""Bundled defaults: a toy phantom label map and T1w-like intensity priors.

The phantom is a deterministic nested-shell head: white matter core (label
3), grey matter shell (2), a thin fluid shell (1), and two vertical sulcus
ribbons (48 and 49, one per hemisphere) cutting into the grey matter. It is
small enough for tests and demos yet exercises every pipeline stage.

The shipped priors are illustrative values on a 0-255 T1w-like scale, NOT
measured tissue statistics; supply your own priors file for real studies.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .synth import GeneratorConfig, TissuePriors
from .volume import LabelVolume, VoxelGrid

__all__ = [
    "make_phantom",
    "default_priors",
    "default_generator_config",
    "PHANTOM_SUBSTITUTIONS",
]

CSF, GM, WM = 1, 2, 3
SULCUS_LEFT, SULCUS_RIGHT = 48, 49

# sulcus voxels synthesize with grey-matter intensities
PHANTOM_SUBSTITUTIONS = {SULCUS_LEFT: GM, SULCUS_RIGHT: GM}


def default_priors() -> TissuePriors:
    """Illustrative T1w-like priors for the phantom's CSF/GM/WM labels."""
    text = resources.files("sulcikit").joinpath("data/default_priors.json").read_text()
    return TissuePriors.from_entries(json.loads(text))


def default_generator_config(**overrides) -> GeneratorConfig:
    """Generator defaults wired for the phantom's sulcus labels."""
    base = dict(substitution_table=dict(PHANTOM_SUBSTITUTIONS))
    base.update(overrides)
    return GeneratorConfig(**base)


def make_phantom(shape=(48, 48, 40), spacing=(1.0, 1.0, 1.0)) -> LabelVolume:
    """Deterministic toy head: nested tissue shells plus two sulcus ribbons."""
    grid = VoxelGrid.from_spacing(shape, spacing)
    centre = (np.asarray(grid.shape, dtype=np.float64) - 1.0) / 2.0
    # broadcastable 1-D index grids, shapes (nx,1,1), (1,ny,1) and (1,1,nz),
    # never a full (*shape, 3) coordinate array
    x, y, z = np.ix_(*(np.arange(s, dtype=np.float64) for s in grid.shape))
    dx, dy, dz = x - centre[0], y - centre[1], z - centre[2]
    # np.linalg.norm's order over a length-3 axis, so the shells are unchanged
    radius = np.sqrt((dx * dx + dy * dy) + dz * dz)
    r_head = min(grid.shape) / 2.0 - 2.0

    labels = np.zeros(grid.shape, dtype=np.uint16)
    labels[radius < 0.90 * r_head] = CSF
    labels[radius < 0.80 * r_head] = GM
    labels[radius < 0.55 * r_head] = WM

    # one-voxel-thick vertical ribbons inside the cortex, one per hemisphere
    offset = 0.45 * r_head
    band = (
        (np.abs(y - centre[1]) < 0.55 * r_head)
        & (np.abs(z - centre[2]) < 0.45 * r_head)
        & (radius < 0.80 * r_head)
        & (radius > 0.30 * r_head)
    )
    labels[band & (np.abs(x - (centre[0] - offset)) < 0.75)] = SULCUS_LEFT
    labels[band & (np.abs(x - (centre[0] + offset)) < 0.75)] = SULCUS_RIGHT
    return LabelVolume(grid, labels)
