"""Core 3D volume types plus cropping, resampling and mask extraction.

Voxel arrays are indexed ``[x, y, z]`` and stored x-fastest on disk. All
volume types are immutable after construction: the wrapped numpy arrays are
marked read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyVolumeError,
    GridMismatchError,
    ModeMismatchError,
)

__all__ = [
    "VoxelGrid",
    "IntensityVolume",
    "LabelVolume",
    "BinaryMask",
    "crop_to_content",
    "resample",
    "binarize",
    "nearest_sample",
    "require_same_grid",
]

_SPACING_RTOL = 1e-5


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Geometry of a 3D volume: shape (voxels), spacing (mm) and world affine.

    The affine is a 4x4 matrix mapping voxel indices to world millimetres;
    the norm of each of its first three columns must match the spacing.
    """

    shape: tuple[int, int, int]
    spacing: tuple[float, float, float]
    affine: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        spacing = tuple(float(s) for s in self.spacing)
        affine = np.array(self.affine, dtype=np.float64)
        if len(shape) != 3 or any(s < 1 for s in shape):
            raise ValueError(f"shape must be 3 positive integers, got {shape}")
        if len(spacing) != 3 or any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be 3 positive reals, got {spacing}")
        if affine.shape != (4, 4):
            raise ValueError("affine must be a 4x4 matrix")
        norms = np.linalg.norm(affine[:3, :3], axis=0)
        if not np.allclose(norms, spacing, rtol=_SPACING_RTOL, atol=0.0):
            raise ValueError(
                f"affine column norms {norms} do not match spacing {spacing}"
            )
        affine.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "affine", affine)

    @classmethod
    def from_spacing(cls, shape, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> "VoxelGrid":
        """Axis-aligned grid with a diagonal affine and the given origin."""
        affine = np.eye(4)
        affine[:3, :3] = np.diag(spacing)
        affine[:3, 3] = origin
        return cls(tuple(shape), tuple(spacing), affine)

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.shape))

    def same_geometry(self, other: "VoxelGrid", tol: float = 1e-5) -> bool:
        """True when shapes match and affines agree within ``tol``."""
        return self.shape == other.shape and bool(
            np.allclose(self.affine, other.affine, rtol=0.0, atol=tol)
        )


def _freeze(voxels: np.ndarray) -> np.ndarray:
    voxels = np.ascontiguousarray(voxels)
    voxels.flags.writeable = False
    return voxels


@dataclass(frozen=True, eq=False)
class IntensityVolume:
    """Scalar intensity map (float32) on a voxel grid; values must be finite."""

    grid: VoxelGrid
    voxels: np.ndarray = field(repr=False)

    def __post_init__(self):
        voxels = np.asarray(self.voxels, dtype=np.float32).reshape(self.grid.shape)
        if not np.isfinite(voxels).all():
            raise ValueError("intensity volume contains NaN or Inf")
        object.__setattr__(self, "voxels", _freeze(voxels))

    def with_voxels(self, voxels: np.ndarray) -> "IntensityVolume":
        return IntensityVolume(self.grid, voxels)


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Integer label map (uint16) on a voxel grid; label 0 is background."""

    grid: VoxelGrid
    voxels: np.ndarray = field(repr=False)

    def __post_init__(self):
        voxels = np.asarray(self.voxels)
        if not np.issubdtype(voxels.dtype, np.integer) and not np.issubdtype(
            voxels.dtype, np.bool_
        ):
            raise ValueError(f"label voxels must be integers, got {voxels.dtype}")
        if voxels.size and (voxels.min() < 0 or voxels.max() > np.iinfo(np.uint16).max):
            raise ValueError("labels must fit in uint16")
        voxels = voxels.astype(np.uint16).reshape(self.grid.shape)
        object.__setattr__(self, "voxels", _freeze(voxels))

    def with_voxels(self, voxels: np.ndarray) -> "LabelVolume":
        return LabelVolume(self.grid, voxels)

    def labels_present(self) -> list[int]:
        """Sorted list of labels occurring in the volume."""
        return [int(v) for v in np.unique(self.voxels)]


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean foreground mask on a voxel grid."""

    grid: VoxelGrid
    voxels: np.ndarray = field(repr=False)

    def __post_init__(self):
        voxels = np.asarray(self.voxels, dtype=bool).reshape(self.grid.shape)
        object.__setattr__(self, "voxels", _freeze(voxels))

    def with_voxels(self, voxels: np.ndarray) -> "BinaryMask":
        return BinaryMask(self.grid, voxels)

    @property
    def count(self) -> int:
        return int(self.voxels.sum())


def require_same_grid(a, b) -> None:
    """Raise GridMismatchError unless both volumes share one geometry."""
    if not a.grid.same_geometry(b.grid):
        raise GridMismatchError(
            f"grids differ: {a.grid.shape}/{a.grid.spacing} vs {b.grid.shape}/{b.grid.spacing}"
        )


def _linear_weights(n_src: int, positions: np.ndarray) -> np.ndarray:
    """Linear-interpolation matrix of shape ``(len(positions), n_src)``.

    Row t holds the two taps around source position ``positions[t]`` (index
    units). Taps outside ``[0, n_src)`` are dropped, so they read as 0.
    """
    base = np.floor(positions)
    frac = positions - base
    base = base.astype(np.int64)
    rows = np.arange(len(positions))
    weights = np.zeros((len(positions), n_src))
    for idx, w in ((base, 1.0 - frac), (base + 1, frac)):
        inside = (idx >= 0) & (idx < n_src)
        weights[rows[inside], idx[inside]] = w[inside]
    return weights


def _separable_apply(mats, values: np.ndarray) -> np.ndarray:
    """Apply one ``(out_i, in_i)`` weight matrix along each axis i of ``values``.

    The shared kernel behind linear resampling, lattice upsampling and blur.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.einsum("ia,jb,kc,abc->ijk", *mats, values, optimize=True)


def nearest_sample(values: np.ndarray, coords: np.ndarray, fill=0) -> np.ndarray:
    """Nearest-voxel-centre lookup at fractional coordinates.

    Ties between two centres round up (``floor(x + 0.5)``). Coordinates whose
    nearest centre lies outside the volume read as ``fill``.
    """
    values = np.asarray(values)
    coords = np.asarray(coords, dtype=np.float64)
    idx = np.floor(coords + 0.5).astype(np.int64)
    shape = np.asarray(values.shape, dtype=np.int64)
    inside = np.all((idx >= 0) & (idx < shape), axis=-1)
    clipped = np.clip(idx, 0, shape - 1)
    out = values[clipped[..., 0], clipped[..., 1], clipped[..., 2]]
    return np.where(inside, out, np.asarray(fill, dtype=values.dtype))


def crop_to_content(volume, margin: int = 0):
    """Crop to the bounding box of nonzero voxels, expanded by ``margin``.

    Returns ``(cropped, offset)`` where ``offset`` maps cropped indices back
    to the original volume. Raises EmptyVolumeError if everything is zero.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    data = volume.voxels
    nonzero = data != 0
    if not nonzero.any():
        raise EmptyVolumeError("cannot crop an all-zero volume")
    lo = []
    hi = []
    for ax in range(3):
        axes = tuple(a for a in range(3) if a != ax)
        present = np.flatnonzero(nonzero.any(axis=axes))
        lo.append(max(int(present[0]) - margin, 0))
        hi.append(min(int(present[-1]) + margin, data.shape[ax] - 1))
    sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
    cropped = data[sl]
    origin = volume.grid.affine @ np.array([lo[0], lo[1], lo[2], 1.0])
    affine = np.array(volume.grid.affine)
    affine[:3, 3] = origin[:3]
    grid = VoxelGrid(cropped.shape, volume.grid.spacing, affine)
    return type(volume)(grid, cropped), (lo[0], lo[1], lo[2])


def resample(volume, target_shape, mode: str = "trilinear"):
    """Resample to ``target_shape``, rescaling spacing to preserve extent.

    ``mode`` is ``"trilinear"`` (intensities) or ``"nearest"`` (any type);
    label volumes require nearest. Out-of-range samples read as 0.
    """
    target_shape = tuple(int(t) for t in target_shape)
    if any(t < 1 for t in target_shape):
        raise ValueError(f"target_shape entries must be >= 1, got {target_shape}")
    if mode not in ("trilinear", "nearest"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "trilinear" and isinstance(volume, (LabelVolume, BinaryMask)):
        raise ModeMismatchError(
            f"{type(volume).__name__} must be resampled with mode='nearest'"
        )

    src_shape = volume.grid.shape
    scale = np.array([s / t for s, t in zip(src_shape, target_shape)])
    # target voxel t samples source position (t + 0.5) * S/T - 0.5, the
    # centre-aligned mapping, so the first and last voxel extents line up
    positions = [
        (np.arange(t, dtype=np.float64) + 0.5) * k - 0.5 for t, k in zip(target_shape, scale)
    ]
    if mode == "trilinear":
        mats = [_linear_weights(s, p) for s, p in zip(src_shape, positions)]
        data = _separable_apply(mats, volume.voxels)
    else:
        coords = np.stack(np.meshgrid(*positions, indexing="ij"), axis=-1)
        data = nearest_sample(volume.voxels, coords)

    # index map t -> K t + (K - 1)/2 folded into the affine
    index_map = np.eye(4)
    index_map[:3, :3] = np.diag(scale)
    index_map[:3, 3] = (scale - 1.0) / 2.0
    affine = volume.grid.affine @ index_map
    spacing = tuple(sp * k for sp, k in zip(volume.grid.spacing, scale))
    grid = VoxelGrid(target_shape, spacing, affine)
    return type(volume)(grid, data.astype(volume.voxels.dtype))


def binarize(labels: LabelVolume, label_set) -> BinaryMask:
    """Mask of voxels whose label belongs to ``label_set``."""
    wanted = np.asarray(sorted(int(l) for l in label_set), dtype=np.uint16)
    mask = np.isin(labels.voxels, wanted)
    return BinaryMask(labels.grid, mask)
