"""Core 3D volume types plus cropping, resampling and mask extraction.

Voxel arrays are indexed ``[x, y, z]`` and stored x-fastest on disk. All
volume types are immutable after construction: each holds a read-only array
that no writable array shares (``_owned``), so instances are safe to share
across threads.

The package's number readers (``_int``, ``_real``, ``_triple``, ``_label``) live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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
_AFFINE_ATOL = 1e-5  # how far two affines' entries may differ on one geometry
MAX_LABEL = np.iinfo(np.uint16).max  # the largest label: LabelVolume voxels are uint16


def _int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """A whole number: an int, a whole float or a decimal string; never a bool or a fraction."""
    digits = isinstance(value, str) and value.isascii() and value.removeprefix("-").isdecimal()
    if digits or (isinstance(value, (float, np.floating)) and value.is_integer()):
        value = int(value)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return int(value)


_label = partial(_int, low=0, high=MAX_LABEL)


def _real(value, name: str, low: float | None = None, above: float | None = None) -> float:
    """A finite real, as ``float()`` reads it but never a bool; ``>= low`` and ``> above``."""
    try:
        real = np.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        real = np.nan
    if not np.isfinite(real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if (low is not None and real < low) or (above is not None and real <= above):
        bound = f">= {low}" if above is None else f"> {above}"
        raise ValueError(f"{name} must be {bound}, got {real}")
    return real


def _triple(value, name: str, read=_int, **bounds) -> tuple:
    """Three numbers from a list, tuple or array, entry i read as ``read(v, name[i], **bounds)``."""
    if not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0) or len(value) != 3:
        raise ValueError(f"{name} must have three entries, got {value!r}")
    return tuple(read(v, f"{name}[{i}]", **bounds) for i, v in enumerate(value))


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Geometry of a 3D volume: shape (voxels), spacing (mm) and world affine.

    The affine is a finite 4x4 matrix mapping voxel indices to world millimetres;
    the norm of each of its first three columns must match the spacing.
    """

    shape: tuple[int, int, int]
    spacing: tuple[float, float, float]
    affine: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = _triple(self.shape, "shape", low=1)
        affine = np.array(self.affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ValueError("affine must be a 4x4 matrix")
        if not np.isfinite(affine).all():
            raise ValueError("affine contains NaN or Inf")
        spacing = _triple(self.spacing, "spacing", _real, above=0)
        norms = np.linalg.norm(affine[:3, :3], axis=0)
        if not np.allclose(norms, spacing, rtol=_SPACING_RTOL, atol=0.0):
            raise ValueError(f"affine column norms {norms} do not match spacing {spacing}")
        affine.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "affine", affine)

    @classmethod
    def from_spacing(cls, shape, spacing=(1.0, 1.0, 1.0)) -> "VoxelGrid":
        """Axis-aligned grid with a diagonal affine, voxel 0 at the world origin."""
        spacing = _triple(spacing, "spacing", _real, above=0)
        return cls(shape, spacing, np.diag([*spacing, 1.0]))

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.shape))

    def same_geometry(self, other: "VoxelGrid") -> bool:
        """True when shapes match and affines agree within ``_AFFINE_ATOL``."""
        return self.shape == other.shape and bool(
            np.allclose(self.affine, other.affine, rtol=0.0, atol=_AFFINE_ATOL)
        )


def _owned(voxels, dtype, shape) -> np.ndarray:
    """A read-only C-order ``dtype`` array of ``shape`` that no writable array shares.

    An array that is already read-only, C-order, of ``dtype`` and owns its
    memory is taken over without a copy; anything else is copied once (a
    dtype cast being that copy), so later writes by the caller cannot reach it.
    """
    flags = voxels.flags if isinstance(voxels, np.ndarray) and voxels.dtype == dtype else None
    if not (flags and flags.c_contiguous and flags.owndata and not flags.writeable):
        voxels = np.array(voxels, dtype=dtype, order="C")
        voxels.flags.writeable = False
    return voxels.reshape(shape)


@dataclass(frozen=True, eq=False)
class _GridVolume:
    """Voxels of one dtype on a voxel grid, owned by the volume (see ``_owned``)."""

    grid: VoxelGrid
    voxels: np.ndarray = field(repr=False)

    _dtype = None  # set by each volume type

    def __post_init__(self):
        object.__setattr__(self, "voxels", _owned(self.voxels, self._dtype, self.grid.shape))

    def with_voxels(self, voxels: np.ndarray):
        """The same volume type on the same grid, holding ``voxels``."""
        return type(self)(self.grid, voxels)


@dataclass(frozen=True, eq=False)
class IntensityVolume(_GridVolume):
    """Scalar intensity map (float32) on a voxel grid; values must be finite."""

    _dtype = np.float32

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.voxels).all():
            raise ValueError("intensity values are not finite as float32")


@dataclass(frozen=True, eq=False)
class LabelVolume(_GridVolume):
    """Integer label map (uint16, labels 0..MAX_LABEL) on a voxel grid; label 0 is background."""

    _dtype = np.uint16

    def __post_init__(self):
        voxels = np.asarray(self.voxels)
        if not (np.issubdtype(voxels.dtype, np.integer) or voxels.dtype == np.bool_):
            raise ValueError(f"label voxels must be integers, got {voxels.dtype}")
        if voxels.size and (voxels.min() < 0 or voxels.max() > MAX_LABEL):
            raise ValueError(f"label values must be in 0..{MAX_LABEL}")
        super().__post_init__()

    def labels_present(self) -> list[int]:
        """Sorted list of labels occurring in the volume.

        One linear pass: each voxel marks its label in a table over every
        label value, with no sort and no widened copy of the volume.
        """
        seen = np.zeros(MAX_LABEL + 1, dtype=bool)
        seen[self.voxels.ravel()] = True
        return [int(v) for v in np.flatnonzero(seen)]


@dataclass(frozen=True, eq=False)
class BinaryMask(_GridVolume):
    """Boolean foreground mask on a voxel grid."""

    _dtype = np.bool_

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.voxels))


def require_same_grid(a, b) -> None:
    """Raise GridMismatchError unless both volumes share one geometry."""
    if not a.grid.same_geometry(b.grid):
        raise GridMismatchError(
            f"grids differ: {a.grid.shape}/{a.grid.spacing} vs {b.grid.shape}/{b.grid.spacing}"
        )


def _linear_taps(n_src: int, positions: np.ndarray):
    """The two linear-interpolation taps around each source position.

    Returns ``[(floor(p), 1 - frac), (floor(p) + 1, frac)]`` as (index,
    weight) array pairs, in index units. A tap outside ``[0, n_src)`` has
    weight 0 and its index clipped into the axis, so it reads as 0.
    """
    base = np.floor(positions)
    frac = positions - base
    base = base.astype(np.int64)
    taps = []
    for idx, w in ((base, 1.0 - frac), (base + 1, frac)):
        inside = (idx >= 0) & (idx < n_src)
        taps.append((np.clip(idx, 0, n_src - 1), np.where(inside, w, 0.0)))
    return taps


def _nearest_taps(n_src: int, positions: np.ndarray):
    """The nearest-centre tap at each source position, ties rounding up: ``floor(p + 0.5)``.

    Returns ``[(index, inside)]``: the index clipped into ``[0, n_src)``, and
    a bool weight, False where the unclipped index lies outside the axis.
    """
    idx = np.floor(positions + 0.5).astype(np.int64)
    inside = (idx >= 0) & (idx < n_src)
    np.clip(idx, 0, n_src - 1, out=idx)
    return [(idx, inside)]


def _gather_axis(values: np.ndarray, axis: int, taps) -> np.ndarray:
    """Apply one axis's taps by gathering: the weighted sum of each tap's reads.

    A bool weight keeps the values' dtype."""
    shape = [1, 1, 1]
    shape[axis] = -1
    (idx, w), *rest = taps
    out = np.take(values, idx, axis=axis) * w.reshape(shape)
    for idx, w in rest:
        out += np.take(values, idx, axis=axis) * w.reshape(shape)
    return out


def _separable_apply(axis_taps, values: np.ndarray) -> np.ndarray:
    """Apply each axis's taps as one dense ``(out_i, in_i)`` matrix, in one BLAS contraction.

    Taps of one row that land on one column (clipped or reflected) add in the
    order given; with einsum's order, that pins the generator's bytes."""
    values = np.asarray(values, dtype=np.float64)
    mats = []
    for n_src, taps in zip(values.shape, axis_taps):
        rows = np.arange(len(taps[0][0]))
        mat = np.zeros((len(rows), n_src))
        for idx, w in taps:
            np.add.at(mat, (rows, idx), w)
        mats.append(mat)
    return np.einsum("ia,jb,kc,abc->ijk", *mats, values, optimize=True)


def nearest_sample(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Nearest-voxel-centre lookup at fractional coordinates (``_nearest_taps``).

    Coordinates whose nearest centre lies outside the volume read as 0.
    """
    values = np.asarray(values)
    coords = np.asarray(coords, dtype=np.float64)
    # one axis at a time into a flat C-order index: no (N, 3) temporaries
    flat = np.zeros(coords.shape[:-1], dtype=np.int64)
    inside = np.ones(coords.shape[:-1], dtype=bool)
    for axis, size in enumerate(values.shape):
        [(idx, inside_axis)] = _nearest_taps(size, coords[..., axis])
        inside &= inside_axis
        flat *= size
        flat += idx
    out = values.ravel()[flat]
    out[~inside] = 0
    return out


def _bounding_box(nonzero: np.ndarray) -> tuple[slice, slice, slice]:
    """Slices of the bounding box of the True voxels; ``nonzero`` must hold one."""
    box = []
    for ax in range(3):
        axes = tuple(a for a in range(3) if a != ax)
        present = np.flatnonzero(nonzero.any(axis=axes))
        box.append(slice(int(present[0]), int(present[-1]) + 1))
    return tuple(box)


def crop_to_content(volume, margin: int = 0):
    """Crop to the bounding box of nonzero voxels, expanded by ``margin``.

    Returns ``(cropped, offset)`` where ``offset`` maps cropped indices back
    to the original volume. Raises EmptyVolumeError if everything is zero.
    """
    margin = _int(margin, "margin", low=0)
    data = volume.voxels
    nonzero = data != 0
    if not nonzero.any():
        raise EmptyVolumeError("cannot crop an all-zero volume")
    box = tuple(
        slice(max(s.start - margin, 0), min(s.stop + margin, n))
        for s, n in zip(_bounding_box(nonzero), data.shape)
    )
    lo = tuple(s.start for s in box)
    cropped = data[box]
    origin = volume.grid.affine @ np.array([*lo, 1.0])
    affine = np.array(volume.grid.affine)
    affine[:3, 3] = origin[:3]
    grid = VoxelGrid(cropped.shape, volume.grid.spacing, affine)
    return type(volume)(grid, cropped), lo


def resample(volume, target_shape, mode: str = "trilinear"):
    """Resample to ``target_shape``, rescaling spacing to preserve extent.

    ``mode`` is ``"trilinear"`` (intensities) or ``"nearest"`` (any type);
    label volumes require nearest. Only a trilinear edge tap can fall
    outside the source (when upsampling puts the outer target centres beyond
    the outer source centres); it reads as 0. Nearest reads always land inside.
    """
    target_shape = _triple(target_shape, "target_shape", low=1)
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
    # one axis at a time, the most shrinking first, so every pass reads the
    # smallest intermediate
    taps = _linear_taps if mode == "trilinear" else _nearest_taps
    data = volume.voxels
    for ax in sorted(range(3), key=lambda a: target_shape[a] / src_shape[a]):
        data = _gather_axis(data, ax, taps(src_shape[ax], positions[ax]))

    # index map t -> K t + (K - 1)/2 folded into the affine
    index_map = np.eye(4)
    index_map[:3, :3] = np.diag(scale)
    index_map[:3, 3] = (scale - 1.0) / 2.0
    affine = volume.grid.affine @ index_map
    spacing = tuple(sp * k for sp, k in zip(volume.grid.spacing, scale))
    grid = VoxelGrid(target_shape, spacing, affine)
    return type(volume)(grid, data)


def binarize(labels: LabelVolume, label_set) -> BinaryMask:
    """Mask of voxels whose label belongs to ``label_set``."""
    wanted = np.asarray([_label(l, "label_set") for l in label_set], dtype=np.uint16)
    return BinaryMask(labels.grid, np.isin(labels.voxels, wanted))
