"""Core 3D volume types plus cropping, resampling and mask extraction.

Voxel arrays are indexed ``[x, y, z]`` and stored x-fastest on disk. All
volume types are immutable after construction: each holds a read-only array
that no writable array shares (``_owned``), so instances are safe to share
across threads. A grid is its shape and its affine; its spacing is read from
the affine, and crops and resamples re-index the affine (``_reindexed``).

The package's number readers (``_int``, ``_real``, ``_triple``, ``_label``) live here.
"""

from __future__ import annotations

import math
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


def _real(
    value, name: str, low: float | None = None, above: float | None = None,
    high: float | None = None,
) -> float:
    """A finite real, as ``float()`` reads it but never a bool; ``>= low``, ``> above``
    and ``<= high``."""
    try:
        real = np.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        real = np.nan
    if not np.isfinite(real):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if (low is not None and real < low) or (above is not None and real <= above):
        bound = f">= {low}" if above is None else f"> {above}"
        raise ValueError(f"{name} must be {bound}, got {real}")
    if high is not None and real > high:
        raise ValueError(f"{name} must be <= {high}, got {real}")
    return real


def _triple(value, name: str, read=_int, **bounds) -> tuple:
    """Three numbers from a list, tuple or array, entry i read as ``read(v, name[i], **bounds)``."""
    if not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0) or len(value) != 3:
        raise ValueError(f"{name} must have three entries, got {value!r}")
    return tuple(read(v, f"{name}[{i}]", **bounds) for i, v in enumerate(value))


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Geometry of a 3D volume: its shape (voxels) and its world affine.

    The affine is a finite 4x4 matrix mapping voxel indices to world
    millimetres. The spacing (mm) is read from it, never passed: the norms of
    its first three columns, each of which must be positive.
    """

    shape: tuple[int, int, int]
    affine: np.ndarray = field(repr=False)
    spacing: tuple[float, float, float] = field(init=False)

    def __post_init__(self):
        shape = _triple(self.shape, "shape", low=1)
        affine = np.array(self.affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ValueError("affine must be a 4x4 matrix")
        if not np.isfinite(affine).all():
            raise ValueError("affine contains NaN or Inf")
        # nested hypot scales as it goes, so no column norm squares to 0 or
        # to inf, and an axis-aligned column reads back exactly: hypot(s, 0) == s
        linear = affine[:3, :3]
        norms = np.hypot(np.hypot(linear[0], linear[1]), linear[2])
        spacing = _triple(norms, "spacing", _real, above=0)
        affine.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "affine", affine)
        object.__setattr__(self, "spacing", spacing)

    @classmethod
    def from_spacing(cls, shape, spacing=(1.0, 1.0, 1.0)) -> "VoxelGrid":
        """Axis-aligned grid with a diagonal affine, voxel 0 at the world origin."""
        return cls(shape, np.diag([*_triple(spacing, "spacing", _real, above=0), 1.0]))

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.shape))


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
        # no bool, uint8 or uint16 value lies outside the range, so only other dtypes are scanned
        scan = voxels.size and not np.can_cast(voxels.dtype, np.uint16)
        if scan and (voxels.min() < 0 or voxels.max() > MAX_LABEL):
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
    """Raise GridMismatchError unless both volumes' grids share a shape and an affine.

    Two affines agree when every entry is within ``_AFFINE_ATOL`` mm; the
    error names the largest entry difference."""
    ga, gb = a.grid, b.grid
    gap = float(np.abs(ga.affine - gb.affine).max())
    if ga.shape != gb.shape or gap > _AFFINE_ATOL:
        raise GridMismatchError(
            f"grids differ: {ga.shape}/{ga.spacing} vs {gb.shape}/{gb.spacing},"
            f" affine entries up to {gap:.6g} mm apart"
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
    idx = np.add(positions, 0.5)
    idx = np.floor(idx, out=idx).astype(np.int64)
    # a negative index reads as a huge unsigned one, so one compare tests both ends
    inside = idx.view(np.uint64) < n_src
    np.clip(idx, 0, n_src - 1, out=idx)
    return [(idx, inside)]


def _gather_axis(values: np.ndarray, axis: int, taps) -> np.ndarray:
    """Apply one axis's taps by gathering: the weighted sum of each tap's reads.

    Each tap's reads are weighted in place when they already have the
    product's dtype, so a tap costs one gathered array. A tap whose weight is
    None is read unweighted, in the values' dtype: nearest resample's taps,
    and the one tap that reads a control-lattice axis of one node per voxel."""
    shape = [1, 1, 1]
    shape[axis] = -1

    def read(idx, w):
        tap = np.take(values, idx, axis=axis)
        if w is None:
            return tap
        w = w.reshape(shape)
        return np.multiply(tap, w, out=tap if tap.dtype == np.result_type(tap, w) else None)

    (idx, w), *rest = taps
    out = read(idx, w)
    for idx, w in rest:
        out += read(idx, w)
    return out


# the voxels a slab holds: a slabbed applier (resample, the label warp, the
# bias field) takes as many rows as fit in this budget, at least one. That
# is 16 rows of an 80x96x80 volume and 4 at 160x192x160
_SLAB_VOXELS = 122_880


def _slabs(taps, n_rows: int, plane: int):
    """Slabs of target rows along one axis, each with the source rows its taps read.

    A slab holds ``_SLAB_VOXELS // plane`` rows, at least one, where ``plane``
    is the voxels per row of the slab's widest array. Yields ``(rows,
    sources, slab_taps)``: the slice of target rows, the slice of source rows
    that their taps read, and the taps cut to ``rows`` and shifted onto
    ``sources``.
    """
    step = max(1, _SLAB_VOXELS // plane)
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        cut = [(idx[rows], None if w is None else w[rows]) for idx, w in taps]
        lo = min(int(idx.min()) for idx, _ in cut)
        hi = max(int(idx.max()) for idx, _ in cut) + 1
        yield rows, slice(lo, hi), [(idx - lo, w) for idx, w in cut]


def nearest_sample(values: np.ndarray, coords) -> np.ndarray:
    """Nearest-voxel-centre lookup at fractional coordinates (``_nearest_taps``).

    ``coords`` yields one array of source coordinates per axis of
    ``values``, all of one shape, the shape of the result; each is read
    once. Coordinates whose nearest centre lies outside the volume read as 0.
    """
    values = np.asarray(values)
    taps = (
        _nearest_taps(size, np.asarray(positions, dtype=np.float64))[0]
        for size, positions in zip(values.shape, coords)
    )
    # one axis at a time into a flat C-order index, each axis's coordinates
    # read only once the previous axis is folded in
    flat, inside = next(taps)
    for size, (idx, inside_axis) in zip(values.shape[1:], taps):
        flat *= size
        flat += idx
        inside &= inside_axis
    out = values.ravel()[flat]
    return np.multiply(out, inside, out=out)  # as a bool weight reads: 0 outside


def _bounding_box(nonzero: np.ndarray) -> tuple[slice, slice, slice]:
    """Slices of the bounding box of the True voxels; ``nonzero`` must hold one.

    Two passes: ``any`` over axis 0 (a y-z plane, holding the y and z extents)
    and ``any`` along each x row, which stops at the row's first True."""
    plane = nonzero.any(axis=0)
    rows = nonzero.reshape(nonzero.shape[0], -1).any(axis=1)
    box = []
    for present in (rows, plane.any(axis=1), plane.any(axis=0)):
        present = np.flatnonzero(present)
        box.append(slice(int(present[0]), int(present[-1]) + 1))
    return tuple(box)


def _reindexed(grid: VoxelGrid, shape, scale, first) -> VoxelGrid:
    """The grid of ``shape`` whose index t lies at ``grid``'s index ``scale * t + first``."""
    index_map = np.diag([*scale, 1.0])
    index_map[:3, 3] = first
    return VoxelGrid(shape, grid.affine @ index_map)


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
    return type(volume)(_reindexed(volume.grid, cropped.shape, (1, 1, 1), lo), cropped), lo


def resample(volume, target_shape, mode: str = "trilinear"):
    """Resample to ``target_shape``, rescaling spacing to preserve extent.

    ``mode`` is ``"trilinear"`` (intensities) or ``"nearest"`` (any type);
    label volumes require nearest. Only a trilinear edge tap can fall
    outside the source (when upsampling puts the outer target centres beyond
    the outer source centres); it reads as 0. Nearest reads always land inside,
    so their taps are gathered unweighted.

    Each axis's taps are gathered in turn, the most shrinking axis first, so
    every pass reads the smallest intermediate. The target is filled one
    slab of rows along that first axis at a time (``_slabs``): the slab
    gathers only the source rows its taps read, then the other two axes, and
    is written into one array of the volume's dtype, which the result takes
    over uncopied. Trilinear reads compute in float64; every voxel gets the
    same operations in the same order whatever the slab size.
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
    taps = _linear_taps if mode == "trilinear" else _nearest_taps
    axis_taps = [
        taps(n, (np.arange(t, dtype=np.float64) + 0.5) * k - 0.5)
        for n, t, k in zip(src_shape, target_shape, scale)
    ]
    if mode == "nearest":  # every nearest read lands inside: no weight to apply
        axis_taps = [[(idx, None) for idx, _ in a] for a in axis_taps]
    first, *rest = sorted(range(3), key=lambda a: target_shape[a] / src_shape[a])
    # a row of the slab is never wider than this, before, between or after the passes
    plane = math.prod(max(src_shape[a], target_shape[a]) for a in rest)
    out = np.empty(target_shape, dtype=volume.voxels.dtype)
    at = [slice(None)] * 3
    for rows, sources, slab_taps in _slabs(axis_taps[first], target_shape[first], plane):
        at[first] = sources
        data = _gather_axis(volume.voxels[tuple(at)], first, slab_taps)
        for ax in rest:
            data = _gather_axis(data, ax, axis_taps[ax])
        at[first] = rows
        out[tuple(at)] = data
    out.flags.writeable = False  # hand the fresh array over: the volume takes it uncopied
    # target index t lies at source index K t + (K - 1)/2
    return type(volume)(_reindexed(volume.grid, target_shape, scale, (scale - 1.0) / 2.0), out)


def binarize(labels: LabelVolume, label_set) -> BinaryMask:
    """Mask of voxels whose label belongs to ``label_set``."""
    wanted = np.asarray([_label(l, "label_set") for l in label_set], dtype=np.uint16)
    return BinaryMask(labels.grid, np.isin(labels.voxels, wanted))
