"""Single-file NIfTI-1 reading and writing (.nii / .nii.gz).

Only the single-file form (magic ``n+1``) is handled; the two-file form and
NIfTI-2 are rejected. The affine is resolved sform-over-qform: ``srow_*``
when ``sform_code > 0``, else the decoded quaternion when ``qform_code > 0``,
else a diagonal built from ``pixdim``. Files are written little-endian with
``sform_code = 2``, intensities as float32, labels as uint16, masks as uint8,
and gzipped exactly when the path ends in ``.gz``: one RFC 1952 member with
mtime 0 and OS byte 255, its deflate stream run-length only (``Z_RLE``) for
intensities, whose noise repeats only in zero runs, and zlib level 1 for
labels and masks. Writes are atomic: the bytes go to a hidden sibling
``.{name}.tmp`` that replaces the target only once complete, so a final name
never holds a truncated file.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeaderError,
    NonFiniteError,
    NonIntegerLabelsError,
    SulcikitError,
    UnsupportedDatatypeError,
)
from .volume import MAX_LABEL, BinaryMask, IntensityVolume, LabelVolume, VoxelGrid

__all__ = ["read_nifti", "write_nifti"]

_HEADER_SIZE = 348
_NIFTI2_HEADER_SIZE = 540
_VOX_OFFSET = 352

# the NIfTI-1 header, little-endian; a big-endian file reads it through
# .newbyteorder(">"), as with _DATATYPES
_HEADER_DTYPE = np.dtype([
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]).newbyteorder("<")
assert _HEADER_DTYPE.itemsize == _HEADER_SIZE

# NIfTI datatype code -> numpy dtype (little-endian)
_DATATYPES = {
    2: np.dtype("u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
    512: np.dtype("<u2"),
}

# volume type -> (datatype code it is stored as, (zlib level, strategy) of its
# deflate stream). Intensity noise repeats only in zero runs, which Z_RLE finds
# without a match search (half of level 6's time, within a few percent of its
# size); label maps and masks are runs and repeated rows, which level 1 finds
# in a third of level 6's time, at about twice its (small) size.
_STORAGE = {
    IntensityVolume: (16, (1, zlib.Z_RLE)),
    LabelVolume: (512, (1, zlib.Z_DEFAULT_STRATEGY)),
    BinaryMask: (2, (1, zlib.Z_DEFAULT_STRATEGY)),
}

# read_nifti's kind -> (volume type returned, error raised for voxels the type rejects)
_KINDS = {
    "intensity": (IntensityVolume, NonFiniteError),
    "labels": (LabelVolume, NonIntegerLabelsError),
}


def _read_bytes(path: Path) -> bytes:
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise CorruptHeaderError(f"gzip stream corrupt or truncated ({exc})") from exc
    return raw


def _parse_header(raw: bytes):
    if len(raw) < _HEADER_SIZE:
        raise CorruptHeaderError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    for order in ("<", ">"):
        size = int(np.frombuffer(raw[:4], dtype=order + "i4")[0])
        if size == _HEADER_SIZE:
            hdr = np.frombuffer(raw[:_HEADER_SIZE], dtype=_HEADER_DTYPE.newbyteorder(order))
            return hdr[0], order
        if size == _NIFTI2_HEADER_SIZE:
            raise CorruptHeaderError("NIfTI-2 is not supported; convert to NIfTI-1")
    raise CorruptHeaderError("sizeof_hdr is neither 348 nor 540; not a NIfTI file")


def _quaternion_affine(hdr) -> np.ndarray:
    b = float(hdr["quatern_b"])
    c = float(hdr["quatern_c"])
    d = float(hdr["quatern_d"])
    a = np.sqrt(max(0.0, 1.0 - (b * b + c * c + d * d)))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * b * c - 2 * a * d, 2 * b * d + 2 * a * c],
            [2 * b * c + 2 * a * d, a * a + c * c - b * b - d * d, 2 * c * d - 2 * a * b],
            [2 * b * d - 2 * a * c, 2 * c * d + 2 * a * b, a * a + d * d - c * c - b * b],
        ]
    )
    pixdim = np.asarray(hdr["pixdim"], dtype=np.float64)
    qfac = -1.0 if pixdim[0] < 0 else 1.0
    affine = np.eye(4)
    affine[:3, :3] = rot @ np.diag([pixdim[1], pixdim[2], qfac * pixdim[3]])
    affine[:3, 3] = [float(hdr["qoffset_x"]), float(hdr["qoffset_y"]), float(hdr["qoffset_z"])]
    return affine


def _resolve_affine(hdr) -> np.ndarray:
    if int(hdr["sform_code"]) > 0:
        affine = np.eye(4)
        affine[:3] = hdr["srow_x"], hdr["srow_y"], hdr["srow_z"]
        return affine
    if int(hdr["qform_code"]) > 0:
        return _quaternion_affine(hdr)
    pixdim = np.asarray(hdr["pixdim"], dtype=np.float64)
    affine = np.eye(4)
    affine[:3, :3] = np.diag(pixdim[1:4])
    return affine


def read_nifti(path, kind: str = "intensity"):
    """Read a single-file NIfTI-1 volume.

    ``kind`` selects the returned type, which decides the voxel values it
    holds: ``"intensity"`` (IntensityVolume, float32; values not finite as
    float32 raise NonFiniteError) or ``"labels"`` (LabelVolume, uint16; values
    not integers in 0..65535 raise NonIntegerLabelsError). A malformed header
    (a non-finite affine included) or a truncated file raises
    CorruptHeaderError. Every one of these errors starts with the file's path.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'intensity' or 'labels', got {kind!r}")
    try:
        return _decode(_read_bytes(Path(path)), *_KINDS[kind])
    except SulcikitError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _decode(raw: bytes, volume_type, rejected):
    """The volume of ``volume_type`` that the file bytes ``raw`` hold; voxels
    the type rejects raise ``rejected``."""
    hdr, order = _parse_header(raw)

    # numpy strips trailing NULs from S4 fields, so "n+1\0" reads as b"n+1"
    if bytes(hdr["magic"]) != b"n+1":
        raise CorruptHeaderError(
            f"magic {bytes(hdr['magic'])!r} is not 'n+1'; only single-file NIfTI-1 is supported"
        )
    code = int(hdr["datatype"])
    if code not in _DATATYPES:
        raise UnsupportedDatatypeError(f"NIfTI datatype code {code} is not supported")
    dtype = _DATATYPES[code].newbyteorder(order)
    if int(hdr["bitpix"]) != 8 * dtype.itemsize:
        raise CorruptHeaderError(
            f"bitpix {int(hdr['bitpix'])} disagrees with datatype {code}"
            f" ({8 * dtype.itemsize} bits)"
        )

    dim = np.asarray(hdr["dim"], dtype=np.int64)
    ndim = int(dim[0])
    if not 1 <= ndim <= 7:
        raise CorruptHeaderError(f"dim[0] = {ndim} outside 1..7")
    extents = [int(d) for d in dim[1 : ndim + 1]]
    if any(d < 1 for d in extents):
        raise CorruptHeaderError(f"dim[1..{ndim}] = {extents} must all be >= 1")
    if any(d > 1 for d in extents[3:]):
        raise UnsupportedDatatypeError(f"only 3D volumes are supported, got dims {extents}")
    shape = tuple((extents + [1, 1, 1])[:3])

    if not np.isfinite(hdr["vox_offset"]):
        raise CorruptHeaderError(f"vox_offset {hdr['vox_offset']} is not finite")
    offset = int(hdr["vox_offset"])
    count = int(np.prod(shape))
    end = offset + count * dtype.itemsize
    if offset < _HEADER_SIZE or len(raw) < end:
        raise CorruptHeaderError("voxel data truncated or vox_offset invalid")
    data = np.frombuffer(raw, dtype, count, offset).reshape(shape, order="F")
    data = np.asarray(data, dtype=dtype.newbyteorder("="))

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if not (np.isfinite(slope) and np.isfinite(inter)):
        raise CorruptHeaderError(f"scl_slope {slope} or scl_inter {inter} is not finite")
    if slope not in (0.0, 1.0) or inter != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            data = data.astype(np.float64) * slope + inter

    # a signalling NaN in srow or pixdim raises the invalid flag as it is cast to
    # float64; it becomes a NaN, which the grid rejects
    with np.errstate(invalid="ignore"):
        affine = _resolve_affine(hdr)
    try:
        grid = VoxelGrid(shape, affine)
    except ValueError as exc:
        raise CorruptHeaderError(f"header geometry invalid: {exc}") from exc

    if volume_type is LabelVolume and np.issubdtype(data.dtype, np.floating):
        if not (np.isfinite(data).all() and np.array_equal(data, np.round(data))):
            raise NonIntegerLabelsError("voxel values are not finite integers")
        # clipped just past the label range, so that no value overflows int64 in the cast
        data = np.clip(data, -1, MAX_LABEL + 1).astype(np.int64)
    try:
        # a value past float32's range becomes inf in the cast, and a signalling NaN
        # a NaN, both of which the type rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return volume_type(grid, data)
    except ValueError as exc:
        raise rejected(str(exc)) from exc


def _build_header(volume, datatype: int, bitpix: int) -> bytes:
    hdr = np.zeros((), dtype=_HEADER_DTYPE)
    hdr["sizeof_hdr"] = _HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = [3, *volume.grid.shape, 1, 1, 1, 1]
    hdr["datatype"] = datatype
    hdr["bitpix"] = bitpix
    hdr["pixdim"] = [1.0, *volume.grid.spacing, 0.0, 0.0, 0.0, 0.0]
    hdr["vox_offset"] = _VOX_OFFSET
    hdr["scl_slope"] = 1.0
    hdr["xyzt_units"] = 2  # NIFTI_UNITS_MM
    hdr["sform_code"] = 2  # aligned
    hdr["srow_x"], hdr["srow_y"], hdr["srow_z"] = volume.grid.affine[:3]
    hdr["magic"] = b"n+1"
    return hdr.tobytes()


def write_nifti(volume, path) -> None:
    """Write a volume as single-file NIfTI-1, gzipped iff ``path`` ends in .gz.

    Output bytes are fully deterministic (gzip mtime is pinned), so repeated
    writes of the same volume are byte-identical. The file appears under
    ``path`` only once fully written; on failure no temp file is left.
    """
    path = Path(path)
    for volume_type, (datatype, deflate) in _STORAGE.items():
        if isinstance(volume, volume_type):
            break
    else:
        raise TypeError(f"cannot write {type(volume).__name__} as NIfTI")
    # cast straight into Fortran order, whose transpose is the voxel bytes
    data = volume.voxels.astype(_DATATYPES[datatype], order="F")
    header = _build_header(volume, datatype, 8 * data.itemsize)
    payload = b"".join((header, b"\x00" * (_VOX_OFFSET - _HEADER_SIZE), data.T))
    if path.name.endswith(".gz"):
        payload = _gzip(payload, *deflate)
    write_atomic(path, payload)


def _gzip(payload: bytes, level: int, strategy: int) -> bytes:
    """``payload`` as one gzip member: the 10-byte header ``gzip.GzipFile``
    writes with mtime 0 (XFL from the level, OS byte 255), a raw deflate
    stream, then CRC32 and ISIZE."""
    xfl = {1: 4, 9: 2}.get(level, 0)
    header = struct.pack("<BBBBLBB", 0x1F, 0x8B, 8, 0, 0, xfl, 255)
    deflate = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS, 8, strategy)
    trailer = struct.pack("<LL", zlib.crc32(payload), len(payload) & 0xFFFFFFFF)
    return b"".join((header, deflate.compress(payload), deflate.flush(), trailer))


def write_atomic(path, payload: bytes) -> None:
    """Write ``payload`` to a hidden sibling ``.{name}.tmp``, then rename it
    over ``path``, so ``path`` only ever holds complete contents. On failure
    the temp file is removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
