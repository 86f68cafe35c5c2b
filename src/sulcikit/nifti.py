"""Single-file NIfTI-1 reading and writing (.nii / .nii.gz).

Only the single-file form (magic ``n+1``) is handled; the two-file form and
NIfTI-2 are rejected. The affine is resolved sform-over-qform: ``srow_*``
when ``sform_code > 0``, else the decoded quaternion when ``qform_code > 0``,
else a diagonal built from ``pixdim``. Files are written little-endian with
``sform_code = 2``, intensities as float32, labels as uint16, masks as uint8,
and gzip (RFC 1952, mtime pinned to 0) exactly when the path ends in ``.gz``.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeaderError,
    NonIntegerLabelsError,
    UnsupportedDatatypeError,
)
from .volume import BinaryMask, IntensityVolume, LabelVolume, VoxelGrid

__all__ = ["read_nifti", "write_nifti"]

_HEADER_SIZE = 348
_NIFTI2_HEADER_SIZE = 540
_VOX_OFFSET = 352

_HEADER_FIELDS = [
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
]


def _header_dtype(byteorder: str) -> np.dtype:
    fields = []
    for spec in _HEADER_FIELDS:
        name, code = spec[0], spec[1]
        code = code if code.startswith("S") or code == "u1" else byteorder + code
        fields.append((name, code) if len(spec) == 2 else (name, code, spec[2]))
    return np.dtype(fields)

assert _header_dtype("<").itemsize == _HEADER_SIZE

# NIfTI datatype code -> numpy dtype (little-endian)
_DATATYPES = {
    2: np.dtype("u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
    512: np.dtype("<u2"),
}


def _read_bytes(path: Path) -> bytes:
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _parse_header(raw: bytes):
    if len(raw) < _HEADER_SIZE:
        raise CorruptHeaderError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    for order in ("<", ">"):
        size = int(np.frombuffer(raw[:4], dtype=order + "i4")[0])
        if size == _HEADER_SIZE:
            return np.frombuffer(raw[:_HEADER_SIZE], dtype=_header_dtype(order))[0], order
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
        affine[0] = np.asarray(hdr["srow_x"], dtype=np.float64)
        affine[1] = np.asarray(hdr["srow_y"], dtype=np.float64)
        affine[2] = np.asarray(hdr["srow_z"], dtype=np.float64)
        return affine
    if int(hdr["qform_code"]) > 0:
        return _quaternion_affine(hdr)
    pixdim = np.asarray(hdr["pixdim"], dtype=np.float64)
    affine = np.eye(4)
    affine[:3, :3] = np.diag(pixdim[1:4])
    return affine


def read_nifti(path, kind: str = "intensity"):
    """Read a single-file NIfTI-1 volume.

    ``kind`` selects the returned type: ``"intensity"`` (IntensityVolume,
    float32) or ``"labels"`` (LabelVolume, uint16, raising
    NonIntegerLabelsError when the stored values are not integers).
    """
    if kind not in ("intensity", "labels"):
        raise ValueError(f"kind must be 'intensity' or 'labels', got {kind!r}")
    raw = _read_bytes(Path(path))
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
    data = np.frombuffer(raw[offset:end], dtype=dtype).reshape(shape, order="F")
    data = np.asarray(data, dtype=dtype.newbyteorder("="))

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if slope not in (0.0, 1.0) or inter != 0.0:
        data = data.astype(np.float64) * slope + inter

    affine = _resolve_affine(hdr)
    try:
        grid = VoxelGrid(shape, tuple(np.linalg.norm(affine[:3, :3], axis=0)), affine)
    except ValueError as exc:
        raise CorruptHeaderError(f"header geometry invalid: {exc}") from exc

    if kind == "labels":
        if np.issubdtype(data.dtype, np.floating):
            if not np.array_equal(data, np.round(data)):
                raise NonIntegerLabelsError(f"{path}: voxel values are not integers")
            data = data.astype(np.int64)
        if data.size and int(data.min()) < 0:
            raise NonIntegerLabelsError(f"{path}: negative values cannot be labels")
        return LabelVolume(grid, data)
    return IntensityVolume(grid, data.astype(np.float32))


def _build_header(volume, datatype: int, bitpix: int) -> bytes:
    hdr = np.zeros((), dtype=_header_dtype("<"))
    hdr["sizeof_hdr"] = _HEADER_SIZE
    hdr["regular"] = b"r"
    dim = np.ones(8, dtype=np.int16)
    dim[0] = 3
    dim[1:4] = volume.grid.shape
    hdr["dim"] = dim
    hdr["datatype"] = datatype
    hdr["bitpix"] = bitpix
    pixdim = np.zeros(8, dtype=np.float32)
    pixdim[0] = 1.0
    pixdim[1:4] = volume.grid.spacing
    hdr["pixdim"] = pixdim
    hdr["vox_offset"] = _VOX_OFFSET
    hdr["scl_slope"] = 1.0
    hdr["xyzt_units"] = 2  # NIFTI_UNITS_MM
    hdr["sform_code"] = 2  # aligned
    affine = volume.grid.affine
    hdr["srow_x"] = affine[0].astype(np.float32)
    hdr["srow_y"] = affine[1].astype(np.float32)
    hdr["srow_z"] = affine[2].astype(np.float32)
    hdr["magic"] = b"n+1"
    return hdr.tobytes()


def write_nifti(volume, path) -> None:
    """Write a volume as single-file NIfTI-1, gzipped iff ``path`` ends in .gz.

    Output bytes are fully deterministic (gzip mtime is pinned), so repeated
    writes of the same volume are byte-identical.
    """
    path = Path(path)
    if isinstance(volume, IntensityVolume):
        data, datatype, bitpix = volume.voxels.astype("<f4"), 16, 32
    elif isinstance(volume, LabelVolume):
        data, datatype, bitpix = volume.voxels.astype("<u2"), 512, 16
    elif isinstance(volume, BinaryMask):
        data, datatype, bitpix = volume.voxels.astype("u1"), 2, 8
    else:
        raise TypeError(f"cannot write {type(volume).__name__} as NIfTI")
    payload = (
        _build_header(volume, datatype, bitpix)
        + b"\x00" * (_VOX_OFFSET - _HEADER_SIZE)
        + data.tobytes(order="F")
    )
    if path.name.endswith(".gz"):
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
            gz.write(payload)
        payload = buf.getvalue()
    path.write_bytes(payload)
