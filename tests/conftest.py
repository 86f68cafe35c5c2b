import gzip
import struct
from pathlib import Path

import numpy as np
import pytest

from sulcikit.errors import CorruptHeaderError, NonFiniteError, NonIntegerLabelsError
from sulcikit.volume import BinaryMask, IntensityVolume, LabelVolume, VoxelGrid


@pytest.fixture
def unit_grid():
    def make(shape, spacing=(1.0, 1.0, 1.0)):
        return VoxelGrid.from_spacing(shape, spacing)

    return make


@pytest.fixture
def mask_from(unit_grid):
    def make(array, spacing=(1.0, 1.0, 1.0)):
        array = np.asarray(array, dtype=bool)
        return BinaryMask(unit_grid(array.shape, spacing), array)

    return make


@pytest.fixture
def labels_from(unit_grid):
    def make(array, spacing=(1.0, 1.0, 1.0)):
        array = np.asarray(array)
        return LabelVolume(unit_grid(array.shape, spacing), array)

    return make


@pytest.fixture
def image_from(unit_grid):
    def make(array, spacing=(1.0, 1.0, 1.0)):
        array = np.asarray(array, dtype=np.float32)
        return IntensityVolume(unit_grid(array.shape, spacing), array)

    return make


@pytest.fixture
def fail_mid_write(monkeypatch):
    """``arm(error, when)``: from then on ``Path.write_bytes`` to a file whose
    name satisfies ``when`` stores half its bytes and raises ``error``; other
    writes go through. ``arm`` returns the list of names it failed on;
    ``monkeypatch.undo()`` restores ``write_bytes``."""

    def arm(error, when=lambda name: True):
        write_bytes = Path.write_bytes
        failed = []

        def write_half(self, data):
            if not when(self.name):
                return write_bytes(self, data)
            failed.append(self.name)
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise error("interrupted mid-write")

        monkeypatch.setattr(Path, "write_bytes", write_half)
        return failed

    return arm


def _overwrite(offset, payload):
    def mutate(raw):
        return raw[:offset] + payload + raw[offset + len(payload) :]

    return mutate


def _int32_above_uint16(raw):
    """Re-encode the voxels as int32 (datatype 8, bitpix 32), one of them 70000."""
    count = int(np.prod(struct.unpack_from("<3h", raw, 42)))
    values = np.ones(count, dtype="<i4")
    values[0] = 70000
    return _overwrite(70, struct.pack("<2h", 8, 32))(raw[:352]) + values.tobytes()


def _float64_signalling_nan(raw):
    """Re-encode the voxels as float64 (datatype 64, bitpix 64), one of them a signalling NaN."""
    count = int(np.prod(struct.unpack_from("<3h", raw, 42)))
    values = np.ones(count, dtype="<f8").tobytes()
    return _overwrite(70, struct.pack("<2h", 64, 64))(raw[:352]) + _SNAN64 + values[8:]


def _truncated_gzip(raw):
    packed = gzip.compress(raw, mtime=0)
    return packed[: len(packed) // 2]


_NAN = struct.pack("<f", float("nan"))
# signalling NaNs (quiet bit clear): casting one to another float width raises the
# invalid flag, which numpy reports as a warning
_SNAN32 = struct.pack("<I", 0x7F80007F)
_SNAN64 = struct.pack("<Q", 0x7FF0000000000001)

# id -> (mutation, read_nifti kind, error); header offsets: dim 40, datatype 70,
# bitpix 72, vox_offset 108, scl_slope 112, srow_x 280
MALFORMED_NIFTI = {
    "two-negative-dims": (
        _overwrite(42, struct.pack("<3h", -1, -1, 4)), "intensity", CorruptHeaderError
    ),
    "negative-dim": (_overwrite(42, struct.pack("<h", -3)), "intensity", CorruptHeaderError),
    "zero-dim": (_overwrite(42, struct.pack("<3h", 3, 0, 3)), "intensity", CorruptHeaderError),
    "nan-vox-offset": (_overwrite(108, _NAN), "intensity", CorruptHeaderError),
    "inf-vox-offset": (
        _overwrite(108, struct.pack("<f", float("inf"))), "intensity", CorruptHeaderError
    ),
    "int32-label-above-uint16": (_int32_above_uint16, "labels", NonIntegerLabelsError),
    "truncated-gzip": (_truncated_gzip, "intensity", CorruptHeaderError),
    "five-byte-file": (lambda raw: raw[:5], "intensity", CorruptHeaderError),
    "nan-scl-slope": (_overwrite(112, _NAN), "intensity", CorruptHeaderError),
    "bitpix-mismatch": (_overwrite(72, struct.pack("<h", 64)), "intensity", CorruptHeaderError),
    "inf-srow": (
        _overwrite(280, struct.pack("<f", float("inf"))), "intensity", CorruptHeaderError
    ),
    "signalling-nan-srow": (_overwrite(280, _SNAN32), "intensity", CorruptHeaderError),
    "signalling-nan-float64-voxel": (_float64_signalling_nan, "intensity", NonFiniteError),
}


@pytest.fixture(params=list(MALFORMED_NIFTI.values()), ids=list(MALFORMED_NIFTI))
def malformed_nifti(request):
    """``(mutate, kind, error)``: ``mutate`` corrupts the bytes of a .nii written
    by ``write_nifti``; reading the result as ``kind`` must raise ``error``."""
    return request.param
