import gzip
import struct
from pathlib import Path

import numpy as np
import pytest

from sulcikit.errors import CorruptHeaderError, NonIntegerLabelsError
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
def trilinear_oracle():
    def oracle(src, coord):
        """Direct evaluation of the 8-corner interpolation with zero padding."""
        out = 0.0
        base = np.floor(coord).astype(int)
        frac = coord - base
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    idx = base + (dx, dy, dz)
                    w = 1.0
                    for ax, d in enumerate((dx, dy, dz)):
                        w *= frac[ax] if d else 1.0 - frac[ax]
                    if all(0 <= idx[ax] < src.shape[ax] for ax in range(3)):
                        out += w * src[tuple(idx)]
        return out

    return oracle


@pytest.fixture
def deform_oracle(trilinear_oracle):
    def oracle(labels, affine, lattice):
        """Per voxel: read the label nearest ``centre + A @ (x + u(x) - centre)``.

        ``u(x)`` is the displacement lattice read by ``trilinear_oracle`` at x's
        lattice coordinates, the lattice corner-aligned with the volume; a
        lattice of one node per voxel reads each node at frac 0. Ties round up
        (``floor(p + 0.5)``); reads outside the volume give 0.
        """
        shape = labels.shape
        lattice = np.asarray(lattice, dtype=np.float64)
        stretch = [(g - 1) / (n - 1) if n > 1 else 0.0 for g, n in zip(lattice.shape, shape)]
        centre = [(s - 1) / 2.0 for s in shape]
        out = np.zeros(shape, dtype=labels.dtype)
        for x in np.ndindex(*shape):
            node = np.array([x[i] * stretch[i] for i in range(3)])
            u = [trilinear_oracle(lattice[..., i], node) for i in range(3)]
            d = [x[i] + u[i] - centre[i] for i in range(3)]
            p = [centre[i] + sum(affine[i][j] * d[j] for j in range(3)) + affine[i][3]
                 for i in range(3)]
            idx = tuple(int(np.floor(c + 0.5)) for c in p)
            if all(0 <= idx[i] < shape[i] for i in range(3)):
                out[x] = labels[idx]
        return out

    return oracle


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


def _truncated_gzip(raw):
    packed = gzip.compress(raw, mtime=0)
    return packed[: len(packed) // 2]


_NAN = struct.pack("<f", float("nan"))

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
}


@pytest.fixture(params=list(MALFORMED_NIFTI.values()), ids=list(MALFORMED_NIFTI))
def malformed_nifti(request):
    """``(mutate, kind, error)``: ``mutate`` corrupts the bytes of a .nii written
    by ``write_nifti``; reading the result as ``kind`` must raise ``error``."""
    return request.param
