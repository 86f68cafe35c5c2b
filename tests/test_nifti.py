import gzip
import struct

import numpy as np
import pytest

from sulcikit.errors import (
    CorruptHeaderError,
    NonIntegerLabelsError,
    UnsupportedDatatypeError,
)
from sulcikit.nifti import read_nifti, write_nifti
from sulcikit.volume import BinaryMask, IntensityVolume, LabelVolume, VoxelGrid

MAGIC_OFFSET = 344
DIM_OFFSET = 40
DATATYPE_OFFSET = 70
VOX_OFFSET_OFFSET = 108
SFORM_CODE_OFFSET = 254
QFORM_CODE_OFFSET = 252


def _patch(path, offset, payload):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(payload)] = payload
    path.write_text("")
    path.write_bytes(bytes(raw))


class TestRoundTrip:
    def test_intensity_round_trip_plain(self, tmp_path, image_from):
        rng = np.random.default_rng(0)
        vol = image_from(rng.random((5, 6, 7)).astype(np.float32), spacing=(1.0, 1.0, 1.25))
        path = tmp_path / "vol.nii"
        write_nifti(vol, path)
        back = read_nifti(path, kind="intensity")
        assert np.array_equal(back.voxels, vol.voxels)
        assert back.grid.shape == vol.grid.shape
        assert np.allclose(back.grid.affine, vol.grid.affine, atol=1e-6)

    def test_label_round_trip_gz(self, tmp_path, labels_from):
        rng = np.random.default_rng(1)
        vol = labels_from(rng.integers(0, 999, (4, 5, 6), dtype=np.uint16))
        path = tmp_path / "seg.nii.gz"
        write_nifti(vol, path)
        back = read_nifti(path, kind="labels")
        assert np.array_equal(back.voxels, vol.voxels)

    def test_mask_round_trip_uint8(self, tmp_path, mask_from):
        rng = np.random.default_rng(2)
        vol = mask_from(rng.random((4, 4, 4)) < 0.5)
        path = tmp_path / "mask.nii"
        write_nifti(vol, path)
        back = read_nifti(path, kind="labels")
        assert np.array_equal(back.voxels != 0, vol.voxels)

    def test_zero_volume_reads_back_zero(self, tmp_path, image_from):
        vol = image_from(np.zeros((4, 4, 4), dtype=np.float32))
        path = tmp_path / "zero.nii"
        write_nifti(vol, path)
        assert read_nifti(path).voxels.sum() == 0.0

    def test_pixdim_round_trip(self, tmp_path, image_from):
        vol = image_from(np.zeros((3, 3, 3), dtype=np.float32), spacing=(1.0, 1.0, 1.25))
        path = tmp_path / "sp.nii"
        write_nifti(vol, path)
        raw = path.read_bytes()
        pixdim = struct.unpack_from("<8f", raw, 76)
        assert pixdim[1:4] == (1.0, 1.0, 1.25)
        assert read_nifti(path).grid.spacing == (1.0, 1.0, 1.25)

    def test_gzip_magic_bytes(self, tmp_path, image_from):
        vol = image_from(np.zeros((2, 2, 2), dtype=np.float32))
        path = tmp_path / "z.nii.gz"
        write_nifti(vol, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_write_is_deterministic(self, tmp_path, image_from):
        rng = np.random.default_rng(3)
        vol = image_from(rng.random((4, 4, 4)).astype(np.float32))
        a = tmp_path / "a.nii.gz"
        b = tmp_path / "b.nii.gz"
        write_nifti(vol, a)
        write_nifti(vol, b)
        assert a.read_bytes() == b.read_bytes()

    def _external_dtype_file(self, tmp_path, code, dtype, values):
        # exercise read-only datatypes the writer never produces
        vol = IntensityVolume(
            VoxelGrid.from_spacing((3, 3, 3)), np.zeros((3, 3, 3), dtype=np.float32)
        )
        path = tmp_path / f"dt{code}.nii"
        write_nifti(vol, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, DATATYPE_OFFSET, code)
        struct.pack_into("<h", raw, DATATYPE_OFFSET + 2, np.dtype(dtype).itemsize * 8)
        raw[352:] = values.astype(dtype).tobytes()
        path.write_bytes(bytes(raw))
        return path

    def test_int16_external_file(self, tmp_path):
        data = np.arange(27) - 5
        path = self._external_dtype_file(tmp_path, 4, "<i2", data)
        back = read_nifti(path, kind="intensity")
        assert np.array_equal(back.voxels.ravel(order="F"), data.astype(np.float32))

    def test_int32_external_file(self, tmp_path):
        data = np.arange(27) * 1000 - 9999
        path = self._external_dtype_file(tmp_path, 8, "<i4", data)
        back = read_nifti(path, kind="intensity")
        assert np.array_equal(back.voxels.ravel(order="F"), data.astype(np.float32))

    def test_float64_external_file(self, tmp_path):
        data = np.linspace(-1.0, 1.0, 27)
        path = self._external_dtype_file(tmp_path, 64, "<f8", data)
        back = read_nifti(path, kind="intensity")
        assert np.array_equal(back.voxels.ravel(order="F"), data.astype(np.float32))

    def test_nonstandard_vox_offset(self, tmp_path):
        # extra header padding before the voxel data must be honoured
        vol = IntensityVolume(
            VoxelGrid.from_spacing((2, 2, 2)),
            np.arange(8, dtype=np.float32).reshape(2, 2, 2),
        )
        path = tmp_path / "pad.nii"
        write_nifti(vol, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 108, 368.0)
        padded = bytes(raw[:352]) + b"\x00" * 16 + bytes(raw[352:])
        path.write_bytes(padded)
        assert np.array_equal(read_nifti(path).voxels, vol.voxels)

    def test_big_endian_file(self, tmp_path):
        data = np.arange(27, dtype=np.int16).reshape(3, 3, 3)
        header = bytearray(348)
        struct.pack_into(">i", header, 0, 348)
        struct.pack_into(">8h", header, 40, 3, 3, 3, 3, 1, 1, 1, 1)
        struct.pack_into(">h", header, 70, 4)  # int16
        struct.pack_into(">h", header, 72, 16)
        struct.pack_into(">8f", header, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        struct.pack_into(">f", header, 108, 352.0)
        struct.pack_into(">4s", header, 344, b"n+1\x00")
        path = tmp_path / "big.nii"
        path.write_bytes(
            bytes(header) + b"\x00" * 4 + data.astype(">i2").tobytes(order="F")
        )
        back = read_nifti(path, kind="labels")
        assert np.array_equal(back.voxels, data)


class TestHeaderValidation:
    def _write_sample(self, tmp_path, name="v.nii"):
        vol = LabelVolume(
            VoxelGrid.from_spacing((3, 3, 3)), np.ones((3, 3, 3), dtype=np.uint16)
        )
        path = tmp_path / name
        write_nifti(vol, path)
        return path

    def test_two_file_magic_rejected(self, tmp_path):
        path = self._write_sample(tmp_path)
        _patch(path, MAGIC_OFFSET, b"ni1\x00")
        with pytest.raises(CorruptHeaderError):
            read_nifti(path)

    def test_nifti2_rejected(self, tmp_path):
        path = tmp_path / "n2.nii"
        path.write_bytes(struct.pack("<i", 540) + b"\x00" * 600)
        with pytest.raises(CorruptHeaderError, match="NIfTI-2"):
            read_nifti(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.nii"
        path.write_bytes(b"\x01\x02" * 400)
        with pytest.raises(CorruptHeaderError):
            read_nifti(path)

    def test_truncated_rejected(self, tmp_path):
        path = self._write_sample(tmp_path)
        path.write_bytes(path.read_bytes()[:360])
        with pytest.raises(CorruptHeaderError):
            read_nifti(path)

    @pytest.mark.parametrize(
        "offset, payload",
        [
            (DIM_OFFSET + 2, struct.pack("<3h", -1, -1, 4)),
            (DIM_OFFSET + 2, struct.pack("<h", -3)),
            (DIM_OFFSET + 2, struct.pack("<3h", 3, 0, 3)),
            (VOX_OFFSET_OFFSET, struct.pack("<f", float("nan"))),
            (VOX_OFFSET_OFFSET, struct.pack("<f", float("inf"))),
        ],
        ids=["two-negative-dims", "negative-dim", "zero-dim", "nan-vox-offset", "inf-vox-offset"],
    )
    def test_malformed_header_fields_rejected(self, tmp_path, offset, payload):
        path = self._write_sample(tmp_path)
        _patch(path, offset, payload)
        with pytest.raises(CorruptHeaderError):
            read_nifti(path)

    def test_unknown_datatype_rejected(self, tmp_path):
        path = self._write_sample(tmp_path)
        _patch(path, DATATYPE_OFFSET, struct.pack("<h", 128))  # RGB24
        with pytest.raises(UnsupportedDatatypeError):
            read_nifti(path)

    def test_non_integer_labels_rejected(self, tmp_path):
        vol = IntensityVolume(
            VoxelGrid.from_spacing((2, 2, 2)),
            np.full((2, 2, 2), 2.5, dtype=np.float32),
        )
        path = tmp_path / "f.nii"
        write_nifti(vol, path)
        with pytest.raises(NonIntegerLabelsError):
            read_nifti(path, kind="labels")

    def test_integral_floats_accepted_as_labels(self, tmp_path):
        vol = IntensityVolume(
            VoxelGrid.from_spacing((2, 2, 2)),
            np.full((2, 2, 2), 3.0, dtype=np.float32),
        )
        path = tmp_path / "fi.nii"
        write_nifti(vol, path)
        labels = read_nifti(path, kind="labels")
        assert set(labels.labels_present()) == {3}


class TestAffinePrecedence:
    def _base_file(self, tmp_path):
        vol = IntensityVolume(
            VoxelGrid.from_spacing((3, 3, 3), (1.0, 1.0, 1.25)),
            np.zeros((3, 3, 3), dtype=np.float32),
        )
        path = tmp_path / "aff.nii"
        write_nifti(vol, path)
        return path

    def test_sform_used_when_set(self, tmp_path):
        path = self._base_file(tmp_path)
        back = read_nifti(path)
        assert np.allclose(back.grid.affine[:3, :3], np.diag([1.0, 1.0, 1.25]))

    def test_qform_fallback(self, tmp_path):
        path = self._base_file(tmp_path)
        _patch(path, SFORM_CODE_OFFSET, struct.pack("<h", 0))
        _patch(path, QFORM_CODE_OFFSET, struct.pack("<h", 1))
        # identity quaternion (b=c=d=0) with offsets (2, 3, 4)
        _patch(path, 256, struct.pack("<6f", 0.0, 0.0, 0.0, 2.0, 3.0, 4.0))
        back = read_nifti(path)
        assert np.allclose(back.grid.affine[:3, :3], np.diag([1.0, 1.0, 1.25]))
        assert np.allclose(back.grid.affine[:3, 3], [2.0, 3.0, 4.0])

    def test_pixdim_fallback(self, tmp_path):
        path = self._base_file(tmp_path)
        _patch(path, SFORM_CODE_OFFSET, struct.pack("<h", 0))
        _patch(path, QFORM_CODE_OFFSET, struct.pack("<h", 0))
        back = read_nifti(path)
        assert np.allclose(back.grid.affine, np.diag([1.0, 1.0, 1.25, 1.0]))

    def test_qform_rotation_decoded(self, tmp_path):
        # quaternion for a 90 degree rotation about x: (a, b) = (cos45, sin45)
        path = self._base_file(tmp_path)
        _patch(path, SFORM_CODE_OFFSET, struct.pack("<h", 0))
        _patch(path, QFORM_CODE_OFFSET, struct.pack("<h", 1))
        b = np.sin(np.pi / 4)
        _patch(path, 256, struct.pack("<6f", b, 0.0, 0.0, 0.0, 0.0, 0.0))
        back = read_nifti(path)
        rotated = back.grid.affine[:3, 1] / back.grid.spacing[1]
        assert np.allclose(rotated, [0.0, 0.0, 1.0], atol=1e-6)

    def test_scl_slope_applied(self, tmp_path):
        path = self._base_file(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, 2.0)  # scl_slope
        struct.pack_into("<f", raw, 116, 10.0)  # scl_inter
        ones = np.ones(27, dtype="<f4")
        raw[352:] = ones.tobytes()
        path.write_bytes(bytes(raw))
        back = read_nifti(path)
        assert np.allclose(back.voxels, 12.0)
