import gzip
import hashlib
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from conftest import MALFORMED_NIFTI
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulcikit.errors import (
    CorruptHeaderError,
    NonFiniteError,
    NonIntegerLabelsError,
    SulcikitError,
    UnsupportedDatatypeError,
)
from sulcikit.nifti import read_nifti, write_nifti
from sulcikit.volume import IntensityVolume, LabelVolume, VoxelGrid

MAGIC_OFFSET = 344
DATATYPE_OFFSET = 70
SFORM_CODE_OFFSET = 254
QFORM_CODE_OFFSET = 252


@pytest.fixture(params=["intensity", "labels", "mask"])
def written_volume(request, image_from, labels_from, mask_from):
    """A small random volume of each kind ``write_nifti`` writes."""
    rng = np.random.default_rng(4)
    make = {
        "intensity": lambda: image_from(rng.random((5, 6, 7))),
        "labels": lambda: labels_from(rng.integers(0, 999, (5, 6, 7), dtype=np.uint16)),
        "mask": lambda: mask_from(rng.random((5, 6, 7)) < 0.5),
    }
    return make[request.param]()


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

    def test_write_is_deterministic(self, tmp_path, written_volume):
        vol = written_volume
        a = tmp_path / "a.nii.gz"
        b = tmp_path / "b.nii.gz"
        write_nifti(vol, a)
        write_nifti(vol, b)
        assert a.read_bytes() == b.read_bytes()

    def test_gz_is_gzip_of_the_nii_bytes(self, tmp_path, written_volume):
        vol = written_volume
        write_nifti(vol, tmp_path / "v.nii")
        write_nifti(vol, tmp_path / "v.nii.gz")
        packed = (tmp_path / "v.nii.gz").read_bytes()
        assert gzip.decompress(packed) == (tmp_path / "v.nii").read_bytes()

    def test_gzip_header_fields(self, tmp_path, written_volume):
        vol = written_volume
        path = tmp_path / "v.nii.gz"
        write_nifti(vol, path)
        raw = path.read_bytes()
        magic, cm, flg, mtime, _, os_byte = struct.unpack_from("<2sBBLBB", raw)
        assert (magic, cm, flg, mtime, os_byte) == (b"\x1f\x8b", 8, 0, 0, 255)
        member = zlib.decompressobj(16 + zlib.MAX_WBITS)  # one gzip member, no more
        payload = member.decompress(raw)
        assert member.eof and member.unused_data == b""
        assert struct.unpack("<LL", raw[-8:]) == (zlib.crc32(payload), len(payload))

    def test_multi_block_round_trip(self, tmp_path, image_from):
        # a mostly-zero 64^3 float volume: 1 MiB of payload, and 46 KB of noise,
        # more literals than one deflate block holds
        data = np.zeros((64, 64, 64), dtype=np.float32)
        data[20:44, 8:56, 30:40] = np.random.default_rng(5).random((24, 48, 10))
        vol = image_from(data)
        write_nifti(vol, tmp_path / "v.nii")
        write_nifti(vol, tmp_path / "v.nii.gz")
        packed = (tmp_path / "v.nii.gz").read_bytes()
        assert gzip.decompress(packed) == (tmp_path / "v.nii").read_bytes()
        assert np.array_equal(read_nifti(tmp_path / "v.nii.gz").voxels, data)

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

    @pytest.mark.parametrize(
        "code, dtype, value", [(4, "<i2", -1), (8, "<i4", 65536)], ids=["negative", "past-uint16"]
    )
    def test_out_of_range_labels_name_the_file(self, tmp_path, code, dtype, value):
        data = np.arange(27)
        data[13] = value
        path = self._external_dtype_file(tmp_path, code, dtype, data)
        message = f"{path}: label values must be in 0..65535"
        with pytest.raises(NonIntegerLabelsError, match=f"^{re.escape(message)}$"):
            read_nifti(path, kind="labels")

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


class TestAtomicWrite:
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_keeps_earlier_file(
        self, tmp_path, monkeypatch, fail_mid_write, image_from, error
    ):
        path = tmp_path / "vol.nii.gz"
        write_nifti(image_from(np.zeros((4, 5, 6))), path)
        before = path.read_bytes()
        fail_mid_write(error)
        with pytest.raises(error):
            write_nifti(image_from(np.ones((4, 5, 6))), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vol.nii.gz"]


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

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_zero_srow_column_rejected(self, tmp_path, column):
        # srow_x, srow_y and srow_z are 16 bytes apart from offset 280; the
        # sample's affine is the identity, so one entry makes a column zero
        path = self._write_sample(tmp_path)
        _patch(path, 280 + 20 * column, struct.pack("<f", 0.0))
        with pytest.raises(CorruptHeaderError, match=rf"geometry invalid: spacing\[{column}\]"):
            read_nifti(path)

    def test_malformed_header_fields_rejected(self, tmp_path, malformed_nifti):
        mutate, kind, error = malformed_nifti
        path = self._write_sample(tmp_path)
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            read_nifti(path, kind=kind)

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

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_float_labels_rejected_before_cast(self, tmp_path, value):
        vol = IntensityVolume(VoxelGrid.from_spacing((2, 2, 2)), np.ones((2, 2, 2), np.float32))
        path = tmp_path / "inf.nii"
        write_nifti(vol, path)
        _patch(path, 352, struct.pack("<f", value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "invalid value encountered in cast"
            with pytest.raises(NonIntegerLabelsError, match="not finite"):
                read_nifti(path, kind="labels")

    @pytest.mark.parametrize("value", [1e30, -1e30, 65536.0])
    def test_float_labels_past_the_range_rejected_without_warning(self, tmp_path, value):
        vol = IntensityVolume(VoxelGrid.from_spacing((2, 2, 2)), np.ones((2, 2, 2), np.float32))
        path = tmp_path / "big.nii"
        write_nifti(vol, path)
        _patch(path, 352, struct.pack("<f", value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "invalid value encountered in cast"
            with pytest.raises(NonIntegerLabelsError, match="must be in 0..65535"):
                read_nifti(path, kind="labels")

    @pytest.mark.parametrize(
        "offset, value",
        [(352, float("inf")), (352, float("nan")), (112, 3e38)],
        ids=["inf-voxel", "nan-voxel", "slope-overflows-float32"],
    )
    def test_non_finite_intensities_rejected(self, tmp_path, offset, value):
        vol = IntensityVolume(
            VoxelGrid.from_spacing((2, 2, 2)), np.full((2, 2, 2), 10.0, np.float32)
        )
        path = tmp_path / "nf.nii"
        write_nifti(vol, path)
        _patch(path, offset, struct.pack("<f", value))
        message = f"{path}: intensity values are not finite as float32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
                read_nifti(path)


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


_SPECIAL_FLOATS = [struct.pack("<f", v) for v in (np.inf, -np.inf, np.nan, 3e38, -1.0, 0.0)]
# what one header edit writes: random bytes, or a float32 that breaks arithmetic
_HEADER_PAYLOADS = st.binary(min_size=1, max_size=4) | st.sampled_from(_SPECIAL_FLOATS)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """``(raw, path)``: the bytes of a small label .nii, and where to put mutants."""
    directory = tmp_path_factory.mktemp("fuzz")
    vol = LabelVolume(
        VoxelGrid.from_spacing((3, 3, 3)), np.ones((3, 3, 3), dtype=np.uint16)
    )
    write_nifti(vol, directory / "v.nii")
    return (directory / "v.nii").read_bytes(), directory / "mutant.nii"


def _with_malformed_examples(test):
    for name, (_, kind, _) in MALFORMED_NIFTI.items():
        test = example(case=name, edits=[], gz_edits=[], gzipped=False, cut=None, kind=kind)(test)
    return test


def _mutant(raw, case, edits, gzipped, gz_edits, cut) -> bytes:
    """The bytes ``raw`` after a ``MALFORMED_NIFTI`` case, header edits, gzip with
    byte edits, and a cut, in that order; each step is optional."""
    if case is not None:
        raw = MALFORMED_NIFTI[case][0](raw)
    raw = bytearray(raw)
    for offset, payload in edits:
        raw[offset : offset + len(payload)] = payload
    if gzipped:
        raw = bytearray(gzip.compress(bytes(raw), mtime=0))
        for offset, byte in gz_edits:
            raw[offset % len(raw)] = byte
    if cut is not None:
        raw = raw[: cut % (len(raw) + 1)]
    return bytes(raw)


def _read_valid_or_typed_error(path, kind):
    """``read_nifti`` returns a volume with a finite affine or raises a SulcikitError."""
    try:
        volume = read_nifti(path, kind=kind)
    except SulcikitError:
        return
    assert np.isfinite(volume.grid.affine).all()
    assert volume.voxels.shape == volume.grid.shape


class TestReadFuzz:
    """Byte-mutated headers and gzip streams: ``read_nifti`` returns a volume
    with a finite affine or raises a SulcikitError, never anything else."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        case=st.sampled_from([None, *MALFORMED_NIFTI]),
        edits=st.lists(st.tuples(st.integers(0, 351), _HEADER_PAYLOADS), max_size=6),
        gzipped=st.booleans(),
        gz_edits=st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 255)), max_size=3),
        cut=st.none() | st.integers(0, 10**4),
        kind=st.sampled_from(["intensity", "labels"]),
    )
    @_with_malformed_examples
    def test_read_returns_valid_volume_or_raises_typed_error(
        self, fuzz_paths, case, edits, gzipped, gz_edits, cut, kind
    ):
        raw, path = fuzz_paths
        path.write_bytes(_mutant(raw, case, edits, gzipped, gz_edits, cut))
        _read_valid_or_typed_error(path, kind)


# the header's float fields that make the affine: pixdim, then quatern_b through
# qoffset_z and the three srow rows
_GEOMETRY_OFFSETS = [*range(76, 108, 4), *range(256, 328, 4)]


def _corpus(size: int, seed: int) -> list[tuple]:
    """``size`` fuzz inputs ``(case, edits, gzipped, gz_edits, cut, kind)`` of the
    hypothesis fuzz's kinds, drawn only from numpy's generator at ``seed``.

    Half the inputs start from the valid file and half from a ``MALFORMED_NIFTI``
    case. A header edit lands anywhere, on a 4-byte field boundary or on a
    geometry field, a third of the time each."""
    rng = np.random.default_rng(seed)
    cases = list(MALFORMED_NIFTI)

    def offset():
        where = rng.integers(3)
        if where == 0:
            return int(rng.integers(352))
        return int(rng.integers(88)) * 4 if where == 1 else _GEOMETRY_OFFSETS[
            rng.integers(len(_GEOMETRY_OFFSETS))]

    def payload():
        if rng.random() < 0.5:
            return rng.bytes(int(rng.integers(1, 5)))
        return _SPECIAL_FLOATS[rng.integers(len(_SPECIAL_FLOATS))]

    corpus = []
    for _ in range(size):
        case = cases[rng.integers(len(cases))] if rng.random() < 0.5 else None
        edits = [(offset(), payload()) for _ in range(rng.integers(7))]
        gzipped = bool(rng.random() < 0.5)
        gz_edits = [(int(rng.integers(10**4 + 1)), int(rng.integers(256)))
                    for _ in range(rng.integers(4))]
        cut = int(rng.integers(10**4 + 1)) if rng.random() < 0.5 else None
        kind = ("intensity", "labels")[rng.integers(2)]
        corpus.append((case, edits, gzipped, gz_edits, cut, kind))
    return corpus


class TestReadCorpus:
    """The fuzz's mutations and assertion over a fixed corpus. Hypothesis seeds
    its draws from literals in every loaded module, so an edit anywhere can move
    what ``TestReadFuzz`` tries; this corpus moves only when its own code does."""

    # sha256 of the corpus's inputs: a changed draw, mutation list or size is a
    # new corpus, so re-take this pin only together with that change
    INPUTS_SHA256 = "ccb3c8adf966735a8b35722439b6b724dc5d7ae043d75587d8677f0adb15738a"

    @pytest.fixture(scope="class")
    def corpus(self):
        return _corpus(2000, seed=20261021)

    def test_corpus_inputs_are_pinned(self, corpus):
        assert hashlib.sha256(repr(corpus).encode()).hexdigest() == self.INPUTS_SHA256

    def test_read_returns_valid_volume_or_raises_typed_error(self, fuzz_paths, corpus):
        raw, path = fuzz_paths
        for case, edits, gzipped, gz_edits, cut, kind in corpus:
            path.write_bytes(_mutant(raw, case, edits, gzipped, gz_edits, cut))
            _read_valid_or_typed_error(path, kind)
