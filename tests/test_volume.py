import numpy as np
import pytest

from sulcikit.errors import EmptyVolumeError, ModeMismatchError
from sulcikit.volume import (
    BinaryMask,
    IntensityVolume,
    LabelVolume,
    VoxelGrid,
    binarize,
    crop_to_content,
    resample,
)


class TestVoxelGrid:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            VoxelGrid.from_spacing((0, 4, 4))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            VoxelGrid.from_spacing((4, 4, 4), (1.0, -1.0, 1.0))

    def test_rejects_affine_spacing_mismatch(self):
        affine = np.diag([2.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            VoxelGrid((4, 4, 4), (1.0, 1.0, 1.0), affine)

    def test_column_norms_match_spacing(self):
        grid = VoxelGrid.from_spacing((4, 4, 4), (1.0, 1.0, 1.25))
        norms = np.linalg.norm(grid.affine[:3, :3], axis=0)
        assert np.allclose(norms, grid.spacing, rtol=1e-5)

    def test_immutable(self):
        grid = VoxelGrid.from_spacing((4, 4, 4))
        with pytest.raises(ValueError):
            grid.affine[0, 0] = 5.0


class TestVolumeTypes:
    def test_intensity_rejects_nan(self, unit_grid):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            IntensityVolume(unit_grid((2, 2, 2)), data)

    def test_labels_reject_floats(self, unit_grid):
        with pytest.raises(ValueError):
            LabelVolume(unit_grid((2, 2, 2)), np.zeros((2, 2, 2), dtype=np.float32))

    def test_labels_reject_negative(self, unit_grid):
        with pytest.raises(ValueError):
            LabelVolume(unit_grid((2, 2, 2)), -np.ones((2, 2, 2), dtype=np.int32))

    def test_voxels_read_only(self, labels_from):
        vol = labels_from(np.ones((2, 2, 2), dtype=np.uint16))
        with pytest.raises(ValueError):
            vol.voxels[0, 0, 0] = 3


class TestCropToContent:
    def test_single_voxel(self, labels_from):
        data = np.zeros((10, 10, 10), dtype=np.uint16)
        data[5, 5, 5] = 7
        cropped, offset = crop_to_content(labels_from(data), margin=0)
        assert cropped.grid.shape == (1, 1, 1)
        assert offset == (5, 5, 5)
        assert cropped.voxels[0, 0, 0] == 7

    def test_all_zero_raises(self, labels_from):
        with pytest.raises(EmptyVolumeError):
            crop_to_content(labels_from(np.zeros((4, 4, 4), dtype=np.uint16)))

    def test_matches_exhaustive_scan(self, mask_from):
        rng = np.random.default_rng(3)
        for _ in range(10):
            data = rng.random((16, 16, 16)) < 0.05
            if not data.any():
                continue
            cropped, offset = crop_to_content(mask_from(data), margin=2)

            # oracle: exhaustive scan over every voxel
            lo = [16, 16, 16]
            hi = [-1, -1, -1]
            for x in range(16):
                for y in range(16):
                    for z in range(16):
                        if data[x, y, z]:
                            for ax, v in enumerate((x, y, z)):
                                lo[ax] = min(lo[ax], v)
                                hi[ax] = max(hi[ax], v)
            lo = [max(v - 2, 0) for v in lo]
            hi = [min(v + 2, 15) for v in hi]
            assert offset == tuple(lo)
            assert cropped.grid.shape == tuple(h - l + 1 for l, h in zip(lo, hi))

    def test_preserves_nonzero_multiset(self, labels_from):
        rng = np.random.default_rng(4)
        data = (rng.random((12, 12, 12)) < 0.2) * rng.integers(1, 5, (12, 12, 12))
        cropped, _ = crop_to_content(labels_from(data.astype(np.uint16)), margin=1)
        before = np.sort(data[data != 0].ravel())
        after = np.sort(cropped.voxels[cropped.voxels != 0].ravel())
        assert np.array_equal(before, after)

    def test_margin_translates_world_origin(self, labels_from):
        data = np.zeros((8, 8, 8), dtype=np.uint16)
        data[3:5, 3:5, 3:5] = 1
        cropped, offset = crop_to_content(labels_from(data), margin=1)
        world = cropped.grid.affine @ np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(world[:3], offset)


def _trilinear_oracle(src, coord):
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


class TestResample:
    def test_identity_trilinear_bitwise(self, image_from):
        rng = np.random.default_rng(5)
        vol = image_from(rng.random((6, 5, 4)).astype(np.float32))
        out = resample(vol, (6, 5, 4), mode="trilinear")
        assert np.array_equal(out.voxels, vol.voxels)

    def test_identity_nearest_bitwise(self, labels_from):
        rng = np.random.default_rng(6)
        vol = labels_from(rng.integers(0, 9, (6, 5, 4), dtype=np.uint16))
        out = resample(vol, (6, 5, 4), mode="nearest")
        assert np.array_equal(out.voxels, vol.voxels)

    def test_nearest_never_invents_labels(self, labels_from):
        rng = np.random.default_rng(7)
        data = rng.choice([0, 3, 7], size=(8, 8, 8)).astype(np.uint16)
        out = resample(labels_from(data), (13, 5, 9), mode="nearest")
        assert set(np.unique(out.voxels)) <= {0, 3, 7}

    def test_trilinear_on_labels_rejected(self, labels_from):
        vol = labels_from(np.zeros((4, 4, 4), dtype=np.uint16))
        with pytest.raises(ModeMismatchError):
            resample(vol, (8, 8, 8), mode="trilinear")

    @pytest.mark.parametrize("target", [(16, 9, 7), (3, 4, 2)], ids=["upsample", "downsample"])
    def test_matches_per_voxel_oracle(self, image_from, target):
        src = np.random.default_rng(10).random((8, 6, 5)).astype(np.float32)
        out = resample(image_from(src), target, mode="trilinear")
        # every voxel, including boundary voxels whose outer tap falls outside
        expected = np.zeros(target)
        for t in np.ndindex(*target):
            coord = np.array(
                [(t[ax] + 0.5) * src.shape[ax] / target[ax] - 0.5 for ax in range(3)]
            )
            expected[t] = _trilinear_oracle(src, coord)
        assert np.allclose(out.voxels, expected, rtol=0.0, atol=1e-6)

    def test_extent_preserved(self, image_from):
        vol = image_from(np.zeros((10, 10, 10), dtype=np.float32), spacing=(1.0, 1.0, 2.0))
        out = resample(vol, (5, 20, 10), mode="trilinear")
        for ax in range(3):
            before = vol.grid.shape[ax] * vol.grid.spacing[ax]
            after = out.grid.shape[ax] * out.grid.spacing[ax]
            assert after == pytest.approx(before)


class TestBinarize:
    def test_empty_set(self, labels_from):
        vol = labels_from(np.ones((3, 3, 3), dtype=np.uint16))
        assert binarize(vol, set()).count == 0

    def test_universal_set(self, labels_from):
        rng = np.random.default_rng(8)
        vol = labels_from(rng.integers(0, 3, (4, 4, 4), dtype=np.uint16))
        mask = binarize(vol, {0, 1, 2})
        assert mask.voxels.all()

    def test_count_matches_direct_scan(self, labels_from):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 3, (5, 5, 5), dtype=np.uint16)
        mask = binarize(labels_from(data), {1})
        expected = sum(
            1
            for x in range(5)
            for y in range(5)
            for z in range(5)
            if data[x, y, z] == 1
        )
        assert mask.count == expected
