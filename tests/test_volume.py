import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sulcikit import volume
from sulcikit.errors import EmptyVolumeError, GridMismatchError, ModeMismatchError
from sulcikit.losses import EmbeddingBatch, ProbabilityVolume
from sulcikit.synth import DeformationField
from sulcikit.volume import (
    BinaryMask,
    IntensityVolume,
    LabelVolume,
    VoxelGrid,
    _bounding_box,
    _gather_axis,
    _linear_taps,
    _nearest_taps,
    _slabs,
    binarize,
    crop_to_content,
    nearest_sample,
    resample,
    require_same_grid,
)


def _rotation(a: float, b: float) -> np.ndarray:
    """A rotation by ``a`` about z, then by ``b`` about x."""
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    about_z = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return about_x @ about_z


class TestVoxelGrid:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            VoxelGrid.from_spacing((0, 4, 4))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            VoxelGrid.from_spacing((4, 4, 4), (1.0, -1.0, 1.0))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_affine(self, value):
        affine = np.eye(4)
        affine[0, 0] = value
        with pytest.raises(ValueError, match="NaN or Inf"):
            VoxelGrid((4, 4, 4), affine)

    def test_column_norms_match_spacing(self):
        grid = VoxelGrid.from_spacing((4, 4, 4), (1.0, 1.0, 1.25))
        norms = np.linalg.norm(grid.affine[:3, :3], axis=0)
        assert np.allclose(norms, grid.spacing, rtol=1e-5)

    # any positive finite spacing: a column norm is a nested hypot, and hypot(s, 0) == s,
    # with no square to underflow or overflow
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=3, max_size=3))
    @example([1e-170, 1.0, 1.0])
    @example([1e170, 1.0, 1.0])
    def test_from_spacing_reads_its_spacing_back_exactly(self, spacing):
        assert VoxelGrid.from_spacing((2, 3, 4), spacing).spacing == tuple(spacing)

    def test_rotated_grid_reports_its_column_norms(self):
        affine = np.eye(4)
        affine[:3, :3] = _rotation(0.3, 0.5) @ np.diag([0.9, 1.1, 1.4])
        affine[:3, 3] = [-90.0, 12.5, 40.0]
        grid = VoxelGrid((4, 5, 6), affine)
        assert grid.spacing == tuple(np.linalg.norm(affine[:3, :3], axis=0))
        assert np.allclose(grid.spacing, [0.9, 1.1, 1.4], rtol=1e-12, atol=0.0)
        assert repr(grid) == f"VoxelGrid(shape=(4, 5, 6), spacing={grid.spacing})"

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_zero_column_names_its_spacing(self, column):
        affine = np.eye(4)
        affine[:3, column] = 0.0
        with pytest.raises(ValueError, match=rf"^spacing\[{column}\] must be > 0"):
            VoxelGrid((4, 4, 4), affine)

    def test_spacing_is_not_an_argument(self):
        with pytest.raises(TypeError):
            VoxelGrid((4, 4, 4), (1.0, 1.0, 1.0), np.eye(4))

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

    @pytest.mark.parametrize(
        "dtype, value", [(np.int16, -1), (np.int32, 65536), (np.uint32, 65536), (np.int64, 2**40)]
    )
    def test_labels_outside_the_range_are_rejected(self, labels_from, dtype, value):
        data = np.zeros((2, 3, 4), dtype=dtype)
        data[1, 2, 3] = value
        with pytest.raises(ValueError, match=r"^label values must be in 0\.\.65535$"):
            labels_from(data)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.uint16])
    def test_narrow_dtypes_are_taken_at_both_extremes(self, labels_from, dtype):
        # no value of these dtypes lies outside 0..65535, so none is scanned
        low, high = (False, True) if dtype is np.bool_ else (0, np.iinfo(dtype).max)
        data = np.full((2, 3, 4), high, dtype=dtype)
        data[0, 0, 0] = low
        held = labels_from(data).voxels
        assert held.dtype == np.uint16
        assert held[0, 0, 0] == low and (held.ravel()[1:] == int(high)).all()

    def test_voxels_read_only(self, labels_from):
        vol = labels_from(np.ones((2, 2, 2), dtype=np.uint16))
        with pytest.raises(ValueError):
            vol.voxels[0, 0, 0] = 3

    @pytest.mark.parametrize("high", [2, 70, 65536])
    def test_labels_present_matches_unique(self, labels_from, high):
        data = np.random.default_rng(high).integers(0, high, (7, 6, 5), dtype=np.uint16)
        assert labels_from(data).labels_present() == np.unique(data).tolist()

    def test_labels_present_all_zero(self, labels_from):
        assert labels_from(np.zeros((3, 4, 2), dtype=np.uint16)).labels_present() == [0]

    def test_labels_present_top_label(self, labels_from):
        data = np.full((3, 3, 3), 7, dtype=np.uint16)
        data[2, 2, 2] = 65535
        assert labels_from(data).labels_present() == [7, 65535]


GRID = VoxelGrid.from_spacing((2, 3, 4))

# every voxel container: how to build it from an array of ones, the name of
# the array it holds, and that array's dtype and shape
CONTAINERS = {
    "intensity": (lambda a: IntensityVolume(GRID, a), "voxels", np.float32, (2, 3, 4)),
    "labels": (lambda a: LabelVolume(GRID, a), "voxels", np.uint16, (2, 3, 4)),
    "mask": (lambda a: BinaryMask(GRID, a), "voxels", np.bool_, (2, 3, 4)),
    "probability": (lambda a: ProbabilityVolume(GRID, a), "voxels", np.float64, (2, 3, 4)),
    "deformation": (lambda a: DeformationField(GRID, a), "displacement", np.float32, (2, 3, 4, 3)),
    "embedding": (EmbeddingBatch, "rows", np.float64, (4, 2)),
}


class TestOwnership:
    """Every container holds a read-only array that no writable array shares."""

    @pytest.mark.parametrize("passed", ["array", "readonly-view"])
    @pytest.mark.parametrize("name", CONTAINERS)
    def test_later_writes_do_not_reach_the_container(self, name, passed):
        make, attr, dtype, shape = CONTAINERS[name]
        caller = np.ones(shape, dtype)
        given = caller
        if passed == "readonly-view":
            given = caller[...]
            given.flags.writeable = False
        held = getattr(make(given), attr)
        assert caller.flags.writeable
        caller[...] = 0
        assert held.all()
        assert not held.flags.writeable

    @pytest.mark.parametrize("name", CONTAINERS)
    def test_takes_over_a_read_only_array_that_owns_its_memory(self, name):
        make, attr, dtype, shape = CONTAINERS[name]
        caller = np.ones(shape, dtype)
        caller.flags.writeable = False
        assert np.shares_memory(getattr(make(caller), attr), caller)

    @pytest.mark.parametrize("name", CONTAINERS)
    def test_casts_other_dtypes_and_orders(self, name):
        make, attr, dtype, shape = CONTAINERS[name]
        caller = np.asfortranarray(np.ones(shape, np.int8))
        held = getattr(make(caller), attr)
        assert held.dtype == dtype and held.flags.c_contiguous and held.shape == shape


def _box_by_nonzero(mask):
    """The bounding box as each axis's np.nonzero min and max."""
    return tuple(slice(int(at.min()), int(at.max()) + 1) for at in np.nonzero(mask))


class TestBoundingBox:
    def test_random_masks_match_nonzero_extents(self):
        rng = np.random.default_rng(26)
        for density in np.geomspace(0.001, 0.9, 240):
            shape = tuple(int(n) for n in rng.integers(1, 24, 3))
            mask = rng.random(shape) < density
            mask[tuple(int(rng.integers(n)) for n in shape)] = True  # at least one
            assert _bounding_box(mask) == _box_by_nonzero(mask)

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 7, 5), (6, 1, 4), (5, 6, 1), (1, 1, 9), (9, 1, 1), (1, 8, 1)]
    )
    def test_one_voxel_axes(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            mask = rng.random(shape) < 0.3
            mask.reshape(-1)[rng.integers(mask.size)] = True
            assert _bounding_box(mask) == _box_by_nonzero(mask)

    @pytest.mark.parametrize("corner", np.ndindex(2, 2, 2))
    def test_one_voxel_at_each_corner(self, corner):
        shape = (4, 5, 6)
        at = tuple(c * (n - 1) for c, n in zip(corner, shape))
        mask = np.zeros(shape, dtype=bool)
        mask[at] = True
        assert _bounding_box(mask) == tuple(slice(a, a + 1) for a in at)

    @pytest.mark.parametrize(
        "view",
        [
            lambda m: m[::2, 1::3, ::-1],
            lambda m: m.transpose(2, 0, 1),
            lambda m: np.asfortranarray(m),
            lambda m: m[3:, :, 2:-1],
        ],
        ids=["strided-reversed", "transposed", "fortran", "sliced"],
    )
    def test_views_that_are_not_c_contiguous(self, view):
        rng = np.random.default_rng(27)
        for _ in range(10):
            mask = view(rng.random((13, 14, 12)) < 0.01)
            if not mask.any():
                continue
            assert _bounding_box(mask) == _box_by_nonzero(mask)

    @pytest.mark.parametrize("margin", range(6))
    def test_crop_offsets_and_shapes_widen_the_nonzero_box(self, labels_from, image_from, margin):
        rng = np.random.default_rng(28 + margin)
        for _ in range(10):
            data = (rng.random((15, 12, 10)) < 0.004) * rng.integers(1, 9, (15, 12, 10))
            if not data.any():
                continue
            box = [
                slice(max(s.start - margin, 0), min(s.stop + margin, n))
                for s, n in zip(_box_by_nonzero(data), data.shape)
            ]
            for vol in (labels_from(data.astype(np.uint16)), image_from(data)):
                cropped, offset = crop_to_content(vol, margin)
                assert offset == tuple(s.start for s in box)
                assert cropped.grid.shape == tuple(s.stop - s.start for s in box)
                assert np.array_equal(cropped.voxels, vol.voxels[tuple(box)])


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

    def test_rotated_grid_keeps_world_positions(self):
        affine = np.eye(4)
        affine[:3, :3] = _rotation(0.7, -0.4) @ np.diag([1.0, 1.0, 1.25])
        affine[:3, 3] = [30.0, -20.0, 5.0]
        data = np.zeros((9, 8, 7), dtype=np.uint16)
        data[2:5, 3:6, 1:4] = 1
        volume = LabelVolume(VoxelGrid((9, 8, 7), affine), data)
        cropped, offset = crop_to_content(volume, margin=1)
        corners = np.array([[0, 0, 0], [1, 2, 3], list(cropped.grid.shape)], dtype=np.float64)
        for t in corners:
            world = cropped.grid.affine @ np.array([*t, 1.0])
            expected = affine @ np.array([*(t + offset), 1.0])
            assert np.allclose(world, expected, rtol=1e-12, atol=1e-12)
        assert np.allclose(cropped.grid.spacing, volume.grid.spacing, rtol=1e-12, atol=0.0)


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

    def test_nearest_reads_always_land_inside(self):
        # why nearest resample gathers its taps unweighted: no tap is outside
        for n_src in range(1, 40):
            for n_target in range(1, 90):
                positions = (np.arange(n_target, dtype=np.float64) + 0.5) * (n_src / n_target) - 0.5
                [(_, inside)] = _nearest_taps(n_src, positions)
                assert inside.all(), (n_src, n_target)

    def test_nearest_never_invents_labels(self, labels_from):
        rng = np.random.default_rng(7)
        data = rng.choice([0, 3, 7], size=(8, 8, 8)).astype(np.uint16)
        out = resample(labels_from(data), (13, 5, 9), mode="nearest")
        assert set(np.unique(out.voxels)) <= {0, 3, 7}

    @pytest.mark.parametrize(
        "target", [(16, 9, 7), (3, 4, 2), (13, 2, 9)], ids=["upsample", "downsample", "mixed"]
    )
    def test_nearest_matches_nearest_sample(self, labels_from, target):
        src = np.random.default_rng(11).integers(0, 50, (8, 6, 5), dtype=np.uint16)
        out = resample(labels_from(src), target, mode="nearest")
        positions = [
            (np.arange(t) + 0.5) * s / t - 0.5 for s, t in zip(src.shape, target)
        ]
        expected = nearest_sample(src, np.meshgrid(*positions, indexing="ij"))
        assert out.voxels.dtype == np.uint16
        assert np.array_equal(out.voxels, expected)

    def test_trilinear_on_labels_rejected(self, labels_from):
        vol = labels_from(np.zeros((4, 4, 4), dtype=np.uint16))
        with pytest.raises(ModeMismatchError):
            resample(vol, (8, 8, 8), mode="trilinear")

    @pytest.mark.parametrize(
        "src_shape, target, dtype",
        [
            ((8, 6, 5), (16, 9, 7), np.float32),
            ((8, 6, 5), (3, 4, 2), np.float32),
            ((8, 6, 5), (16, 2, 9), np.float32),
            ((1, 6, 5), (4, 1, 5), np.float32),
            ((7, 1, 1), (1, 3, 2), np.float32),
            ((8, 6, 5), (16, 2, 9), np.float64),
            ((1, 6, 5), (4, 1, 5), np.float64),
        ],
        ids=[
            "upsample",
            "downsample",
            "mixed",
            "one-voxel-axes",
            "one-voxel-source",
            "float64-mixed",
            "float64-one-voxel-axes",
        ],
    )
    def test_matches_per_voxel_oracle(self, unit_grid, trilinear_oracle, src_shape, target, dtype):
        src = np.random.default_rng(10).random(src_shape).astype(dtype)
        # a float64 volume type keeps the float64 result, so it is held to a tighter bound
        volume_type, atol = (
            (IntensityVolume, 1e-6) if dtype == np.float32 else (ProbabilityVolume, 1e-12)
        )
        out = resample(volume_type(unit_grid(src_shape), src), target, mode="trilinear")
        assert out.voxels.dtype == dtype
        # every voxel, including boundary voxels whose outer tap falls outside
        expected = np.zeros(target)
        for t in np.ndindex(*target):
            coord = np.array(
                [(t[ax] + 0.5) * src.shape[ax] / target[ax] - 0.5 for ax in range(3)]
            )
            expected[t] = trilinear_oracle(src, coord)
        assert np.allclose(out.voxels, expected, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("n_src", [1, 4])
    def test_taps_outside_read_as_zero_on_both_edges(self, image_from, axis, n_src):
        shape = [3, 3, 3]
        shape[axis] = n_src
        target = list(shape)
        target[axis] = 2 * n_src
        out = resample(image_from(np.ones(shape)), target, mode="trilinear").voxels
        # doubling puts the first and last target voxel a quarter voxel outside
        # the source, so their outer tap (weight 0.25) reads 0
        profile = np.moveaxis(out, axis, 0)
        assert np.all(profile[0] == 0.75) and np.all(profile[-1] == 0.75)
        assert np.all(profile[1:-1] == 1.0)

    def test_extent_preserved(self, image_from):
        vol = image_from(np.zeros((10, 10, 10), dtype=np.float32), spacing=(1.0, 1.0, 2.0))
        out = resample(vol, (5, 20, 10), mode="trilinear")
        for ax in range(3):
            before = vol.grid.shape[ax] * vol.grid.spacing[ax]
            after = out.grid.shape[ax] * out.grid.spacing[ax]
            assert after == pytest.approx(before)

    def test_spacing_is_the_scaled_spacing_exactly(self, image_from):
        vol = image_from(np.zeros((10, 9, 8), dtype=np.float32), spacing=(1.0, 1.0, 1.25))
        out = resample(vol, (7, 12, 5), mode="trilinear")
        assert out.grid.spacing == (1.0 * 10 / 7, 1.0 * 9 / 12, 1.25 * (8 / 5))

    def test_rotated_grid_keeps_world_positions(self):
        affine = np.eye(4)
        affine[:3, :3] = _rotation(-0.2, 1.1) @ np.diag([0.8, 1.0, 1.5])
        affine[:3, 3] = [4.0, 5.0, -6.0]
        vol = IntensityVolume(VoxelGrid((10, 9, 8), affine), np.zeros((10, 9, 8)))
        out = resample(vol, (5, 18, 8), mode="trilinear")
        scale = np.array([10 / 5, 9 / 18, 8 / 8])
        for t in ([0, 0, 0], [4, 17, 7], [2, 9, 3]):
            # target voxel t is centred on source index K t + (K - 1)/2
            source = np.array(t) * scale + (scale - 1.0) / 2.0
            world = out.grid.affine @ np.array([*t, 1.0])
            assert np.allclose(world, affine @ np.array([*source, 1.0]), rtol=1e-12, atol=1e-12)
        expected = np.array(vol.grid.spacing) * scale
        assert np.allclose(out.grid.spacing, expected, rtol=1e-12, atol=0.0)


def whole_volume_resample(vol, target, mode):
    """Each axis's taps gathered over the whole volume, the most shrinking axis
    first, then one cast to the volume's dtype: resample without slabs."""
    src = vol.grid.shape
    taps = _linear_taps if mode == "trilinear" else _nearest_taps
    data = vol.voxels
    for ax in sorted(range(3), key=lambda a: target[a] / src[a]):
        positions = (np.arange(target[ax], dtype=np.float64) + 0.5) * (src[ax] / target[ax]) - 0.5
        data = _gather_axis(data, ax, taps(src[ax], positions))
    return data.astype(vol.voxels.dtype)


# volume type, voxels from uniform [0, 1) draws, mode
_SLAB_KINDS = {
    "intensity": (IntensityVolume, lambda v: v.astype(np.float32), "trilinear"),
    "probability": (ProbabilityVolume, lambda v: v, "trilinear"),
    "labels": (LabelVolume, lambda v: (v * 50).astype(np.uint16), "nearest"),
    "mask": (BinaryMask, lambda v: v > 0.5, "nearest"),
}


class TestSlabs:
    def test_rows_cover_the_axis_and_read_the_same_sources(self, monkeypatch):
        monkeypatch.setattr(volume, "_SLAB_VOXELS", 100)  # 2 rows of a 45-voxel plane
        taps = _linear_taps(11, np.linspace(-0.7, 10.8, 7))
        slabs = list(_slabs(taps, 7, 45))
        assert [(rows.start, rows.stop) for rows, _, _ in slabs] == [(0, 2), (2, 4), (4, 6), (6, 7)]
        for rows, sources, cut in slabs:
            for (idx, w), (slab_idx, slab_w) in zip(taps, cut):
                assert np.array_equal(slab_idx + sources.start, idx[rows])
                assert np.array_equal(slab_w, w[rows])
                assert slab_idx.min() >= 0 and slab_idx.max() < sources.stop - sources.start

    def test_an_axis_without_taps_is_its_own_source(self, monkeypatch):
        monkeypatch.setattr(volume, "_SLAB_VOXELS", 1)  # one row per slab, at least
        assert list(_slabs(None, 2, 50)) == [(slice(0, 1), slice(0, 1), None),
                                              (slice(1, 2), slice(1, 2), None)]

    # budgets in voxels, each giving slabs that do not divide the first axis
    @pytest.mark.parametrize(
        "src, target, budget",
        [
            ((11, 6, 5), (7, 9, 4), 100),  # axis 0 first, 2-row slabs of a 45-voxel plane
            ((6, 11, 5), (9, 7, 4), 100),  # axis 1 first
            ((6, 5, 11), (9, 4, 7), 100),  # axis 2 first
            ((4, 5, 3), (9, 11, 8), 250),  # upsampling, axis 1 first: 3-row slabs of 72
            ((9, 1, 1), (5, 1, 3), 7),  # one-voxel axes: 2-row slabs of 3
            ((1, 6, 5), (4, 1, 5), 1),  # a one-voxel target along the first axis
        ],
        ids=["axis-0", "axis-1", "axis-2", "upsample", "one-voxel-axes", "one-voxel-target"],
    )
    @pytest.mark.parametrize("kind", sorted(_SLAB_KINDS))
    def test_resample_equals_the_whole_volume_chain_bytewise(
        self, monkeypatch, unit_grid, kind, src, target, budget
    ):
        volume_type, voxels, mode = _SLAB_KINDS[kind]
        vol = volume_type(unit_grid(src), voxels(np.random.default_rng(16).random(src)))
        expected = whole_volume_resample(vol, target, mode)
        monkeypatch.setattr(volume, "_SLAB_VOXELS", budget)
        out = resample(vol, target, mode).voxels
        assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes()


class TestRequireSameGrid:
    def _masks(self, affine):
        voxels = np.ones((4, 4, 4), dtype=bool)
        return (
            BinaryMask(VoxelGrid.from_spacing((4, 4, 4)), voxels),
            BinaryMask(VoxelGrid((4, 4, 4), affine), voxels),
        )

    @pytest.mark.parametrize(
        "edit, gap",
        [((0, 3, 5.0), "5"), ((1, 1, -1.0), "2"), ((2, 3, 2e-5), "2e-05")],
        ids=["origin-shift", "flipped-axis", "just-past-tolerance"],
    )
    def test_same_shape_and_spacing_still_names_the_difference(self, edit, gap):
        # the halves agree when only the origin or orientation differs, so
        # the message names the largest affine entry difference
        row, col, value = edit
        affine = np.eye(4)
        affine[row, col] = value
        a, b = self._masks(affine)
        message = (
            "grids differ: (4, 4, 4)/(1.0, 1.0, 1.0) vs (4, 4, 4)/(1.0, 1.0, 1.0),"
            f" affine entries up to {gap} mm apart"
        )
        with pytest.raises(GridMismatchError) as raised:
            require_same_grid(a, b)
        assert str(raised.value) == message

    def test_within_tolerance_is_one_grid(self):
        affine = np.eye(4)
        affine[:3, 3] = 1e-5  # exactly _AFFINE_ATOL
        require_same_grid(*self._masks(affine))


class TestGatherAxis:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize(
        "dtype, taps",
        [(np.float32, _linear_taps), (np.float64, _linear_taps), (np.uint16, _nearest_taps)],
    )
    def test_equals_the_sum_of_weighted_reads_bitwise(self, axis, dtype, taps):
        # in-place weighting keeps the bytes and dtype of ``take * w`` summed tap by tap
        values = (np.random.default_rng(15).random((5, 6, 7)) * 50).astype(dtype)
        n = values.shape[axis]
        positions = np.linspace(-0.7, n - 0.2, 2 * n + 1)
        shape = [1, 1, 1]
        shape[axis] = -1
        axis_taps = taps(n, positions)
        reads = [np.take(values, idx, axis=axis) * w.reshape(shape) for idx, w in axis_taps]
        expected = reads[0]
        for read in reads[1:]:
            expected = expected + read
        out = _gather_axis(values, axis, axis_taps)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.bool_, np.uint16, np.float32])
    def test_a_tap_without_weight_is_the_plain_read(self, axis, dtype):
        values = (np.random.default_rng(16).random((5, 6, 7)) * 50).astype(dtype)
        idx = np.arange(values.shape[axis])[::-1].repeat(2)
        out = _gather_axis(values, axis, [(idx, None)])
        assert out.dtype == values.dtype
        assert out.tobytes() == np.take(values, idx, axis=axis).tobytes()


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
