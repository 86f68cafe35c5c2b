from collections import deque

import numpy as np
import pytest

from sulcikit.postproc import (
    PostprocConfig,
    connected_components,
    dilate,
    postprocess_cs,
)
from sulcikit.volume import BinaryMask, VoxelGrid


def _neighbour_offsets(connectivity):
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if manhattan == 0:
                    continue
                if connectivity == 6 and manhattan > 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                offsets.append((dx, dy, dz))
    return offsets


def flood_fill_oracle(mask, connectivity):
    """Canonical component labeling by breadth-first flood fill."""
    offsets = _neighbour_offsets(connectivity)
    shape = mask.shape
    labels = np.zeros(shape, dtype=np.int64)
    found = []
    raw_id = 0
    for seed in map(tuple, np.argwhere(mask)):
        if labels[seed]:
            continue
        raw_id += 1
        labels[seed] = raw_id
        size = 1
        queue = deque([seed])
        while queue:
            x, y, z = queue.popleft()
            for dx, dy, dz in offsets:
                n = (x + dx, y + dy, z + dz)
                if all(0 <= n[a] < shape[a] for a in range(3)):
                    if mask[n] and not labels[n]:
                        labels[n] = raw_id
                        size += 1
                        queue.append(n)
        found.append((raw_id, size, int(np.ravel_multi_index(seed, shape))))
    found.sort(key=lambda item: (-item[1], item[2]))
    remap = np.zeros(raw_id + 1, dtype=np.int64)
    for rank, (rid, _, _) in enumerate(found, start=1):
        remap[rid] = rank
    return remap[labels]


def _mask(array):
    array = np.asarray(array, dtype=bool)
    return BinaryMask(VoxelGrid.from_spacing(array.shape), array)


class TestDilate:
    def test_radius_zero_is_identity(self):
        rng = np.random.default_rng(0)
        mask = _mask(rng.random((8, 8, 8)) < 0.3)
        assert np.array_equal(dilate(mask, 0, 26).voxels, mask.voxels)

    def test_interior_voxel_grows_to_27(self):
        data = np.zeros((7, 7, 7), dtype=bool)
        data[3, 3, 3] = True
        assert dilate(_mask(data), 1, 26).count == 27

    def test_interior_voxel_6_connectivity_grows_to_7(self):
        data = np.zeros((7, 7, 7), dtype=bool)
        data[3, 3, 3] = True
        assert dilate(_mask(data), 1, 6).count == 7

    def test_corner_voxel_clipped_to_8(self):
        data = np.zeros((5, 5, 5), dtype=bool)
        data[0, 0, 0] = True
        assert dilate(_mask(data), 1, 26).count == 8

    def test_extensive(self):
        rng = np.random.default_rng(1)
        data = rng.random((10, 10, 10)) < 0.2
        grown = dilate(_mask(data), 1, 18)
        assert (grown.voxels | data).sum() == grown.count

    def test_monotone(self):
        rng = np.random.default_rng(2)
        small = rng.random((10, 10, 10)) < 0.1
        big = small | (rng.random((10, 10, 10)) < 0.1)
        grown_small = dilate(_mask(small), 1, 26).voxels
        grown_big = dilate(_mask(big), 1, 26).voxels
        assert not (grown_small & ~grown_big).any()

    def test_translation_equivariant_in_interior(self):
        data = np.zeros((12, 12, 12), dtype=bool)
        data[4:6, 4:6, 4:6] = True
        shifted = np.roll(data, (1, 2, 1), axis=(0, 1, 2))
        a = dilate(_mask(data), 1, 26).voxels
        b = dilate(_mask(shifted), 1, 26).voxels
        assert np.array_equal(np.roll(a, (1, 2, 1), axis=(0, 1, 2)), b)


class TestConnectedComponents:
    def test_empty_mask(self):
        labeling = connected_components(_mask(np.zeros((4, 4, 4), dtype=bool)), 26)
        assert labeling.count == 0
        assert labeling.sizes == {}

    def test_corner_touch_depends_on_connectivity(self):
        data = np.zeros((4, 4, 4), dtype=bool)
        data[0, 0, 0] = True
        data[1, 1, 1] = True
        assert connected_components(_mask(data), 26).count == 1
        assert connected_components(_mask(data), 6).count == 2

    def test_edge_touch_18_vs_6(self):
        data = np.zeros((4, 4, 4), dtype=bool)
        data[0, 0, 0] = True
        data[0, 1, 1] = True
        assert connected_components(_mask(data), 18).count == 1
        assert connected_components(_mask(data), 6).count == 2

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(3)
        for _ in range(10):
            data = rng.random((16, 16, 16)) < 0.3
            ours = connected_components(_mask(data), connectivity)
            expected = flood_fill_oracle(data, connectivity)
            assert np.array_equal(ours.labels.voxels.astype(np.int64), expected)

    def test_sizes_are_sorted_and_sum_to_foreground(self):
        rng = np.random.default_rng(4)
        data = rng.random((12, 12, 12)) < 0.25
        labeling = connected_components(_mask(data), 6)
        sizes = list(labeling.sizes.values())
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == int(data.sum())
        assert list(labeling.sizes) == list(range(1, labeling.count + 1))


def three_blob_mask():
    """Blobs of 10, 5 and 1 voxels, each further than 2*radius+1 apart."""
    data = np.zeros((30, 12, 12), dtype=bool)
    data[1:6, 2:3, 2:4] = True  # 10 voxels
    data[12:17, 2:3, 2:3] = True  # 5 voxels
    data[25, 8, 8] = True  # 1 voxel
    return _mask(data)


class TestKeepTwoLargest:
    def test_single_component_unchanged(self):
        data = np.zeros((8, 8, 8), dtype=bool)
        data[2:5, 2:5, 2:5] = True
        mask = _mask(data)
        assert np.array_equal(postprocess_cs(mask).voxels, data)

    def test_three_blob_fixture_keeps_fifteen(self):
        cleaned = postprocess_cs(three_blob_mask())
        assert cleaned.count == 15
        assert not cleaned.voxels[20:, :, :].any()

    def test_nearby_blobs_bridged_by_dilation(self):
        data = np.zeros((12, 6, 6), dtype=bool)
        data[2:4, 2, 2] = True
        data[5:7, 2, 2] = True  # 2 voxels away from the first blob
        noise = np.zeros_like(data)
        noise[10, 4, 4] = True
        mask = _mask(data | noise)
        cleaned = postprocess_cs(mask, PostprocConfig(1, 26, 1))
        # dilation bridges the gap, so both blobs survive as one component
        assert np.array_equal(cleaned.voxels, data)

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            data = rng.random((14, 14, 14)) < 0.08
            cleaned = postprocess_cs(_mask(data))
            assert not (cleaned.voxels & ~data).any()


class TestPostprocessCs:
    def test_clean_two_component_mask_is_fixed_point(self):
        cleaned_once = postprocess_cs(three_blob_mask())
        cleaned_twice = postprocess_cs(cleaned_once)
        assert np.array_equal(cleaned_once.voxels, cleaned_twice.voxels)

    def test_salt_noise_removed(self):
        base = np.zeros((24, 24, 24), dtype=bool)
        base[4:10, 10:12, 10:14] = True
        base[16:22, 10:12, 10:14] = True
        noisy = base.copy()
        for spot in [(1, 1, 1), (22, 2, 20), (2, 22, 2)]:
            noisy[spot] = True
        cleaned = postprocess_cs(_mask(noisy))
        assert np.array_equal(cleaned.voxels, base)

    def test_empty_mask_passes_through(self):
        cleaned = postprocess_cs(_mask(np.zeros((6, 6, 6), dtype=bool)))
        assert cleaned.count == 0

    def test_idempotent_on_random_masks(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            data = rng.random((12, 12, 12)) < 0.15
            once = postprocess_cs(_mask(data))
            twice = postprocess_cs(once)
            assert np.array_equal(once.voxels, twice.voxels)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PostprocConfig(dilation_radius=-1)
        with pytest.raises(ValueError):
            PostprocConfig(connectivity=4)
        with pytest.raises(ValueError):
            PostprocConfig(keep=0)
