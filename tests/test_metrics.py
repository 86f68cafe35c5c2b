import numpy as np
import pytest
import scipy.spatial

from sulcikit import metrics
from sulcikit.errors import (
    BothEmptyError,
    EmptySetError,
    GridMismatchError,
    NoValidEntriesError,
)
from sulcikit.metrics import (
    PairReport,
    aggregate,
    dice,
    evaluate_pair,
    hausdorff,
    voxel_surface_area,
    voxel_volume,
)
from sulcikit.oracles import brute_force_hausdorff


class TestDice:
    def test_identical_masks(self, mask_from):
        rng = np.random.default_rng(0)
        data = rng.random((6, 6, 6)) < 0.4
        data[0, 0, 0] = True
        assert dice(mask_from(data), mask_from(data)) == 1.0

    def test_disjoint_masks(self, mask_from):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert dice(mask_from(a), mask_from(b)) == 0.0

    def test_half_overlap(self, mask_from):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = a[0, 0, 1] = True
        b[0, 0, 0] = b[0, 0, 2] = True
        assert dice(mask_from(a), mask_from(b)) == 0.5

    def test_symmetric(self, mask_from):
        rng = np.random.default_rng(1)
        a = rng.random((5, 5, 5)) < 0.4
        b = rng.random((5, 5, 5)) < 0.4
        a[0, 0, 0] = True
        assert dice(mask_from(a), mask_from(b)) == dice(mask_from(b), mask_from(a))

    def test_both_empty_raises(self, mask_from):
        empty = mask_from(np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(BothEmptyError):
            dice(empty, empty)

    def test_grid_mismatch(self, mask_from):
        a = mask_from(np.ones((3, 3, 3), dtype=bool))
        b = mask_from(np.ones((4, 4, 4), dtype=bool))
        with pytest.raises(GridMismatchError):
            dice(a, b)


class TestHausdorff:
    def test_identical_masks_zero(self, mask_from):
        rng = np.random.default_rng(2)
        data = rng.random((6, 6, 6)) < 0.3
        data[2, 2, 2] = True
        assert hausdorff(mask_from(data), mask_from(data)) == 0.0

    def test_three_four_five_fixture(self, mask_from):
        x = np.zeros((5, 6, 4), dtype=bool)
        y = np.zeros((5, 6, 4), dtype=bool)
        x[0, 0, 0] = True
        y[3, 4, 0] = True
        assert hausdorff(mask_from(x), mask_from(y)) == 5.0

    def test_anisotropic_spacing_fixture(self, mask_from):
        x = np.zeros((5, 6, 4), dtype=bool)
        y = np.zeros((5, 6, 4), dtype=bool)
        x[0, 0, 0] = True
        y[3, 4, 0] = True
        value = hausdorff(
            mask_from(x, (2.0, 1.0, 1.0)), mask_from(y, (2.0, 1.0, 1.0))
        )
        assert value == pytest.approx(np.sqrt(52.0), abs=1e-12)

    def test_equals_brute_force_exactly(self, mask_from):
        rng = np.random.default_rng(3)
        trials = 0
        while trials < 25:
            a = rng.random((16, 16, 16)) < 0.05
            b = rng.random((16, 16, 16)) < 0.05
            if not a.any() or not b.any():
                continue
            trials += 1
            ours = hausdorff(mask_from(a), mask_from(b))
            assert ours == brute_force_hausdorff(a, b, (1.0, 1.0, 1.0))
        # tied nearest voxels whose distances round an ulp apart
        for size, seed in ((0.7, 4), (0.9, 157), (0.3, 136)):
            rng = np.random.default_rng(seed)
            a = rng.random((12,) * 3) < 0.25
            b = rng.random((12,) * 3) < 0.02
            spacing = (size,) * 3
            ours = hausdorff(mask_from(a, spacing), mask_from(b, spacing))
            assert ours == brute_force_hausdorff(a, b, spacing)

    def test_symmetric(self, mask_from):
        rng = np.random.default_rng(4)
        a = rng.random((8, 8, 8)) < 0.2
        b = rng.random((8, 8, 8)) < 0.2
        a[1, 1, 1] = b[6, 6, 6] = True
        assert hausdorff(mask_from(a), mask_from(b)) == hausdorff(mask_from(b), mask_from(a))

    def test_triangle_inequality(self, mask_from):
        rng = np.random.default_rng(5)
        trials = 0
        while trials < 25:
            masks = [rng.random((10, 10, 10)) < 0.1 for _ in range(3)]
            if not all(m.any() for m in masks):
                continue
            trials += 1
            x, y, z = (mask_from(m) for m in masks)
            assert hausdorff(x, z) <= hausdorff(x, y) + hausdorff(y, z) + 1e-9

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)], ids=["unit", "aniso"])
    def test_masks_touching_faces_and_corners(self, spacing, mask_from):
        rng = np.random.default_rng(9)
        shape = (9, 7, 8)
        interior = np.zeros(shape, dtype=bool)
        interior[3:6, 2:5, 3:5] = rng.random((3, 3, 2)) < 0.5
        interior[4, 3, 4] = True
        touching = []
        for ax in range(3):
            for end in (0, shape[ax] - 1):
                face = np.zeros(shape, dtype=bool)
                face[(slice(None),) * ax + (end,)] = rng.random(
                    tuple(n for a, n in enumerate(shape) if a != ax)
                ) < 0.2
                face[(2,) * ax + (end,) + (2,) * (2 - ax)] = True
                touching.append(face)
        for corner in np.ndindex(2, 2, 2):
            point = np.zeros(shape, dtype=bool)
            point[tuple(c * (n - 1) for c, n in zip(corner, shape))] = True
            touching.append(point)
        for a in touching:
            for b in (interior, touching[0], touching[-1]):
                expected = brute_force_hausdorff(a, b, spacing)
                assert hausdorff(mask_from(a, spacing), mask_from(b, spacing)) == expected

    def test_far_apart_single_voxels(self, mask_from):
        shape = (40, 30, 20)
        for p, q in (((0, 0, 0), (39, 29, 19)), ((2, 3, 4), (30, 5, 17))):
            x = np.zeros(shape, dtype=bool)
            y = np.zeros(shape, dtype=bool)
            x[p] = y[q] = True
            expected = float(np.sqrt(sum((a - b) ** 2 for a, b in zip(p, q))))
            assert hausdorff(mask_from(x), mask_from(y)) == expected
            assert hausdorff(mask_from(x), mask_from(y)) == brute_force_hausdorff(x, y, (1, 1, 1))

    def test_shell_against_filled_ball(self, mask_from):
        # the maximum is from the ball's interior to the shell, inside both boxes
        shape = (19, 17, 18)
        grid = np.indices(shape) - np.array([9, 8, 9])[:, None, None, None]
        ball = (grid**2).sum(axis=0) <= 36
        shell = ball & ((grid**2).sum(axis=0) > 16)
        for spacing in ((1.0, 1.0, 1.0), (1.1, 0.9, 1.6)):
            expected = brute_force_hausdorff(shell, ball, spacing)
            assert expected > 0.0
            assert hausdorff(mask_from(shell, spacing), mask_from(ball, spacing)) == expected
            assert hausdorff(mask_from(ball, spacing), mask_from(shell, spacing)) == expected

    def test_anisotropic_equals_brute_force(self, mask_from):
        rng = np.random.default_rng(10)
        trials = 0
        while trials < 25:
            shape = tuple(int(n) for n in rng.integers(3, 14, 3))
            spacing = tuple(float(s) for s in rng.uniform(0.4, 2.5, 3))
            a = rng.random(shape) < 0.05
            b = rng.random(shape) < 0.05
            if not a.any() or not b.any():
                continue
            trials += 1
            ours = hausdorff(mask_from(a, spacing), mask_from(b, spacing))
            assert ours == brute_force_hausdorff(a, b, spacing)

    def test_empty_side_raises(self, mask_from):
        full = mask_from(np.ones((3, 3, 3), dtype=bool))
        empty = mask_from(np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(EmptySetError):
            hausdorff(empty, full)
        with pytest.raises(EmptySetError):
            hausdorff(full, empty)


def _sulcus(shape=(16, 15, 14)):
    """A curved sheet two to three voxels thick, clear of the array edge."""
    x, y, z = np.indices(shape)
    depth = 7.0 + 2.5 * np.sin(x / 3.0) + 1.5 * np.cos(y / 4.0)
    sheet = np.abs(z - depth) <= 1.2
    sheet[:3] = sheet[-3:] = sheet[:, :3] = sheet[:, -3:] = False
    return sheet


class TestHausdorffPhases:
    """The near phase (offsets of the cube [-R, R]^3, shortest first) and the KD-tree."""

    @staticmethod
    def _count_trees(monkeypatch):
        built = []
        tree = scipy.spatial.cKDTree

        def counting(*args, **kwargs):
            built.append(1)
            return tree(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", counting)
        return built

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.1, 1.2)], ids=["unit", "aniso"])
    def test_shifted_sulcus_needs_no_tree(self, spacing, monkeypatch, mask_from):
        # every shift in {-2..2}^3 is shorter than (R + 1) * min(spacing)
        def no_tree(*args, **kwargs):
            raise AssertionError("the KD-tree was built")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        a = _sulcus()
        for shift in np.ndindex(5, 5, 5):
            b = np.roll(a, np.subtract(shift, 2), axis=(0, 1, 2))
            expected = brute_force_hausdorff(a, b, spacing)
            assert hausdorff(mask_from(a, spacing), mask_from(b, spacing)) == expected

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.0, 3.0)], ids=["unit", "1-1-3"])
    def test_nearest_just_outside_the_cube(self, spacing, monkeypatch, mask_from):
        # from the source, b's nearest voxel is at (R + 1, 0, 0), length 4, and
        # a farther one at (R, R, 0) inside the cube; a's other voxels sit
        # next to b's so that the other half is 1
        r = metrics._NEAR
        a = np.zeros((r + 2, r + 2, 1), dtype=bool)
        b = np.zeros_like(a)
        b[r + 1, 0, 0] = b[r, r, 0] = True
        a[0, 0, 0] = a[r + 1, 1, 0] = a[r, r + 1, 0] = True
        built = self._count_trees(monkeypatch)
        expected = brute_force_hausdorff(a, b, spacing)
        assert expected == r + 1.0
        assert hausdorff(mask_from(a, spacing), mask_from(b, spacing)) == expected
        assert hausdorff(mask_from(b, spacing), mask_from(a, spacing)) == expected
        assert len(built) == 2

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.8, 1.3, 2.0)], ids=["unit", "aniso"])
    def test_sources_on_the_box_faces_and_corners(self, spacing, mask_from):
        # a's voxels on the joint box's faces and corners read offsets past
        # the box, which the padding must give as background
        n = 9
        edge = np.zeros((n, n, n), dtype=bool)
        for corner in np.ndindex(2, 2, 2):
            edge[tuple(np.multiply(corner, n - 1))] = True
        for ax in range(3):
            for end in (0, n - 1):
                edge[(n // 2,) * ax + (end,) + (n // 2,) * (2 - ax)] = True
        rng = np.random.default_rng(11)
        for width in (1, 3, 5):
            lo = (n - width) // 2
            centre = np.zeros_like(edge)
            centre[lo:lo + width, lo:lo + width, lo:lo + width] = True
            speckled = centre | (rng.random(edge.shape) < 0.02)
            for b in (centre, speckled, np.roll(edge, 1, axis=0)):
                expected = brute_force_hausdorff(edge, b, spacing)
                assert hausdorff(mask_from(edge, spacing), mask_from(b, spacing)) == expected
                assert hausdorff(mask_from(b, spacing), mask_from(edge, spacing)) == expected

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.9, 1.4, 2.2)], ids=["unit", "aniso"])
    def test_near_and_far_sources_in_one_mask(self, spacing, monkeypatch, mask_from):
        a = _sulcus()
        built = self._count_trees(monkeypatch)
        for speck in ((1, 1, 1), (14, 13, 12), (1, 13, 12)):
            b = np.roll(a, (1, -1, 1), axis=(0, 1, 2))
            b[speck] = True
            expected = brute_force_hausdorff(a, b, spacing)
            assert hausdorff(mask_from(a, spacing), mask_from(b, spacing)) == expected
        assert len(built) == 3


class TestVoxelVolume:
    def test_empty(self, mask_from):
        assert voxel_volume(mask_from(np.zeros((3, 3, 3), dtype=bool))) == 0.0

    def test_single_unit_voxel(self, mask_from):
        data = np.zeros((3, 3, 3), dtype=bool)
        data[1, 1, 1] = True
        assert voxel_volume(mask_from(data)) == 1.0

    def test_block_with_anisotropic_spacing(self, mask_from):
        data = np.zeros((5, 5, 5), dtype=bool)
        data[1:4, 1:4, 1:4] = True
        assert voxel_volume(mask_from(data, (1.0, 1.0, 1.25))) == pytest.approx(33.75)

    def test_subset_monotone(self, mask_from):
        rng = np.random.default_rng(6)
        small = rng.random((6, 6, 6)) < 0.3
        big = small | (rng.random((6, 6, 6)) < 0.3)
        assert voxel_volume(mask_from(small)) <= voxel_volume(mask_from(big))


class TestVoxelSurfaceArea:
    def test_single_voxel_cube(self, mask_from):
        data = np.zeros((3, 3, 3), dtype=bool)
        data[1, 1, 1] = True
        assert voxel_surface_area(mask_from(data)) == 6.0

    def test_two_voxel_bar(self, mask_from):
        data = np.zeros((4, 3, 3), dtype=bool)
        data[1:3, 1, 1] = True
        assert voxel_surface_area(mask_from(data)) == 10.0

    def test_empty(self, mask_from):
        assert voxel_surface_area(mask_from(np.zeros((3, 3, 3), dtype=bool))) == 0.0

    def test_boundary_faces_counted(self, mask_from):
        data = np.ones((2, 2, 2), dtype=bool)
        assert voxel_surface_area(mask_from(data)) == 24.0

    def test_anisotropic_faces(self, mask_from):
        data = np.zeros((3, 3, 3), dtype=bool)
        data[1, 1, 1] = True
        area = voxel_surface_area(mask_from(data, (2.0, 1.0, 1.0)))
        # two x-faces of 1x1, four faces of 2x1
        assert area == pytest.approx(2 * 1.0 + 4 * 2.0)


    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1)], ids=["unit", "aniso"])
    def test_masks_touching_every_face(self, spacing, mask_from):
        rng = np.random.default_rng(11)
        data = rng.random((6, 5, 7)) < 0.35
        for ax in range(3):
            for end in (0, data.shape[ax] - 1):
                data[(2,) * ax + (end,) + (2,) * (2 - ax)] = True
        # exposed faces counted voxel by voxel, neighbour by neighbour
        faces = [0, 0, 0]
        for v in map(tuple, np.argwhere(data)):
            for ax in range(3):
                for step in (-1, 1):
                    n = list(v)
                    n[ax] += step
                    if not 0 <= n[ax] < data.shape[ax] or not data[tuple(n)]:
                        faces[ax] += 1
        sp = spacing
        expected = faces[0] * sp[1] * sp[2] + faces[1] * sp[0] * sp[2] + faces[2] * sp[0] * sp[1]
        assert voxel_surface_area(mask_from(data, spacing)) == pytest.approx(expected, rel=1e-12)

    def test_full_volume(self, mask_from):
        assert voxel_surface_area(mask_from(np.ones((3, 4, 5), dtype=bool))) == 2 * (12 + 15 + 20)


class TestEvaluatePair:
    def test_identical_pair(self, mask_from):
        rng = np.random.default_rng(7)
        data = rng.random((6, 6, 6)) < 0.4
        data[0, 0, 0] = True
        report = evaluate_pair(mask_from(data), mask_from(data), identifier="subj")
        assert report.dsc == 1.0
        assert report.hd_mm == 0.0
        assert report.identifier == "subj"

    def test_empty_prediction_flags_hd(self, mask_from):
        pred = mask_from(np.zeros((4, 4, 4), dtype=bool))
        gt_data = np.zeros((4, 4, 4), dtype=bool)
        gt_data[1, 1, 1] = True
        report = evaluate_pair(pred, mask_from(gt_data), identifier="x")
        assert report.dsc == 0.0
        assert report.hd_mm is None
        assert report.pred_volume_mm3 == 0.0

    def test_both_empty_flags_dsc(self, mask_from):
        empty = mask_from(np.zeros((4, 4, 4), dtype=bool))
        report = evaluate_pair(empty, empty)
        assert report.dsc is None
        assert report.hd_mm is None

    def test_matches_direct_computation(self, mask_from):
        pred_data = np.zeros((8, 8, 8), dtype=bool)
        gt_data = np.zeros((8, 8, 8), dtype=bool)
        pred_data[1:4, 1:4, 1:4] = True
        gt_data[2:5, 2:5, 2:5] = True
        report = evaluate_pair(mask_from(pred_data), mask_from(gt_data))
        overlap = int((pred_data & gt_data).sum())
        assert report.dsc == 2 * overlap / (pred_data.sum() + gt_data.sum())
        assert report.hd_mm == brute_force_hausdorff(pred_data, gt_data, (1, 1, 1))
        assert report.pred_volume_mm3 == float(pred_data.sum())


class TestAggregate:
    def _report(self, identifier, dsc, hd):
        return PairReport(identifier, dsc, hd, 1.0, 1.0, 6.0, 6.0)

    def test_singleton(self):
        summary = aggregate([self._report("a", 0.8, 2.0)])
        stats = summary.metrics["dsc"]
        assert stats.mean == stats.median == stats.min == stats.max == 0.8
        assert stats.std == 0.0
        assert stats.count == 1

    def test_three_values_mean_median(self):
        reports = [self._report(i, v, 1.0) for i, v in enumerate((0.2, 0.4, 0.6))]
        stats = aggregate(reports).metrics["dsc"]
        assert stats.mean == pytest.approx(0.4, abs=1e-12)
        assert stats.median == pytest.approx(0.4, abs=1e-12)

    def test_population_std(self):
        reports = [self._report(i, v, 1.0) for i, v in enumerate((0.0, 1.0))]
        assert aggregate(reports).metrics["dsc"].std == 0.5

    def test_flagged_excluded_and_counted(self):
        reports = [self._report("a", 0.5, None), self._report("b", 0.7, 3.0)]
        summary = aggregate(reports)
        assert summary.flagged["hd_mm"] == 1
        assert summary.metrics["hd_mm"].count == 1
        assert summary.metrics["hd_mm"].mean == 3.0

    def test_all_flagged_raises(self):
        reports = [self._report("a", None, None)]
        with pytest.raises(NoValidEntriesError):
            aggregate(reports)

    def test_min_le_median_le_max(self):
        rng = np.random.default_rng(8)
        reports = [self._report(i, float(v), 1.0) for i, v in enumerate(rng.random(9))]
        stats = aggregate(reports).metrics["dsc"]
        assert stats.min <= stats.median <= stats.max
