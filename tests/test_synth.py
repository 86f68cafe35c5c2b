import itertools

import numpy as np
import pytest

from sulcikit.errors import MissingPriorError, MissingSubstitutionError
from sulcikit.presets import default_generator_config, default_priors, make_phantom
from sulcikit.synth import (
    DeformationField,
    GeneratorConfig,
    TissuePriors,
    apply_bias_field,
    deform_labels,
    gaussian_blur,
    generate_sample,
    generate_views,
    mix_seed,
    normalize_intensity,
    sample_affine,
    sample_elastic,
    sample_intensities,
    substitute_sulci,
)
from sulcikit.volume import IntensityVolume, LabelVolume, VoxelGrid


def identity_config(**overrides):
    return GeneratorConfig.identity(
        substitution_table={48: 2, 49: 2}, **overrides
    )


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(42, 3) == mix_seed(42, 3)

    def test_distinct_children(self):
        seeds = {mix_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_differs_from_parent(self):
        assert mix_seed(42, 0) != 42


class TestSampleAffine:
    def test_degenerate_ranges_give_identity(self):
        m = sample_affine(identity_config(), rng_seed=0)
        assert np.array_equal(m, np.eye(4))

    def test_same_seed_same_matrix(self):
        config = default_generator_config()
        assert np.array_equal(sample_affine(config, 5), sample_affine(config, 5))

    def test_rotation_90_about_x(self):
        config = identity_config(rotation_range=[(90.0, 90.0), (0.0, 0.0), (0.0, 0.0)])
        m = sample_affine(config, 0)
        rotated = m[:3, :3] @ np.array([0.0, 1.0, 0.0])
        assert np.allclose(rotated, [0.0, 0.0, 1.0], atol=1e-6)

    def test_translation_component(self):
        config = identity_config(translation_range=[(2.0, 2.0), (0.0, 0.0), (0.0, 0.0)])
        m = sample_affine(config, 0)
        assert np.allclose(m[:3, 3], [2.0, 0.0, 0.0])


class TestSampleElastic:
    def test_zero_std_gives_zero_field(self, unit_grid):
        field = sample_elastic(identity_config(), unit_grid((6, 6, 6)), rng_seed=1)
        assert np.array_equal(field.displacement, np.zeros((6, 6, 6, 3), dtype=np.float32))

    def test_same_seed_bit_identical(self, unit_grid):
        config = default_generator_config()
        a = sample_elastic(config, unit_grid((6, 6, 6)), 7)
        b = sample_elastic(config, unit_grid((6, 6, 6)), 7)
        assert np.array_equal(a.displacement, b.displacement)

    def test_interior_matches_trilinear_oracle(self, unit_grid):
        config = default_generator_config(elastic_grid=(2, 2, 2), elastic_std_range=(2.0, 2.0))
        grid = unit_grid((5, 5, 5))
        field = sample_elastic(config, grid, rng_seed=3)

        # replicate the documented draw order to recover the control lattice
        rng = np.random.default_rng(3)
        sigma = rng.uniform(2.0, 2.0)
        control = rng.standard_normal(size=(2, 2, 2, 3)) * sigma

        # direct trilinear evaluation at every voxel: lattice coords x/4, so
        # the last voxel sits exactly on lattice index 1
        for x, y, z in np.ndindex(5, 5, 5):
            t = np.array([x, y, z]) / 4.0
            for c in range(3):
                expected = 0.0
                for dx in (0, 1):
                    for dy in (0, 1):
                        for dz in (0, 1):
                            w = (
                                (t[0] if dx else 1 - t[0])
                                * (t[1] if dy else 1 - t[1])
                                * (t[2] if dz else 1 - t[2])
                            )
                            expected += w * control[dx, dy, dz, c]
                assert field.displacement[x, y, z, c] == pytest.approx(expected, abs=1e-6)

    def test_rejects_degenerate_lattice(self, unit_grid):
        config = default_generator_config(elastic_grid=(1, 4, 4))
        with pytest.raises(ValueError):
            sample_elastic(config, unit_grid((4, 4, 4)), 0)


class TestDeformLabels:
    def _zero_field(self, grid):
        return DeformationField(grid, np.zeros(grid.shape + (3,), dtype=np.float32))

    def test_identity_leaves_input_unchanged(self, labels_from):
        rng = np.random.default_rng(11)
        vol = labels_from(rng.integers(0, 5, (8, 8, 8), dtype=np.uint16))
        out = deform_labels(vol, np.eye(4), self._zero_field(vol.grid))
        assert np.array_equal(out.voxels, vol.voxels)

    def test_label_closure(self, labels_from):
        rng = np.random.default_rng(12)
        vol = labels_from(rng.choice([0, 2, 9], size=(8, 8, 8)).astype(np.uint16))
        config = default_generator_config()
        affine = sample_affine(config, 1)
        field = sample_elastic(config, vol.grid, 2)
        out = deform_labels(vol, affine, field)
        assert set(np.unique(out.voxels)) <= {0, 2, 9}

    def test_unit_translation_is_a_shift(self, labels_from):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 4, (8, 8, 8), dtype=np.uint16)
        vol = labels_from(data)
        affine = np.eye(4)
        affine[0, 3] = 1.0  # source position x + 1
        out = deform_labels(vol, affine, self._zero_field(vol.grid))
        expected = np.zeros_like(data)
        expected[:-1] = data[1:]
        assert np.array_equal(out.voxels, expected)


class TestSubstituteSulci:
    def test_identity_without_sulci(self, labels_from):
        vol = labels_from(np.full((4, 4, 4), 2, dtype=np.uint16))
        out = substitute_sulci(vol, {})
        assert np.array_equal(out.voxels, vol.voxels)

    def test_substitution_moves_counts(self, labels_from):
        data = np.full((4, 4, 4), 2, dtype=np.uint16)
        data.ravel()[:10] = 48
        vol = labels_from(data)
        out = substitute_sulci(vol, {48: 2})
        assert int((vol.voxels == 2).sum()) + 10 == int((out.voxels == 2).sum())
        assert 48 not in out.labels_present()

    def test_missing_entry_raises(self, labels_from):
        data = np.zeros((4, 4, 4), dtype=np.uint16)
        data[0, 0, 0] = 49
        with pytest.raises(MissingSubstitutionError) as err:
            substitute_sulci(labels_from(data), {48: 2})
        assert err.value.label == 49

    def test_threshold_is_configurable(self, labels_from):
        data = np.full((2, 2, 2), 30, dtype=np.uint16)
        with pytest.raises(MissingSubstitutionError):
            substitute_sulci(labels_from(data), {}, sulcus_label_start=30)


class TestSampleIntensities:
    def test_degenerate_priors_paint_exactly(self, labels_from):
        vol = labels_from(np.full((4, 4, 4), 3, dtype=np.uint16))
        priors = TissuePriors({3: ((100.0, 100.0), (0.0, 0.0))})
        img = sample_intensities(vol, priors, rng_seed=0)
        assert np.array_equal(img.voxels, np.full((4, 4, 4), 100.0, dtype=np.float32))

    def test_background_only_gives_zero_image(self, labels_from):
        vol = labels_from(np.zeros((4, 4, 4), dtype=np.uint16))
        img = sample_intensities(vol, TissuePriors({}), rng_seed=0)
        assert not img.voxels.any()

    def test_sample_statistics(self, labels_from):
        vol = labels_from(np.ones((50, 50, 40), dtype=np.uint16))
        priors = TissuePriors({1: ((50.0, 50.0), (4.0, 4.0))})
        img = sample_intensities(vol, priors, rng_seed=123)
        assert img.voxels.mean() == pytest.approx(50.0, abs=0.1)
        assert img.voxels.std() == pytest.approx(4.0, abs=0.1)

    def test_missing_prior_raises(self, labels_from):
        vol = labels_from(np.full((2, 2, 2), 9, dtype=np.uint16))
        with pytest.raises(MissingPriorError) as err:
            sample_intensities(vol, TissuePriors({}), 0)
        assert err.value.label == 9


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self, image_from):
        rng = np.random.default_rng(20)
        img = image_from(rng.random((5, 5, 5)).astype(np.float32))
        out = gaussian_blur(img, 0.0)
        assert np.array_equal(out.voxels, img.voxels)

    def test_constant_image_invariant(self, image_from):
        img = image_from(np.full((6, 6, 6), 7.5, dtype=np.float32))
        out = gaussian_blur(img, 1.3)
        assert np.allclose(out.voxels, 7.5, atol=1e-5)

    def test_impulse_matches_dense_convolution(self, image_from):
        data = np.zeros((9, 9, 9), dtype=np.float32)
        data[4, 4, 4] = 1.0
        out = gaussian_blur(image_from(data), 1.0)

        # oracle: explicit truncated kernel, dense 3D convolution
        radius = int(3 * 1.0)
        offsets = np.arange(-radius, radius + 1)
        k1 = np.exp(-(offsets.astype(float) ** 2) / 2.0)
        k1 /= k1.sum()
        kernel3 = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]
        expected = np.zeros((9, 9, 9))
        expected[
            4 - radius : 4 + radius + 1,
            4 - radius : 4 + radius + 1,
            4 - radius : 4 + radius + 1,
        ] = kernel3
        assert np.allclose(out.voxels, expected, atol=1e-7)

    def test_reflection_beyond_axis_length_matches_oracle(self, image_from):
        sigma = 1.5  # radius 4: reaches past both ends of every axis
        data = np.random.default_rng(24).random((3, 4, 5)).astype(np.float32)
        out = gaussian_blur(image_from(data), sigma)

        radius = int(3 * sigma)
        offsets = np.arange(-radius, radius + 1)
        k1 = np.exp(-(offsets.astype(float) ** 2) / (2 * sigma * sigma))
        k1 /= k1.sum()

        def reflect(i, n):
            m = i % (2 * n)
            return 2 * n - 1 - m if m >= n else m

        expected = np.zeros(data.shape)
        for x, y, z in np.ndindex(*data.shape):
            for (ox, wx), (oy, wy), (oz, wz) in itertools.product(zip(offsets, k1), repeat=3):
                src = (reflect(x + ox, 3), reflect(y + oy, 4), reflect(z + oz, 5))
                expected[x, y, z] += wx * wy * wz * data[src]
        assert np.allclose(out.voxels, expected, rtol=0.0, atol=1e-6)

    def test_mass_preserved_interior(self, image_from):
        data = np.zeros((11, 11, 11), dtype=np.float32)
        data[5, 5, 5] = 2.0
        out = gaussian_blur(image_from(data), 1.0)
        assert out.voxels.sum() == pytest.approx(2.0, rel=1e-6)


class TestBiasField:
    def test_zero_std_bitwise_identity(self, image_from):
        rng = np.random.default_rng(21)
        img = image_from(rng.random((6, 6, 6)).astype(np.float32))
        out = apply_bias_field(img, identity_config(), rng_seed=4)
        assert np.array_equal(out.voxels, img.voxels)

    def test_same_seed_identical(self, image_from):
        rng = np.random.default_rng(22)
        img = image_from(rng.random((6, 6, 6)).astype(np.float32))
        config = default_generator_config()
        a = apply_bias_field(img, config, 9)
        b = apply_bias_field(img, config, 9)
        assert np.array_equal(a.voxels, b.voxels)

    def test_zero_image_stays_zero(self, image_from):
        img = image_from(np.zeros((5, 5, 5), dtype=np.float32))
        out = apply_bias_field(img, default_generator_config(), 3)
        assert not out.voxels.any()

    def test_field_is_multiplicative_positive(self, image_from):
        img = image_from(np.ones((6, 6, 6), dtype=np.float32))
        config = default_generator_config(bias_std_range=(0.5, 0.5))
        out = apply_bias_field(img, config, 8)
        assert (out.voxels > 0).all()
        assert out.voxels.std() > 0


class TestNormalizeIntensity:
    def test_affine_rescale(self, image_from):
        data = np.linspace(10.0, 20.0, 8, dtype=np.float32).reshape(2, 2, 2)
        out = normalize_intensity(image_from(data))
        assert np.allclose(out.voxels, (data - 10.0) / 10.0, atol=1e-7)

    def test_constant_maps_to_zero(self, image_from):
        out = normalize_intensity(image_from(np.full((3, 3, 3), 4.2, dtype=np.float32)))
        assert not out.voxels.any()

    def test_range_is_exactly_unit(self, image_from):
        rng = np.random.default_rng(23)
        out = normalize_intensity(image_from(rng.random((6, 6, 6)).astype(np.float32) * 50))
        assert out.voxels.min() == 0.0
        assert out.voxels.max() == 1.0


class TestGenerateSample:
    def test_all_randomization_off_paints_prior_means(self):
        labels = make_phantom(shape=(20, 20, 16))
        means = {1: 30.0, 2: 100.0, 3: 150.0}
        priors = TissuePriors({l: ((m, m), (0.0, 0.0)) for l, m in means.items()})
        config = identity_config()
        image, seg = generate_sample(labels, priors, config, seed=5)

        synth_map = substitute_sulci(labels, config.substitution_table)
        paint = np.zeros(labels.grid.shape, dtype=np.float64)
        for label, mu in means.items():
            paint[synth_map.voxels == label] = np.float32(mu)
        expected = (paint / max(means.values())).astype(np.float32)
        assert np.array_equal(image.voxels, expected)
        assert np.array_equal(seg.voxels, labels.voxels)

    def test_determinism_and_seed_sensitivity(self):
        labels = make_phantom(shape=(16, 16, 14))
        priors = default_priors()
        config = default_generator_config()
        img_a, seg_a = generate_sample(labels, priors, config, seed=7)
        img_b, seg_b = generate_sample(labels, priors, config, seed=7)
        img_c, _ = generate_sample(labels, priors, config, seed=8)
        assert np.array_equal(img_a.voxels, img_b.voxels)
        assert np.array_equal(seg_a.voxels, seg_b.voxels)
        assert not np.array_equal(img_a.voxels, img_c.voxels)

    def test_geometry_preserved(self):
        labels = make_phantom(shape=(16, 16, 14), spacing=(1.0, 1.0, 1.25))
        image, seg = generate_sample(labels, default_priors(), default_generator_config(), 3)
        for vol in (image, seg):
            assert vol.grid.shape == labels.grid.shape
            assert vol.grid.spacing == labels.grid.spacing

    def test_label_closure_over_batch(self):
        labels = make_phantom(shape=(16, 16, 14))
        allowed = set(labels.labels_present()) | {0}
        for seed in range(10):
            _, seg = generate_sample(labels, default_priors(), default_generator_config(), seed)
            assert set(seg.labels_present()) <= allowed

    def test_emitted_labels_match_deform_only_path(self):
        labels = make_phantom(shape=(16, 16, 14))
        config = default_generator_config()
        seed = 31
        _, seg = generate_sample(labels, default_priors(), config, seed)
        affine = sample_affine(config, mix_seed(seed, 1))
        field = sample_elastic(config, labels.grid, mix_seed(seed, 2))
        expected = deform_labels(labels, affine, field)
        assert np.array_equal(seg.voxels, expected.voxels)


class TestGenerateViews:
    def test_single_view_equals_generate_sample(self):
        labels = make_phantom(shape=(14, 14, 12))
        priors = default_priors()
        config = default_generator_config()
        views = generate_views(labels, priors, config, seed=2, n=1)
        image, seg = generate_sample(labels, priors, config, mix_seed(2, 0))
        assert np.array_equal(views[0][0].voxels, image.voxels)
        assert np.array_equal(views[0][1].voxels, seg.voxels)

    def test_parallel_matches_serial(self):
        labels = make_phantom(shape=(14, 14, 12))
        priors = default_priors()
        config = default_generator_config()
        serial = generate_views(labels, priors, config, seed=4, n=4, jobs=1)
        parallel = generate_views(labels, priors, config, seed=4, n=4, jobs=4)
        for (img_s, seg_s), (img_p, seg_p) in zip(serial, parallel):
            assert np.array_equal(img_s.voxels, img_p.voxels)
            assert np.array_equal(seg_s.voxels, seg_p.voxels)

    def test_views_are_distinct(self):
        labels = make_phantom(shape=(14, 14, 12))
        views = generate_views(
            labels, default_priors(), default_generator_config(), seed=6, n=6
        )
        for i in range(len(views)):
            for j in range(i + 1, len(views)):
                assert np.abs(views[i][0].voxels - views[j][0].voxels).max() > 0

    def test_hundred_views_pairwise_distinct(self):
        # phantom large enough that +-10 voxel translations cannot empty it
        labels = make_phantom(shape=(32, 32, 28))
        views = generate_views(
            labels, default_priors(), default_generator_config(), seed=8, n=100, jobs=4
        )
        # byte-level set membership is an exact pairwise-distinctness check
        digests = {image.voxels.tobytes() for image, _ in views}
        assert len(digests) == 100


class TestConfigSerialization:
    def test_round_trip(self, tmp_path):
        config = default_generator_config(rotation_range=(-5.0, 5.0))
        path = tmp_path / "config.json"
        import json

        path.write_text(json.dumps(config.to_dict()))
        back = GeneratorConfig.from_json(path)
        assert back == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig.from_dict({"wiggle_range": [0, 1]})

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(rotation_range=(10.0, -10.0))

    def test_priors_round_trip(self, tmp_path):
        priors = default_priors()
        path = tmp_path / "priors.json"
        import json

        path.write_text(json.dumps(priors.to_entries()))
        assert TissuePriors.from_json(path) == priors

    def test_priors_reject_negative_std(self):
        with pytest.raises(ValueError):
            TissuePriors({1: ((0.0, 1.0), (-1.0, 1.0))})
