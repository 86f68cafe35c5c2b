import hashlib
import itertools
import json

import numpy as np
import pytest
from scipy import ndimage

import sulcikit
from sulcikit import synth, volume
from sulcikit.errors import MissingPriorError, MissingSubstitutionError
from sulcikit.oracles import deform_by_voxel, reflected_blur, trilinear_read
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


def upsample_lattice(control, shape):
    """The control lattice read trilinearly over a volume of ``shape``, slab by slab."""
    row_taps, *plane_taps = synth._lattice_taps(control.shape, shape)
    return np.concatenate([
        synth._gather_axis(synth._read_planes(control[nodes], plane_taps), 0, slab_taps)
        for _, nodes, slab_taps in synth._slabs(row_taps, shape[0], shape[1] * shape[2])
    ])


def identity_config(**overrides):
    return GeneratorConfig.identity(
        substitution_table={48: 2, 49: 2}, **overrides
    )


MOVED_BYTES = (
    "generator bytes moved: that is a release. Bump sulcikit.__version__, add a README"
    " release note and re-take the pins under the new version; never edit a released"
    " version's pins"
)


def release_pins(pins: dict) -> dict:
    """The pins of the running ``sulcikit.__version__``, from a table keyed by release."""
    if sulcikit.__version__ not in pins:
        pytest.fail(
            f"no pins for sulcikit {sulcikit.__version__} (pinned: {sorted(pins)}): generator"
            " bytes are pinned per release, so a version bump adds its own pins (the last"
            " release's, when the bump moved no generator byte)"
        )
    return pins[sulcikit.__version__]


def scrambled_ramp(shape, dtype):
    """Exact test values with no RNG or libm in them: a scrambled integer ramp."""
    flat = np.arange(int(np.prod(shape))) * 7919 % 101
    return (flat / 13.0 - 3.0).astype(dtype).reshape(shape)


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
        assert np.array_equal(field.displacement, np.zeros((10, 10, 10, 3), dtype=np.float32))

    def test_same_seed_bit_identical(self, unit_grid):
        config = default_generator_config()
        a = sample_elastic(config, unit_grid((6, 6, 6)), 7)
        b = sample_elastic(config, unit_grid((6, 6, 6)), 7)
        assert np.array_equal(a.displacement, b.displacement)

    def test_interior_matches_trilinear_oracle(self, unit_grid):
        config = default_generator_config(elastic_grid=(2, 2, 2), elastic_std_range=(2.0, 2.0))
        grid = unit_grid((5, 5, 5))
        field = sample_elastic(config, grid, rng_seed=3)

        # the lattice read at every voxel, as the warp reads it, against direct
        # trilinear evaluation: lattice coords x/4, so the last voxel sits
        # exactly on lattice index 1
        for c in range(3):
            read = upsample_lattice(field.displacement[..., c], grid.shape)
            for x, y, z in np.ndindex(5, 5, 5):
                expected = trilinear_read(field.displacement[..., c], np.array([x, y, z]) / 4.0)
                assert read[x, y, z] == pytest.approx(expected, abs=1e-6)

    def test_field_is_the_drawn_lattice(self, unit_grid):
        config = default_generator_config(elastic_grid=(3, 4, 3))
        grid = unit_grid((9, 7, 5))
        field = sample_elastic(config, grid, rng_seed=6)

        # replicate the documented draw order to recover the control lattice
        rng = np.random.default_rng(6)
        sigma = rng.uniform(*config.elastic_std_range)
        control = rng.standard_normal(size=(3, 4, 3, 3)) * sigma
        assert field.displacement.dtype == np.float32
        assert field.displacement.flags.c_contiguous
        assert np.array_equal(field.displacement, control.astype(np.float32))

    def test_rejects_degenerate_lattice(self):
        for field in ("elastic_grid", "bias_grid"):
            for lattice in ((1, 4, 4), (4, 4), (2, 2, 2, 2)):
                with pytest.raises(ValueError, match=field):
                    default_generator_config(**{field: lattice})


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

    # axis-0 sizes 1 to 33 cover one slab, a partial slab and slab boundaries
    @pytest.mark.parametrize(
        "shape", [(9, 7, 5), (5, 11, 4), (1, 5, 4), (15, 5, 4), (16, 5, 4), (17, 5, 4), (33, 5, 4)]
    )
    def test_matches_per_voxel_oracle(self, labels_from, shape):
        # labels 1..9, so a 0 in the output is a read outside the volume
        seed = sum(shape)
        data = np.random.default_rng(seed).integers(1, 10, shape, dtype=np.uint16)
        vol = labels_from(data)
        config = GeneratorConfig(
            rotation_range=(-30.0, 30.0), translation_range=(-1.5, 1.5),
            elastic_grid=(3, 3, 3), elastic_std_range=(0.5, 1.5),
        )
        affine = sample_affine(config, seed)
        field = sample_elastic(config, vol.grid, seed + 1)
        out = deform_labels(vol, affine, field)
        expected = deform_by_voxel(data, affine, field.displacement)
        assert 0 < np.count_nonzero(expected == 0) < expected.size
        assert np.array_equal(out.voxels, expected)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("u", [0.5, -0.5])
    def test_ties_round_up(self, labels_from, axis, u):
        # x + 0.5 reads x + 1 and x - 0.5 reads x, under the identity affine
        shape = (9, 7, 5)
        data = np.random.default_rng(14).integers(1, 10, shape, dtype=np.uint16)
        vol = labels_from(data)
        displacement = np.zeros(shape + (3,), dtype=np.float32)
        displacement[..., axis] = u
        field = DeformationField(vol.grid, displacement)
        out = deform_labels(vol, np.eye(4), field)
        expected = data
        if u > 0:
            expected = np.roll(data, -1, axis=axis)
            np.moveaxis(expected, axis, 0)[-1] = 0  # the last slice reads outside
        assert np.array_equal(out.voxels, expected)
        assert np.array_equal(deform_by_voxel(data, np.eye(4), displacement), expected)


    def test_one_node_per_voxel_lattice_reads_back_exactly(self, labels_from):
        # a dense field is a lattice of one node per voxel: its taps have stretch 1
        # and frac 0, so every node is read as it is
        shape = (9, 7, 5)
        rng = np.random.default_rng(15)
        lattice = (rng.standard_normal(shape + (3,)) * 2.0).astype(np.float32)
        for c in range(3):
            assert np.array_equal(upsample_lattice(lattice[..., c], shape), lattice[..., c])
            for axis, n in enumerate(shape):
                taps = synth._linear_taps(n, np.arange(n, dtype=np.float64))
                read = synth._gather_axis(lattice[..., c].astype(np.float64), axis, taps)
                assert np.array_equal(read, lattice[..., c])
        data = rng.integers(1, 10, shape, dtype=np.uint16)
        vol = labels_from(data)
        affine = sample_affine(GeneratorConfig(rotation_range=(-30.0, 30.0)), 15)
        out = deform_labels(vol, affine, DeformationField(vol.grid, lattice))
        assert np.array_equal(out.voxels, deform_by_voxel(data, affine, lattice))

    def test_mixed_lattice_matches_per_voxel_oracle(self, labels_from):
        # one node per voxel along x and z, a coarse lattice along y
        shape, lattice_shape = (9, 7, 5), (9, 3, 5)
        rng = np.random.default_rng(16)
        data = rng.integers(1, 10, shape, dtype=np.uint16)
        vol = labels_from(data)
        lattice = (rng.standard_normal(lattice_shape + (3,)) * 1.5).astype(np.float32)
        affine = sample_affine(GeneratorConfig(rotation_range=(-30.0, 30.0)), 16)
        out = deform_labels(vol, affine, DeformationField(vol.grid, lattice))
        assert np.array_equal(out.voxels, deform_by_voxel(data, affine, lattice))

    # sha256 of the 80x96x80 phantom's label bytes warped through lattices that
    # have one node per voxel along every axis, along two, and along none, per
    # release: a dense axis reads each node back as it is
    LATTICE_SHA256 = {
        "0.3.0": {
            (80, 96, 80): "72d2bbc320c58f9c1f3fcc765728e3f60e511d9270f3898506efcb53bdd223b1",
            (80, 5, 80): "395baec479cf6c4016982d89f9f4186a0589285215ccc0b943e7f68c259024ce",
            (5, 96, 7): "98fb0d5cdc7c5a2984ae035b8874e7069c4a93ae15dde7038613350e8d2c7e56",
        },
        "0.4.0": {
            (80, 96, 80): "72d2bbc320c58f9c1f3fcc765728e3f60e511d9270f3898506efcb53bdd223b1",
            (80, 5, 80): "395baec479cf6c4016982d89f9f4186a0589285215ccc0b943e7f68c259024ce",
            (5, 96, 7): "98fb0d5cdc7c5a2984ae035b8874e7069c4a93ae15dde7038613350e8d2c7e56",
        },
    }

    @pytest.mark.parametrize("lattice_shape", [(80, 96, 80), (80, 5, 80), (5, 96, 7)], ids=str)
    def test_dense_and_mixed_lattice_bytes_pinned(self, lattice_shape):
        labels = make_phantom(shape=(80, 96, 80))
        rng = np.random.default_rng(sum(lattice_shape))
        field = DeformationField(labels.grid, rng.standard_normal(lattice_shape + (3,)) * 2.0)
        affine = sample_affine(default_generator_config(), sum(lattice_shape))
        out = deform_labels(labels, affine, field)
        digest = hashlib.sha256(out.voxels.tobytes()).hexdigest()
        assert digest == release_pins(self.LATTICE_SHA256)[lattice_shape], MOVED_BYTES

    @pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4, 4, 2), (0, 4, 4, 3)], ids=str)
    def test_field_rejects_what_is_not_a_lattice(self, unit_grid, shape):
        with pytest.raises(ValueError, match=r"displacement must be a \(gx, gy, gz, 3\) lattice"):
            DeformationField(unit_grid((4, 4, 4)), np.zeros(shape, dtype=np.float32))

    def test_field_rejects_non_finite_nodes(self, unit_grid):
        lattice = np.zeros((2, 2, 2, 3), dtype=np.float32)
        lattice[1, 0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            DeformationField(unit_grid((4, 4, 4)), lattice)


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

    def test_unmapped_label_among_mapped_raises(self, labels_from):
        data = np.full((5, 4, 3), 48, dtype=np.uint16)
        data[1] = 2
        data[-1, -1, -1] = 300
        with pytest.raises(MissingSubstitutionError) as err:
            substitute_sulci(labels_from(data), {48: 2, 49: 2})
        assert err.value.label == 300

    @pytest.mark.parametrize("table", [{-1: 3}, {70000: 2}, {48: 70000}], ids=str)
    def test_label_outside_uint16_rejected(self, labels_from, table):
        # a lookup table of 65536 entries would wrap -1 to 65535 or index past its end
        with pytest.raises(ValueError, match=r"substitution_table.* must be in 0\.\.65535"):
            substitute_sulci(labels_from(np.full((2, 2, 2), 2, dtype=np.uint16)), table)

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

    def test_draw_layout_rebuilds_the_image_bitwise(self, labels_from):
        # labels 0, 1, 3 and 7 mixed; label 2 has a prior but no voxel, so draws nothing
        data = np.array([0, 1, 3, 7], dtype=np.uint16)[np.arange(60).reshape(3, 4, 5) * 7 % 4]
        priors = TissuePriors({l: ((10.0 * l, 10.0 * l + 5.0), (1.0, 3.0)) for l in (1, 2, 3, 7)})
        img = sample_intensities(labels_from(data), priors, rng_seed=11)

        rng = np.random.default_rng(11)
        params = {l: (rng.uniform(*priors.entries[l][0]), rng.uniform(*priors.entries[l][1]))
                  for l in (1, 3, 7)}
        expected = np.zeros(data.size, dtype=np.float32)
        for label, (mu, sd) in params.items():
            voxels = np.flatnonzero(data.ravel() == label)  # C order
            expected[voxels] = (mu + sd * rng.standard_normal(voxels.size)).astype(np.float32)
        assert img.voxels.tobytes() == expected.reshape(data.shape).tobytes()
        assert (img.voxels[data == 0] == 0).all()

    def test_missing_prior_raises(self, labels_from):
        vol = labels_from(np.full((2, 2, 2), 9, dtype=np.uint16))
        with pytest.raises(MissingPriorError) as err:
            sample_intensities(vol, TissuePriors({}), 0)
        assert err.value.label == 9


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self, image_from):
        rng = np.random.default_rng(20)
        img = image_from(rng.random((5, 5, 5)).astype(np.float32))
        # below 1/3 the support is offset 0 alone; a kernel of 1e-300 would divide 0 by 0
        for sigma in (0.0, 1e-300, np.nextafter(1.0 / 3.0, 0.0)):
            out = gaussian_blur(img, sigma)
            assert np.array_equal(out.voxels, img.voxels)

    @pytest.mark.parametrize("sigma", [np.nextafter(synth.MAX_BLUR_SIGMA, np.inf), 1e308])
    def test_sigma_past_the_cap_rejected(self, image_from, sigma):
        img = image_from(np.ones((2, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match=f"^sigma must be <= {synth.MAX_BLUR_SIGMA}, got"):
            gaussian_blur(img, sigma)

    def test_constant_image_invariant(self, image_from):
        img = image_from(np.full((6, 6, 6), 7.5, dtype=np.float32))
        out = gaussian_blur(img, 1.3)
        assert np.allclose(out.voxels, 7.5, atol=1e-5)

    def test_impulse_matches_dense_convolution(self, image_from):
        data = np.zeros((9, 9, 9), dtype=np.float32)
        data[4, 4, 4] = 1.0
        out = gaussian_blur(image_from(data), 1.0)

        # in the interior the direct convolution is the dense 3D kernel itself
        expected = reflected_blur(data, 1.0)
        assert np.allclose(out.voxels, expected, atol=1e-7)

    def test_reflection_beyond_axis_length_matches_oracle(self, image_from):
        sigma = 1.5  # radius 4: reaches past both ends of every axis
        data = np.random.default_rng(24).random((3, 4, 5)).astype(np.float32)
        out = gaussian_blur(image_from(data), sigma)

        expected = reflected_blur(data, sigma)
        assert np.allclose(out.voxels, expected, rtol=0.0, atol=1e-6)

    def test_mass_preserved_interior(self, image_from):
        data = np.zeros((11, 11, 11), dtype=np.float32)
        data[5, 5, 5] = 2.0
        out = gaussian_blur(image_from(data), 1.0)
        assert out.voxels.sum() == pytest.approx(2.0, rel=1e-6)

    # the float32 contraction inside the blur (what its einsum returns), per
    # release. Axes of 1, 2, 5 and 7 voxels are shorter than the kernel at
    # larger sigma, so reflected taps of one row add up on one column, in
    # ascending kernel order, before the matrices are cast to float32
    CONTRACTED_SHA256 = {
        "0.3.0": {
            (0.4, (2, 7, 23)): "af065ff160b344b8895f96e94163739b554cd133af7067b78461a1091328cb15",
            (0.4, (1, 16, 5)): "1f03483fd3961c608161d1dbbc153bcae28825002dd0d10552a7605d846c02fd",
            (1.0, (2, 7, 23)): "a954232f50602cd40fbf8c483450221d7a026617ff47d70106f8f96e4987ddb8",
            (1.0, (1, 16, 5)): "9177accf095182d2479582636160e81d15b7dd5108b97433569b42bdc66a9b37",
            (2.5, (2, 7, 23)): "3a7cbd91ba97b436c6e021a2e5ac49a63e18974c2b6fa4e7f7670ce0c5e1278a",
            (2.5, (1, 16, 5)): "e73835b24c3e480a6f4767db7a2c811e39cb8a75e6c0e0a4281c32c188ea510f",
            (5.0, (2, 7, 23)): "3dfc0e101f600963820368721278bfc4a938ef5d4bd7833480a02559a097e922",
            (5.0, (1, 16, 5)): "5931bb6a373fe7340178ffd050e2a1c7bde52a997c6ca8c133c935601c88def7",
        },
        "0.4.0": {
            (0.4, (2, 7, 23)): "af065ff160b344b8895f96e94163739b554cd133af7067b78461a1091328cb15",
            (0.4, (1, 16, 5)): "1f03483fd3961c608161d1dbbc153bcae28825002dd0d10552a7605d846c02fd",
            (1.0, (2, 7, 23)): "a954232f50602cd40fbf8c483450221d7a026617ff47d70106f8f96e4987ddb8",
            (1.0, (1, 16, 5)): "9177accf095182d2479582636160e81d15b7dd5108b97433569b42bdc66a9b37",
            (2.5, (2, 7, 23)): "3a7cbd91ba97b436c6e021a2e5ac49a63e18974c2b6fa4e7f7670ce0c5e1278a",
            (2.5, (1, 16, 5)): "e73835b24c3e480a6f4767db7a2c811e39cb8a75e6c0e0a4281c32c188ea510f",
            (5.0, (2, 7, 23)): "3dfc0e101f600963820368721278bfc4a938ef5d4bd7833480a02559a097e922",
            (5.0, (1, 16, 5)): "5931bb6a373fe7340178ffd050e2a1c7bde52a997c6ca8c133c935601c88def7",
        },
    }

    @pytest.mark.parametrize(
        "sigma, shape", sorted(itertools.product((0.4, 1.0, 2.5, 5.0), ((2, 7, 23), (1, 16, 5))))
    )
    def test_contraction_bytes_pinned(self, image_from, monkeypatch, sigma, shape):
        contracted = []
        real = np.einsum
        monkeypatch.setattr(
            np, "einsum", lambda *a, **kw: contracted.append(real(*a, **kw)) or contracted[0]
        )
        gaussian_blur(image_from(scrambled_ramp(shape, np.float32)), sigma)
        digest = hashlib.sha256(contracted[0].tobytes()).hexdigest()
        assert digest == release_pins(self.CONTRACTED_SHA256)[(sigma, shape)], MOVED_BYTES


class TestUpsampleLattice:
    # taken when lattice upsampling moved from the matrix applier to gathered
    # taps (release 0.2.0): the bias field depends on these float64 bytes
    UPSAMPLED_SHA256 = {
        ((2, 2, 2), (1, 5, 9)): "c165a584f4f43193abf77d5d7064db7d2cd96b64eb70f5f6ad942bdc1fe0d764",
        ((4, 4, 4), (37, 52, 29)): "10960b1ab9cc8c593bbf632a584f0aac83096c11c0b318f191dd839c94102840",
        ((10, 10, 10), (40, 48, 40)): "90d5e1941fef780b50d7dac22ee96395a3d519235baaccbb9e56aa15588dfe3f",
        ((3, 7, 2), (12, 9, 7)): "51bf66061d25e3fa0cdfa2c9ca79e0c442190519a4ca6c349376b7f58b424324",
        ((5, 5, 5), (5, 5, 5)): "e3621ce4e79477ca20e10bfeda83a5dbc100f6f2c0ba274b6807562b63bcf757",
        ((4, 4, 4), (3, 2, 1)): "eaa1f3c62303e62ee3fe6b67d2652c6cd8063296a1ecd1ea5e6520277fce7511",
    }

    @pytest.mark.parametrize("lattice, shape", sorted(UPSAMPLED_SHA256))
    def test_bytes_pinned(self, lattice, shape):
        out = upsample_lattice(scrambled_ramp(lattice, np.float64), shape)
        assert out.shape == shape
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == self.UPSAMPLED_SHA256[(lattice, shape)]


class TestSlabBudget:
    def test_deform_and_bias_bytes_do_not_depend_on_the_budget(self, monkeypatch):
        # one slab at the default budget against one row per slab
        labels = make_phantom(shape=(20, 18, 14))
        config = default_generator_config()
        field_ = sample_elastic(config, labels.grid, 4)
        image = sample_intensities(
            substitute_sulci(labels, config.substitution_table), default_priors(), 5
        )

        def run():
            deformed = deform_labels(labels, sample_affine(config, 3), field_)
            return deformed.voxels.tobytes(), apply_bias_field(image, config, 6).voxels.tobytes()

        expected = run()
        monkeypatch.setattr(volume, "_SLAB_VOXELS", 1)
        assert run() == expected


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

    # sha256 of a seeded 80x96x80 image under a bias lattice of one node per
    # voxel, per release
    DENSE_SHA256 = {
        "0.3.0": "e4957fe1316e3d8a86a771591ef134d2870f1ab82ee136a5a447a14a0c5750c6",
        "0.4.0": "e4957fe1316e3d8a86a771591ef134d2870f1ab82ee136a5a447a14a0c5750c6",
    }

    def test_dense_lattice_bytes_pinned(self, image_from):
        shape = (80, 96, 80)
        img = image_from(np.random.default_rng(5).random(shape).astype(np.float32))
        config = default_generator_config(bias_grid=shape, bias_std_range=(0.5, 0.5))
        digest = hashlib.sha256(apply_bias_field(img, config, 6).voxels.tobytes()).hexdigest()
        assert digest == release_pins(self.DENSE_SHA256), MOVED_BYTES


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

    def test_non_negative_image_keeps_the_min_max_bytes(self, image_from):
        data = scrambled_ramp((5, 6, 7), np.float32) + np.float32(3.0)
        assert data.min() >= 0
        out = normalize_intensity(image_from(data))
        expected = (data - data.min()) / (data.max() - data.min())
        assert out.voxels.tobytes() == expected.astype(np.float32).tobytes()

    def test_negatives_clamp_to_exactly_0(self, image_from):
        data = scrambled_ramp((5, 6, 7), np.float32)
        assert data.min() < 0 < data.max()
        out = normalize_intensity(image_from(data))
        expected = np.maximum(data, 0) / data.max()
        assert out.voxels.tobytes() == expected.astype(np.float32).tobytes()
        assert not out.voxels.view(np.uint32)[data <= 0].any()
        assert out.voxels.min() == 0.0 and out.voxels.max() == 1.0

    @pytest.mark.parametrize("top", [0.0, -1.5, -0.0])
    def test_nowhere_positive_maps_to_zero(self, image_from, top):
        data = np.linspace(-10.0, top, 27, dtype=np.float32).reshape(3, 3, 3)
        out = normalize_intensity(image_from(data))
        assert not out.voxels.view(np.uint32).any()


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

    def test_priors_at_the_magnitude_cap_give_a_finite_image(self):
        labels = make_phantom(shape=(16, 16, 14))
        cap = 1e30
        priors = TissuePriors({1: ((-cap, -cap), (cap, cap)), 2: ((cap, cap), (cap, cap)),
                               3: ((-cap, cap), (0.0, cap))})
        image, _ = generate_sample(labels, priors, default_generator_config(), seed=3)
        assert image.voxels.min() == 0.0 and image.voxels.max() == 1.0

    def test_every_generator_cap_at_once_gives_a_finite_image(self):
        # the warp caps, the bias cap and priors at the magnitude cap, with
        # warnings as errors: no overflow, no invalid cast, a finite image
        warp, cap = synth._MAX_WARP, 1e30
        config = GeneratorConfig(
            scaling_range=(-warp, warp), shear_range=(-warp, warp),
            translation_range=(-warp, warp), elastic_std_range=(warp, warp),
            bias_std_range=(synth._MAX_BIAS_STD,) * 2, substitution_table={48: 2, 49: 2},
        )
        priors = TissuePriors({1: ((-cap, -cap), (cap, cap)), 2: ((cap, cap), (cap, cap)),
                               3: ((-cap, cap), (0.0, cap))})
        for seed in range(3):
            image, _ = generate_sample(make_phantom(shape=(16, 16, 14)), priors, config, seed)
            assert np.isfinite(image.voxels).all()

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

    # sha256 of (image, label) voxel bytes on a 20x24x18 phantom with the shipped
    # priors and config, per release. The label halves have held since before
    # linear interpolation moved to two-tap gathers; release 0.3.0 (the float32
    # intensity chain) moved only the image halves. Release 0.4.0 (the clamp at 0)
    # moved only seed 161's image: of the seeds pinned here, it is the one whose
    # image has a voxel below 0 before normalization
    GENERATED_SHA256 = {
        "0.3.0": {
            0: ("44479345b2b8651dd3b7457897eaf9cb554322e4d741c1e036c475f09af02db5",
                "39e902dc569458cd26fd41a23fbee83373cc020eb55e8ca82dc481d7275d97c2"),
            1: ("ba24be93d939110b254e00c57a4225bb353e3d8da58d31f356b2c55d81623b1e",
                "0d4786c464c9df17965337c44241b95a2f9b01d271cb5d68e7441b74c7161783"),
            2: ("01d98ec4d506323ef06ededa285f51ecb3cf8f0a1ce788e59d44d3c6a3cb78bc",
                "db5cab02e186393e187ce3fd30e2f85deea37d6e3ecc4bf0c306b11a00545762"),
        },
        "0.4.0": {
            0: ("44479345b2b8651dd3b7457897eaf9cb554322e4d741c1e036c475f09af02db5",
                "39e902dc569458cd26fd41a23fbee83373cc020eb55e8ca82dc481d7275d97c2"),
            1: ("ba24be93d939110b254e00c57a4225bb353e3d8da58d31f356b2c55d81623b1e",
                "0d4786c464c9df17965337c44241b95a2f9b01d271cb5d68e7441b74c7161783"),
            2: ("01d98ec4d506323ef06ededa285f51ecb3cf8f0a1ce788e59d44d3c6a3cb78bc",
                "db5cab02e186393e187ce3fd30e2f85deea37d6e3ecc4bf0c306b11a00545762"),
            161: ("d575d68efd476c4183cc41d14c4637c930f87b9fb39bfbece480cba0a012f158",
                  "80f2b53e8a90a9c6c052e302442764d9eb8bc129f803ccd1b005ee9d332e0c31"),
        },
    }

    @pytest.mark.parametrize("seed", [0, 1, 2, 161])
    def test_sample_bytes_pinned(self, seed):
        labels = make_phantom(shape=(20, 24, 18))
        image, seg = generate_sample(labels, default_priors(), default_generator_config(), seed)
        digests = tuple(hashlib.sha256(v.voxels.tobytes()).hexdigest() for v in (image, seg))
        assert digests == release_pins(self.GENERATED_SHA256)[seed], MOVED_BYTES

    def test_negative_draws_leave_the_unreached_background_exactly_0(self):
        # CSF is painted far below 0, so the image's minimum is negative before
        # normalization; every voxel that no blur tap from a painted voxel
        # reaches must still be written as the bytes of +0.0
        labels = make_phantom(shape=(20, 24, 18))
        priors = TissuePriors({1: ((-80.0, -60.0), (5.0, 10.0)), 2: ((90.0, 110.0), (5.0, 10.0)),
                               3: ((140.0, 160.0), (5.0, 10.0))})
        sigma = 1.0
        config = default_generator_config(blur_sigma_range=(sigma, sigma))
        image, seg = generate_sample(labels, priors, config, seed=4)
        raw, _ = generate_sample(labels, priors, default_generator_config(
            blur_sigma_range=(sigma, sigma), normalize=False), seed=4)
        assert raw.voxels.min() < 0  # "normalize": false leaves negatives as drawn
        painted = substitute_sulci(seg, config.substitution_table).voxels != 0
        reached = ndimage.maximum_filter(painted, size=2 * int(3 * sigma) + 1, mode="constant")
        assert (~reached).sum() > 1000
        assert not image.voxels.view(np.uint32)[~reached].any()
        assert image.voxels.min() == 0.0 and image.voxels.max() == 1.0

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
        path.write_text(json.dumps(config.to_dict()))
        with open(path) as fh:
            assert GeneratorConfig.from_dict(json.load(fh)) == config

    def test_every_field_has_a_reader(self):
        assert set(synth._GENERATOR_READERS) == set(GeneratorConfig.__dataclass_fields__)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig.from_dict({"wiggle_range": [0, 1]})

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(rotation_range=(10.0, -10.0))

    def test_priors_round_trip(self, tmp_path):
        priors = default_priors()
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors.to_entries()))
        with open(path) as fh:
            assert TissuePriors.from_entries(json.load(fh)) == priors

    def test_priors_reject_unknown_entry_field(self):
        entry = {"label": 1, "mean_range": [1, 2], "std_range": [0, 1], "std_rnage": [5, 9]}
        with pytest.raises(ValueError, match=r"unknown prior entry fields: \['std_rnage'\]"):
            TissuePriors.from_entries([entry])

    def test_priors_reject_negative_std(self):
        with pytest.raises(ValueError):
            TissuePriors({1: ((0.0, 1.0), (-1.0, 1.0))})

    @pytest.mark.parametrize(
        "mean_range, std_range, field",
        [((-2e30, 0.0), (0.0, 1.0), "mean_range"), ((0.0, 2e30), (0.0, 1.0), "mean_range"),
         ((0.0, 1.0), (0.0, 2e30), "std_range")],
    )
    def test_priors_reject_a_magnitude_past_the_cap(self, mean_range, std_range, field):
        with pytest.raises(ValueError, match=rf"^{field}\[1\] (low|high) must be"):
            TissuePriors({1: (mean_range, std_range)})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("scaling_range", (-2e4, 1.0), r"scaling_range low must be >= -10000.0"),
            ("shear_range", ((0, 0), (0, 0), (0, 2e4)), r"shear_range\[2\] high must be <= 10000.0"),
            ("translation_range", (-1e5, -1e5), r"translation_range low must be >= -10000.0"),
            ("elastic_std_range", (0.0, 2e4), r"elastic_std_range high must be <= 10000.0"),
            ("bias_std_range", (0.0, 2.5), r"bias_std_range high must be <= 2.0"),
        ],
    )
    def test_ranges_past_their_cap_rejected(self, field, value, message):
        # a single pair and three per-axis pairs are held to the same bounds
        with pytest.raises(ValueError, match=rf"^{message}, got"):
            GeneratorConfig(**{field: value})

    def test_priors_reject_a_label_given_twice(self):
        entries = [{"label": l, "mean_range": [1, 2], "std_range": [0, 1]} for l in (1, 1.0)]
        with pytest.raises(ValueError, match="duplicate prior for label 1"):
            TissuePriors.from_entries(entries)

    def test_whole_numbers_are_read_in_every_form(self):
        # JSON object keys arrive as strings, and numpy scalars come from arrays
        config = GeneratorConfig(
            elastic_grid=np.array([6, 5, 4]),
            bias_grid=(np.float32(3.0), "3", 3.0),
            substitution_table={"48": "2", np.int64(49): 2.0},
            sulcus_label_start="48",
        )
        assert config.elastic_grid == (6, 5, 4) and config.bias_grid == (3, 3, 3)
        assert config.substitution_table == {48: 2, 49: 2}
        assert type(config.sulcus_label_start) is int and config.sulcus_label_start == 48

    @pytest.mark.parametrize("value", ["4.8", "1e2", " 48", "\u0664\u0668", True, 48.5])
    def test_non_whole_numbers_rejected(self, value):
        with pytest.raises(ValueError, match="^sulcus_label_start must be a whole number"):
            GeneratorConfig(sulcus_label_start=value)
