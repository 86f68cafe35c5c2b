"""Every public entry point reads its numbers by ``volume._int`` or ``volume._real``.

One table names each entry point and parameter, the kind of number it takes
and its bound; each bad value of that kind must raise a ValueError whose
message starts with the parameter's name. A property over the run-config
readers checks that what they accept generates.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulcikit.cli import RunConfig
from sulcikit.errors import IndexOutOfRangeError, MissingPriorError, MissingSubstitutionError
from sulcikit.losses import (
    contrastive_loss,
    contrastive_loss_grad,
    finite_difference_check,
    nt_xent_pair,
    optimize_embeddings_demo,
    seg_loss_grad,
    soft_dice_loss,
    tversky_loss,
)
from sulcikit.postproc import PostprocConfig, connected_components, dilate
from sulcikit.presets import default_generator_config, default_priors, make_phantom
from sulcikit.synth import (
    GeneratorConfig,
    gaussian_blur,
    generate_sample,
    generate_views,
    mix_seed,
)
from sulcikit.volume import (
    BinaryMask,
    IntensityVolume,
    VoxelGrid,
    _int,
    _real,
    _triple,
    binarize,
    crop_to_content,
    resample,
)

_GRID = VoxelGrid.from_spacing((6, 5, 4))
_LABELS = make_phantom((12, 12, 10))
_MASK = BinaryMask(_GRID, np.ones(_GRID.shape, dtype=bool))
_IMAGE = IntensityVolume(_GRID, np.ones(_GRID.shape))
_BATCH = np.random.default_rng(0).standard_normal((4, 3))
_PRED = np.full((3, 3, 3), 0.5)
_TARGET = np.ones((3, 3, 3))
_POINT = {"pred": _PRED, "target": _TARGET}


def _views(**kwargs):
    args = dict(labels=_LABELS, priors=default_priors(), config=default_generator_config(),
                seed=0, n=1, jobs=1)
    return generate_views(**{**args, **kwargs})


# (entry point and parameter, call with the value, name the message starts with,
#  kind, bad value next to the bound or None): "int" is a whole number, "real" a finite real
_ENTRY_POINTS = [
    ("VoxelGrid.shape", lambda v: VoxelGrid.from_spacing((v, 4, 4)), "shape[0]", "int", 0),
    ("VoxelGrid.spacing", lambda v: VoxelGrid.from_spacing((4, 4, 4), (1, v, 1)),
     "spacing[1]", "real", 0.0),
    ("resample", lambda v: resample(_LABELS, (6, 6, v), "nearest"), "target_shape[2]", "int", 0),
    ("crop_to_content", lambda v: crop_to_content(_LABELS, v), "margin", "int", -1),
    ("binarize", lambda v: binarize(_LABELS, [48, v]), "label_set", "int", -1),
    ("make_phantom", lambda v: make_phantom((12, v, 10)), "shape[1]", "int", 0),
    ("PostprocConfig.dilation_radius", lambda v: PostprocConfig(dilation_radius=v),
     "dilation_radius", "int", -1),
    ("PostprocConfig.connectivity", lambda v: PostprocConfig(connectivity=v),
     "connectivity", "int", 7),
    ("PostprocConfig.keep", lambda v: PostprocConfig(keep=v), "keep", "int", 0),
    ("dilate.radius", lambda v: dilate(_MASK, v), "radius", "int", -1),
    ("dilate.connectivity", lambda v: dilate(_MASK, 0, v), "connectivity", "int", 7),
    ("connected_components", lambda v: connected_components(_MASK, v), "connectivity", "int", 7),
    ("generate_views.n", lambda v: _views(n=v), "n", "int", 0),
    ("generate_views.jobs", lambda v: _views(jobs=v), "jobs", "int", 0),
    ("mix_seed.seed", lambda v: mix_seed(v, 1), "seed", "int", None),
    ("mix_seed.index", lambda v: mix_seed(1, v), "index", "int", None),
    ("gaussian_blur", lambda v: gaussian_blur(_IMAGE, v), "sigma", "real",
     np.nextafter(0.0, -1.0)),
    ("contrastive_loss", lambda v: contrastive_loss(_BATCH, v), "temperature", "real", 0.0),
    ("contrastive_loss_grad", lambda v: contrastive_loss_grad(_BATCH, v),
     "temperature", "real", 0.0),
    ("nt_xent_pair.temperature", lambda v: nt_xent_pair(_BATCH, 0, 1, v),
     "temperature", "real", 0.0),
    ("nt_xent_pair.i", lambda v: nt_xent_pair(_BATCH, v, 1), "i", "int", -1),
    ("nt_xent_pair.j", lambda v: nt_xent_pair(_BATCH, 0, v), "j", "int", -1),
    ("soft_dice_loss", lambda v: soft_dice_loss(_PRED, _TARGET, v), "smooth", "real",
     np.nextafter(0.0, -1.0)),
    ("tversky_loss.alpha", lambda v: tversky_loss(_PRED, _TARGET, alpha=v), "alpha", "real",
     np.nextafter(0.0, -1.0)),
    ("tversky_loss.beta", lambda v: tversky_loss(_PRED, _TARGET, beta=v), "beta", "real",
     np.nextafter(0.0, -1.0)),
    ("tversky_loss.smooth", lambda v: tversky_loss(_PRED, _TARGET, smooth=v), "smooth", "real",
     np.nextafter(0.0, -1.0)),
    ("seg_loss_grad.alpha", lambda v: seg_loss_grad("tversky", _PRED, _TARGET, alpha=v),
     "alpha", "real", np.nextafter(0.0, -1.0)),
    ("seg_loss_grad.smooth", lambda v: seg_loss_grad("dice", _PRED, _TARGET, smooth=v),
     "smooth", "real", np.nextafter(0.0, -1.0)),
    ("finite_difference_check.eps", lambda v: finite_difference_check("dice", _POINT, v),
     "eps", "real", 0.0),
    ("finite_difference_check.smooth",
     lambda v: finite_difference_check("dice", {**_POINT, "smooth": v}), "smooth", "real",
     np.nextafter(0.0, -1.0)),
    ("optimize_embeddings_demo.steps", lambda v: optimize_embeddings_demo(_BATCH, steps=v),
     "steps", "int", 0),
    ("optimize_embeddings_demo.step_size",
     lambda v: optimize_embeddings_demo(_BATCH, steps=1, step_size=v), "step_size", "real", 0.0),
]

_BAD = {"int": [2.5, True], "real": [np.nan, np.inf, True]}


def _cases():
    for entry, call, name, kind, below in _ENTRY_POINTS:
        for value in _BAD[kind] + ([] if below is None else [below]):
            yield pytest.param(call, name, value, id=f"{entry}={value!r}")


@pytest.mark.parametrize("call, name, value", _cases())
def test_entry_point_rejects_bad_number_naming_it(call, name, value):
    # an index below 0 is out of the batch's range, not a malformed number
    error = IndexOutOfRangeError if name in ("i", "j") and value == -1 else ValueError
    with pytest.raises(error) as raised:
        call(value)
    assert str(raised.value).startswith(f"{name} ")


def test_postproc_config_keeps_whole_numbers_as_ints():
    config = PostprocConfig(dilation_radius=2.0, connectivity="18", keep=np.int64(3))
    assert (config.dilation_radius, config.connectivity, config.keep) == (2, 18, 3)
    assert all(type(v) is int for v in (config.dilation_radius, config.connectivity, config.keep))


class TestReal:
    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf, True, np.bool_(False), "abc",
                                       "nan", None, [1.0], 10**400])
    def test_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(ValueError, match="^x must be a finite number"):
            _real(value, "x")

    @pytest.mark.parametrize("value, expected", [(2, 2.0), (np.float32(0.5), 0.5), ("1e-3", 1e-3),
                                                 (np.int64(-4), -4.0)])
    def test_reads_what_float_reads(self, value, expected):
        real = _real(value, "x")
        assert type(real) is float and real == expected

    def test_bounds(self):
        assert _real(0, "x", low=0) == 0.0
        with pytest.raises(ValueError, match=r"^x must be >= 0, got -1\.0$"):
            _real(-1, "x", low=0)
        with pytest.raises(ValueError, match=r"^x must be > 0, got 0\.0$"):
            _real(0, "x", above=0)
        assert _real(2, "x", low=0, high=2) == 2.0
        with pytest.raises(ValueError, match=r"^x must be <= 2, got 2\.5$"):
            _real(2.5, "x", low=0, high=2)


class TestTriple:
    @pytest.mark.parametrize("value", [(1, 2), [1, 2, 3, 4], "123", 5, None, np.array(3)])
    def test_rejects_anything_but_three_entries(self, value):
        with pytest.raises(ValueError, match="^shape must have three entries"):
            _triple(value, "shape", low=1)

    def test_reads_each_entry_by_its_reader(self):
        assert _triple(np.array([2, 3, 4]), "shape", low=1) == (2, 3, 4)
        assert _triple(["2", 3.0, np.int16(4)], "shape") == (2, 3, 4)
        assert _triple([1, "0.5", 2], "spacing", _real, above=0) == (1.0, 0.5, 2.0)
        with pytest.raises(ValueError, match=r"^shape\[2\] must be >= 1, got 0$"):
            _triple((1, 1, 0), "shape", low=1)


@pytest.mark.parametrize("value", [np.array(1.0), "12", [1], (1, 2, 3), True, None])
def test_range_is_exactly_two_numbers(value):
    with pytest.raises(ValueError, match="^blur_sigma_range must be two numbers"):
        GeneratorConfig(blur_sigma_range=value)


def test_int_and_real_disagree_only_on_fractions():
    assert _int("7", "x") == _real("7", "x") == 7
    with pytest.raises(ValueError, match="^x must be a whole number"):
        _int(7.5, "x")
    assert _real(7.5, "x") == 7.5


# a valid run config that sets every field, and the paths of its leaves
_RUN_CONFIG = {
    "generator": default_generator_config().to_dict(),
    "priors": default_priors().to_entries(),
    "samples_per_subject": 1,
    "master_seed": 3,
    "output_dir": "out",
}


def _leaves(node, path=()):
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _leaves(value, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in _leaves(value, path + (i,))]
    return [path]


_LEAF_PATHS = _leaves(_RUN_CONFIG)
# what replaces one leaf: other JSON types, bounds' edges and values past them
_LEAF_VALUES = [
    None, True, "x", "", "12", [], [1], [0, 1e308], {}, 0, 1, 2, -1, 0.5, 1e-300, 128, 129,
    1e4, 1e30, 1e308, -1e308, -2**63, 2**64, float("nan"), float("inf"),
]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(_LEAF_PATHS), st.sampled_from(_LEAF_VALUES))
def test_run_config_is_rejected_or_generates(tmp_path_factory, leaf, value):
    config = json.loads(json.dumps(_RUN_CONFIG))
    node = config
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = tmp_path_factory.getbasetemp() / "run_config.json"
    path.write_text(json.dumps(config))
    try:
        run = RunConfig.from_json(path)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            image, _ = generate_sample(_LABELS, run.priors, run.generator,
                                       mix_seed(run.master_seed, 0))
        except (MissingPriorError, MissingSubstitutionError):
            return
    assert np.isfinite(image.voxels).all()
