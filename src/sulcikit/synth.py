"""Synthetic image generation from label maps.

A label map is randomly deformed (affine + elastic), sulcus labels are
swapped for tissue labels on a synthesis-only copy, per-tissue intensities
are drawn from Gaussian priors, and the image is corrupted with blur and a
multiplicative bias field before min-max normalization. Every stage is a
pure function of its inputs and an integer seed, so generation is fully
reproducible and parallelizes without affecting results.

Labels at or above ``sulcus_label_start`` (default 48) are treated as sulcus
labels: they are substituted away for intensity synthesis but retained in
the emitted segmentation, which may therefore overlap tissue anatomically.

Numbers are read by ``volume``'s readers, which the run-config readers here build on.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .errors import MissingPriorError, MissingSubstitutionError
from .volume import (
    MAX_LABEL,
    IntensityVolume,
    LabelVolume,
    VoxelGrid,
    _int,
    _label,
    _linear_taps,
    _owned,
    _real,
    _separable_apply,
    _triple,
    nearest_sample,
    require_same_grid,
)

__all__ = [
    "TissuePriors",
    "GeneratorConfig",
    "DeformationField",
    "mix_seed",
    "sample_affine",
    "sample_elastic",
    "deform_labels",
    "substitute_sulci",
    "sample_intensities",
    "gaussian_blur",
    "apply_bias_field",
    "normalize_intensity",
    "generate_sample",
    "generate_views",
    "DEFAULT_SULCUS_LABEL_START",
]

DEFAULT_SULCUS_LABEL_START = 48

_MASK64 = (1 << 64) - 1

# rows along axis 0 that deform_labels warps at a time
_SLAB_ROWS = 16


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from (seed, index), splitmix64-style."""
    z = (_int(seed, "seed") + (_int(index, "index") + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _pair(value, name: str, low: float | None = None) -> tuple[float, float]:
    """A (low, high) range: two finite reals from a list, tuple or array, low <= high."""
    if not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0) or len(value) != 2:
        raise ValueError(f"{name} must be two numbers (low, high), got {value!r}")
    lo, hi = _real(value[0], f"{name} low", low=low), _real(value[1], f"{name} high")
    if lo > hi:
        raise ValueError(f"{name} low {lo} exceeds high {hi}")
    return lo, hi


def _axis_pairs(value, name: str):
    """One (low, high) pair per axis: a single pair, broadcast to all three axes, or three pairs."""
    if isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2 and np.isscalar(value[0]):
        return (_pair(value, name),) * 3
    return _triple(value, name, _pair)


def _record(data, fields, name: str) -> dict:
    """A JSON object whose keys are all in ``fields``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    return data


_nonnegative_pair = partial(_pair, low=0.0)
_lattice = partial(_triple, low=2)  # a control lattice: three node counts, each at least 2


def _label_table(table, name: str) -> dict[int, int]:
    """A {label: label} table, such as a JSON object with decimal-string keys."""
    if not isinstance(table, dict):
        raise ValueError(f"{name} must be a JSON object, got {table!r}")
    return {_label(k, f"{name} key {k}"): _label(v, f"{name}[{k}]") for k, v in table.items()}


def _bool(value, name: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class TissuePriors:
    """Per-label Gaussian hyper-ranges, label -> (mean_range, std_range), as a dict or pairs."""

    entries: dict[int, tuple[tuple[float, float], tuple[float, float]]]

    def __post_init__(self):
        pairs = self.entries.items() if isinstance(self.entries, dict) else self.entries
        clean = {}
        for k, (m, s) in pairs:
            label = _label(k, "label")
            if label in clean:
                raise ValueError(f"duplicate prior for label {label}")
            clean[label] = (_pair(m, f"mean_range[{label}]"), _pair(s, f"std_range[{label}]", 0.0))
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_entries(cls, entries) -> "TissuePriors":
        """Build from a list of {label, mean_range, std_range} records."""
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"priors must be a list of entries, got {type(entries).__name__}")
        records = [_record(e, ("label", "mean_range", "std_range"), "prior entry") for e in entries]
        return cls([(e["label"], (e["mean_range"], e["std_range"])) for e in records])

    def to_entries(self) -> list[dict]:
        return [
            {"label": label, "mean_range": list(m), "std_range": list(s)}
            for label, (m, s) in sorted(self.entries.items())
        ]


# how GeneratorConfig reads each of its fields: reader(value, field name)
_GENERATOR_READERS = {
    "rotation_range": _axis_pairs,
    "scaling_range": _axis_pairs,
    "shear_range": _axis_pairs,
    "translation_range": _axis_pairs,
    "elastic_grid": _lattice,
    "elastic_std_range": _nonnegative_pair,
    "blur_sigma_range": _nonnegative_pair,
    "bias_grid": _lattice,
    "bias_std_range": _nonnegative_pair,
    "substitution_table": _label_table,
    "sulcus_label_start": _label,
    "normalize": _bool,
}


@dataclass(frozen=True)
class GeneratorConfig:
    """All randomization ranges of the generator.

    Affine ranges (rotation/scaling/shear/translation) take a single
    (low, high) pair applied per axis, or three pairs. Default magnitudes
    are conventional domain-randomization values and are not tuned to any
    particular dataset; override them freely.
    """

    rotation_range: tuple = (-15.0, 15.0)  # degrees per axis
    scaling_range: tuple = (0.85, 1.15)
    shear_range: tuple = (-0.012, 0.012)
    translation_range: tuple = (-10.0, 10.0)  # voxels
    elastic_grid: tuple[int, int, int] = (10, 10, 10)
    elastic_std_range: tuple[float, float] = (0.0, 3.0)  # voxels
    blur_sigma_range: tuple[float, float] = (0.5, 1.5)  # voxels
    bias_grid: tuple[int, int, int] = (4, 4, 4)
    bias_std_range: tuple[float, float] = (0.0, 0.5)  # log intensity
    substitution_table: dict[int, int] = field(default_factory=dict)
    sulcus_label_start: int = DEFAULT_SULCUS_LABEL_START
    normalize: bool = True

    def __post_init__(self):
        for name, read in _GENERATOR_READERS.items():
            object.__setattr__(self, name, read(getattr(self, name), name))

    @classmethod
    def identity(cls, **overrides) -> "GeneratorConfig":
        """Config with every randomization disabled (degenerate ranges)."""
        base = dict(
            rotation_range=(0.0, 0.0),
            scaling_range=(1.0, 1.0),
            shear_range=(0.0, 0.0),
            translation_range=(0.0, 0.0),
            elastic_std_range=(0.0, 0.0),
            blur_sigma_range=(0.0, 0.0),
            bias_std_range=(0.0, 0.0),
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorConfig":
        return cls(**_record(data, cls.__dataclass_fields__, "generator config"))

    def to_dict(self) -> dict:
        """The fields in JSON's own types: lists for tuples, string keys in
        ``substitution_table``. ``config_sha256`` hashes this form."""
        return json.loads(json.dumps(asdict(self)))


@dataclass(frozen=True, eq=False)
class DeformationField:
    """Dense per-voxel displacement, in voxel units, on a grid."""

    grid: VoxelGrid
    displacement: np.ndarray = field(repr=False)

    def __post_init__(self):
        disp = _owned(self.displacement, np.float32, np.shape(self.displacement))
        expected = self.grid.shape + (3,)
        if disp.shape != expected:
            raise ValueError(f"displacement shape {disp.shape} != {expected}")
        if not np.isfinite(disp).all():
            raise ValueError("displacement contains NaN or Inf")
        object.__setattr__(self, "displacement", disp)


def _rotation(axis: int, degrees: float) -> np.ndarray:
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    m = np.eye(4)
    if axis == 0:
        m[1:3, 1:3] = [[c, -s], [s, c]]
    elif axis == 1:
        m[0, 0], m[0, 2], m[2, 0], m[2, 2] = c, s, -s, c
    else:
        m[0:2, 0:2] = [[c, -s], [s, c]]
    return m


def sample_affine(config: GeneratorConfig, rng_seed: int) -> np.ndarray:
    """Draw a random 4x4 affine: translation @ Rz @ Ry @ Rx @ shear @ scale.

    Each parameter is uniform over its configured range; degenerate ranges
    at the identity values give the exact identity matrix.
    """
    rng = np.random.default_rng(rng_seed)
    angles = [rng.uniform(lo, hi) for lo, hi in config.rotation_range]
    scales = [rng.uniform(lo, hi) for lo, hi in config.scaling_range]
    shears = [rng.uniform(lo, hi) for lo, hi in config.shear_range]
    trans = [rng.uniform(lo, hi) for lo, hi in config.translation_range]

    shear = np.eye(4)
    shear[0, 1], shear[0, 2], shear[1, 2] = shears
    scale = np.eye(4)
    scale[0, 0], scale[1, 1], scale[2, 2] = scales
    translation = np.eye(4)
    translation[:3, 3] = trans
    return (
        translation
        @ _rotation(2, angles[2])
        @ _rotation(1, angles[1])
        @ _rotation(0, angles[0])
        @ shear
        @ scale
    )


def _upsample_lattice(control: np.ndarray, full_shape) -> np.ndarray:
    """Trilinear upsampling from a control lattice corner-aligned with the volume."""
    axis_taps = []
    for s, g in zip(full_shape, control.shape):
        stretch = (g - 1) / (s - 1) if s > 1 else 0.0
        axis_taps.append(_linear_taps(g, np.arange(s, dtype=np.float64) * stretch))
    return _separable_apply(axis_taps, control)


def sample_elastic(config: GeneratorConfig, grid: VoxelGrid, rng_seed: int) -> DeformationField:
    """Random smooth displacement field.

    Control-point displacements are i.i.d. N(0, sigma) per component with
    sigma ~ U(elastic_std_range), then upsampled trilinearly to the full
    grid (control lattice corner-aligned with the volume).
    """
    rng = np.random.default_rng(rng_seed)
    sigma = rng.uniform(*config.elastic_std_range)
    control = rng.standard_normal(size=config.elastic_grid + (3,)) * sigma
    # each component is cast straight into its float32 slot, the cast that
    # DeformationField would otherwise make of a stacked float64 copy
    disp = np.empty(grid.shape + (3,), dtype=np.float32)
    for c in range(3):
        disp[..., c] = _upsample_lattice(control[..., c], grid.shape)
    disp.flags.writeable = False  # hand the fresh array over: the field takes it uncopied
    return DeformationField(grid, disp)


def deform_labels(labels: LabelVolume, affine: np.ndarray, field_: DeformationField) -> LabelVolume:
    """Backward-warp a label map through the composed transform.

    Output voxel x reads the nearest source label at
    ``centre + A @ (x + u(x) - centre)``: the displacement field applies
    first, then the affine acts about the volume centre. Reads outside the
    volume give background 0; output geometry equals the input geometry.

    The output is filled in fixed slabs of ``_SLAB_ROWS`` rows along axis 0,
    so the working memory beyond the output does not grow with axis 0.
    """
    require_same_grid(labels, field_)
    affine = np.asarray(affine, dtype=np.float64)
    shape = labels.grid.shape
    centre = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    out = np.empty(shape, dtype=labels.voxels.dtype)
    for x0 in range(0, shape[0], _SLAB_ROWS):
        x1 = min(x0 + _SLAB_ROWS, shape[0])
        disp = field_.displacement[x0:x1]
        # x + u(x) - centre into a single (rows, ny, nz, 3) array; the offsets
        # are added one axis at a time, a scalar per strided pass, since a
        # broadcast over the length-3 last axis runs one tiny loop per voxel
        pos = np.empty(disp.shape, dtype=np.float64)
        for axis, (lo, hi) in enumerate(((x0, x1), (0, shape[1]), (0, shape[2]))):
            along = np.arange(lo, hi, dtype=np.float64).reshape((-1,) + (1,) * (2 - axis))
            np.add(along, disp[..., axis], out=pos[..., axis])
            pos[..., axis] -= centre[axis]
        # the 3x3 product stays one matmul: an element-wise rewrite sums in
        # another order and moves coordinates by an ulp
        src = pos @ affine[:3, :3].T
        del pos
        for axis in range(3):
            src[..., axis] += affine[axis, 3]
            src[..., axis] += centre[axis]
        out[x0:x1] = nearest_sample(labels.voxels, src)
    return labels.with_voxels(out)


def substitute_sulci(
    labels: LabelVolume,
    substitution_table: dict[int, int],
    sulcus_label_start: int = DEFAULT_SULCUS_LABEL_START,
) -> LabelVolume:
    """Replace sulcus labels (ids >= ``sulcus_label_start``) by tissue labels.

    Every sulcus label present must have a substitution entry; other voxels
    pass through untouched. Used on a synthesis-only copy, never on the
    emitted segmentation.
    """
    table = _label_table(substitution_table, "substitution_table")
    sulcus_label_start = _label(sulcus_label_start, "sulcus_label_start")
    for label in labels.labels_present():
        if label >= sulcus_label_start and label not in table:
            raise MissingSubstitutionError(label)
    lut = np.arange(MAX_LABEL + 1, dtype=np.uint16)
    for src, dst in table.items():
        lut[src] = dst
    return labels.with_voxels(lut[labels.voxels])


def sample_intensities(
    tissue_labels: LabelVolume, priors: TissuePriors, rng_seed: int
) -> IntensityVolume:
    """Paint each label with draws from its Gaussian intensity model.

    Per generated image one (mean, std) pair is drawn per label from the
    prior ranges; voxels are then i.i.d. N(mean, std). Background stays 0.
    """
    present = [l for l in tissue_labels.labels_present() if l != 0]
    for label in present:
        if label not in priors.entries:
            raise MissingPriorError(label)
    rng = np.random.default_rng(rng_seed)
    params = {}
    for label in present:
        mean_range, std_range = priors.entries[label]
        params[label] = (rng.uniform(*mean_range), rng.uniform(*std_range))
    noise = rng.standard_normal(size=tissue_labels.grid.shape)
    out = np.zeros(tissue_labels.grid.shape, dtype=np.float64)
    for label, (mu, sd) in params.items():
        region = tissue_labels.voxels == label
        out[region] = mu + sd * noise[region]
    return IntensityVolume(tissue_labels.grid, out)


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def gaussian_blur(image: IntensityVolume, sigma: float) -> IntensityVolume:
    """Separable Gaussian blur, kernel support |offset| <= 3*sigma.

    Boundaries are handled by reflection about the array edge (edge value
    included), repeated for kernels wider than the axis: along an axis of
    length n, index i reads m = i mod 2n, or 2n - 1 - m when m >= n.
    sigma = 0 returns the input unchanged.
    """
    sigma = _real(sigma, "sigma", low=0)
    if sigma == 0:
        return image
    kernel = _gaussian_kernel(sigma)
    radius = len(kernel) // 2
    if radius == 0:
        return image
    axis_taps = []
    for n in image.grid.shape:
        # padding the index array reproduces np.pad's reflection for any radius;
        # kernel offset k of output i reads padded[i + k]
        padded = np.pad(np.arange(n), radius, mode="symmetric")
        axis_taps.append([(padded[k : k + n], np.full(n, w)) for k, w in enumerate(kernel)])
    return image.with_voxels(_separable_apply(axis_taps, image.voxels))


def apply_bias_field(
    image: IntensityVolume, config: GeneratorConfig, rng_seed: int
) -> IntensityVolume:
    """Multiply by a smooth random bias field.

    A log-field is drawn i.i.d. N(0, sigma_b) on the bias control lattice
    with sigma_b ~ U(bias_std_range), upsampled trilinearly, exponentiated
    and applied voxel-wise.
    """
    rng = np.random.default_rng(rng_seed)
    sigma = rng.uniform(*config.bias_std_range)
    control = rng.standard_normal(size=config.bias_grid) * sigma
    # exponentiate and multiply in the upsampled buffer: no full temporaries
    bias = _upsample_lattice(control, image.grid.shape)
    np.exp(bias, out=bias)
    bias *= image.voxels
    return image.with_voxels(bias)


def normalize_intensity(image: IntensityVolume) -> IntensityVolume:
    """Min-max rescale to [0, 1]; a constant image maps to all zeros."""
    vmin = float(image.voxels.min())
    vmax = float(image.voxels.max())
    if vmax == vmin:
        return image.with_voxels(np.zeros(image.grid.shape, dtype=np.float32))
    return image.with_voxels((image.voxels.astype(np.float64) - vmin) / (vmax - vmin))


def generate_sample(
    labels: LabelVolume, priors: TissuePriors, config: GeneratorConfig, seed: int
) -> tuple[IntensityVolume, LabelVolume]:
    """One synthetic (image, segmentation) pair from a label map.

    Stage order: sample affine and elastic transform, deform the label map,
    substitute sulcus labels on a synthesis copy, draw per-tissue
    intensities, blur with sigma ~ U(blur_sigma_range), corrupt with a bias
    field, then min-max normalize (when config.normalize). The returned
    segmentation is the deformed map with sulcus labels retained; geometry
    always equals the input geometry.
    """
    affine = sample_affine(config, mix_seed(seed, 1))
    field_ = sample_elastic(config, labels.grid, mix_seed(seed, 2))
    deformed = deform_labels(labels, affine, field_)
    # the field and the synthesis-only map are dropped once used, so neither is
    # held through the full-volume blur and bias stages
    del field_
    image = sample_intensities(
        substitute_sulci(deformed, config.substitution_table, config.sulcus_label_start),
        priors,
        mix_seed(seed, 3),
    )
    blur_sigma = np.random.default_rng(mix_seed(seed, 4)).uniform(*config.blur_sigma_range)
    image = gaussian_blur(image, blur_sigma)
    image = apply_bias_field(image, config, mix_seed(seed, 5))
    if config.normalize:
        image = normalize_intensity(image)
    return image, deformed


def generate_views(
    labels: LabelVolume,
    priors: TissuePriors,
    config: GeneratorConfig,
    seed: int,
    n: int,
    jobs: int = 1,
) -> list[tuple[IntensityVolume, LabelVolume]]:
    """n independent samples; view i uses seed mix_seed(seed, i).

    Results are identical whether computed serially or with a thread pool,
    since every view derives from its own seed.
    """
    n, jobs = _int(n, "n", low=1), _int(jobs, "jobs", low=1)
    seeds = [mix_seed(seed, i) for i in range(n)]
    if jobs == 1:
        return [generate_sample(labels, priors, config, s) for s in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda s: generate_sample(labels, priors, config, s), seeds))
