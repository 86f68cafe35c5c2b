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
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingPriorError, MissingSubstitutionError
from .volume import (
    IntensityVolume,
    LabelVolume,
    VoxelGrid,
    _linear_weights,
    _separable_apply,
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


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from (seed, index), splitmix64-style."""
    z = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _pair(value, name: str, low_floor: float | None = None) -> tuple[float, float]:
    lo, hi = (float(value[0]), float(value[1]))
    if lo > hi:
        raise ValueError(f"{name} low {lo} exceeds high {hi}")
    if low_floor is not None and lo < low_floor:
        raise ValueError(f"{name} low {lo} below {low_floor}")
    return lo, hi


def _axis_pairs(value, name: str):
    """Normalize a range spec to one (low, high) pair per axis.

    Accepts a single pair, broadcast to all three axes, or three pairs.
    """
    value = list(value)
    if len(value) == 2 and np.isscalar(value[0]):
        return (_pair(value, name),) * 3
    if len(value) == 3:
        return tuple(_pair(v, f"{name}[{i}]") for i, v in enumerate(value))
    raise ValueError(f"{name} must be (low, high) or three such pairs")


@dataclass(frozen=True)
class TissuePriors:
    """Per-label Gaussian hyper-ranges: label -> (mean_range, std_range)."""

    entries: dict[int, tuple[tuple[float, float], tuple[float, float]]]

    def __post_init__(self):
        clean = {}
        for label, (mean_range, std_range) in self.entries.items():
            clean[int(label)] = (
                _pair(mean_range, f"mean_range[{label}]"),
                _pair(std_range, f"std_range[{label}]", low_floor=0.0),
            )
        object.__setattr__(self, "entries", clean)

    def __contains__(self, label: int) -> bool:
        return int(label) in self.entries

    def ranges(self, label: int):
        return self.entries[int(label)]

    @classmethod
    def from_entries(cls, entries) -> "TissuePriors":
        """Build from a list of {label, mean_range, std_range} records."""
        table = {}
        for e in entries:
            label = int(e["label"])
            if label in table:
                raise ValueError(f"duplicate prior for label {label}")
            table[label] = (tuple(e["mean_range"]), tuple(e["std_range"]))
        return cls(table)

    @classmethod
    def from_json(cls, path) -> "TissuePriors":
        with open(path) as fh:
            return cls.from_entries(json.load(fh))

    def to_entries(self) -> list[dict]:
        return [
            {"label": label, "mean_range": list(m), "std_range": list(s)}
            for label, (m, s) in sorted(self.entries.items())
        ]


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
        object.__setattr__(self, "rotation_range", _axis_pairs(self.rotation_range, "rotation_range"))
        object.__setattr__(self, "scaling_range", _axis_pairs(self.scaling_range, "scaling_range"))
        object.__setattr__(self, "shear_range", _axis_pairs(self.shear_range, "shear_range"))
        object.__setattr__(
            self, "translation_range", _axis_pairs(self.translation_range, "translation_range")
        )
        object.__setattr__(self, "elastic_grid", tuple(int(g) for g in self.elastic_grid))
        object.__setattr__(self, "bias_grid", tuple(int(g) for g in self.bias_grid))
        object.__setattr__(
            self, "elastic_std_range", _pair(self.elastic_std_range, "elastic_std_range", 0.0)
        )
        object.__setattr__(
            self, "blur_sigma_range", _pair(self.blur_sigma_range, "blur_sigma_range", 0.0)
        )
        object.__setattr__(
            self, "bias_std_range", _pair(self.bias_std_range, "bias_std_range", 0.0)
        )
        object.__setattr__(
            self,
            "substitution_table",
            {int(k): int(v) for k, v in self.substitution_table.items()},
        )

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
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown generator config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "GeneratorConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "rotation_range": [list(p) for p in self.rotation_range],
            "scaling_range": [list(p) for p in self.scaling_range],
            "shear_range": [list(p) for p in self.shear_range],
            "translation_range": [list(p) for p in self.translation_range],
            "elastic_grid": list(self.elastic_grid),
            "elastic_std_range": list(self.elastic_std_range),
            "blur_sigma_range": list(self.blur_sigma_range),
            "bias_grid": list(self.bias_grid),
            "bias_std_range": list(self.bias_std_range),
            "substitution_table": {str(k): v for k, v in self.substitution_table.items()},
            "sulcus_label_start": self.sulcus_label_start,
            "normalize": self.normalize,
        }


@dataclass(frozen=True, eq=False)
class DeformationField:
    """Dense per-voxel displacement, in voxel units, on a grid."""

    grid: VoxelGrid
    displacement: np.ndarray = field(repr=False)

    def __post_init__(self):
        disp = np.asarray(self.displacement, dtype=np.float32)
        expected = self.grid.shape + (3,)
        if disp.shape != expected:
            raise ValueError(f"displacement shape {disp.shape} != {expected}")
        if not np.isfinite(disp).all():
            raise ValueError("displacement contains NaN or Inf")
        disp.flags.writeable = False
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
    mats = []
    for s, g in zip(full_shape, control.shape):
        stretch = (g - 1) / (s - 1) if s > 1 else 0.0
        mats.append(_linear_weights(g, np.arange(s, dtype=np.float64) * stretch))
    return _separable_apply(mats, control)


def sample_elastic(config: GeneratorConfig, grid: VoxelGrid, rng_seed: int) -> DeformationField:
    """Random smooth displacement field.

    Control-point displacements are i.i.d. N(0, sigma) per component with
    sigma ~ U(elastic_std_range), then upsampled trilinearly to the full
    grid (control lattice corner-aligned with the volume).
    """
    if any(g < 2 for g in config.elastic_grid):
        raise ValueError(f"elastic_grid entries must be >= 2, got {config.elastic_grid}")
    rng = np.random.default_rng(rng_seed)
    sigma = rng.uniform(*config.elastic_std_range)
    control = rng.standard_normal(size=config.elastic_grid + (3,)) * sigma
    disp = np.stack(
        [_upsample_lattice(control[..., c], grid.shape) for c in range(3)], axis=-1
    )
    return DeformationField(grid, disp)


def deform_labels(labels: LabelVolume, affine: np.ndarray, field_: DeformationField) -> LabelVolume:
    """Backward-warp a label map through the composed transform.

    Output voxel x reads the nearest source label at
    ``centre + A @ (x + u(x) - centre)``: the displacement field applies
    first, then the affine acts about the volume centre. Reads outside the
    volume give background 0; output geometry equals the input geometry.
    """
    require_same_grid(labels, field_)
    affine = np.asarray(affine, dtype=np.float64)
    shape = labels.grid.shape
    centre = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    grids = np.meshgrid(*(np.arange(s, dtype=np.float64) for s in shape), indexing="ij")
    pos = np.stack(grids, axis=-1) + field_.displacement
    src = (pos - centre) @ affine[:3, :3].T + affine[:3, 3] + centre
    return labels.with_voxels(nearest_sample(labels.voxels, src, fill=0))


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
    present = np.unique(labels.voxels)
    table = {int(k): int(v) for k, v in substitution_table.items()}
    for label in present:
        if label >= sulcus_label_start and int(label) not in table:
            raise MissingSubstitutionError(int(label))
    lut = np.arange(65536, dtype=np.uint16)
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
        if label not in priors:
            raise MissingPriorError(label)
    rng = np.random.default_rng(rng_seed)
    params = {}
    for label in present:
        mean_range, std_range = priors.ranges(label)
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
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return image
    kernel = _gaussian_kernel(sigma)
    radius = len(kernel) // 2
    if radius == 0:
        return image
    mats = []
    for n in image.grid.shape:
        # padding the index array reproduces np.pad's reflection for any radius
        taps = np.lib.stride_tricks.sliding_window_view(
            np.pad(np.arange(n), radius, mode="symmetric"), len(kernel)
        )
        mat = np.zeros((n, n))
        np.add.at(mat, (np.arange(n)[:, None], taps), kernel)
        mats.append(mat)
    return image.with_voxels(_separable_apply(mats, image.voxels))


def apply_bias_field(
    image: IntensityVolume, config: GeneratorConfig, rng_seed: int
) -> IntensityVolume:
    """Multiply by a smooth random bias field.

    A log-field is drawn i.i.d. N(0, sigma_b) on the bias control lattice
    with sigma_b ~ U(bias_std_range), upsampled trilinearly, exponentiated
    and applied voxel-wise.
    """
    if any(g < 2 for g in config.bias_grid):
        raise ValueError(f"bias_grid entries must be >= 2, got {config.bias_grid}")
    rng = np.random.default_rng(rng_seed)
    sigma = rng.uniform(*config.bias_std_range)
    control = rng.standard_normal(size=config.bias_grid) * sigma
    log_field = _upsample_lattice(control, image.grid.shape)
    return image.with_voxels(image.voxels * np.exp(log_field))


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
    synth_map = substitute_sulci(deformed, config.substitution_table, config.sulcus_label_start)
    image = sample_intensities(synth_map, priors, mix_seed(seed, 3))
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seeds = [mix_seed(seed, i) for i in range(n)]
    if jobs <= 1:
        return [generate_sample(labels, priors, config, s) for s in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda s: generate_sample(labels, priors, config, s), seeds))
