"""Synthetic image generation from label maps.

A label map is randomly deformed (affine + elastic), sulcus labels are
swapped for tissue labels on a synthesis-only copy, per-tissue intensities
are drawn from Gaussian priors, and the image is corrupted with blur and a
multiplicative bias field before a min-max normalization that clamps
negatives to 0. Every stage is a pure function of its inputs and an integer
seed, so generation is fully reproducible and parallelizes without affecting
results.

The intensity chain is float32, as the sample files are: the painted
image, the blur's contraction, the bias product and the normalization each
hold one float32 volume. Noise is drawn for painted voxels only; the
background draws nothing. Small float64 values (the per-label draws, the
blur's matrices, the bias field's slabs) are rounded to float32 once.

Labels at or above ``sulcus_label_start`` (default 48) are treated as sulcus
labels: they are substituted away for intensity synthesis but retained in
the emitted segmentation, which may therefore overlap tissue anatomically.

Numbers are read by ``volume``'s readers, which the run-config readers here build on.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import MissingPriorError, MissingSubstitutionError
from .volume import (
    MAX_LABEL,
    IntensityVolume,
    LabelVolume,
    VoxelGrid,
    _int,
    _label,
    _gather_axis,
    _linear_taps,
    _owned,
    _real,
    _slabs,
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
    "MAX_BLUR_SIGMA",
]

DEFAULT_SULCUS_LABEL_START = 48

# the widest blur, in voxels: a kernel of at most 601 taps, wider than a 1 mm
# head crop's longest axis
MAX_BLUR_SIGMA = 100.0

# the largest magnitude of a prior's mean or std: painted intensities and
# their span then stay far inside float32's range (about 3.4e38)
_MAX_PRIOR = 1e30

# the largest magnitude of a scaling, a shear, a translation (voxels) or an
# elastic std (voxels): every warp coordinate then stays finite and far inside
# int64, the index type of the label warp's nearest reads
_MAX_WARP = 1e4

# the widest bias log-field std: the factor exp(sigma z) stays below 1e8 for
# any node draw |z| < 9.2, so intensities near the prior cap stay finite in float32
_MAX_BIAS_STD = 2.0

# the most nodes per control-lattice axis: an elastic draw then holds at most
# 128^3 x 3 float64 values (about 50 MB)
_MAX_LATTICE = 128

_MASK64 = (1 << 64) - 1


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent child seed from (seed, index), splitmix64-style."""
    z = (_int(seed, "seed") + (_int(index, "index") + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _pair(
    value, name: str, low: float | None = None, high: float | None = None
) -> tuple[float, float]:
    """A (low, high) range: two finite reals from a list, tuple or array, within
    ``[low, high]``, with low <= high and a finite high - low."""
    if not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) > 0) or len(value) != 2:
        raise ValueError(f"{name} must be two numbers (low, high), got {value!r}")
    lo, hi = _real(value[0], f"{name} low", low=low), _real(value[1], f"{name} high", high=high)
    if lo > hi:
        raise ValueError(f"{name} low {lo} exceeds high {hi}")
    if not np.isfinite(hi - lo):
        raise ValueError(f"{name} high - low must be a finite number, got {hi} - {lo}")
    return lo, hi


def _axis_pairs(value, name: str, **bounds):
    """One (low, high) pair per axis: a single pair, broadcast to all three axes, or three
    pairs; each read as ``_pair(v, name, **bounds)``."""
    if isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2 and np.isscalar(value[0]):
        return (_pair(value, name, **bounds),) * 3
    return _triple(value, name, _pair, **bounds)


def _record(data, fields, name: str) -> dict:
    """A JSON object whose keys are all in ``fields``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    return data


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
            clean[label] = (
                _pair(m, f"mean_range[{label}]", -_MAX_PRIOR, _MAX_PRIOR),
                _pair(s, f"std_range[{label}]", 0.0, _MAX_PRIOR),
            )
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


# how GeneratorConfig reads each of its fields, and the bounds of the field's
# numbers: reader(value, field name, **bounds). A control lattice has 2 to
# _MAX_LATTICE nodes per axis
_GENERATOR_READERS = {
    "rotation_range": (_axis_pairs, {}),
    "scaling_range": (_axis_pairs, {"low": -_MAX_WARP, "high": _MAX_WARP}),
    "shear_range": (_axis_pairs, {"low": -_MAX_WARP, "high": _MAX_WARP}),
    "translation_range": (_axis_pairs, {"low": -_MAX_WARP, "high": _MAX_WARP}),
    "elastic_grid": (_triple, {"low": 2, "high": _MAX_LATTICE}),
    "elastic_std_range": (_pair, {"low": 0.0, "high": _MAX_WARP}),
    "blur_sigma_range": (_pair, {"low": 0.0, "high": MAX_BLUR_SIGMA}),
    "bias_grid": (_triple, {"low": 2, "high": _MAX_LATTICE}),
    "bias_std_range": (_pair, {"low": 0.0, "high": _MAX_BIAS_STD}),
    "substitution_table": (_label_table, {}),
    "sulcus_label_start": (_label, {}),
    "normalize": (_bool, {}),
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
        for name, (read, bounds) in _GENERATOR_READERS.items():
            object.__setattr__(self, name, read(getattr(self, name), name, **bounds))

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
    """Displacement in voxel units on a control lattice of ``(gx, gy, gz, 3)`` nodes.

    The lattice is corner-aligned with the grid and read trilinearly: its
    first and last nodes along an axis sit on the first and last voxels. A
    lattice of one node per voxel is a dense field, read back exactly.
    """

    grid: VoxelGrid
    displacement: np.ndarray = field(repr=False)

    def __post_init__(self):
        disp = _owned(self.displacement, np.float32, np.shape(self.displacement))
        if disp.ndim != 4 or disp.shape[3] != 3 or 0 in disp.shape:
            raise ValueError(f"displacement must be a (gx, gy, gz, 3) lattice, got {disp.shape}")
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


def _lattice_taps(lattice_shape, shape) -> list:
    """Per axis, the taps from each voxel to a lattice corner-aligned with the volume.

    An axis of one node per voxel reads each node as it is: one unweighted
    tap, the node itself. Any other axis reads two linear taps.
    """
    taps = []
    for n_nodes, n_voxels in zip(lattice_shape, shape):
        if n_nodes == n_voxels:
            taps.append([(np.arange(n_voxels), None)])
            continue
        stretch = (n_nodes - 1) / (n_voxels - 1) if n_voxels > 1 else 0.0
        taps.append(_linear_taps(n_nodes, np.arange(n_voxels, dtype=np.float64) * stretch))
    return taps


def _read_planes(values: np.ndarray, plane_taps) -> np.ndarray:
    """Lattice rows read over the volume's y-z plane: the z taps, then the y taps.

    The row gather goes last, so that the widest gather copies whole contiguous planes."""
    y_taps, z_taps = plane_taps
    return _gather_axis(_gather_axis(values, 2, z_taps), 1, y_taps)


def sample_elastic(config: GeneratorConfig, grid: VoxelGrid, rng_seed: int) -> DeformationField:
    """Random smooth displacement, drawn on the elastic control lattice.

    Node displacements are i.i.d. N(0, sigma) per component with sigma ~
    U(elastic_std_range); ``deform_labels`` reads them trilinearly at each
    voxel, so no per-voxel field is made.
    """
    rng = np.random.default_rng(rng_seed)
    sigma = rng.uniform(*config.elastic_std_range)
    return DeformationField(grid, rng.standard_normal(size=config.elastic_grid + (3,)) * sigma)


def deform_labels(labels: LabelVolume, affine: np.ndarray, field_: DeformationField) -> LabelVolume:
    """Backward-warp a label map through the composed transform.

    Output voxel x reads the nearest source label at
    ``centre + A @ (x + u(x) - centre)``, with ``u`` the field's lattice
    read trilinearly: the displacement applies first, then the affine acts
    about the volume centre. Reads outside the volume give background 0;
    output geometry equals the input geometry.

    Upsampling is linear, so the affine acts on the lattice: coordinate k is
    ``centre_k + t_k + sum_j A_kj (x_j - centre_j) + up(A U)_k(x)``, the
    affine part an outer sum of one 1-D term per axis. The output is filled
    in slabs of rows along axis 0 (``_slabs``), each composing ``A U`` on
    only the lattice rows it reads, so the working memory beyond the output
    does not grow with axis 0.
    """
    require_same_grid(labels, field_)
    affine = np.asarray(affine, dtype=np.float64)
    linear, shift = affine[:3, :3], affine[:3, 3]
    shape = labels.grid.shape
    centre = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    offsets = [np.arange(n, dtype=np.float64) - c for n, c in zip(shape, centre)]
    lattice = field_.displacement
    row_taps, *plane_taps = _lattice_taps(lattice.shape[:3], shape)
    out = np.empty(shape, dtype=labels.voxels.dtype)
    for rows, nodes, slab_taps in _slabs(row_taps, shape[0], shape[1] * shape[2]):
        # (3, lattice rows, gy, gz): component k of A U on the rows the slab reads
        composed = np.tensordot(linear, lattice[nodes], axes=([1], [3]))

        def coordinate(k):
            # each voxel's row taps sum to 1, so the y and z terms are added
            # on the few lattice rows, before the row gather
            coord = _read_planes(composed[k], plane_taps)
            coord += (linear[k, 1] * offsets[1])[:, None]
            coord += linear[k, 2] * offsets[2]
            coord = _gather_axis(coord, 0, slab_taps)
            coord += ((centre[k] + shift[k]) + linear[k, 0] * offsets[0][rows])[:, None, None]
            return coord

        out[rows] = nearest_sample(labels.voxels, (coordinate(k) for k in range(3)))
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
    prior ranges, in ascending label order; voxels are then i.i.d.
    N(mean, std). The noise is drawn only for painted voxels: after the
    pairs, ``standard_normal(count)`` per label, in ascending label order,
    over that label's voxels in C order. Each voxel is the float64
    ``mean + std * draw`` rounded once to float32. Background draws nothing
    and stays 0.
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
    out = np.zeros(tissue_labels.grid.shape, dtype=np.float32)
    for label, (mu, sd) in params.items():
        region = tissue_labels.voxels == label
        out[region] = mu + sd * rng.standard_normal(np.count_nonzero(region))
    out.flags.writeable = False  # hand the fresh array over: the volume takes it uncopied
    return IntensityVolume(tissue_labels.grid, out)


def gaussian_blur(image: IntensityVolume, sigma: float) -> IntensityVolume:
    """Separable Gaussian blur, kernel support |offset| <= 3*sigma.

    Boundaries are handled by reflection about the array edge (edge value
    included), repeated for kernels wider than the axis: along an axis of
    length n, index i reads m = i mod 2n, or 2n - 1 - m when m >= n.
    Each axis's reflected kernel is one dense ``(n, n)`` matrix, built in
    float64 and cast to float32, and the float32 volume is contracted with
    the three in one float32 einsum. A sigma whose support has no offset
    beside 0 (sigma < 1/3) returns the input unchanged; sigma is at most
    ``MAX_BLUR_SIGMA`` voxels.
    """
    sigma = _real(sigma, "sigma", low=0, high=MAX_BLUR_SIGMA)
    radius = int(3.0 * sigma)
    if radius == 0:
        return image
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    mats = []
    for n in image.grid.shape:
        # padding the index array reproduces np.pad's reflection for any radius;
        # kernel offset k of output i reads padded[i + k]. Reflected weights of
        # one row that land on one column add in kernel order, which with
        # einsum's order pins the blur's bytes
        padded = np.pad(np.arange(n), radius, mode="symmetric")
        rows = np.arange(n)
        mat = np.zeros((n, n))
        for k, w in enumerate(kernel):
            np.add.at(mat, (rows, padded[k : k + n]), w)
        mats.append(mat.astype(np.float32))
    return image.with_voxels(np.einsum("ia,jb,kc,abc->ijk", *mats, image.voxels, optimize=True))


def apply_bias_field(
    image: IntensityVolume, config: GeneratorConfig, rng_seed: int
) -> IntensityVolume:
    """Multiply by a smooth random bias field.

    A log-field is drawn i.i.d. N(0, sigma_b) on the bias control lattice
    with sigma_b ~ U(bias_std_range), upsampled trilinearly, exponentiated
    and applied voxel-wise, one slab of rows at a time.
    """
    rng = np.random.default_rng(rng_seed)
    sigma = rng.uniform(*config.bias_std_range)
    control = rng.standard_normal(size=config.bias_grid) * sigma
    shape = image.grid.shape
    row_taps, *plane_taps = _lattice_taps(control.shape, shape)
    out = np.empty(shape, dtype=np.float32)
    for rows, nodes, slab_taps in _slabs(row_taps, shape[0], shape[1] * shape[2]):
        bias = np.exp(_gather_axis(_read_planes(control[nodes], plane_taps), 0, slab_taps))
        bias *= image.voxels[rows]
        out[rows] = bias  # the float64 product rounded to float32, as the volume would
    out.flags.writeable = False  # hand the fresh array over: the volume takes it uncopied
    return image.with_voxels(out)


def normalize_intensity(image: IntensityVolume) -> IntensityVolume:
    """Min-max rescale to [0, 1] in float32, from ``lo = max(vmin, 0)``.

    ``(v - lo) / (vmax - lo)``, each step rounded to float32: the minimum
    maps to exactly 0 and the maximum to exactly 1. When ``vmin < 0``,
    negative values are clamped to 0 first, so the background, painted 0,
    stays exactly 0; when ``vmin >= 0`` no clamp is made. An image whose
    maximum is at most ``lo`` (constant, or nowhere positive) maps to all
    zeros.
    """
    vmin, vmax = image.voxels.min(), image.voxels.max()
    lo = max(vmin, np.float32(0))
    if vmax <= lo:
        return image.with_voxels(np.zeros(image.grid.shape, dtype=np.float32))
    out = np.maximum(image.voxels, lo) if vmin < 0 else image.voxels - vmin
    out /= vmax - lo
    out.flags.writeable = False
    return image.with_voxels(out)


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
    # the synthesis-only map is dropped once painted, so it is not held
    # through the full-volume blur and bias stages
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

    ``jobs`` worker threads share the views; results are identical for every
    ``jobs``, since every view derives from its own seed.
    """
    n, jobs = _int(n, "n", low=1), _int(jobs, "jobs", low=1)
    seeds = [mix_seed(seed, i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda s: generate_sample(labels, priors, config, s), seeds))
