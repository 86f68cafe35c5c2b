"""sulcikit: synthetic data generation, losses, post-processing and metrics
for 3D sulcus segmentation pipelines built on numpy/scipy."""

__version__ = "0.4.0"

from . import errors
from .volume import (
    VoxelGrid,
    IntensityVolume,
    LabelVolume,
    BinaryMask,
    crop_to_content,
    resample,
    binarize,
)
from .nifti import read_nifti, write_nifti
from .synth import (
    TissuePriors,
    GeneratorConfig,
    DeformationField,
    mix_seed,
    sample_affine,
    sample_elastic,
    deform_labels,
    substitute_sulci,
    sample_intensities,
    gaussian_blur,
    apply_bias_field,
    normalize_intensity,
    generate_sample,
    generate_views,
)
from .losses import (
    EmbeddingBatch,
    ProbabilityVolume,
    cosine_similarity,
    nt_xent_pair,
    contrastive_loss,
    contrastive_loss_grad,
    soft_dice_loss,
    tversky_loss,
    seg_loss_grad,
    multitask_loss,
    finite_difference_check,
    optimize_embeddings_demo,
)
from .postproc import (
    ComponentLabeling,
    PostprocConfig,
    dilate,
    connected_components,
    postprocess_cs,
)
from .metrics import (
    PairReport,
    MetricSummary,
    CohortSummary,
    dice,
    hausdorff,
    voxel_volume,
    voxel_surface_area,
    evaluate_pair,
    aggregate,
)
from .presets import make_phantom, default_priors, default_generator_config
from .checks import run_checks, CheckResult

__all__ = [
    "errors", "VoxelGrid", "IntensityVolume", "LabelVolume", "BinaryMask",
    "crop_to_content", "resample", "binarize", "read_nifti", "write_nifti",
    "TissuePriors", "GeneratorConfig", "DeformationField", "mix_seed", "sample_affine",
    "sample_elastic", "deform_labels", "substitute_sulci", "sample_intensities",
    "gaussian_blur", "apply_bias_field", "normalize_intensity", "generate_sample",
    "generate_views", "EmbeddingBatch", "ProbabilityVolume",
    "cosine_similarity", "nt_xent_pair", "contrastive_loss", "contrastive_loss_grad",
    "soft_dice_loss", "tversky_loss", "seg_loss_grad", "multitask_loss",
    "finite_difference_check", "optimize_embeddings_demo", "ComponentLabeling",
    "PostprocConfig", "dilate", "connected_components", "postprocess_cs", "PairReport",
    "MetricSummary", "CohortSummary", "dice", "hausdorff", "voxel_volume",
    "voxel_surface_area", "evaluate_pair", "aggregate", "make_phantom",
    "default_priors", "default_generator_config", "run_checks", "CheckResult",
]
