"""Exception hierarchy shared by all sulcikit modules."""


class SulcikitError(Exception):
    """Base class for all errors raised by sulcikit."""


class ConfigError(SulcikitError):
    """A run's manifest, config file, output directory or flags are unusable."""


class CorruptHeaderError(SulcikitError):
    """File is not a readable single-file NIfTI-1 image."""


class UnsupportedDatatypeError(SulcikitError):
    """NIfTI datatype code outside the supported set."""


class NonIntegerLabelsError(SulcikitError):
    """Labels were requested but the file holds non-integer, negative or above-uint16 values."""


class EmptyVolumeError(SulcikitError):
    """Operation requires at least one nonzero voxel."""


class ModeMismatchError(SulcikitError):
    """Interpolation mode incompatible with the volume type."""


class GridMismatchError(SulcikitError):
    """Two volumes do not share the same voxel grid."""


class MissingSubstitutionError(SulcikitError):
    """A sulcus label has no tissue substitute."""

    def __init__(self, label: int):
        super().__init__(f"sulcus label {label} has no substitution entry")
        self.label = int(label)


class MissingPriorError(SulcikitError):
    """A tissue label has no intensity prior."""

    def __init__(self, label: int):
        super().__init__(f"tissue label {label} has no intensity prior")
        self.label = int(label)


class ZeroVectorError(SulcikitError):
    """Cosine similarity is undefined for zero-norm vectors."""


class IndexOutOfRangeError(SulcikitError, IndexError):
    """Row index outside the embedding batch."""


class ZeroDenominatorError(SulcikitError, ZeroDivisionError):
    """A segmentation loss ratio has a zero denominator: no mass to weigh."""


class NonFiniteError(SulcikitError):
    """Input value must be finite."""


class BothEmptyError(SulcikitError):
    """Dice is undefined when both masks are empty."""


class EmptySetError(SulcikitError):
    """Hausdorff distance is undefined for an empty mask."""

    def __init__(self, side: str):
        super().__init__(f"{side} mask is empty; Hausdorff distance undefined")
        self.side = side


class NoValidEntriesError(SulcikitError):
    """Aggregation over a metric with no valid entries."""
