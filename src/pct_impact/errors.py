"""Exception hierarchy shared across the package.

Configuration problems (bad flags, malformed config, out-of-domain
parameters) and data problems (bad input files, degenerate samples) are
kept distinct so the command line layer can map them to stable exit codes.
"""

__all__ = [
    "CitationImpactError",
    "ConfigurationError",
    "DataError",
    "SampleSizeError",
    "EmptyDatasetError",
    "UnknownInstitutionError",
    "RejectThresholdError",
    "DegenerateVarianceError",
    "DegenerateReferenceError",
]


class CitationImpactError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CitationImpactError):
    """Invalid configuration: missing columns, bad flags, bad parameters."""


class DataError(CitationImpactError):
    """Input data cannot support the requested computation."""


class SampleSizeError(DataError, ValueError):
    """A sample is too small for the requested test or resampling.

    Also a ValueError, so callers that guarded the size checks with
    ValueError keep working.
    """


class EmptyDatasetError(DataError):
    """An operation produced or received a dataset with no records."""


class UnknownInstitutionError(DataError):
    """Requested institution label is not present in the dataset."""

    def __init__(self, label: str, known: list[str]):
        self.label = label
        self.known = sorted(known)
        super().__init__(
            f"unknown institution {label!r}; known institutions: {', '.join(self.known)}"
        )


class RejectThresholdError(DataError):
    """Too large a fraction of input rows was rejected during parsing."""


class DegenerateVarianceError(DataError):
    """A variance or standard error required by a test is zero or underflows to zero."""


class DegenerateReferenceError(DataError):
    """A reference-set mean is zero or negative, so ratios are undefined."""

