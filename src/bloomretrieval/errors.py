"""Exception hierarchy shared across the package. The CLI's exit code follows
the type: `ConfigMismatchError` 3, `DataFormatError` 2, another `ValueError` 1."""


class RetrievalError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(RetrievalError):
    """A persisted file violates its binary format contract."""


class BadMagicError(DataFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(DataFormatError):
    """File ended before all declared content was read."""


class DuplicateIdError(DataFormatError):
    """Two records carry the same id."""


class InconsistentDimsError(DataFormatError):
    """Per-layer dimensions disagree across records."""


class InvalidVectorError(DataFormatError, ValueError):
    """A vector has no direction: it holds a NaN or Inf, or its norm is zero."""


class ConfigMismatchError(RetrievalError):
    """Stored artifacts disagree with the active configuration."""


class DimensionMismatchError(ConfigMismatchError, ValueError):
    """A vector is not as wide as the model or dictionary it is given to."""
