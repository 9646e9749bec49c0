"""Exception hierarchy shared across the package."""


class RetrievalError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(RetrievalError, ValueError):
    """Two vectors (or a vector and a model) disagree on dimensionality."""


class ZeroVectorError(RetrievalError, ValueError):
    """A zero-norm vector was passed where a direction is required."""


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


class InvalidVectorError(DataFormatError):
    """A record vector is non-finite or has zero norm, so it has no direction."""


class ConfigMismatchError(RetrievalError):
    """Stored artifacts disagree with the active configuration."""
