"""Exception types shared across the package."""


class TwoAtomError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(TwoAtomError, ValueError):
    """A numeric argument is outside its admissible range."""


class InvalidStateError(TwoAtomError, ValueError):
    """A quantum state fails a precondition (e.g. not normalized)."""


class InvalidCaseError(TwoAtomError, ValueError):
    """A case label does not match the supplied inputs."""


class DomainTruncationError(TwoAtomError, ValueError):
    """A spatial grid is too small to hold the required probability mass."""


class NumericalDegeneracyError(TwoAtomError, ArithmeticError):
    """A kernel is numerically non-normalizable (zero norm, NaN, ...)."""


class InsufficientDataError(TwoAtomError, ValueError):
    """Too few samples (or too few populated bins) for the requested fit."""


class ConfigValidationError(TwoAtomError, ValueError):
    """An experiment configuration has invalid fields.

    Carries the list of offending field names so the CLI can report them.
    """

    def __init__(self, fields, message=None):
        self.fields = list(fields)
        super().__init__(message or f"invalid config fields: {', '.join(self.fields)}")


class EventsFileError(TwoAtomError, ValueError):
    """An events file cannot be read: empty, not UTF-8, a missing column,
    columns too large for memory, a ragged row or a bad field.  The
    message names the file and, for a row, its line and column."""
