"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError (and subclasses) -> 2, NumericsError -> 3.
"""


class SlaterankError(Exception):
    pass


class ShapeError(SlaterankError):
    """Operand shapes are incompatible with the requested op."""


class EmptyCandidatesError(SlaterankError):
    """A request arrived with zero candidates."""


class InfeasibleSlateError(SlaterankError):
    """Slate length exceeds the number of available candidates."""


class InvalidSlateError(SlaterankError):
    """Slate indices are not integers, are duplicated or are out of range."""


class MissingGradientError(SlaterankError):
    """An optimizer step ran before gradients were populated."""


class DegenerateLabelsError(SlaterankError):
    """A metric needs both label classes but got only one."""


class ConfigError(SlaterankError):
    """Bad configuration value or malformed command line."""


class DataError(SlaterankError):
    """Malformed or missing input data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(DataError):
    """Checkpoint file is unreadable or does not match the config."""


class NumericsError(SlaterankError):
    """A computation produced NaN or Inf, or was otherwise ill-posed."""
