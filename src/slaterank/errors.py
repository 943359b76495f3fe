"""Exception hierarchy shared across the package.

Each class carries the process exit code that `slaterank` ends with when
the error reaches the command line (`cli.main`), and this is the one table
of those codes:

    0    success
    1    usage and config problems (ConfigError, and any SlaterankError
         without a code of its own); an output file that cannot be written
    2    data problems: a missing or malformed log, a checkpoint that is
         unreadable or does not match the config (DataError, CheckpointError),
         test labels with only one class (DegenerateLabelsError)
    3    non-finite numerics (NumericsError)
    141  the reader of stdout went away (`slaterank bench | head -1`), as a
         shell reports for a process ended by SIGPIPE
"""


class SlaterankError(Exception):
    exit_code = 1


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

    exit_code = 2


class ConfigError(SlaterankError):
    """Bad configuration value or malformed command line."""


class DataError(SlaterankError):
    """Malformed or missing input data."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(DataError):
    """Checkpoint file is unreadable or does not match the config."""


class NumericsError(SlaterankError):
    """A computation produced NaN or Inf, or was otherwise ill-posed."""

    exit_code = 3
