"""Exception hierarchy shared across the package."""


class FlowmtError(Exception):
    """Base class for all library errors."""


class InvalidPermutationError(FlowmtError, ValueError):
    """A job sequence contains duplicates or is not a valid permutation."""


class EmptyScheduleError(FlowmtError, ValueError):
    """A schedule with no jobs was submitted for evaluation."""


class JobIndexError(FlowmtError, IndexError):
    """A job index falls outside the instance's job range."""


class ParseError(FlowmtError, ValueError):
    """Malformed instance or config text; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class ParameterError(FlowmtError, ValueError):
    """A scalar argument is outside its documented range."""


class ShapeError(FlowmtError, ValueError):
    """Matrix or vector dimensions do not match."""


class PartitionError(FlowmtError, ValueError):
    """Two job collections do not partition the instance's job set."""


class ConfigError(FlowmtError, ValueError):
    """Invalid engine or campaign configuration."""


class UnderfullPoolError(FlowmtError, ValueError):
    """Selection pool smaller than the population it must fill."""
