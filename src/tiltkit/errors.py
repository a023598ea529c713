"""Exception taxonomy shared by all tiltkit modules.

Each class maps to one CLI exit code (see ``tiltkit.cli``): parse problems
(:class:`ParseError`, :class:`OrderingError`) exit with 3, optimizer
failures (:class:`OptimizationFailure`) with 5, and every other class, a
numeric or contract violation, with 4.  What a run carries on through is
data, not an exception: a sample whose tilt is undefined is flagged
``degenerate`` and keeps the previous tilt.
"""


class TiltkitError(Exception):
    """Base class for everything raised deliberately by tiltkit."""


class ParameterError(TiltkitError, ValueError):
    """A precondition on an argument or configuration value is violated."""


class SimulationError(TiltkitError):
    """Simulation produced a non-finite value.

    Carries the index of the offending sample.
    """

    def __init__(self, sample_index):
        self.sample_index = sample_index
        super().__init__(f"non-finite value at sample {sample_index}")


class FilterConfigError(TiltkitError, ValueError):
    """A filter variant was built with a wrong parameter set."""


class FilterDesignError(TiltkitError):
    """A filter design step is infeasible (bad P0 request, singular innovation)."""


class ParseError(TiltkitError):
    """A log or config file could not be parsed.

    ``line`` is 1-based (header is line 1), ``column`` is the field name.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column else ")")
        super().__init__(message + loc)


class OrderingError(ParseError):
    """Sample timestamps are not strictly increasing."""


class ConfigError(TiltkitError, ValueError):
    """A run configuration is inconsistent with the data it is applied to."""


class OptimizationFailure(TiltkitError):
    """The optimizer could not produce a usable result."""
