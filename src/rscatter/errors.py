"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class DegenerateTraceError(ValueError):
    """All samples identical; the Pareto shape estimate is undefined."""


class TraceParseError(ValueError):
    """Malformed trace file line."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class InfiniteMeanError(ValueError):
    """Pareto shape <= 1; the mean duration diverges."""


class InfeasibleError(RuntimeError):
    """No admissible configuration satisfies the reliability constraint."""


class FrameCrcError(Exception):
    """Frame failed its CRC check."""
