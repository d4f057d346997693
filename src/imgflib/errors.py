"""Exception types shared across the library."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach the requested accuracy.

    Raised instead of silently returning a truncated or disagreeing value.
    """


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """A configuration field whose value does not parse, such as a number
    given as "abc": wrong at every point of a sweep, not at one."""
