"""Exception types shared across the library."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach the requested accuracy.

    Raised instead of silently returning a truncated or disagreeing value.
    """


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""
