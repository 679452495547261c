"""Exception types shared across the package, and the integer check its
public types share."""

import numbers


class LeorisError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LeorisError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(LeorisError, ArithmeticError):
    """A series or iterative scheme failed to converge within its budget,
    or lost too much precision to cancellation to be trusted."""


class DivergentMomentError(LeorisError, ValueError):
    """A requested distance moment is infinite for the given geometry."""


class ComputationError(LeorisError, ArithmeticError):
    """A numerically computed quantity violates a structural constraint
    (e.g. a variance that came out non-positive)."""


class ConfigError(LeorisError, ValueError):
    """A scenario configuration failed validation. The message names the
    offending field."""


def checked_integer(name: str, value) -> int:
    """``value`` as a Python int (which cannot wrap) if it is a non-bool integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)
