"""Exception types shared across the package, the integer check its
public types share, and the pointwise convention its public densities and
distribution functions share."""

import functools
import numbers

import numpy as np


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


def pointwise(what: str, *, nonnegative: bool = True):
    """Decorator for f(x, ...) written for a float array x of at least one
    dimension: f then takes a scalar, for a float, or an array, for an
    array of its shape. NaN raises DomainError naming ``what``, as does a
    negative x where ``nonnegative``."""
    def wrap(f):
        @functools.wraps(f)
        def apply(x, *args, **kwargs):
            arr = np.asarray(x, dtype=float)
            if np.isnan(arr).any() or nonnegative and (arr < 0).any():
                raise DomainError(f"{what} must be >= 0 and not NaN" if nonnegative
                                  else f"{what} must not be NaN")
            out = f(np.atleast_1d(arr), *args, **kwargs)
            return float(out[0]) if arr.ndim == 0 else out
        return apply
    return wrap


def density(x: np.ndarray, log_density, log_coeff: float, power: float) -> np.ndarray:
    """exp(log_density(x)) for an array x >= 0, 0 at +inf, and at 0 the
    limit of the leading term exp(log_coeff) x^power. A term that overflows,
    or the logarithm of a factor that underflows, reads as a density of 0."""
    out = np.zeros_like(x)
    inner = (x > 0) & (x < np.inf)
    with np.errstate(over="ignore", divide="ignore"):
        out[x == 0] = 0.0 if power > 0 else np.exp(log_coeff) if power == 0 else np.inf
        out[inner] = np.exp(log_density(x[inner]))
    return out
