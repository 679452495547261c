"""Hypergeometric kernel used by the closed-form link statistics.

Everything here is plain float64 with stated tolerances. Series follow a
single truncation rule: stop once the next term has been below
``rel_tol * |partial sum|`` for 3 consecutive terms, and give up past
``max_terms``. The Gauss hypergeometric function is delegated to scipy's
transformation-based implementation because the naive series is useless
for the large negative arguments produced by tall deployment cylinders.
The confluent function stays a series here: scipy's ``hyp1f1`` overflows
to inf for ``a = -1/2`` at large ``b`` and negative arguments. The fading
moments do not use it (they sum an all-positive Poisson mixture, which
does not cancel at strong line of sight). Incomplete gamma, digamma and
log-gamma come straight from ``scipy.special`` and ``math`` at their call
sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import hyp2f1 as _scipy_hyp2f1

from .errors import ConvergenceError, DomainError


@dataclass(frozen=True)
class AccuracyBudget:
    """Truncation budget for series evaluation."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise DomainError("AccuracyBudget.rel_tol must be > 0")
        if self.max_terms < 1:
            raise DomainError("AccuracyBudget.max_terms must be >= 1")


DEFAULT_BUDGET = AccuracyBudget()


def _pfq_series(num: tuple[float, ...], den: tuple[float, ...], x: float,
                budget: AccuracyBudget) -> tuple[float, float]:
    """Generalized hypergeometric series with the shared stopping rule.

    Returns the sum and the largest term magnitude; the sum's rounding
    error is about machine epsilon times that peak. Raises
    ConvergenceError when the term budget runs out or when
    alternating-term cancellation has destroyed more than ~10 digits.
    """
    term = 1.0
    total = 1.0
    peak = 1.0
    below = 0
    for k in range(budget.max_terms):
        ratio = x / (k + 1.0)
        for p in num:
            ratio *= p + k
        for q in den:
            ratio /= q + k
        term *= ratio
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag < budget.rel_tol * abs(total):
            below += 1
            if below >= 3:
                if abs(total) * 1e10 < peak:
                    raise ConvergenceError(
                        "hypergeometric series lost too much precision to "
                        f"cancellation (peak term {peak:.3e}, sum {total:.3e})"
                    )
                return total, peak
        else:
            below = 0
    raise ConvergenceError(
        f"hypergeometric series did not converge within {budget.max_terms} terms"
    )


def _is_nonpositive_int(v: float) -> bool:
    return v <= 0 and v == math.floor(v)


def kummer_1f1(a: float, b: float, x: float,
               budget: AccuracyBudget = DEFAULT_BUDGET) -> float:
    """Confluent hypergeometric 1F1(a; b; x).

    Negative arguments go through the Kummer transformation
    1F1(a;b;x) = e^x 1F1(b-a;b;-x) so the series only ever sums
    same-sign terms.
    """
    if _is_nonpositive_int(b):
        raise DomainError(f"kummer_1f1 pole: b={b} is a non-positive integer")
    if x == 0.0:
        return 1.0
    if x < 0.0:
        return math.exp(x) * _pfq_series((b - a,), (b,), -x, budget)[0]
    return _pfq_series((a,), (b,), x, budget)[0]


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z < 1.

    Delegates to scipy's implementation, which applies the Pfaff/Euler
    transformation network internally; arbitrarily large negative z is
    fine.
    """
    if _is_nonpositive_int(c):
        raise DomainError(f"gauss_2f1 pole: c={c} is a non-positive integer")
    if z >= 1.0:
        raise DomainError(f"gauss_2f1 requires z < 1 on the real line, got z={z}")
    val = float(_scipy_hyp2f1(a, b, c, z))
    if not math.isfinite(val):
        raise ConvergenceError(f"gauss_2f1({a}, {b}; {c}; {z}) did not evaluate finitely")
    return val


def generalized_pfq(num: list[float], den: list[float], x: float,
                    budget: AccuracyBudget = DEFAULT_BUDGET) -> float:
    """Generalized hypergeometric pFq(num; den; x) for p <= q + 1.

    p <= q is entire; p = q + 1 requires |x| < 1. A denominator
    parameter at a non-positive integer is a pole.
    """
    for q in den:
        if _is_nonpositive_int(q):
            raise DomainError(f"generalized_pfq pole: denominator parameter {q}")
    if x == 0.0:
        return 1.0
    p, qn = len(num), len(den)
    if p > qn + 1:
        raise DomainError(f"generalized_pfq with p={p} > q+1={qn + 1} diverges for x != 0")
    if p == qn + 1 and abs(x) >= 1.0:
        raise DomainError(f"generalized_pfq with p=q+1 requires |x| < 1, got x={x}")
    return _pfq_series(tuple(num), tuple(den), x, budget)[0]
