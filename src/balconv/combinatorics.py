"""Exact integer primitives: binomials, exact division and the int/str digit limit.

Everything here is plain ``int`` arithmetic; Python integers are unbounded,
so there is no overflow to guard against.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import lru_cache
from math import comb
from typing import Iterator

__all__ = [
    "IntegralityError",
    "binom",
    "exact_div",
]


class IntegralityError(ArithmeticError):
    """A division that must be exact left a remainder; carries ``divisor`` and ``remainder``.

    Raised by :func:`exact_div` when a closed form that must produce an
    integer on its validity domain does not.  A sweep records it as a
    mismatch at that n; a single evaluation reports it as an error.
    """

    def __init__(self, divisor: int, remainder: int) -> None:
        super().__init__(f"division by {divisor} leaves a remainder of {remainder}")
        self.divisor, self.remainder = divisor, remainder


def exact_div(num: int, den: int) -> int:
    """num / den for a division known to be exact; the divisor may be negative.

    >>> exact_div(12, -4)
    -3
    """
    quotient, remainder = divmod(num, den)
    if remainder:
        raise IntegralityError(den, remainder)
    return quotient


@lru_cache(maxsize=None)
def binom(m: int, k: int) -> int:
    """Generalized binomial coefficient via falling factorials.

    For m >= 0 this is the classical coefficient, zero when k > m.  For
    negative m it is m(m-1)...(m-k+1)/k!, so the function is total over all
    integer upper arguments; closed-form evaluators never need per-term
    guards.  Negative k is a domain error.

    Memoized: verification sweeps re-request the same coefficients heavily.
    """
    if k < 0:
        raise ValueError(f"binom: k must be nonnegative, got {k}")
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift CPython's int/str conversion digit limit, restoring the caller's on exit.

    Exact results routinely pass the default limit of 4300 digits.  Usable as
    a decorator.  Interpreters without the limit (before 3.10.7) are left alone.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
