"""Exact combinatorial primitives: binomials, multinomials, integer powers.

Everything here is plain ``int``/``Fraction`` arithmetic; Python integers are
unbounded, so there is no overflow to guard against.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

__all__ = [
    "IntegralityError",
    "as_integer",
    "binom",
    "int_pow",
    "multinomial",
]


class IntegralityError(ArithmeticError):
    """A rationally-computed value failed its denominator-1 assertion.

    Raised by :func:`as_integer` when a closed form that must produce an
    integer on its validity domain does not.  This is an internal invariant
    violation, not a recoverable input error.
    """


def as_integer(value: Fraction) -> int:
    """Collapse an exact rational that is known to be integral.

    >>> as_integer(Fraction(12, 4))
    3
    """
    if value.denominator != 1:
        raise IntegralityError(f"expected an integer, got {value!r}")
    return value.numerator


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


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n!/(k_1! ... k_r!) for parts summing to n."""
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial: parts must be nonnegative, got {list(parts)}")
    if sum(parts) != n:
        raise ValueError(f"multinomial: parts {list(parts)} do not sum to {n}")
    result = 1
    remaining = n
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


def int_pow(base: int, e: int) -> int:
    """base**e with the 0**0 = 1 convention (required by j = 0 sum terms)."""
    if e < 0:
        raise ValueError(f"int_pow: exponent must be nonnegative, got {e}")
    return base**e


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
