"""Exact integer polynomials, and the paper's power-expansion lemma checked on them.

A :class:`Series` holds the coefficients of x^0 .. x^order, every one of them
exact: there is no unknown tail, so sums, products, shifts and derivatives
are the ordinary polynomial operations.  Every series the package builds is
a polynomial: P^r for the plain oracle, powers of (1 - x^2), and the lemma's
derivatives of f = x / P, which times P^r are polynomials too (see
:func:`verify_power_expansion`).  Nothing here divides by a series.
"""

from __future__ import annotations

from itertools import zip_longest
from math import factorial, perm
from typing import Iterable

from .combinatorics import binom
from .sequences import BALANCING, SeqParams

__all__ = [
    "Series",
    "ogf",
    "verify_ogf_square_relation",
    "verify_power_expansion",
]


class Series:
    """Immutable polynomial with integer coefficients, x^0 first.

    ``order`` is the last exponent held, not the degree: trailing zeros are
    kept, so ``Series([1, -a, -b]).pow(r)`` holds 2r + 1 coefficients at any
    (a, b).  Equality compares the coefficients held.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        self._coeffs = tuple(coeffs)
        if not self._coeffs:
            raise ValueError("Series: need at least the constant coefficient")

    @property
    def order(self) -> int:
        """Last exponent held."""
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}])"

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return Series(a + b for a, b in zip_longest(self._coeffs, other._coeffs, fillvalue=0))

    def __mul__(self, other: Series) -> Series:
        """Exact product, of order order(f) + order(g).

        Only nonzero coefficients are multiplied, so a sparse factor such as
        (1 - x^2)^m costs what its terms cost.
        """
        if not isinstance(other, Series):
            return NotImplemented
        b = [(j, bj) for j, bj in enumerate(other._coeffs) if bj]
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, ai in enumerate(self._coeffs):
            if ai:
                for j, bj in b:
                    out[i + j] += ai * bj
        return Series(out)

    def scale(self, c: int) -> Series:
        """Multiply every coefficient by the integer c."""
        return Series([c * x for x in self._coeffs])

    def shift(self, s: int) -> Series:
        """Multiply by x^s."""
        if s < 0:
            raise ValueError(f"shift: s must be nonnegative, got {s}")
        return Series((0,) * s + self._coeffs)

    def derivative(self, k: int = 1) -> Series:
        """k-th derivative; past the order it is the zero polynomial ``Series([0])``."""
        if k < 0:
            raise ValueError(f"derivative: k must be nonnegative, got {k}")
        return Series([c * perm(n + k, k) for n, c in enumerate(self._coeffs[k:])] or [0])

    def pow(self, r: int) -> Series:
        """r-th power (r >= 0), made by r products; order r * order(f)."""
        if r < 0:
            raise ValueError(f"pow: r must be nonnegative, got {r}")
        result = Series([1])
        for _ in range(r):
            result = result * self
        return result


def ogf(params: SeqParams, order: int) -> Series:
    """Expansion of x / (1 - a*x - b*x^2) through x^order, whose coefficients are the u-terms.

    Computed by running the recurrence on the coefficients directly; the
    sequences module is deliberately not consulted, so the two can be checked
    against each other.
    """
    if order < 0:
        raise ValueError(f"ogf: order must be nonnegative, got {order}")
    coeffs = [0] * (order + 1)
    if order >= 1:
        coeffs[1] = 1
    for n in range(2, order + 1):
        coeffs[n] = params.a * coeffs[n - 1] + params.b * coeffs[n - 2]
    return Series(coeffs)


def verify_ogf_square_relation(order: int) -> bool:
    """Check (1 - x^2) f(x)^2 = x^2 f'(x) for the balancing OGF f through x^{order+1}.

    This is :func:`verify_power_expansion` at r = 2.
    """
    if order < 2:
        raise ValueError(f"verify_ogf_square_relation: order must be >= 2, got {order}")
    return verify_power_expansion(2, order)


def verify_power_expansion(r: int, order: int) -> bool:
    """Check the derivative expansion of the r-th power of the balancing OGF f = x / P.

    The identity, for r >= 2:

        f^r = x^{2r-2} f^{(r-1)} / ((r-1)! (1-x^2)^{r-1})
            + sum_{k=1}^{r-2} [ sum_{j=0}^{k-1} C(k,j) C(r-2,k-j-1) x^{2r-k+2j-2} ]
                              / (k (r-k-2)! (1-x^2)^{r+k-1}) * f^{(r-k-1)}

    is checked multiplied through by (r-1)! (1-x^2)^{2r-3} P^r, which makes it
    an identity between integer polynomials of degree at most 5r - 6.  The
    factor P^r turns f^r into x^r and f^{(i)} into N_i P^{r-i-1}, where
    f^{(i)} = N_i / P^{i+1}, so N_0 = x and N_{i+1} = N_i' P - (i+1) N_i P':

        (r-1)! (1-x^2)^{2r-3} x^r = x^{2r-2} (1-x^2)^{r-2} N_{r-1}
            + sum_k (r-1)!/(k (r-k-2)!) [ ... ] (1-x^2)^{r-k-2} N_{r-k-1} P^k

    Term k's scale is exact because (r-1)!/(r-k-2)! is a product of k+1
    consecutive integers, which (k+1)! divides.  The two sides are compared
    through x^{order+r-1}, the prefix that ``order`` terms of f determine.
    (1-x^2)^{2r-3} P^r has constant term 1, a unit of Z[[x]], so agreement
    there is the same fact as agreement of the lemma's own power series; and
    once order + r - 1 >= 5r - 6, that is, order >= 4r - 5, it is agreement
    of the whole polynomials: a proof of the lemma for that r.  At r = 2 the
    k-sum is empty and this is the square relation.
    """
    if r < 2:
        raise ValueError(f"verify_power_expansion: r must be >= 2, got {r}")
    if order < r - 1:
        # f^{(r-1)} needs r - 1 coefficients of f beyond x^0
        raise ValueError(f"verify_power_expansion: order must be >= r - 1 = {r - 1}, got {order}")
    p = Series([1, -BALANCING.a, -BALANCING.b])
    dp = p.derivative()
    numerators = [Series([0, 1])]  # N_i, i = 0..r-1
    for i in range(r - 1):
        n_i = numerators[i]
        numerators.append(n_i.derivative() * p + (n_i * dp).scale(-(i + 1)))
    q = Series([1, 0, -1])
    lhs = q.pow(2 * r - 3).shift(r).scale(factorial(r - 1))
    rhs = (q.pow(r - 2) * numerators[r - 1]).shift(2 * r - 2)
    p_k = Series([1])
    for k in range(1, r - 1):
        p_k = p_k * p
        scale_k = factorial(r - 1) // (k * factorial(r - k - 2))
        weights = [0] * (2 * k - 1)  # sum_j scale_k C(k,j) C(r-2,k-j-1) x^{2j}
        for j in range(k):
            weights[2 * j] = scale_k * binom(k, j) * binom(r - 2, k - j - 1)
        term = Series(weights) * q.pow(r - k - 2) * numerators[r - k - 1] * p_k
        rhs = rhs + term.shift(2 * r - k - 2)
    return not any((lhs + rhs.scale(-1)).coeffs[: order + r])
