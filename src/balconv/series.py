"""Truncated formal power series with integer coefficients.

A :class:`Series` stores coefficients for x^0 .. x^order and nothing beyond;
the tail is *unknown*, not zero.  Truncation bookkeeping is therefore
conservative:

* sums are trusted up to the smaller operand order,
* a Cauchy product is trusted up to min(order(f) + val(g), order(g) + val(f)):
  the unknown tail of one factor first contaminates the coefficient just past
  the other factor's order plus this factor's valuation,
* multiplying by x^s (``shift``) raises the trusted order by s,
* the k-th derivative lowers it by k,
* ``agrees_with`` compares only the common trusted prefix.

Every series the identities build has integer coefficients, so a
coefficient is a plain ``int`` and a Cauchy product multiplies ints.

Nothing here divides by a series: the checks are stated multiplied through
by their denominators, powers of (1 - x^2) written down by
:func:`one_minus_x2_pow` from binomials.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable

from .combinatorics import binom
from .sequences import BALANCING, SeqParams

__all__ = [
    "Series",
    "ogf",
    "one_minus_x2_pow",
    "verify_ogf_square_relation",
    "verify_power_expansion",
]


class Series:
    """Immutable truncated power series with integer coefficients.

    ``Series(coeffs)`` takes the order from the coefficient count;
    ``Series(coeffs, order=n)`` zero-pads or truncates to exactly n + 1
    coefficients.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int], order: int | None = None) -> None:
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError(f"Series: order must be nonnegative, got {order}")
            if len(cs) <= order:
                cs.extend([0] * (order + 1 - len(cs)))
            else:
                del cs[order + 1 :]
        elif not cs:
            raise ValueError("Series: need at least the constant coefficient")
        self._coeffs = tuple(cs)

    @property
    def order(self) -> int:
        """Largest exponent whose coefficient is trusted."""
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}], order={self.order})"

    def valuation(self) -> int:
        """Index of the first nonzero known coefficient.

        Returns order + 1 when every known coefficient is zero; that is a
        lower bound on the true valuation, which is all the truncation rules
        need.
        """
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return self.order + 1

    def agrees_with(self, other: Series) -> bool:
        """Coefficientwise equality on the common trusted prefix."""
        m = min(self.order, other.order)
        return self._coeffs[: m + 1] == other._coeffs[: m + 1]

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        m = min(self.order, other.order)
        return Series([self._coeffs[i] + other._coeffs[i] for i in range(m + 1)])

    def __mul__(self, other: Series) -> Series:
        """Cauchy product, truncated where an unknown tail could first intrude.

        Only nonzero coefficients are multiplied, so a sparse factor such as
        a polynomial padded to a high order costs what its terms cost.
        """
        if not isinstance(other, Series):
            return NotImplemented
        m = min(self.order + other.valuation(), other.order + self.valuation())
        b = [(j, bj) for j, bj in enumerate(other._coeffs[: m + 1]) if bj]
        out = [0] * (m + 1)
        for i, ai in enumerate(self._coeffs[: m + 1]):
            if not ai:
                continue
            for j, bj in b:
                if i + j > m:
                    break
                out[i + j] += ai * bj
        return Series(out)

    def scale(self, c: int) -> Series:
        """Multiply every coefficient by the integer c."""
        return Series([c * x for x in self._coeffs])

    def shift(self, s: int) -> Series:
        """Multiply by x^s; the trusted order grows by s."""
        if s < 0:
            raise ValueError(f"shift: s must be nonnegative, got {s}")
        return Series((0,) * s + self._coeffs)

    def derivative(self, k: int = 1) -> Series:
        """k-th termwise derivative; the trusted order drops by k."""
        if k < 0:
            raise ValueError(f"derivative: k must be nonnegative, got {k}")
        if k == 0:
            return self
        if k > self.order:
            raise ValueError(f"derivative of order {k} exceeds truncation order {self.order}")
        out = []
        for n in range(self.order - k + 1):
            w = 1
            for i in range(n + 1, n + k + 1):
                w *= i
            out.append(self._coeffs[n + k] * w)
        return Series(out)

    def pow(self, r: int) -> Series:
        """r-th power (r >= 0).

        The order is that of the base at r = 0 and 1; each further factor
        adds the base's valuation, so f^r has order order(f) + (r - 1) val(f).
        """
        if r < 0:
            raise ValueError(f"pow: r must be nonnegative, got {r}")
        result = Series([1], order=self.order)
        for _ in range(r):
            result = result * self
        return result


def ogf(params: SeqParams, order: int) -> Series:
    """Expansion of x / (1 - a*x - b*x^2), whose coefficients are the u-terms.

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


def one_minus_x2_pow(m: int, order: int) -> Series:
    """The polynomial (1 - x^2)^m (m >= 0) truncated at ``order``."""
    if m < 0:
        raise ValueError(f"one_minus_x2_pow: m must be nonnegative, got {m}")
    if order < 0:
        raise ValueError(f"one_minus_x2_pow: order must be nonnegative, got {order}")
    coeffs = [0] * (order + 1)
    for i in range(min(m, order // 2) + 1):
        coeffs[2 * i] = (-1) ** i * binom(m, i)
    return Series(coeffs)


def verify_ogf_square_relation(order: int) -> bool:
    """Check (1 - x^2) f(x)^2 = x^2 f'(x) for the balancing OGF f, coefficientwise.

    This is :func:`verify_power_expansion` at r = 2; both sides are trusted
    to order + 1.
    """
    if order < 2:
        raise ValueError(f"verify_ogf_square_relation: order must be >= 2, got {order}")
    return verify_power_expansion(2, order)


def verify_power_expansion(r: int, order: int) -> bool:
    """Check the derivative expansion of the r-th power of the balancing OGF.

    The identity, for r >= 2:

        f^r = x^{2r-2} f^{(r-1)} / ((r-1)! (1-x^2)^{r-1})
            + sum_{k=1}^{r-2} [ sum_{j=0}^{k-1} C(k,j) C(r-2,k-j-1) x^{2r-k+2j-2} ]
                              / (k (r-k-2)! (1-x^2)^{r+k-1}) * f^{(r-k-1)}

    is checked multiplied through by (r-1)! (1-x^2)^{2r-3}, so every factor is
    a polynomial with integer coefficients or a derivative of f:

        (r-1)! (1-x^2)^{2r-3} f^r = x^{2r-2} (1-x^2)^{r-2} f^{(r-1)}
            + sum_k (r-1)!/(k (r-k-2)!) [ ... ] (1-x^2)^{r-k-2} f^{(r-k-1)}

    Term k's scale is exact because (r-1)!/(r-k-2)! is a product of k+1
    consecutive integers, which (k+1)! divides.  (1-x^2)^{2r-3} has constant
    term 1, so the multiplied identity holds on a truncation exactly when the
    original does.  Both sides are trusted to order + r - 1.  At r = 2 the
    k-sum is empty and this is the square relation.
    """
    if r < 2:
        raise ValueError(f"verify_power_expansion: r must be >= 2, got {r}")
    if order < r - 1:
        # f^{(r-1)} needs r - 1 trusted coefficients beyond x^0
        raise ValueError(f"verify_power_expansion: order must be >= r - 1 = {r - 1}, got {order}")
    f = ogf(BALANCING, order)
    lhs = (one_minus_x2_pow(2 * r - 3, order) * f.pow(r)).scale(factorial(r - 1))
    rhs = (f.derivative(r - 1) * one_minus_x2_pow(r - 2, order)).shift(2 * r - 2)
    for k in range(1, r - 1):
        base = f.derivative(r - k - 1) * one_minus_x2_pow(r - k - 2, order)
        scale_k = factorial(r - 1) // (k * factorial(r - k - 2))
        for j in range(k):
            weight = binom(k, j) * binom(r - 2, k - j - 1)
            rhs = rhs + base.shift(2 * r - k + 2 * j - 2).scale(scale_k * weight)
    return lhs.agrees_with(rhs)
