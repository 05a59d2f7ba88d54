"""Truncated formal power series over exact rationals.

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

Coefficients are always exact ``Fraction``s.  A Cauchy product nonetheless
does no rational arithmetic in its O(m^2) loop: it scales each factor's
coefficients to integers over one common denominator, multiplies integers,
and divides once per output coefficient.

Division by (1 - x^2)^k never goes through general series inversion: the
expansion is written down directly by :func:`geom_even_pow`, which keeps
every coefficient a manifest small-denominator rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Union

from .combinatorics import binom
from .sequences import BALANCING, SeqParams

__all__ = [
    "Series",
    "geom_even_pow",
    "ogf",
    "verify_ogf_square_relation",
    "verify_power_expansion",
]

CoeffLike = Union[int, Fraction]


class Series:
    """Immutable truncated power series with exact Fraction coefficients.

    ``Series(coeffs)`` takes the order from the coefficient count;
    ``Series(coeffs, order=n)`` zero-pads or truncates to exactly n + 1
    coefficients.  Ints are converted to ``Fraction`` here and Fractions kept
    as given; products multiply integers over a common denominator.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike], order: int | None = None) -> None:
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError(f"Series: order must be nonnegative, got {order}")
            if len(cs) <= order:
                cs.extend([Fraction(0)] * (order + 1 - len(cs)))
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
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of x^n; n beyond the truncation order is an error."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside trusted range 0..{self.order}")
        return self._coeffs[n]

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

    def __sub__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        m = min(self.order, other.order)
        return Series([self._coeffs[i] - other._coeffs[i] for i in range(m + 1)])

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def __mul__(self, other: Series) -> Series:
        """Cauchy product, truncated where an unknown tail could first intrude.

        Each factor's used prefix is scaled to integers by the lcm of its
        denominators; each output coefficient is one Fraction over the
        product of the two scales.
        """
        if not isinstance(other, Series):
            return NotImplemented
        m = min(self.order + other.valuation(), other.order + self.valuation())
        a, da = _over_common_denominator(self._coeffs[: m + 1])
        b, db = _over_common_denominator(other._coeffs[: m + 1])
        out = [0] * (m + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(min(len(b) - 1, m - i) + 1):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        d = da * db
        return Series([Fraction(c, d) for c in out])

    def scale(self, c: CoeffLike) -> Series:
        """Multiply every coefficient by the exact scalar c."""
        f = Fraction(c)
        return Series([f * x for x in self._coeffs])

    def shift(self, s: int) -> Series:
        """Multiply by x^s; the trusted order grows by s."""
        if s < 0:
            raise ValueError(f"shift: s must be nonnegative, got {s}")
        return Series((Fraction(0),) * s + self._coeffs)

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
        """r-th power (r >= 0); the order stays that of the base."""
        if r < 0:
            raise ValueError(f"pow: r must be nonnegative, got {r}")
        result = Series([1], order=self.order)
        for _ in range(r):
            result = result * self
        return result


def _over_common_denominator(cs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers c_i * d and the lcm d of the denominators, so c_i = int_i / d."""
    d = lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


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


def geom_even_pow(m: int, order: int) -> Series:
    """(1 - x^2)^m truncated at ``order``.

    For m >= 0 this is the plain binomial polynomial.  For m < 0 it is the
    even geometric expansion sum_i binom(i - m - 1, -m - 1) x^{2i}.
    """
    if order < 0:
        raise ValueError(f"geom_even_pow: order must be nonnegative, got {order}")
    coeffs = [Fraction(0)] * (order + 1)
    if m >= 0:
        for i in range(min(m, order // 2) + 1):
            coeffs[2 * i] = Fraction((-1) ** i * binom(m, i))
    else:
        s = -m
        for i in range(order // 2 + 1):
            coeffs[2 * i] = Fraction(binom(i + s - 1, s - 1))
    return Series(coeffs)


def verify_ogf_square_relation(order: int) -> bool:
    """Check (1 - x^2) f(x)^2 = x^2 f'(x) for the balancing OGF f, coefficientwise.

    Exact rational computation; True means every coefficient matches on the
    common trusted prefix (here the full requested window).
    """
    if order < 2:
        raise ValueError(f"verify_ogf_square_relation: order must be >= 2, got {order}")
    f = ogf(BALANCING, order)
    lhs = geom_even_pow(1, order) * f * f
    rhs = f.derivative().shift(2)
    return lhs.agrees_with(rhs)


def verify_power_expansion(r: int, order: int) -> bool:
    """Check the derivative expansion of the r-th power of the balancing OGF.

    The identity, for r >= 2:

        f^r = x^{2r-2} f^{(r-1)} / ((r-1)! (1-x^2)^{r-1})
            + sum_{k=1}^{r-2} [ sum_{j=0}^{k-1} C(k,j) C(r-2,k-j-1) x^{2r-k+2j-2} ]
                              / (k (r-k-2)! (1-x^2)^{r+k-1}) * f^{(r-k-1)}

    Every (1-x^2)^{-e} factor is expanded with :func:`geom_even_pow`, and
    each term carries its own rational scale; denominators are never pooled
    globally.  At r = 2 the k-sum is empty and this reduces to the squared
    relation.
    """
    if r < 2:
        raise ValueError(f"verify_power_expansion: r must be >= 2, got {r}")
    if order < r - 1:
        # f^{(r-1)} needs r - 1 trusted coefficients beyond x^0
        raise ValueError(f"verify_power_expansion: order must be >= r - 1 = {r - 1}, got {order}")
    f = ogf(BALANCING, order)
    lhs = f.pow(r)
    rhs = (
        (f.derivative(r - 1) * geom_even_pow(-(r - 1), order))
        .shift(2 * r - 2)
        .scale(Fraction(1, factorial(r - 1)))
    )
    for k in range(1, r - 1):
        base = f.derivative(r - k - 1) * geom_even_pow(-(r + k - 1), order)
        scale_k = Fraction(1, k * factorial(r - k - 2))
        for j in range(k):
            weight = binom(k, j) * binom(r - 2, k - j - 1)
            rhs = rhs + base.shift(2 * r - k + 2 * j - 2).scale(scale_k * weight)
    return lhs.agrees_with(rhs)
