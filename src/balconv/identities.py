"""Identity catalog: convolution oracles, closed forms, and the verifier.

Each catalog entry pairs a brute-force left-hand side (a convolution computed
directly: a coefficient of the OGF power x^r / P^r read from the recurrence
whose characteristic polynomial is P^r, the balancing pair sum S_2 read from
P f^2 = x f, or a binomial-weighted fold m! [x^m] E^r stepped, at every r >= 1,
by the matrix M of d/dx through index r and then read from the recurrence
det(x - M), never from the term list it folds) with a
closed-form right-hand side evaluated in integers; a closed form that divides
does so with :func:`exact_div`, which raises on a remainder.
:func:`verify_identity` sweeps a range of n and reports every mismatch with an
exact witness; a side that raised there is recorded as :class:`NotInteger`.

Each side's first statement checks its :class:`Domain` record, which its catalog rows read
too: closed forms reject n below their validity bound instead of extrapolating; the oracles
are total on n >= 0.  The ``printed`` evaluator transcribes the per-r
corollary forms verbatim, typos included, so sweeps can measure exactly where
a transcription diverges from the general formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from math import comb
from typing import Callable, Iterator, NamedTuple

from . import combinatorics, sequences
from .combinatorics import IntegralityError, binom, exact_div, unlimited_int_digits
from .sequences import (
    BALANCING,
    FIBONACCI,
    SeqParams,
    balancing,
    grow,
    initial_terms,
    lucas,
    lucas_balancing,
    terms,
    u,
    v,  # no caller here, but perfbench/tracer.py wraps it by this name
)
from .series import (
    Series,
    ogf,  # no caller here, but perfbench/tracer.py wraps it by this name
)

__all__ = [
    "CATALOG",
    "Domain",
    "Failure",
    "IdentityInfo",
    "NotInteger",
    "VerificationReport",
    "alt_weighted_conv",
    "binom_conv_c",
    "binom_conv_u",
    "binom_conv_v",
    "clamp_to_domain",
    "clear_caches",
    "conv_power",
    "conv_power_by_enumeration",
    "evaluate_range",
    "is_mismatch",
    "pair_plain_sum",
    "pair_telescope_sum",
    "report_from_dict",
    "report_to_dict",
    "resolve_identity_args",
    "rhs_binom_pair_b",
    "rhs_binom_pair_c",
    "rhs_fib_pair_f",
    "rhs_fib_pair_l",
    "rhs_general_alt",
    "rhs_general_plain",
    "rhs_multinom_triple_b",
    "rhs_multinom_triple_c",
    "rhs_multinom_u",
    "rhs_multinom_v",
    "rhs_pair_plain",
    "rhs_pair_telescope",
    "rhs_printed_corollary",
    "rhs_triple_alt",
    "to_json",
    "verify_identity",
]


def clear_caches() -> None:
    """Drop the P^r, fold-weight and binomial memos and every list of :func:`sequences.grow`."""
    for cached in (_ogf_power, _binom_fold, combinatorics.binom):
        cached.cache_clear()
    sequences._tables.clear()


class Domain(NamedTuple):
    """Where a side is defined: r >= ``min_r`` and n >= ``n_min(r)``."""

    min_r: int
    n_min: Callable[[int], int]

    def check(self, name: str, r: int, n: int) -> None:
        """Raise a ValueError that names ``name`` unless (r, n) lies in the domain; r first."""
        if r < self.min_r:
            raise ValueError(f"{name}: r must be >= {self.min_r}, got {r}")
        if n < self.n_min(r):
            raise ValueError(f"{name}: n must be >= {self.n_min(r)}, got {n}")


# Each domain rule, stated once; the sides and the catalog rows read these records.
_ALTERNATING = Domain(2, lambda r: 3 * r - 5)
_PLAIN = Domain(2, lambda r: r)
_TELESCOPE = Domain(1, lambda r: 1)
_BINOMIAL = Domain(1, lambda r: 0)  # also every oracle but alt_weighted_conv
_ALT_WEIGHTED = Domain(2, lambda r: 0)


# ---------------------------------------------------------------------------
# Oracles (plain convolutions)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ogf_power(params: SeqParams, r: int) -> tuple[int, ...]:
    # The 2r + 1 coefficients of P^r, fetched by conv_power's make only while its list grows.
    return Series([1, -params.a, -params.b]).pow(r).coeffs


def conv_power(params: SeqParams, r: int, n: int) -> int:
    """Sum of u_{j_1}...u_{j_r} over compositions of n into r positive parts.

    This is coefficient n of f^r = x^r / P^r, P = 1 - a x - b x^2; u_0 = 0 makes "positive
    parts" automatic, and it is zero whenever n < r.  From P^r f^r = x^r, with p_i the
    coefficients of P^r and g_m = [x^m] f^r, g_m = [m = r] - sum_{i=1}^{2r} p_i g_{m-i}
    (g = 0 below index 0), so each coefficient costs O(r).  The list is the store's ("f^r",
    params, r) table, made once per process; its record (:func:`sequences.grow`) is the seed
    g_0..g_r = 0, ..., 0, 1 and P^r as the weights -p_1, ..., -p_{2r}, fetched while it grows.
    The n < r exit stays although the seed holds those zeros: it reads no P^r and grows no
    table, where r = 10^6 at n = 5 would otherwise multiply out P^(10^6) to read one zero.
    """
    _BINOMIAL.check("conv_power", r, n)
    if n < r:
        return 0

    def make():
        return (0,) * r + (1,), tuple(-p for p in _ogf_power(params, r)[1:]), None

    return grow(("f^r", params, r), n, make)[n]


def conv_power_by_enumeration(params: SeqParams, r: int, n: int) -> int:
    """Independent oracle: enumerate every composition and multiply terms.

    Exponentially slower than :func:`conv_power`; meant for cross-checking at
    small sizes only.
    """
    _BINOMIAL.check("conv_power_by_enumeration", r, n)
    total = 0
    for cuts in combinations(range(1, n), r - 1):
        bounds = (0, *cuts, n)
        prod = 1
        for lo, hi in zip(bounds, bounds[1:]):
            prod *= u(params, hi - lo)
        total += prod
    return total


def alt_weighted_conv(r: int, n: int) -> int:
    """sum_{l=0}^{2r-3} (-1)^l C(2r-3, l) S_r(n - 2l) for balancing numbers,

    where S_r is the plain r-fold convolution (zero for negative argument).
    """
    _ALT_WEIGHTED.check("alt_weighted_conv", r, n)
    total = 0
    for l in range(min(2 * r - 2, n // 2 + 1)):
        total += (-1) ** l * binom(2 * r - 3, l) * conv_power(BALANCING, r, n - 2 * l)
    return total


def pair_plain_sum(n: int) -> int:
    """S_2(n) = sum_{j=1}^{n-1} B_j B_{n-j}, the coefficient n of f^2, f = x / P.

    P f^2 = x f, P = 1 - a x - b x^2 at (a, b) = (6, -1), so reading
    coefficient n of both sides gives S_2(n) = a S_2(n-1) + b S_2(n-2) + B_{n-1},
    with S_2(0) = S_2(1) = 0: the record (:func:`sequences.grow`) of the store's "S_2"
    list, forcing k -> B_{k-1} read from the B list.  Each value costs O(1) big-int
    products and is made once per process.
    """
    _BINOMIAL.check("pair_plain_sum", 2, n)

    def make():
        B = terms(BALANCING, "u", n)
        return (0, 0), BALANCING, lambda k: B[k - 1]

    return grow("S_2", n, make)[n]


def pair_telescope_sum(n: int) -> int:
    """sum_{j=1}^{n} (B_j B_{n-j+1} - B_{j-1} B_{n-j}); total, empty sum is 0.

    With B_0 = 0 the two sums are S_2(n+1) and S_2(n-1), the second read with i = j - 1;
    both come from the one S_2 list (:func:`pair_plain_sum`).
    """
    _BINOMIAL.check("pair_telescope_sum", 2, n)
    return pair_plain_sum(n + 1) - pair_plain_sum(n - 1) if n else 0


# ---------------------------------------------------------------------------
# Oracles (binomial-weighted convolutions)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binom_fold(params: SeqParams, r: int) -> tuple[int, ...]:
    """The fold recurrence's weights (w_1, ..., w_{r+1}), with
    det(x - M) = x^{r+1} - sum_{i=1}^{r+1} w_i x^{r+1-i}, memoized per (params, r).

    M is the matrix of D = d/dx on E^{r-i} F^i (i = 0..r), F = E', which
    E'' = a E' + b E makes tridiagonal: D(E^{r-i} F^i) = (r-i) E^{r-i-1} F^{i+1}
    + i a E^{r-i} F^i + i b E^{r-i+1} F^{i-1}.  Its characteristic polynomial
    is the continuant p_{i+1} = (x - i a) p_i - (r-i+1) i b p_{i-1}, p_0 = 1,
    p_1 = x, kept as integer coefficient lists, highest degree first.  The
    weights depend on a, b and r alone, so the u and v folds share them as they share M's steps.
    """
    a, b = params.a, params.b
    before, p = [1], [1, 0]
    for i in range(1, r + 1):
        c = (r - i + 1) * i * b
        shifted = zip([*p, 0], [0, *p], [0, 0, *before])  # x p_i, p_i, p_{i-1} aligned
        before, p = p, [s - i * a * t - c * q for s, t, q in shifted]
    return tuple(-w for w in p[1:])


def _binom_conv(name: str, params: SeqParams, which: str, r: int, n: int) -> int:
    """h_n of the r-fold binomial convolution h_m = m! [x^m] E_w^r, E_w the EGF of w = u or v.

    h is the store's ("fold", params, which, r) list, read from the one M of
    :func:`_binom_fold`, d/dx on E^{r-i} F^i (E the EGF of u, F = E').  E_w = w_0 F + (w_1 -
    a w_0) E has E_w^r = sum_i C(r, i) w_0^i (w_1 - a w_0)^{r-i} E^{r-i} F^i, and a step of M
    maps coordinates c to c'_j = (r-j+1) c_{j-1} + j a c_j + (j+1) b c_{j+1}; as E(0) = 0 and
    F(0) = 1, h_m is the last coordinate after m steps.  The record (:func:`sequences.grow`)
    seeds h_0..h_top, top = min(n, r), whole each time the list grows inside it, from the band
    r - top .. r, which loses its lowest coordinate each step.  Past index r, det(D - M) E_w^r
    = 0 gives h_m = sum_{i=1}^{r+1} w_i h_{m-i} with the :func:`_binom_fold` weights, fetched
    only when n > r.  u and v differ only in (w_0, w_1) (:func:`initial_terms`), and no fold
    reads a term list, r = 1 included; a large r with a small n holds top + 1 values.
    """
    _BINOMIAL.check(name, r, n)

    def make():
        (a, b), (w0, w1), top = params, initial_terms(params, which), min(n, r)
        c = [comb(r, i) * w0**i * (w1 - a * w0) ** (r - i) for i in range(r - top, r + 1)]
        h = [c[-1]]
        for lo in range(r - top + 1, r + 1):  # the band lo..r after one more step
            c = [(r - j + 1) * x + j * a * y + (j + 1) * b * z
                 for j, x, y, z in zip(range(lo, r + 1), c, c[1:], [*c[2:], 0])]
            h.append(c[-1])
        return h, _binom_fold(params, r) if n > r else (), None

    return grow(("fold", params, which, r), n, make)[n]


def binom_conv_u(params: SeqParams, r: int, n: int) -> int:
    """Multinomial-weighted sum of u_{k_1}...u_{k_r} over parts summing to n.

    Parts range over >= 1; since u_0 = 0, the unrestricted binomial fold
    already agrees with that convention.
    """
    return _binom_conv("binom_conv_u", params, "u", r, n)


def binom_conv_v(params: SeqParams, r: int, n: int) -> int:
    """Multinomial-weighted sum of v_{k_1}...v_{k_r}, parts ranging over >= 0."""
    return _binom_conv("binom_conv_v", params, "v", r, n)


def binom_conv_c(r: int, n: int) -> int:
    """Multinomial-weighted sum of C_{k_1}...C_{k_r} (Lucas-balancing), parts >= 0.

    C_k = v_k / 2 at (6, -1), so this is the v-fold there divided exactly by 2^r.
    """
    return exact_div(_binom_conv("binom_conv_c", BALANCING, "v", r, n), 2**r)


# ---------------------------------------------------------------------------
# Closed forms (alternating family)
# ---------------------------------------------------------------------------


def rhs_general_alt(r: int, n: int) -> int:
    """Closed form matching :func:`alt_weighted_conv`, valid for n >= 3r-5:

        sum_{k=1}^{r-1} (-1)^{k-1} (n-2k-r+3)/(r-1)
                        * C(n-2k+1, r-k-1) * C(n-k-2r+3, k-1) * B_{n-2k-r+3}

    The sum is divided by r-1 with :func:`exact_div`.
    """
    _ALTERNATING.check("rhs_general_alt", r, n)
    total = 0
    for k in range(1, r):
        term = (
            (n - 2 * k - r + 3)
            * binom(n - 2 * k + 1, r - k - 1)
            * binom(n - k - 2 * r + 3, k - 1)
            * balancing(n - 2 * k - r + 3)
        )
        total += term if k % 2 else -term
    return exact_div(total, r - 1)


def rhs_triple_alt(n: int) -> int:
    """Three-fold alternating closed form C(n-1,2) B_{n-2} - C(n-4,2) B_{n-4}, n >= 4."""
    _ALTERNATING.check("rhs_triple_alt", 3, n)
    return binom(n - 1, 2) * balancing(n - 2) - binom(n - 4, 2) * balancing(n - 4)


def rhs_printed_corollary(r: int, n: int) -> int:
    """Hand-expanded corollary forms for r = 4, 5, 6, n >= 3r-5, kept exactly as transcribed.

    Each form is evaluated multiplied through by the lcm of its printed
    denominators (3 for r = 4, 8 for r = 5, 60 = lcm(30, 20) for r = 6) and
    divided back exactly once at the end.  The r = 5 form repeats B_{n-6} in
    its third term where the general formula indexes B_{n-8}; it is kept
    verbatim so the divergence can be detected, not silently repaired.
    """
    if r not in (4, 5, 6):
        raise ValueError(f"rhs_printed_corollary: transcribed forms exist for r in (4, 5, 6), got {r}")
    _ALTERNATING.check("rhs_printed_corollary", r, n)
    B = balancing
    if r == 4:
        scale = 3
        total = 3 * binom(n - 1, 3) * B(n - 3)
        total -= (n - 3) * (n - 5) * (n - 7) * B(n - 5)
        total += 3 * binom(n - 7, 3) * B(n - 7)
    elif r == 5:
        scale = 8
        total = 8 * binom(n - 1, 4) * B(n - 4)
        total -= (n - 3) * (n - 4) * (n - 6) * (n - 9) * B(n - 6)
        # transcribed verbatim: B(n - 6) again, where the general form has B(n - 8)
        total += (n - 5) * (n - 8) * (n - 10) * (n - 11) * B(n - 6)
        total -= 8 * binom(n - 10, 4) * B(n - 10)
    else:
        scale = 60
        total = 60 * binom(n - 1, 5) * B(n - 5)
        total -= 2 * (n - 3) * (n - 4) * (n - 5) * (n - 7) * (n - 11) * B(n - 7)
        total += 3 * (n - 5) * (n - 6) * (n - 9) * (n - 12) * (n - 13) * B(n - 9)
        total -= 2 * (n - 7) * (n - 11) * (n - 13) * (n - 14) * (n - 15) * B(n - 11)
        total += 60 * binom(n - 13, 5) * B(n - 13)
    return exact_div(total, scale)


# ---------------------------------------------------------------------------
# Closed forms (plain convolution family)
# ---------------------------------------------------------------------------


def rhs_pair_telescope(n: int) -> int:
    """n B_n, the closed form of :func:`pair_telescope_sum`, valid for n >= 1."""
    _TELESCOPE.check("rhs_pair_telescope", 2, n)
    return n * balancing(n)


def rhs_pair_plain(n: int) -> int:
    """sum_{m=0}^{floor((n-1)/2)} (n-2m-1) B_{n-2m-1}, valid for n >= 2.

    This is T(n), where T(k) sums j B_j over 0 <= j <= k-1 with j = k-1 (mod 2);
    so T(k) = T(k-2) + (k-1) B_{k-1}, with T(0) = T(1) = 0: the record (:func:`sequences.grow`)
    of the store's "T" list, forcing k -> (k-1) B_{k-1} read from the B list, so each value
    costs one big-int product and is made once per process.  It reads B alone,
    never the S_2 list of the pair oracles, so the two routes stay independent.
    """
    _PLAIN.check("rhs_pair_plain", 2, n)

    def make():
        B = terms(BALANCING, "u", n)
        return (0, 0), (0, 1), lambda k: (k - 1) * B[k - 1]

    return grow("T", n, make)[n]


def rhs_general_plain(r: int, n: int) -> int:
    """Closed form matching conv_power for n >= r >= 2:

        sum_{m=0}^{floor((n-r+1)/2)} C(n-m-1, r-2) C(m+r-2, r-2)
                                     * (n-2m-r+1)/(r-1) * B_{n-2m-r+1}
    """
    _PLAIN.check("rhs_general_plain", r, n)
    B = terms(BALANCING, "u", n)
    total = sum(
        binom(n - m - 1, r - 2)
        * binom(m + r - 2, r - 2)
        * (n - 2 * m - r + 1)
        * B[n - 2 * m - r + 1]
        for m in range((n - r + 1) // 2 + 1)
    )
    return exact_div(total, r - 1)


# ---------------------------------------------------------------------------
# Closed forms (binomial-convolution family)
# ---------------------------------------------------------------------------


def _binomial_lucas(params: SeqParams, which: str, p: int, q: int, n: int) -> int:
    # By Binet, sum_k C(n,k) p^{n-k} q^k w_k (0 <= k <= n) is q U_n(P, Q) for w = u and
    # V_n(P, Q) for w = v, P = 2p + qa, Q = p^2 + pqa - q^2 b; discriminant q^2 (a^2 + 4b)
    a, b = params.a, params.b
    value = terms(SeqParams(2 * p + q * a, q * q * b - p * p - p * q * a), which, n)[n]
    return q * value if which == "u" else value


def _multinom_sum(params: SeqParams, which: str, sign: int, r: int, n: int) -> int:
    # sum_{j < r/2} sign^j C(r,j) W_j, plus sign^{r/2} C(r, r/2) (ar/2)^n for even r: the j-sum
    # of both general-u/v closed forms.  W_j is _binomial_lucas at p = aj, q = r - 2j >= 1, a
    # term of x^2 - ar x + a^2 j(r-j) - (r-2j)^2 b.  C(r, j) is carried along the row by
    # C(r, j+1) = C(r, j) (r-j) / (j+1), exact, so a large r costs no binomial from scratch.
    # No helper is named rhs_*: the tracer times every rhs_* name here as a closed form, so
    # one would be counted twice.
    a, half = params.a, r // 2
    total, c = 0, 1
    for j in range((r + 1) // 2):
        total += sign**j * c * _binomial_lucas(params, which, a * j, r - 2 * j, n)
        c = c * (r - j) // (j + 1)
    if r % 2 == 0:
        total += sign**half * c * (a * half) ** n  # c = C(r, r/2) after the loop
    return total


def rhs_multinom_u(params: SeqParams, r: int, n: int) -> int:
    """Closed form for :func:`binom_conv_u`, split on the parity of r.

    Odd r:   sum_j (-1)^j C(r,j) sum_k C(n,k) (aj)^{n-k} (r-2j)^k u_k,
             j = 0 .. (r-1)/2, all divided by D^{(r-1)/2} with D = a^2 + 4b.
    Even r:  the analogous v-weighted sum for j = 0 .. r/2 - 1, plus
             (-1)^{r/2} C(r, r/2) (ar/2)^n, divided by D^{r/2}.

    Each inner k-sum is read as (r-2j) U_n or V_n from the sequence table of
    the pair x^2 - ar x + a^2 j(r-j) - (r-2j)^2 b, not summed term by term.
    The division is asserted exact; r = 1 degenerates to u_n itself.
    """
    _BINOMIAL.check("rhs_multinom_u", r, n)
    total = _multinom_sum(params, "u" if r % 2 else "v", -1, r, n)
    return exact_div(total, params.discriminant ** (r // 2))


def rhs_multinom_v(params: SeqParams, r: int, n: int) -> int:
    """Closed form for :func:`binom_conv_v`: the u-version without signs or
    discriminant prefactor, always weighted by v-terms."""
    _BINOMIAL.check("rhs_multinom_v", r, n)
    return _multinom_sum(params, "v", 1, r, n)


def rhs_binom_pair_b(n: int) -> int:
    """(2^n C_n - 6^n) / 16."""
    _BINOMIAL.check("rhs_binom_pair_b", 2, n)
    return exact_div(2**n * lucas_balancing(n) - 6**n, 16)


def rhs_binom_pair_c(n: int) -> int:
    """(2^n C_n + 6^n) / 2."""
    _BINOMIAL.check("rhs_binom_pair_c", 2, n)
    return exact_div(2**n * lucas_balancing(n) + 6**n, 2)


def rhs_multinom_triple_b(n: int) -> int:
    """(3^n B_n - 3 sum_k C(n,k) 6^{n-k} B_k) / 32."""
    _BINOMIAL.check("rhs_multinom_triple_b", 3, n)
    mixed = _binomial_lucas(BALANCING, "u", 6, 1, n)
    return exact_div(3**n * balancing(n) - 3 * mixed, 32)


def rhs_multinom_triple_c(n: int) -> int:
    """(3^n C_n + 3 sum_k C(n,k) 6^{n-k} C_k) / 4."""
    _BINOMIAL.check("rhs_multinom_triple_c", 3, n)
    # sum_k C(n,k) 6^{n-k} C_k is the v-weighted sum halved, since C_k = v_k / 2
    mixed = exact_div(_binomial_lucas(BALANCING, "v", 6, 1, n), 2)
    return exact_div(3**n * lucas_balancing(n) + 3 * mixed, 4)


def rhs_fib_pair_f(n: int) -> int:
    """(2^n L_n - 2) / 5."""
    _BINOMIAL.check("rhs_fib_pair_f", 2, n)
    return exact_div(2**n * lucas(n) - 2, 5)


def rhs_fib_pair_l(n: int) -> int:
    """2^n L_n + 2."""
    _BINOMIAL.check("rhs_fib_pair_l", 2, n)
    return 2**n * lucas(n) + 2


# ---------------------------------------------------------------------------
# Catalog and verification engine
# ---------------------------------------------------------------------------


Side = Callable[[SeqParams, int, int], int]


def _of_n(fn: Callable[[int], int]) -> Side:
    """Catalog side f(params, r, n) that calls ``fn(n)``, named as ``fn`` is."""
    return wraps(fn)(lambda params, r, n: fn(n))


def _of_r_n(fn: Callable[[int, int], int]) -> Side:
    """Catalog side f(params, r, n) that calls ``fn(r, n)``, named as ``fn`` is."""
    return wraps(fn)(lambda params, r, n: fn(r, n))


@dataclass(frozen=True)
class IdentityInfo:
    """Catalog entry: fixed arguments, validity domain, and both evaluators.

    ``params``/``r`` are None when the caller chooses them; a chosen r must
    be at least ``domain.min_r``, and ``domain.n_min`` maps the resolved r to
    the smallest valid n: the same :class:`Domain` record that the row's closed
    form checks.  ``lhs`` is the brute-force oracle and ``rhs`` the closed form,
    both called as f(params, r, n) and bound to the function objects
    themselves.  The package's one dataclass: every other record is a tuple,
    but perfbench/tracer.py rebuilds CATALOG with ``dataclasses.replace``,
    wrapping each row's sides as it goes.
    """

    params: SeqParams | None
    r: int | None
    domain: Domain
    lhs: Side
    rhs: Side


_ALTERNATING_LHS = _of_r_n(alt_weighted_conv)
_PRINTED_RHS = _of_r_n(rhs_printed_corollary)
_BINOM_C_LHS = _of_r_n(binom_conv_c)

#: Each identity under its CLI name, in the order ``--identity`` lists them.
#: Rows are IdentityInfo(params, r, domain, lhs, rhs).
CATALOG: dict[str, IdentityInfo] = {
    "pair-telescope": IdentityInfo(
        BALANCING, 2, _TELESCOPE, _of_n(pair_telescope_sum), _of_n(rhs_pair_telescope)
    ),
    "triple-alt": IdentityInfo(
        BALANCING, 3, _ALTERNATING, _ALTERNATING_LHS, _of_n(rhs_triple_alt)
    ),
    "general-alt": IdentityInfo(
        BALANCING, None, _ALTERNATING, _ALTERNATING_LHS, _of_r_n(rhs_general_alt)
    ),
    "cor-printed-r4": IdentityInfo(
        BALANCING, 4, _ALTERNATING, _ALTERNATING_LHS, _PRINTED_RHS
    ),
    "cor-printed-r5": IdentityInfo(
        BALANCING, 5, _ALTERNATING, _ALTERNATING_LHS, _PRINTED_RHS
    ),
    "cor-printed-r6": IdentityInfo(
        BALANCING, 6, _ALTERNATING, _ALTERNATING_LHS, _PRINTED_RHS
    ),
    "pair-plain": IdentityInfo(
        BALANCING, 2, _PLAIN, _of_n(pair_plain_sum), _of_n(rhs_pair_plain)
    ),
    "general-plain": IdentityInfo(
        BALANCING, None, _PLAIN, conv_power, _of_r_n(rhs_general_plain)
    ),
    "binom-pair-b": IdentityInfo(
        BALANCING, 2, _BINOMIAL, binom_conv_u, _of_n(rhs_binom_pair_b)
    ),
    "binom-pair-c": IdentityInfo(
        BALANCING, 2, _BINOMIAL, _BINOM_C_LHS, _of_n(rhs_binom_pair_c)
    ),
    "multinom-triple-b": IdentityInfo(
        BALANCING, 3, _BINOMIAL, binom_conv_u, _of_n(rhs_multinom_triple_b)
    ),
    "multinom-triple-c": IdentityInfo(
        BALANCING, 3, _BINOMIAL, _BINOM_C_LHS, _of_n(rhs_multinom_triple_c)
    ),
    "general-u": IdentityInfo(
        None, None, _BINOMIAL, binom_conv_u, rhs_multinom_u
    ),
    "general-v": IdentityInfo(
        None, None, _BINOMIAL, binom_conv_v, rhs_multinom_v
    ),
    "fib-pair-f": IdentityInfo(
        FIBONACCI, 2, _BINOMIAL, binom_conv_u, _of_n(rhs_fib_pair_f)
    ),
    "fib-pair-l": IdentityInfo(
        FIBONACCI, 2, _BINOMIAL, binom_conv_v, _of_n(rhs_fib_pair_l)
    ),
}


def _info(identity: str) -> IdentityInfo:
    """The catalog row of ``identity``; a name the catalog lacks is a ValueError."""
    try:
        return CATALOG[identity]
    except KeyError:
        raise ValueError(f"unknown identity {identity!r}") from None


def resolve_identity_args(
    identity: str,
    params: SeqParams | None = None,
    r: int | None = None,
) -> tuple[SeqParams, int]:
    """Fill in defaults and reject arguments an identity does not admit."""
    info = _info(identity)
    if info.params is not None:
        if params is not None and params != info.params:
            raise ValueError(
                f"{identity} is defined only for (a, b) = "
                f"({info.params.a}, {info.params.b})"
            )
        params = info.params
    elif params is None:
        params = BALANCING
    if info.r is not None:
        if r is not None and r != info.r:
            raise ValueError(f"{identity} has fixed r = {info.r}, got {r}")
        r = info.r
    else:
        if r is None:
            raise ValueError(f"{identity} requires r")
        if r < info.domain.min_r:
            raise ValueError(f"{identity} requires r >= {info.domain.min_r}, got {r}")
    return params, r


class NotInteger(NamedTuple):
    """A side whose exact division left a remainder at n: it is no integer, so never a match."""

    divisor: int
    remainder: int

    def __str__(self) -> str:
        return f"not an integer (division by {self.divisor} leaves a remainder of {self.remainder})"


def is_mismatch(lhs: int | NotInteger, rhs: int | NotInteger) -> bool:
    """verify's and table's rule: the sides differ, or one is :class:`NotInteger`."""
    return lhs != rhs or isinstance(lhs, NotInteger)


class Failure(NamedTuple):
    """One exact mismatch witness."""

    n: int
    lhs: int | NotInteger
    rhs: int | NotInteger


class VerificationReport(NamedTuple):
    """Outcome of sweeping one identity over a range of n."""

    identity: str
    params: SeqParams
    r: int
    n_range: tuple[int, int]
    checked: int
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def clamp_to_domain(identity: str, r: int, lo: int | None, hi: int) -> tuple[int, int]:
    """The part of [lo, hi] inside the identity's domain n >= n_min(r).

    ``lo`` None starts at the domain minimum.  An empty range, or one that
    lies wholly below the domain, is an error.
    """
    n_min = _info(identity).domain.n_min(r)
    if lo is not None and lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi < n_min:
        if lo is None:
            asked = f"n <= {hi}"
        else:
            asked = f"n = {hi}" if lo == hi else f"range [{lo}, {hi}]"
        raise ValueError(f"{asked} lies below the domain of {identity}: n >= {n_min}")
    return (n_min if lo is None else max(lo, n_min)), hi


def evaluate_range(
    identity: str, params: SeqParams, r: int, lo: int, hi: int
) -> Iterator[tuple[int, int | NotInteger, int | NotInteger]]:
    """Yield (n, oracle value, closed-form value) for n = lo..hi, in that order; none if lo > hi.

    A side whose exact division leaves a remainder at n yields :class:`NotInteger`
    there, and the sweep goes on.  The row at hi is computed first, so each table
    the rows read grows once, to the top of the range, and every lower row reads
    it as it is.
    """
    if lo > hi:
        return
    info = _info(identity)

    def value(side: Side, n: int) -> int | NotInteger:
        try:
            return side(params, r, n)
        except IntegralityError as exc:
            return NotInteger(exc.divisor, exc.remainder)

    top = hi, value(info.lhs, hi), value(info.rhs, hi)
    for n in range(lo, hi):
        yield n, value(info.lhs, n), value(info.rhs, n)
    yield top


def verify_identity(
    identity: str,
    n_range: tuple[int | None, int],
    params: SeqParams | None = None,
    r: int | None = None,
) -> VerificationReport:
    """Evaluate oracle and closed form for every n in range; record each :func:`is_mismatch`.

    The range is clamped by :func:`clamp_to_domain` (a lower end of None starts at the domain
    minimum).  Every failure witness re-evaluates to the recorded values: both sides are pure.
    """
    params, r = resolve_identity_args(identity, params, r)
    lo, hi = clamp_to_domain(identity, r, *n_range)
    failures = tuple(
        Failure(n, lhs, rhs)
        for n, lhs, rhs in evaluate_range(identity, params, r, lo, hi)
        if is_mismatch(lhs, rhs)
    )
    return VerificationReport(identity, params, r, (lo, hi), hi - lo + 1, failures)


def to_json(value: object) -> object:
    """The JSON form of every machine output: each int but a bool as its decimal string (values
    outgrow 64 bits), each NamedTuple (:class:`SeqParams`, :class:`Failure`,
    :class:`NotInteger`) as the dict of its fields, dicts, lists and tuples item by item; str,
    bool and None stay as they are.  The caller lifts the int/str digit limit."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value


def _value_from_json(data: str | dict) -> int | NotInteger:
    return int(data) if isinstance(data, str) else NotInteger(int(data["divisor"]), int(data["remainder"]))


@unlimited_int_digits()
def report_to_dict(report: VerificationReport) -> dict:
    """Serialize by :func:`to_json`, with ``n_range`` under the key ``range``."""
    return to_json({
        "identity": report.identity,
        "params": report.params,
        "r": report.r,
        "range": report.n_range,
        "checked": report.checked,
        "failures": report.failures,
    })


@unlimited_int_digits()
def report_from_dict(data: dict) -> VerificationReport:
    """Inverse of :func:`report_to_dict`; an identity the catalog lacks is a ValueError."""
    _info(data["identity"])
    return VerificationReport(
        identity=data["identity"],
        params=SeqParams(int(data["params"]["a"]), int(data["params"]["b"])),
        r=int(data["r"]),
        n_range=(int(data["range"][0]), int(data["range"][1])),
        checked=int(data["checked"]),
        failures=tuple(
            Failure(int(f["n"]), _value_from_json(f["lhs"]), _value_from_json(f["rhs"])) for f in data["failures"]
        ),
    )
