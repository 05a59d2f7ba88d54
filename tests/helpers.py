"""Reference data and functions that only the tests use.

``PARAM_GRID`` holds the parameter pairs of the family-wide sweeps;
``multinomial`` weighs the compositions in the binomial-convolution
enumeration; ``check_cross_recurrence`` ties the balancing and
Lucas-balancing tables together; ``pair_plain_by_terms`` is the pair-plain
closed form summed term by term.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from balconv.sequences import BALANCING, FIBONACCI, SeqParams, balancing, lucas_balancing

#: Parameter pairs used for family-wide sweeps: covers odd/even discriminant,
#: both signs of b, and both named specializations.
PARAM_GRID: tuple[SeqParams, ...] = (
    BALANCING,
    FIBONACCI,
    SeqParams(2, 1),
    SeqParams(1, 2),
    SeqParams(3, 2),
)


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


def check_cross_recurrence(n_max: int) -> bool:
    """True iff B_{n+1} = 3B_n + C_n and C_{n+1} = 8B_n + 3C_n for 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError(f"check_cross_recurrence: n_max must be nonnegative, got {n_max}")
    for n in range(n_max + 1):
        if balancing(n + 1) != 3 * balancing(n) + lucas_balancing(n):
            return False
        if lucas_balancing(n + 1) != 8 * balancing(n) + 3 * lucas_balancing(n):
            return False
    return True


def pair_plain_by_terms(n: int) -> int:
    """sum_{m=0}^{floor((n-1)/2)} (n-2m-1) B_{n-2m-1}, one balancing() call per term."""
    if n < 2:
        raise ValueError(f"pair_plain_by_terms: n must be >= 2, got {n}")
    return sum((n - 2 * m - 1) * balancing(n - 2 * m - 1) for m in range((n - 1) // 2 + 1))
