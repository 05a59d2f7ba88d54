"""Second-order linear recurrence pairs and their named specializations.

A parameter pair (a, b) defines two companion sequences sharing the
recurrence w_n = a*w_{n-1} + b*w_{n-2}:

    u: u_0 = 0, u_1 = 1        (balancing numbers at (6, -1), Fibonacci at (1, 1))
    v: v_0 = 2, v_1 = a        (Lucas numbers at (1, 1))

Lucas-balancing numbers are v_n / 2 at (6, -1); the halving is always exact.
Values are memoized in one grow-only list per (parameter pair, u or v).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .combinatorics import exact_div

__all__ = [
    "BALANCING",
    "FIBONACCI",
    "SeqParams",
    "balancing",
    "check_cross_recurrence",
    "fibonacci",
    "lucas",
    "lucas_balancing",
    "terms",
    "u",
    "v",
]


@dataclass(frozen=True)
class SeqParams:
    """Recurrence coefficients (a, b); the discriminant a^2 + 4b must be nonzero.

    A zero discriminant means a repeated characteristic root, for which the
    closed forms evaluated elsewhere in this package are not valid.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.discriminant == 0:
            raise ValueError(f"SeqParams({self.a}, {self.b}): discriminant a^2 + 4b is zero")

    @property
    def discriminant(self) -> int:
        return self.a * self.a + 4 * self.b


BALANCING = SeqParams(6, -1)
FIBONACCI = SeqParams(1, 1)


#: (params, "u" | "v") -> that sequence's grow-only list of terms.  Lists are
#: created and extended only under _lock and only ever appended to, so an entry,
#: once there, never changes and may be read without the lock.
_tables: dict[tuple[SeqParams, str], list[int]] = {}
_lock = threading.Lock()


def u(params: SeqParams, n: int) -> int:
    """n-th u-term: u_0 = 0, u_1 = 1, u_n = a*u_{n-1} + b*u_{n-2}."""
    if n < 0:
        raise ValueError(f"u: index must be nonnegative, got {n}")
    return terms(params, "u", n)[n]


def v(params: SeqParams, n: int) -> int:
    """n-th v-term: v_0 = 2, v_1 = a, same recurrence as u."""
    if n < 0:
        raise ValueError(f"v: index must be nonnegative, got {n}")
    return terms(params, "v", n)[n]


def terms(params: SeqParams, which: str, n: int) -> list[int]:
    """The live grow-only list of ``which`` ("u" or "v") terms, grown to hold index n.

    Later calls extend this same list in place; callers must only read it.
    """
    values = _tables.get((params, which))
    if values is None or n >= len(values):
        a, b = params.a, params.b
        with _lock:
            values = _tables.setdefault((params, which), {"u": [0, 1], "v": [2, a]}[which])
            while len(values) <= n:
                values.append(a * values[-1] + b * values[-2])
    return values


def balancing(n: int) -> int:
    """n-th balancing number B_n: 0, 1, 6, 35, 204, ..."""
    return u(BALANCING, n)


def lucas_balancing(n: int) -> int:
    """n-th Lucas-balancing number C_n = v_n / 2 at (6, -1): 1, 3, 17, 99, ...

    v_n is even for every n (both initial values are, and the recurrence
    preserves parity here), so the division is exact.
    """
    return exact_div(v(BALANCING, n), 2)


def fibonacci(n: int) -> int:
    """n-th Fibonacci number F_n."""
    return u(FIBONACCI, n)


def lucas(n: int) -> int:
    """n-th Lucas number L_n: 2, 1, 3, 4, 7, ..."""
    return v(FIBONACCI, n)


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
