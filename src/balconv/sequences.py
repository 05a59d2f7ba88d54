"""Second-order linear recurrence pairs and their named specializations.

A parameter pair (a, b) defines two companion sequences sharing the
recurrence w_n = a*w_{n-1} + b*w_{n-2}:

    u: u_0 = 0, u_1 = 1        (balancing numbers at (6, -1), Fibonacci at (1, 1))
    v: v_0 = 2, v_1 = a        (Lucas numbers at (1, 1))

Lucas-balancing numbers are v_n / 2 at (6, -1); the halving is always exact.
Every table of the package, these terms and the lists of :mod:`.identities`, is one grow-only
list in the store below, grown only by :func:`grow` from the recurrence it declares as data.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from operator import mul
from typing import Callable, Hashable

from .combinatorics import exact_div

__all__ = [
    "BALANCING",
    "FIBONACCI",
    "SeqParams",
    "balancing",
    "grow",
    "initial_terms",
    "lucas",
    "lucas_balancing",
    "terms",
    "u",
    "v",
]


class SeqParams(namedtuple("SeqParams", "a b")):
    """Recurrence coefficients (a, b); the discriminant a^2 + 4b must be nonzero.

    A zero discriminant means a repeated characteristic root, for which the
    closed forms evaluated elsewhere in this package are not valid.  A tuple,
    so the equality and hashing of every store key that holds one run in C.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> SeqParams:
        params = super().__new__(cls, a, b)
        if params.discriminant == 0:
            raise ValueError(f"SeqParams({a}, {b}): discriminant a^2 + 4b is zero")
        return params

    @property
    def discriminant(self) -> int:
        return self.a * self.a + 4 * self.b


BALANCING = SeqParams(6, -1)
FIBONACCI = SeqParams(1, 1)


#: The table store: key -> grow-only list.  Lists are created and extended only by
#: grow(), under _lock, and only ever appended to, so an entry, once there, never
#: changes and may be read without the lock.  identities.clear_caches() empties it.
_tables: dict[Hashable, list[int]] = {}
_lock = threading.Lock()


def grow(key: Hashable, n: int, make: Callable[[], tuple]) -> list[int]:
    """The live list under ``key``, grown to hold index n; callers only read it.  A list that
    holds n is returned as it is.  Otherwise ``make()``, run outside the lock so it may grow a
    table it reads, returns the table's record ``(seed, weights, forcing)``.  Under the lock the
    list takes the seed entries it lacks; each later missing m, in order, gets the one rule
    sum_{1 <= i <= m} weights[i-1] values[m-i], plus ``forcing(m)`` unless forcing is None.
    The lock is not reentrant: forcing reads make's lists."""
    values = _tables.get(key)
    if values is not None and len(values) > n:
        return values
    seed, weights, forcing = make()
    with _lock:
        values = _tables.setdefault(key, [])
        values += seed[len(values):]
        for m in range(len(values), n + 1):
            value = sum(map(mul, weights, reversed(values)))
            values.append(value if forcing is None else value + forcing(m))
    return values


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


def initial_terms(params: SeqParams, which: str) -> tuple[int, int]:
    """(w_0, w_1) of the ``which`` ("u" or "v") sequence: (0, 1) or (2, a)."""
    return (0, 1) if which == "u" else (2, params.a)


def terms(params: SeqParams, which: str, n: int) -> list[int]:
    """The store's ``which`` list to index n: record (:func:`initial_terms`, (a, b), None)."""
    return grow((params, which), n, lambda: (initial_terms(params, which), params, None))


def balancing(n: int) -> int:
    """n-th balancing number B_n: 0, 1, 6, 35, 204, ..."""
    return u(BALANCING, n)


def lucas_balancing(n: int) -> int:
    """n-th Lucas-balancing number C_n = v_n / 2 at (6, -1): 1, 3, 17, 99, ...

    v_n is even for every n (both initial values are, and the recurrence
    preserves parity here), so the division is exact.
    """
    return exact_div(v(BALANCING, n), 2)


def lucas(n: int) -> int:
    """n-th Lucas number L_n: 2, 1, 3, 4, 7, ..."""
    return v(FIBONACCI, n)
