"""Second-order linear recurrence pairs and their named specializations.

A parameter pair (a, b) defines two companion sequences sharing the
recurrence w_n = a*w_{n-1} + b*w_{n-2}:

    u: u_0 = 0, u_1 = 1        (balancing numbers at (6, -1), Fibonacci at (1, 1))
    v: v_0 = 2, v_1 = a        (Lucas numbers at (1, 1))

Lucas-balancing numbers are v_n / 2 at (6, -1); the halving is always exact.
Every table of the package, these terms and the lists of :mod:`.identities`,
is one grow-only list in the store below, grown only by :func:`grow`.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from typing import Callable, Hashable, Iterable

from .combinatorics import exact_div

__all__ = [
    "BALANCING",
    "FIBONACCI",
    "SeqParams",
    "balancing",
    "grow",
    "held",
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


def held(key: Hashable, n: int) -> list[int] | None:
    """The live list under ``key`` if it holds index n, else None: one lookup and a
    length check, so callers build a seed and a step only when the list must grow."""
    values = _tables.get(key)
    return values if values is not None and len(values) > n else None


def grow(key: Hashable, seed: Iterable[int], n: int, step: Callable[[list, int], int]) -> list[int]:
    """The live list under ``key``, grown to hold index n: under the store's lock, a
    missing list starts as ``seed``, then ``step(values, m)`` is appended for each
    missing index m in order.  The lock is not reentrant, so ``step`` must not call
    grow(): a table it reads is fetched before.  Callers only read the list."""
    with _lock:
        values = _tables.setdefault(key, list(seed))
        for m in range(len(values), n + 1):
            values.append(step(values, m))
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


def terms(params: SeqParams, which: str, n: int) -> list[int]:
    """The store's list of ``which`` ("u" or "v") terms, grown to hold index n (:func:`grow`)."""
    values = held((params, which), n)
    if values is None:
        a, b = params.a, params.b
        seed = (0, 1) if which == "u" else (2, a)
        values = grow((params, which), seed, n, lambda w, m: a * w[m - 1] + b * w[m - 2])
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


def lucas(n: int) -> int:
    """n-th Lucas number L_n: 2, 1, 3, 4, 7, ..."""
    return v(FIBONACCI, n)
