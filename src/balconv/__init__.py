"""Exact-arithmetic toolkit for convolution identities of balancing-type sequences.

Generates balancing, Lucas-balancing, Fibonacci, Lucas, and general
second-order (u, v) pairs; evaluates plain, alternating, and
binomial-weighted convolutions both by brute force and in closed form; and
verifies every catalogued identity bit-exactly over finite ranges, backed by
a truncated formal-power-series engine over exact rationals.
"""

from __future__ import annotations

from . import combinatorics, identities, sequences, series
from .combinatorics import *  # noqa: F403
from .identities import *  # noqa: F403
from .sequences import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*combinatorics.__all__, *identities.__all__, *sequences.__all__, *series.__all__]
