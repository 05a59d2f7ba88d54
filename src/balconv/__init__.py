"""Exact-arithmetic toolkit for convolution identities of balancing-type sequences.

Generates balancing, Lucas-balancing, Fibonacci, Lucas, and general
second-order (u, v) pairs; evaluates plain, alternating, and
binomial-weighted convolutions both by brute force and in closed form; and
verifies every catalogued identity bit-exactly over finite ranges; the
paper's power-expansion lemma behind the closed forms is checked as an
identity between exact integer polynomials.

The names below are the documented surface; everything else is importable
from its submodule.
"""

from __future__ import annotations

from .identities import (
    CATALOG,
    Failure,
    VerificationReport,
    binom_conv_u,
    conv_power,
    report_from_dict,
    report_to_dict,
    rhs_general_plain,
    rhs_multinom_u,
    verify_identity,
)
from .sequences import BALANCING, FIBONACCI, SeqParams, balancing, lucas_balancing
from .series import verify_ogf_square_relation

__version__ = "0.1.0"

__all__ = [
    "BALANCING",
    "CATALOG",
    "FIBONACCI",
    "Failure",
    "SeqParams",
    "VerificationReport",
    "balancing",
    "binom_conv_u",
    "conv_power",
    "lucas_balancing",
    "report_from_dict",
    "report_to_dict",
    "rhs_general_plain",
    "rhs_multinom_u",
    "verify_identity",
    "verify_ogf_square_relation",
]
