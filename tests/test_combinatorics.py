from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balconv.combinatorics import IntegralityError, binom, exact_div
from helpers import multinomial


def test_binom_examples():
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1
    assert binom(5, 2) == 10


def test_binom_vanishes_below_diagonal():
    for m in range(0, 8):
        for k in range(m + 1, 12):
            assert binom(m, k) == 0


def test_binom_negative_upper_argument():
    # falling-factorial extension: (-1)(-2).../k!
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(-3, 0) == 1


def test_binom_negative_k_rejected():
    with pytest.raises(ValueError):
        binom(5, -1)


@given(st.integers(-60, 60), st.integers(1, 40))
def test_binom_pascal_recurrence(m, k):
    assert binom(m, k) == binom(m - 1, k - 1) + binom(m - 1, k)


@given(st.integers(0, 80), st.integers(0, 80))
def test_binom_symmetry_on_classical_domain(n, k):
    if k <= n:
        assert binom(n, k) == binom(n, n - k)


def test_multinomial_examples():
    assert multinomial(3, [1, 1, 1]) == 6
    assert multinomial(2, [1, 1]) == 2
    assert multinomial(4, [2, 1, 1]) == 12


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])
    with pytest.raises(ValueError):
        multinomial(2, [3, -1])


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5))
def test_multinomial_matches_factorial_definition(parts):
    n = sum(parts)
    expected = factorial(n) // prod(factorial(p) for p in parts)
    assert multinomial(n, parts) == expected


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5))
def test_multinomial_is_product_of_successive_binomials(parts):
    n = sum(parts)
    acc, remaining = 1, n
    for p in parts:
        acc *= binom(remaining, p)
        remaining -= p
    assert multinomial(n, parts) == acc


@given(st.integers(), st.integers(), st.integers())
def test_int_ring_laws(a, b, c):
    # unbounded Python ints: associativity and distributivity never overflow
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-7, 1) == -7
    assert exact_div(-12, 4) == -3
    assert exact_div(12, -4) == -3
    assert exact_div(-12, -4) == 3
    assert exact_div(0, -3) == 0
    for num, den in ((1, 2), (-1, 2), (7, -3), (-7, -3)):
        with pytest.raises(IntegralityError):
            exact_div(num, den)


def test_binom_agrees_with_math_comb():
    for m in range(0, 30):
        for k in range(0, 30):
            assert binom(m, k) == comb(m, k) if k <= m else binom(m, k) == 0
