from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balconv.identities import clear_caches, conv_power, conv_power_by_enumeration, rhs_general_plain
from balconv.sequences import BALANCING, FIBONACCI, SeqParams, balancing, u
from balconv.series import (
    Series,
    geom_even_pow,
    ogf,
    verify_ogf_square_relation,
    verify_power_expansion,
)

coeff_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
series_st = st.lists(coeff_st, min_size=1, max_size=8).map(Series)
series2_st = st.lists(coeff_st, min_size=2, max_size=8).map(Series)
# Leading zeros raise the valuation; all-zero operands push it past the order.
shifted_series_st = st.builds(
    lambda zeros, cs: Series([0] * zeros + cs),
    st.integers(0, 3),
    st.one_of(
        st.lists(coeff_st, min_size=1, max_size=8),
        st.lists(st.just(Fraction(0)), min_size=1, max_size=4),
    ),
)


def test_construction_and_order():
    s = Series([1, 2, 3])
    assert s.order == 2
    assert s.coeffs == (1, 2, 3)
    padded = Series([1], order=3)
    assert padded.coeffs == (1, 0, 0, 0)
    truncated = Series([1, 2, 3, 4], order=1)
    assert truncated.coeffs == (1, 2)
    with pytest.raises(ValueError):
        Series([])
    with pytest.raises(ValueError):
        Series([1], order=-1)


def test_coefficient_bounds():
    s = Series([5, 7])
    assert s.coefficient(1) == 7
    with pytest.raises(ValueError):
        s.coefficient(2)
    with pytest.raises(ValueError):
        s.coefficient(-1)


def test_mul_example():
    x = Series([0, 1])
    # valuation-aware truncation: x's tail can only touch exponents >= 3
    assert (x * x).coeffs == (0, 0, 1)


def test_mul_truncation_rule():
    f = Series([1, 1])  # valuation 0: unknown tail touches x^2 already
    assert (f * f).coeffs == (1, 2)
    g = Series([0, 0, 1, 1])  # valuation 2, order 3
    assert (g * g).order == 5
    assert (g * g).coeffs == (0, 0, 0, 0, 1, 2)
    zero = Series([0, 0])
    assert (zero * Series([0, 1])).coeffs == (0, 0, 0)


def test_valuation():
    assert Series([0, 0, 5]).valuation() == 2
    assert Series([1]).valuation() == 0
    assert Series([0, 0]).valuation() == 2  # all-zero: one past the order


def test_derivative_example():
    assert Series([0, 1, 6, 35]).derivative().coeffs == (1, 12, 105)


def test_derivative_drops_order():
    s = Series([1, 1, 1, 1, 1])
    assert s.derivative(2).order == 2
    with pytest.raises(ValueError):
        s.derivative(5)


def test_shift_raises_order():
    s = Series([1, 2])
    assert s.shift(2).coeffs == (0, 0, 1, 2)
    assert s.shift(0) == s
    with pytest.raises(ValueError):
        s.shift(-1)


def test_pow():
    f = Series([1, 1, 0, 0])
    assert f.pow(0).coeffs == (1, 0, 0, 0)
    assert f.pow(2).coeffs == (1, 2, 1, 0)
    with pytest.raises(ValueError):
        f.pow(-1)


def test_geom_even_pow_examples():
    assert geom_even_pow(-1, 4).coeffs == (1, 0, 1, 0, 1)
    assert geom_even_pow(1, 4).coeffs == (1, 0, -1, 0, 0)
    assert geom_even_pow(2, 6).coeffs == (1, 0, -2, 0, 1, 0, 0)
    assert geom_even_pow(-2, 6).coeffs == (1, 0, 2, 0, 3, 0, 4)


def test_geom_even_pow_inverse_pairs():
    # (1-x^2)^m * (1-x^2)^-m == 1 on the common window
    for m in (1, 2, 3):
        prod = geom_even_pow(m, 20) * geom_even_pow(-m, 20)
        assert prod.agrees_with(Series([1], order=20))


def test_ogf_examples():
    assert ogf(BALANCING, 5).coeffs == (0, 1, 6, 35, 204, 1189)
    assert ogf(FIBONACCI, 4).coeffs == (0, 1, 1, 2, 3)
    assert ogf(BALANCING, 0).coeffs == (0,)


@pytest.mark.parametrize("params", [BALANCING, FIBONACCI, SeqParams(2, 1), SeqParams(1, 2)])
def test_ogf_coefficients_are_integral_sequence_values(params):
    f = ogf(params, 40)
    for n in range(41):
        c = f.coefficient(n)
        assert c.denominator == 1
        assert c.numerator == u(params, n)


def test_series_pow_matches_composition_enumeration():
    # two independent oracles for the plain convolution
    f = ogf(BALANCING, 12)
    for r in range(1, 5):
        fr = f.pow(r)
        for n in range(13):
            assert fr.coefficient(n) == conv_power_by_enumeration(BALANCING, r, n)


@given(shifted_series_st, shifted_series_st)
def test_mul_matches_literal_fraction_double_loop(f, g):
    def val(cs):
        return next((i for i, c in enumerate(cs) if c), len(cs))

    a, b = f.coeffs, g.coeffs
    m = min(len(a) - 1 + val(b), len(b) - 1 + val(a))
    expected = [Fraction(0)] * (m + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= m:
                expected[i + j] += ai * bj
    product = f * g
    assert product.coeffs == tuple(expected)
    assert all(type(c) is Fraction for c in product.coeffs)


@pytest.mark.parametrize("r", range(2, 7))
def test_conv_power_matches_closed_form_across_table_blocks(r):
    # n straddles the 64-coefficient blocks the OGF power lists are kept in; from
    # empty lists, r..1 descending grows each list to r at once and 1..6
    # ascending then reads it and grows it one power at a time
    clear_caches()
    for k in (*range(r, 0, -1), *range(1, 7)):
        for n in (63, 64, 65, 127, 128, 129):
            want = balancing(n) if k == 1 else rhs_general_plain(k, n)  # r = 1 is f itself
            assert conv_power(BALANCING, k, n) == want


@given(series_st, series_st)
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(series_st, series_st, series_st)
def test_mul_associative_up_to_truncation(f, g, h):
    assert ((f * g) * h).agrees_with(f * (g * h))


@given(series2_st, series2_st)
def test_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs.agrees_with(rhs)


@given(series2_st, series2_st)
def test_derivative_linear(f, g):
    assert (f + g).derivative().agrees_with(f.derivative() + g.derivative())


@given(series_st, series_st)
def test_add_sub_roundtrip(f, g):
    assert ((f + g) - g).agrees_with(f)


def test_agrees_with_common_prefix_only():
    assert Series([1, 2]).agrees_with(Series([1, 2, 99]))
    assert not Series([1, 3]).agrees_with(Series([1, 2, 99]))


def test_square_relation():
    assert verify_ogf_square_relation(2)
    assert verify_ogf_square_relation(50)
    with pytest.raises(ValueError):
        verify_ogf_square_relation(1)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_power_expansion(r):
    assert verify_power_expansion(r, 50)


def test_power_expansion_rejects_small_r():
    with pytest.raises(ValueError):
        verify_power_expansion(1, 50)


def test_power_expansion_reduces_to_square_relation_at_r2():
    # same truth value by construction; both must hold
    assert verify_power_expansion(2, 40) == verify_ogf_square_relation(40)


def test_scale():
    s = Series([2, 4]).scale(Fraction(1, 2))
    assert s.coeffs == (1, 2)
