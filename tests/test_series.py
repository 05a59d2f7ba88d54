from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balconv import cli, identities, sequences, series
from balconv.identities import clear_caches, conv_power, conv_power_by_enumeration, rhs_general_plain
from balconv.sequences import BALANCING, FIBONACCI, SeqParams, balancing, u
from balconv.series import (
    Series,
    ogf,
    one_minus_x2_pow,
    verify_ogf_square_relation,
    verify_power_expansion,
)

coeff_st = st.integers(-10, 10)
series_st = st.lists(coeff_st, min_size=1, max_size=8).map(Series)
series2_st = st.lists(coeff_st, min_size=2, max_size=8).map(Series)
# Leading zeros raise the valuation; all-zero operands push it past the order.
shifted_series_st = st.builds(
    lambda zeros, cs: Series([0] * zeros + cs),
    st.integers(0, 3),
    st.one_of(
        st.lists(coeff_st, min_size=1, max_size=8),
        st.lists(st.just(0), min_size=1, max_size=4),
    ),
)
# Mostly zero: at most four nonzero terms spread over up to 25 coefficients.
sparse_series_st = st.builds(
    lambda terms, order: Series([terms.get(i, 0) for i in range(order + 1)]),
    st.dictionaries(st.integers(0, 24), coeff_st.filter(bool), max_size=4),
    st.integers(0, 24),
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
    # order(f^r) = order(f) + (r - 1) val(f) for r >= 1; val = 1 here
    b = ogf(BALANCING, 10)
    assert [b.pow(r).order for r in range(6)] == [10, 10, 11, 12, 13, 14]


def test_one_minus_x2_pow_examples():
    assert one_minus_x2_pow(0, 3).coeffs == (1, 0, 0, 0)
    assert one_minus_x2_pow(1, 4).coeffs == (1, 0, -1, 0, 0)
    assert one_minus_x2_pow(2, 6).coeffs == (1, 0, -2, 0, 1, 0, 0)
    assert one_minus_x2_pow(3, 4).coeffs == (1, 0, -3, 0, 3)  # truncated below degree 6
    with pytest.raises(ValueError):
        one_minus_x2_pow(-1, 5)  # no geometric expansion: nothing divides by (1 - x^2)
    with pytest.raises(ValueError):
        one_minus_x2_pow(1, -1)


def test_one_minus_x2_pow_multiplies_by_adding_exponents():
    # (1-x^2)^m * (1-x^2)^k == (1-x^2)^(m+k) on the common window
    for m in range(4):
        for k in range(4):
            prod = one_minus_x2_pow(m, 20) * one_minus_x2_pow(k, 20)
            assert prod.agrees_with(one_minus_x2_pow(m + k, 20))


def test_ogf_examples():
    assert ogf(BALANCING, 5).coeffs == (0, 1, 6, 35, 204, 1189)
    assert ogf(FIBONACCI, 4).coeffs == (0, 1, 1, 2, 3)
    assert ogf(BALANCING, 0).coeffs == (0,)


@pytest.mark.parametrize("params", [BALANCING, FIBONACCI, SeqParams(2, 1), SeqParams(1, 2)])
def test_ogf_coefficients_are_integral_sequence_values(params):
    f = ogf(params, 40)
    for n in range(41):
        c = f.coeffs[n]
        assert type(c) is int
        assert c == u(params, n)


def test_series_pow_matches_composition_enumeration():
    # two independent oracles for the plain convolution
    f = ogf(BALANCING, 12)
    for r in range(1, 5):
        fr = f.pow(r)
        for n in range(13):
            assert fr.coeffs[n] == conv_power_by_enumeration(BALANCING, r, n)


def naive_product(f, g):
    """Literal double sum over every coefficient pair, truncated by the documented rule."""

    def val(cs):
        return next((i for i, c in enumerate(cs) if c), len(cs))

    a, b = f.coeffs, g.coeffs
    m = min(len(a) - 1 + val(b), len(b) - 1 + val(a))
    expected = [0] * (m + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= m:
                expected[i + j] += ai * bj
    return tuple(expected)


@given(shifted_series_st, shifted_series_st)
def test_mul_matches_literal_integer_double_loop(f, g):
    product = f * g
    assert product.coeffs == naive_product(f, g)
    assert all(type(c) is int for c in product.coeffs)


@given(sparse_series_st, st.one_of(sparse_series_st, shifted_series_st))
def test_mul_of_sparse_operands_matches_literal_double_loop(f, g):
    assert (f * g).coeffs == naive_product(f, g)
    assert (g * f).coeffs == naive_product(g, f)


def test_mul_of_structured_sparse_operands_matches_literal_double_loop():
    # even-power series like the polynomials (1 - x^2)^m and the expansions of
    # 1/(1 - x^2)^3 and 1/(1 - x^2), shifted series, and the 3-term
    # P = 1 - a x - b x^2 padded to order 2r
    operands = [
        Series([0 if i % 2 else comb(i // 2 + 2, 2) for i in range(21)]),
        one_minus_x2_pow(2, 20),
        ogf(BALANCING, 12).shift(5),
        Series([1 - i % 2 for i in range(10)]).shift(4),
        *(Series([1, -a, -b], order=2 * r) for a, b, r in ((6, 1, 1), (6, 1, 7), (-3, 2, 4), (0, -5, 3))),
    ]
    for f in operands:
        for g in operands:
            assert (f * g).coeffs == naive_product(f, g)


@pytest.mark.parametrize("r", range(2, 7))
def test_conv_power_matches_closed_form_across_table_blocks(r):
    # from empty registries, r..1 descending and then 1..6 ascending, each n
    # both extends a coefficient list and reads one already built
    clear_caches()
    for k in (*range(r, 0, -1), *range(1, 7)):
        for n in (63, 64, 65, 127, 128, 129):
            want = balancing(n) if k == 1 else rhs_general_plain(k, n)  # r = 1 is f itself
            got = conv_power(BALANCING, k, n)
            assert type(got) is int
            assert got == want


def test_ogf_power_registry_holds_p_power_and_one_coefficient_list():
    # one memo entry per (params, r), the 2r + 1 trinomial coefficients of
    # P^r = (1 - a x - b x^2)^r, and one store list of [x^m] f^r for m = 0..n
    clear_caches()
    for (a, b), r in (((6, -1), 1), ((6, -1), 5), ((-3, -2), 9), ((2, 7), 4)):
        params = SeqParams(a, b)
        p = identities._ogf_power(params, r)
        assert p == tuple(
            sum(comb(r, k) * comb(r - k, d - 2 * k) * (-a) ** (d - 2 * k) * (-b) ** k for k in range(d // 2 + 1))
            for d in range(2 * r + 1)
        )
        # a request for n leaves exactly n + 1 entries in the same list; a smaller one reads
        # them, without P^r
        g = None
        for n, entries in ((r + 3, r + 4), (r + 70, r + 71), (r + 20, r + 71)):
            hits = identities._ogf_power.cache_info().hits
            conv_power(params, r, n)
            g = g or sequences._tables["f^r", params, r]
            assert sequences._tables["f^r", params, r] is g and len(g) == entries
            assert (identities._ogf_power.cache_info().hits > hits) == (n != r + 20)
    # no per-order lists: requests at many n share one list per (params, r)
    assert identities._ogf_power.cache_info().currsize == 4
    assert len([key for key in sequences._tables if key[0] == "f^r"]) == 4
    assert all(type(c) is int for c in g)


@pytest.mark.parametrize("params", [BALANCING, SeqParams(-3, -2)])
def test_conv_power_matches_series_cauchy_product(params):
    # a Cauchy-product power of the OGF, read across the old 64 and 128 block edges
    clear_caches()
    f = ogf(params, 150)
    for r in range(1, 7):
        power = f.pow(r)
        assert [conv_power(params, r, n) for n in range(151)] == list(power.coeffs[:151])


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
def test_add_is_coefficientwise(f, g):
    total = f + g
    assert total.order == min(f.order, g.order)
    for i in range(total.order + 1):
        assert total.coeffs[i] == f.coeffs[i] + g.coeffs[i]


def test_agrees_with_common_prefix_only():
    assert Series([1, 2]).agrees_with(Series([1, 2, 99]))
    assert not Series([1, 3]).agrees_with(Series([1, 2, 99]))


def test_square_relation():
    assert verify_ogf_square_relation(2)
    assert verify_ogf_square_relation(50)
    with pytest.raises(ValueError):
        verify_ogf_square_relation(1)


@pytest.mark.parametrize("r", range(2, 9))
def test_power_expansion(r):
    assert verify_power_expansion(r, 50)


def test_power_expansion_rejects_small_r():
    with pytest.raises(ValueError):
        verify_power_expansion(1, 50)


def test_power_expansion_reduces_to_square_relation_at_r2():
    # (1 - x^2) f^2 = x^2 f' read on plain coefficient lists: [x^n] f^2 = S(n), a literal
    # Cauchy sum of balancing numbers, so S(n) - S(n - 2) = (n - 1) B_{n-1}
    b = [balancing(n) for n in range(42)]
    square = [sum(b[j] * b[n - j] for j in range(n + 1)) for n in range(42)]
    for n in range(1, 42):
        assert square[n] - (square[n - 2] if n >= 2 else 0) == (n - 1) * b[n - 1]
    assert verify_power_expansion(2, 40) and verify_ogf_square_relation(40)


@pytest.mark.parametrize("index", [1, 4, 25])
def test_a_perturbed_ogf_fails_every_check(monkeypatch, capsys, index):
    # one coefficient of f off by one: the multiplied-through checks still fail,
    # and series-check reports that with exit 1
    exact = series.ogf

    def perturbed(params, order):
        coeffs = list(exact(params, order).coeffs)
        coeffs[index] += 1
        return Series(coeffs)

    monkeypatch.setattr(series, "ogf", perturbed)
    assert not verify_ogf_square_relation(30)
    for r in range(2, 7):
        assert not verify_power_expansion(r, 30), r
    assert cli.run(["series-check", "--order", "30"]) == 1
    assert capsys.readouterr().out == "ogf-square order=30: FAIL\n"


def test_scale():
    s = Series([2, -4, 0]).scale(-3)
    assert s.coeffs == (-6, 12, 0)
