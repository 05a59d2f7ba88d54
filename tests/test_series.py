from math import comb
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balconv import cli, identities, sequences, series
from balconv.identities import clear_caches, conv_power, conv_power_by_enumeration, rhs_general_plain
from balconv.sequences import BALANCING, FIBONACCI, SeqParams, balancing, u
from balconv.series import Series, ogf, verify_ogf_square_relation, verify_power_expansion

coeff_st = st.integers(-10, 10)
series_st = st.lists(coeff_st, min_size=1, max_size=8).map(Series)
series2_st = st.lists(coeff_st, min_size=2, max_size=8).map(Series)
# Leading and all-zero coefficients: the product must still place every term.
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
    # order is the last exponent held, trailing zeros included
    padded = Series([1, 2, 3, 0, 0])
    assert padded.order == 4 and padded.coeffs == (1, 2, 3, 0, 0)
    with pytest.raises(ValueError):
        Series([])


def test_mul_example():
    x = Series([0, 1])
    assert (x * x).coeffs == (0, 0, 1)
    # exact: every coefficient of the product is kept, order(f) + order(g)
    f = Series([1, 1])
    assert (f * f).coeffs == (1, 2, 1)
    assert (Series([0, 0]) * Series([0, 1])).coeffs == (0, 0, 0)


def test_derivative_example():
    assert Series([0, 1, 6, 35]).derivative().coeffs == (1, 12, 105)


def test_derivative_drops_order():
    # past the last coefficient the derivative of a polynomial is zero
    assert Series([7]).derivative().coeffs == (0,)


def test_shift_raises_order():
    s = Series([1, 2])
    assert s.shift(2).coeffs == (0, 0, 1, 2)
    assert s.shift(0) == s
    with pytest.raises(ValueError):
        s.shift(-1)


def test_pow():
    f = Series([1, 1, 0])
    assert f.pow(0).coeffs == (1,)
    assert f.pow(2).coeffs == (1, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        f.pow(-1)
    # order(f^r) = r order(f): P^r keeps its 2r + 1 coefficients even when b = 0
    assert [Series([1, -3, 0]).pow(r).order for r in range(5)] == [0, 2, 4, 6, 8]
    b = ogf(BALANCING, 10)
    assert [b.pow(r).order for r in range(6)] == [0, 10, 20, 30, 40, 50]


ONE_MINUS_X2 = Series([1, 0, -1])


def test_one_minus_x2_pow_examples():
    assert ONE_MINUS_X2.pow(0).coeffs == (1,)
    assert ONE_MINUS_X2.pow(1).coeffs == (1, 0, -1)
    assert ONE_MINUS_X2.pow(2).coeffs == (1, 0, -2, 0, 1)
    assert ONE_MINUS_X2.pow(3).coeffs == (1, 0, -3, 0, 3, 0, -1)
    for m in range(12):
        assert ONE_MINUS_X2.pow(m).coeffs == tuple(
            (-1) ** (i // 2) * comb(m, i // 2) if i % 2 == 0 else 0 for i in range(2 * m + 1)
        )


def test_one_minus_x2_pow_multiplies_by_adding_exponents():
    for m in range(6):
        for k in range(6):
            assert ONE_MINUS_X2.pow(m) * ONE_MINUS_X2.pow(k) == ONE_MINUS_X2.pow(m + k)


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
    """Literal double sum over every coefficient pair."""
    a, b = f.coeffs, g.coeffs
    expected = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
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
    # even-power polynomials like (1 - x^2)^m and the truncated expansions of
    # 1/(1 - x^2)^3 and 1/(1 - x^2), shifted polynomials, the 3-term
    # P = 1 - a x - b x^2 padded with zeros to order 2r, and its powers
    operands = [
        Series([0 if i % 2 else comb(i // 2 + 2, 2) for i in range(21)]),
        ONE_MINUS_X2.pow(2),
        ogf(BALANCING, 12).shift(5),
        Series([1 - i % 2 for i in range(10)]).shift(4),
        *(Series([1, -a, -b, *[0] * (2 * r - 2)]) for a, b, r in ((6, 1, 1), (6, 1, 7), (-3, 2, 4), (0, -5, 3))),
        *(Series([1, -a, -b]).pow(r) for a, b, r in ((6, 1, 3), (0, -5, 3))),
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
    # a Cauchy-product power of the OGF, read across the old 64 and 128 block edges; each
    # power is cut back to x^150, the coefficients that f through x^150 determines
    clear_caches()
    f = ogf(params, 150)
    power = Series([1])
    for r in range(1, 7):
        power = Series((power * f).coeffs[:151])
        assert [conv_power(params, r, n) for n in range(151)] == list(power.coeffs)


@given(series_st, series_st)
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(series_st, series_st, series_st)
def test_mul_associative_up_to_truncation(f, g, h):
    # products are exact now, so associativity is an equality with nothing cut off
    assert (f * g) * h == f * (g * h)


@given(series2_st, series2_st)
def test_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(series2_st, series2_st)
def test_derivative_linear(f, g):
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert f.scale(-3).derivative() == f.derivative().scale(-3)


@given(series_st, series_st)
def test_add_is_coefficientwise(f, g):
    total = f + g
    assert total.order == max(f.order, g.order)
    padded = [(*s.coeffs, *[0] * (total.order - s.order)) for s in (f, g)]
    assert total.coeffs == tuple(map(add, *padded))
    assert (total + g.scale(-1)).coeffs == padded[0]


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


def test_power_expansion_at_every_order_from_r_minus_1():
    # every prefix the CLI can ask for, up to past the proving order 4r - 5
    for r in range(2, 13):
        for order in range(r - 1, 61):
            assert verify_power_expansion(r, order), (r, order)


@pytest.mark.parametrize("params", [SeqParams(6, -2), SeqParams(6, 1), SeqParams(5, -2)])
def test_a_perturbed_p_fails_every_check(monkeypatch, capsys, params):
    # f = x / P with P = 1 - 6x + 2x^2, 1 - 6x - x^2 or 1 - 5x + 2x^2 in place of the balancing
    # denominator: the lemma no longer holds, and series-check reports that with exit 1.
    # Only b matters: the lemma rests on P - x P' = 1 - x^2, true for every a when b = -1
    monkeypatch.setattr(series, "BALANCING", params)
    # the prefix compared runs through x^{order+r-1}; the first wrong coefficient is x^{r+2}
    for r in (2, 3):
        assert verify_power_expansion(r, 2) and not verify_power_expansion(r, 3), r
    assert not verify_ogf_square_relation(30)
    for r in range(2, 7):
        assert not verify_power_expansion(r, 30), r
    assert cli.run(["series-check", "--order", "30"]) == 1
    assert capsys.readouterr().out == "ogf-square order=30: FAIL\n"


@pytest.mark.parametrize("r", range(3, 11))
def test_a_lemma_weight_off_by_one_fails(monkeypatch, r):
    # the first binomial the k-sum reads is C(1, 0) or C(r-2, 0), at k = 1, j = 0: one more
    # there makes that one weight C(k, j) C(r-2, k-j-1) 2 instead of 1; at order 4r - 5,
    # where the whole polynomials are compared, the check must see it
    calls = []

    def off_by_one_once(m, k):
        calls.append((m, k))
        return comb(m, k) + (len(calls) == 1)

    monkeypatch.setattr(series, "binom", off_by_one_once)
    assert not verify_power_expansion(r, 4 * r - 5)
    assert calls[0] in {(1, 0), (r - 2, 0)}


def test_scale():
    s = Series([2, -4, 0]).scale(-3)
    assert s.coeffs == (-6, 12, 0)
