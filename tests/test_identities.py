import sys
import threading
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import balconv
from balconv import combinatorics, identities, sequences, series
from balconv.combinatorics import IntegralityError, binom
from balconv.identities import (
    CATALOG,
    PARAM_GRID,
    Failure,
    IdentityId,
    VerificationReport,
    alt_weighted_conv,
    binom_conv_c,
    binom_conv_u,
    binom_conv_v,
    clear_caches,
    conv_power,
    conv_power_by_enumeration,
    pair_plain_sum,
    pair_telescope_sum,
    report_from_dict,
    report_to_dict,
    resolve_identity_args,
    rhs_binom_pair_b,
    rhs_binom_pair_c,
    rhs_fib_pair_f,
    rhs_fib_pair_l,
    rhs_general_alt,
    rhs_general_plain,
    rhs_multinom_triple_b,
    rhs_multinom_triple_c,
    rhs_multinom_u,
    rhs_multinom_v,
    rhs_pair_plain,
    rhs_pair_telescope,
    rhs_printed_corollary,
    rhs_triple_alt,
    verify_identity,
)
from balconv.sequences import (
    BALANCING,
    FIBONACCI,
    SeqParams,
    balancing,
    lucas,
    lucas_balancing,
    u,
    v,
)
from helpers import multinomial


# ---------------------------------------------------------------------------
# plain convolution oracles
# ---------------------------------------------------------------------------


def test_conv_power_examples():
    assert conv_power(BALANCING, 2, 4) == 106  # B1 B3 + B2 B2 + B3 B1 = 35 + 36 + 35
    assert conv_power(BALANCING, 3, 3) == 1
    assert conv_power(BALANCING, 3, 4) == 18


def test_conv_power_small_values():
    assert [conv_power(BALANCING, 2, n) for n in range(2, 6)] == [1, 12, 106, 828]
    assert [conv_power(BALANCING, 3, n) for n in range(3, 6)] == [1, 18, 213]


def test_conv_power_zero_below_r():
    for r in range(1, 5):
        for n in range(r):
            assert conv_power(BALANCING, r, n) == 0


def test_conv_power_r1_is_sequence():
    for n in range(10):
        assert conv_power(BALANCING, 1, n) == balancing(n)


def test_conv_power_rejects_bad_args():
    with pytest.raises(ValueError):
        conv_power(BALANCING, 0, 3)
    with pytest.raises(ValueError):
        conv_power(BALANCING, 2, -1)


def test_conv_power_matches_enumeration():
    # recurrence and composition-enumeration oracles agree; negative a and b
    # check that the recurrence carries both signs through every coefficient
    for params in (BALANCING, FIBONACCI):
        for r in range(1, 5):
            for n in range(13):
                assert conv_power(params, r, n) == conv_power_by_enumeration(params, r, n)
    for params in (SeqParams(-6, -1), SeqParams(-1, -1), SeqParams(3, -2), SeqParams(-2, 5)):
        for r in (1, 2, 5, 9):
            for n in range(15):
                assert conv_power(params, r, n) == conv_power_by_enumeration(params, r, n)


def test_alt_weighted_conv_examples():
    assert alt_weighted_conv(2, 4) == 105  # S_2(4) - S_2(2)
    assert alt_weighted_conv(3, 4) == 18
    assert alt_weighted_conv(3, 3) == 1


def test_alt_weighted_conv_rejects_bad_args():
    with pytest.raises(ValueError):
        alt_weighted_conv(1, 5)
    with pytest.raises(ValueError):
        alt_weighted_conv(3, -1)


def test_pair_telescope_sum():
    assert pair_telescope_sum(5) == 5945  # 5 * B_5
    for n in range(1, 60):
        assert pair_telescope_sum(n) == n * balancing(n) == rhs_pair_telescope(n)


def test_pair_plain_sum_is_two_fold_convolution():
    for n in range(40):
        assert pair_plain_sum(n) == conv_power(BALANCING, 2, n)


def test_pair_sums_match_literal_per_term_formulas():
    # the sums index the cached term list, growing it themselves from empty;
    # here each term is one balancing() call
    clear_caches()
    got = {
        n: (pair_telescope_sum(n), pair_plain_sum(n), rhs_pair_plain(n) if n >= 2 else None)
        for n in range(81)
    }
    B = balancing
    for n, (telescope, plain, closed) in got.items():
        assert telescope == sum(B(j) * B(n - j + 1) - B(j - 1) * B(n - j) for j in range(1, n + 1))
        assert plain == sum(B(j) * B(n - j) for j in range(1, n))
        if n >= 2:
            assert closed == sum((n - 2 * m - 1) * B(n - 2 * m - 1) for m in range((n - 1) // 2 + 1))


def test_pair_square_is_two_fold_conv_power():
    # odd and even m (the unpaired middle term), up to m = 200
    for m in range(201):
        assert identities._pair_square(m) == conv_power(BALANCING, 2, m)


def test_pair_sums_from_a_high_start_match_literal_formulas():
    # the S_2 memo is keyed by m, so a sweep that starts high builds nothing below it
    clear_caches()
    got = {n: (pair_telescope_sum(n), pair_plain_sum(n)) for n in range(150, 171)}
    assert identities._pair_square.cache_info().currsize == len(range(149, 172))
    B = balancing
    for n, (telescope, plain) in got.items():
        assert telescope == sum(B(j) * B(n - j + 1) - B(j - 1) * B(n - j) for j in range(1, n + 1))
        assert plain == sum(B(j) * B(n - j) for j in range(1, n))


# ---------------------------------------------------------------------------
# alternating closed forms
# ---------------------------------------------------------------------------


def test_rhs_general_alt_examples():
    assert rhs_general_alt(2, 4) == 105  # collapses to (n-1) B_{n-1}
    assert rhs_general_alt(3, 4) == 18
    assert rhs_general_alt(5, 10) == 868896 == alt_weighted_conv(5, 10)


def test_rhs_general_alt_r2_collapses():
    for n in range(1, 80):
        assert rhs_general_alt(2, n) == (n - 1) * balancing(n - 1)


def test_rhs_general_alt_r3_matches_triple_form():
    for n in range(4, 80):
        assert rhs_general_alt(3, n) == rhs_triple_alt(n)


def test_rhs_general_alt_domain():
    with pytest.raises(ValueError):
        rhs_general_alt(1, 10)
    with pytest.raises(ValueError):
        rhs_general_alt(4, 6)  # needs n >= 7
    assert rhs_general_alt(4, 7) == alt_weighted_conv(4, 7)


def test_rhs_triple_alt_domain():
    with pytest.raises(ValueError):
        rhs_triple_alt(3)


def test_printed_corollary_r4_r6_match_general():
    for n in range(7, 60):
        assert rhs_printed_corollary(4, n) == rhs_general_alt(4, n)
    for n in range(13, 60):
        assert rhs_printed_corollary(6, n) == rhs_general_alt(6, n)


def test_printed_corollary_r4_matches_oracle():
    assert rhs_printed_corollary(4, 7) == rhs_general_alt(4, 7)
    assert rhs_printed_corollary(4, 8) == alt_weighted_conv(4, 8)


def test_printed_corollary_r5_diverges_where_suspect_term_is_nonzero():
    # the transcribed third term repeats B_{n-6}; its coefficient vanishes
    # only at n = 10 and n = 11 inside the domain
    divergent = [n for n in range(10, 60) if rhs_printed_corollary(5, n) != rhs_general_alt(5, n)]
    assert divergent == list(range(12, 60))


def test_printed_corollary_r5_repaired_agrees():
    # moving the suspect term from B_{n-6} to B_{n-8} restores the identity
    for n in range(10, 60):
        coeff = Fraction((n - 5) * (n - 8) * (n - 10) * (n - 11), 8)
        repaired = rhs_printed_corollary(5, n) + coeff * (balancing(n - 8) - balancing(n - 6))
        assert repaired == rhs_general_alt(5, n)


def test_printed_corollary_domains():
    with pytest.raises(ValueError):
        rhs_printed_corollary(3, 20)
    with pytest.raises(ValueError):
        rhs_printed_corollary(4, 6)
    with pytest.raises(ValueError):
        rhs_printed_corollary(5, 9)
    with pytest.raises(ValueError):
        rhs_printed_corollary(6, 12)


# ---------------------------------------------------------------------------
# plain-convolution closed forms
# ---------------------------------------------------------------------------


def test_rhs_pair_plain_examples():
    assert rhs_pair_plain(2) == 1
    assert rhs_pair_plain(3) == 12
    assert rhs_pair_plain(4) == 106
    with pytest.raises(ValueError):
        rhs_pair_plain(1)


def test_rhs_general_plain_examples():
    assert rhs_general_plain(2, 4) == 106
    assert rhs_general_plain(3, 3) == 1
    assert rhs_general_plain(4, 6) == conv_power(BALANCING, 4, 6)


def test_rhs_general_plain_reduces_to_pair_at_r2():
    for n in range(2, 80):
        assert rhs_general_plain(2, n) == rhs_pair_plain(n)


def test_rhs_general_plain_domain():
    with pytest.raises(ValueError):
        rhs_general_plain(1, 5)
    with pytest.raises(ValueError):
        rhs_general_plain(3, 2)


# ---------------------------------------------------------------------------
# binomial-convolution oracles and closed forms
# ---------------------------------------------------------------------------


def test_binom_conv_examples():
    assert binom_conv_u(BALANCING, 2, 2) == 2
    assert binom_conv_u(FIBONACCI, 3, 3) == 6
    assert binom_conv_v(FIBONACCI, 2, 1) == 4  # L0 L1 + L1 L0


def test_binom_conv_r1_is_sequence():
    for n in range(8):
        assert binom_conv_u(BALANCING, 1, n) == balancing(n)
        assert binom_conv_v(FIBONACCI, 1, n) == lucas(n)


def _binom_conv_by_enumeration(term, r, n, least):
    # sum over (k_1..k_r), each k_i >= least, summing to n, of multinomial * term(k_1)...term(k_r)
    free = n - r * least
    total = 0
    for cuts in combinations_with_replacement(range(free + 1), r - 1):
        bounds = (0, *cuts, free)
        parts = [hi - lo + least for lo, hi in zip(bounds, bounds[1:])]
        total += multinomial(n, parts) * prod(term(k) for k in parts)
    return total


def test_binom_conv_matches_composition_enumeration():
    for r in range(1, 5):
        for n in range(11):
            for params in PARAM_GRID:
                want_u = _binom_conv_by_enumeration(lambda k: u(params, k), r, n, 1)
                want_v = _binom_conv_by_enumeration(lambda k: v(params, k), r, n, 0)
                assert binom_conv_u(params, r, n) == want_u
                assert binom_conv_v(params, r, n) == want_v
            assert binom_conv_c(r, n) == _binom_conv_by_enumeration(lucas_balancing, r, n, 0)


def test_binom_fold_grows_in_place_out_of_order():
    # each call extends the shared levels from their current length, and the
    # closed forms read (and grow) level 1 of the u- and v-folds in between
    def sides(r, n):
        return (
            rhs_multinom_u(BALANCING, r, n),
            binom_conv_u(BALANCING, r, n),
            binom_conv_v(BALANCING, r, n),
            rhs_multinom_v(BALANCING, r, n),
            binom_conv_c(r, n),
        )

    clear_caches()
    grown = {(r, n): sides(r, n) for n in (40, 3, 75, 0, 76) for r in (3, 1, 4, 2)}
    closed_c = {2: rhs_binom_pair_c, 3: rhs_multinom_triple_c}
    for (r, n), (closed_u, fold_u, fold_v, closed_v, fold_c) in grown.items():
        assert (fold_u, fold_v) == (closed_u, closed_v)
        if r in closed_c:
            assert fold_c == closed_c[r](n)
        clear_caches()
        assert sides(r, n) == grown[r, n]


#: oracle -> (its value at one key, the keys thread t asks, an independent value at one key)
THREADED_ORACLES = {
    "fold": (  # key n, thread t asks n = t, t + 4, ...: interleaved growth of four levels
        lambda n: binom_conv_u(SeqParams(1, 2), 4, n),
        lambda t: range(t, 28, 4),
        lambda n: _binom_conv_by_enumeration(lambda k: u(SeqParams(1, 2), k), 4, n, 1),
    ),
    "power": (  # key r, thread t asks r = 2 + t, 6 + t, 10 + t: interleaved growth of one list
        lambda r: conv_power(BALANCING, r, 60),
        lambda t: (2 + t, 6 + t, 10 + t),
        lambda r: rhs_general_plain(r, 60),
    ),
}


@pytest.mark.parametrize("oracle", THREADED_ORACLES)
def test_oracle_table_grows_safely_from_four_threads(oracle):
    ask, keys_of, independent = THREADED_ORACLES[oracle]
    want = {key: independent(key) for t in range(4) for key in keys_of(t)}
    clear_caches()
    start = threading.Barrier(4, timeout=60)
    got = [{} for _ in range(4)]

    def grow(t):
        start.wait()
        for key in keys_of(t):
            got[t][key] = ask(key)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert {key: value for part in got for key, value in part.items()} == want


def _literal_comb_fold(seq, r, n):
    # levels 1..r of the binomial fold of seq[:n + 1], one math.comb call per term
    levels = [seq[: n + 1]]
    for _ in range(r - 1):
        prev = levels[-1]
        levels.append(
            [sum(comb(m, j) * prev[j] * seq[m - j] for j in range(m + 1)) for m in range(n + 1)]
        )
    return levels


def test_binom_fold_levels_grow_out_of_order_like_the_literal_fold():
    # the literal window of a request for (r, n) ends at index min(n, r); a request either
    # continues the levels it shares with earlier ones, builds a higher r's new levels from
    # 0, or, once its window is built, only extends level r by its recurrence
    other = SeqParams(1, 2)
    requests = [  # (params, which, r, n)
        (BALANCING, "u", 3, 70),  # first call: window 0..3
        (BALANCING, "u", 3, 140),  # window built: recurrence only, crossing 128
        (BALANCING, "v", 4, 65),  # same params, other sequence: its own levels
        (BALANCING, "u", 5, 100),  # higher r: levels 4 and 5 start at 0
        (BALANCING, "u", 2, 150),  # lower r: recurrence only
        (BALANCING, "v", 4, 66),
        (other, "u", 4, 63),
        (BALANCING, "u", 5, 129),
        (other, "u", 2, 130),  # lower r crossing 64 and 128
        (other, "u", 4, 64),
        (BALANCING, "u", 5, 130),
        (BALANCING, "v", 2, 129),
        (other, "u", 3, 130),
        (other, "u", 2, 131),
        (other, "u", 3, 133),
        # out of order, n <= r: levels of one key at different lengths inside the window
        (other, "v", 8, 2),  # first call: window 0..2
        (other, "v", 3, 3),  # levels 2, 3 continue at 3
        (other, "v", 8, 8),  # levels 4..8 continue at 3, levels 2, 3 at 4
        (other, "v", 9, 0),  # level 9 starts at 0
        (other, "v", 9, 5),  # level 9 continues at 1
        (other, "v", 10, 4),  # level 10 starts at 0
        (other, "v", 7, 7),  # window built: nothing new
        (other, "v", 10, 7),  # level 10 continues at 5, level 9 at 6
        (other, "v", 11, 1),  # level 11 starts at 0
        (other, "v", 10, 10),  # levels 9, 10 continue at 8, levels 2..8 at 9
        (other, "v", 10, 30),  # recurrence only
        (other, "v", 11, 12),  # level 11 continues at 2, levels 2..9 at 11; then n = 12
        (other, "v", 11, 9),  # already built: a lookup
    ]
    want = {}
    for params, which, _, _ in requests:
        if (params, which) not in want:
            r_max = max(r for p, w, r, _ in requests if (p, w) == (params, which))
            n_max = max(n for p, w, _, n in requests if (p, w) == (params, which))
            seq = sequences.terms(params, which, n_max)
            want[params, which] = _literal_comb_fold(seq, r_max, n_max)
    clear_caches()
    for params, which, r, n in requests:
        got = identities._fold_levels(params, which, r, n)
        for k in range(1, r + 1):
            level = identities._fold_levels(params, which, k, n)
            assert level[: n + 1] == want[params, which][k - 1][: n + 1], (params, which, r, n, k)
        assert got[n] == want[params, which][r - 1][n]


#: Fold parameters: PARAM_GRID, the sweep-binomial strata with both signs of a, a = 0, b = 0.
_FOLD_PARAMS = list(dict.fromkeys([
    *PARAM_GRID,
    *(SeqParams(s * a, b) for a, b in ((2, 3), (4, -3), (1, 6), (5, -6)) for s in (1, -1)),
    SeqParams(0, 1),
    SeqParams(3, 0),
]))


@pytest.mark.parametrize("params", _FOLD_PARAMS, ids=str)
def test_binom_fold_recurrence_matches_literal_fold(params):
    # past index r each level grows by its ODE recurrence; requests come out of order and
    # cross indices r and r + 1, so levels extended by their own recurrence feed the
    # literal window of a higher r
    seqs = {which: sequences.terms(params, which, 120) for which in "uv"}
    want = {which: _literal_comb_fold(seq, 8, 120) for which, seq in seqs.items()}
    clear_caches()
    for r in (5, 2, 8, 3, 7, 4, 6):
        for n in (r + 1, r, 0, 120, r - 1, r + 2, 2 * r):
            assert binom_conv_u(params, r, n) == want["u"][r - 1][n], (r, n)
            assert binom_conv_v(params, r, n) == want["v"][r - 1][n], (r, n)
    for r in range(2, 9):
        assert [binom_conv_u(params, r, n) for n in range(121)] == want["u"][r - 1]
        assert [binom_conv_v(params, r, n) for n in range(121)] == want["v"][r - 1]
    for r in range(2, 9):  # composition enumeration across the window's edge
        for n in range(r + 3):
            want_u = _binom_conv_by_enumeration(seqs["u"].__getitem__, r, n, 1)
            assert want["u"][r - 1][n] == want_u
        for n in range(r, r + 2):
            want_v = _binom_conv_by_enumeration(seqs["v"].__getitem__, r, n, 0)
            assert want["v"][r - 1][n] == want_v


def test_binom_conv_c_recurrence_matches_literal_fold():
    seq = [lucas_balancing(k) for k in range(121)]
    want = _literal_comb_fold(seq, 8, 120)
    clear_caches()
    for r in (8, 2, 5, 3, 7, 6, 4):
        for n in (r + 1, 120, r, 0, r + 2, 57):
            assert binom_conv_c(r, n) == want[r - 1][n], (r, n)
    for r in range(2, 9):
        assert [binom_conv_c(r, n) for n in range(121)] == want[r - 1]
        for n in range(r, r + 2):
            assert want[r - 1][n] == _binom_conv_by_enumeration(lucas_balancing, r, n, 0)


def _poly_mul(p, q):
    # product of two coefficient lists, highest degree first
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def test_ode_weights_are_the_product_of_the_derived_lucas_pairs():
    # det(x - M) has the roots (r - j) alpha + j beta, j = 0..r: the pairs j, r - j give
    # x^2 - r a x + a^2 j(r-j) - (r-2j)^2 b, and even r adds the root a r / 2
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a * a + 4 * b == 0:
                continue
            params = SeqParams(a, b)
            for r in range(1, 10):
                det = [1]
                for j in range((r + 1) // 2):
                    det = _poly_mul(det, [1, -r * a, a * a * j * (r - j) - (r - 2 * j) ** 2 * b])
                if r % 2 == 0:
                    det = _poly_mul(det, [1, -a * r // 2])
                weights = identities._ode_weights(params, r)
                assert [1, *(-w for w in reversed(weights))] == det, (a, b, r)


def test_binom_fold_builds_literally_only_up_to_index_r(monkeypatch):
    # math.comb is called only for the literal window's brackets, which stop at min(n, r)
    seeded = []
    monkeypatch.setattr(identities, "comb", lambda m, j: seeded.append(m) or comb(m, j))
    params = SeqParams(2, 3)
    clear_caches()
    want = rhs_multinom_u(params, 5, 2000)
    seeded.clear()
    assert binom_conv_u(params, 5, 2000) == want
    assert seeded and max(seeded) <= 5
    assert [len(identities._binom_fold(params, "u", k)[1]) for k in range(2, 6)] == [6, 6, 6, 2001]
    seeded.clear()
    binom_conv_v(FIBONACCI, 1200, 3)
    assert seeded and max(seeded) <= 3
    for k in range(2, 1201):
        weights, level = identities._binom_fold(FIBONACCI, "v", k)
        assert (weights, len(level)) == ([], 4)


def test_binom_conv_rejects_bad_args():
    with pytest.raises(ValueError):
        binom_conv_u(BALANCING, 0, 3)
    with pytest.raises(ValueError):
        binom_conv_v(BALANCING, 2, -1)
    with pytest.raises(ValueError):
        binom_conv_c(0, 1)


#: The sweep-binomial benchmark's strata with both signs of a, then (6, -1) and (1, 2).
_BINOMIAL_STRATA = [SeqParams(s * a, b) for a, b in ((2, 3), (4, -3), (1, 6), (5, -6))
                    for s in (1, -1)] + [BALANCING, SeqParams(1, 2)]


@pytest.mark.parametrize("params", _BINOMIAL_STRATA, ids=str)
def test_binomial_lucas_matches_literal_inner_sum(params):
    # sum_k C(n,k) p^(n-k) q^k w_k term by term (0**0 == 1), p or q negative, p zero;
    # one Pascal row per n and one power list per (p, q)
    rows = [[1]]
    for _ in range(80):
        rows.append([1, *map(add, rows[-1], rows[-1][1:]), 1])
    clear_caches()
    for which, term in (("u", u), ("v", v)):
        w = [term(params, k) for k in range(81)]
        for p in range(-3, 8):
            p_pow = [p**j for j in range(81)]
            for q in (-2, 1, 2, 5, 8):
                qw = [q**k * w_k for k, w_k in enumerate(w)]
                for n, row in enumerate(rows):
                    got = identities._binomial_lucas(params, which, p, q, n)
                    assert got == sum(row[k] * p_pow[n - k] * qw[k] for k in range(n + 1))
        # q = 0 gives the derived pair a zero discriminant; no closed form passes it
        with pytest.raises(ValueError, match="discriminant"):
            identities._binomial_lucas(params, which, 2, 0, 5)


def test_fold_and_closed_forms_read_separate_sequence_tables():
    # The fold reads only (params, u/v); the closed forms add only their derived pairs,
    # (ar, (r-2j)^2 b - a^2 j(r-j)) for j < r/2, u-tables only where r is odd.
    pairs = (BALANCING, SeqParams(-2, 3))
    clear_caches()
    for params in pairs:
        for r in range(1, 6):
            for n in range(61):
                binom_conv_u(params, r, n)
                binom_conv_v(params, r, n)
    own = {(params, which) for params in pairs for which in ("u", "v")}
    assert set(sequences._tables) == own
    derived = set()
    for params in pairs:
        a, b = params.a, params.b
        for r in range(1, 6):
            for n in range(61):
                assert rhs_multinom_u(params, r, n) == binom_conv_u(params, r, n)
                assert rhs_multinom_v(params, r, n) == binom_conv_v(params, r, n)
            for j in range((r + 1) // 2):
                pair = SeqParams(a * r, (r - 2 * j) ** 2 * b - a * a * j * (r - j))
                derived |= {(pair, "v")} | ({(pair, "u")} if r % 2 else set())
    assert set(sequences._tables) - own == derived - own


def test_every_rhs_name_is_public():
    # perfbench/tracer.py times every rhs_* name of the module as a closed-form call, so a
    # private rhs_* helper called from a closed form would be counted twice
    assert {name for name in dir(identities) if name.startswith("rhs_")} <= set(identities.__all__)


def test_rhs_multinom_u_examples():
    assert rhs_multinom_u(FIBONACCI, 3, 3) == 6  # (54 - 24) / 5, with 0^0 = 1
    assert rhs_multinom_u(BALANCING, 3, 3) == 6  # (945 - 753) / 32
    for n in range(8):
        assert rhs_multinom_u(BALANCING, 1, n) == balancing(n)
        assert rhs_multinom_u(SeqParams(2, 1), 1, n) == u(SeqParams(2, 1), n)


def test_rhs_multinom_v_examples():
    assert rhs_multinom_v(FIBONACCI, 2, 1) == 4  # 2^1 L_1 + 2
    assert rhs_multinom_v(FIBONACCI, 2, 3) == 34  # 8*4 + 2
    for n in range(8):
        assert rhs_multinom_v(BALANCING, 1, n) == v(BALANCING, n)


def test_multinom_identities_all_branches_small():
    # odd and even r, u and v sides, every grid parameter pair
    for params in PARAM_GRID:
        for r in range(1, 6):
            for n in range(20):
                assert binom_conv_u(params, r, n) == rhs_multinom_u(params, r, n)
                assert binom_conv_v(params, r, n) == rhs_multinom_v(params, r, n)


def test_rhs_binom_pair_examples():
    assert rhs_binom_pair_b(2) == 2  # (4*17 - 36) / 16
    assert rhs_binom_pair_b(0) == 0
    assert rhs_binom_pair_c(1) == 6  # (2*3 + 6) / 2


def test_binom_pair_identities_small():
    for n in range(40):
        assert binom_conv_u(BALANCING, 2, n) == rhs_binom_pair_b(n)
        assert binom_conv_c(2, n) == rhs_binom_pair_c(n)


def test_multinom_triple_identities_small():
    for n in range(40):
        assert binom_conv_u(BALANCING, 3, n) == rhs_multinom_triple_b(n)
        assert binom_conv_c(3, n) == rhs_multinom_triple_c(n)


def test_fib_pair_identities_small():
    assert rhs_fib_pair_f(5) == 70
    assert rhs_fib_pair_l(5) == 354
    for n in range(40):
        assert binom_conv_u(FIBONACCI, 2, n) == rhs_fib_pair_f(n)
        assert binom_conv_v(FIBONACCI, 2, n) == rhs_fib_pair_l(n)


def test_special_forms_agree_with_general_branch():
    # the fixed balancing/Fibonacci forms are instantiations of the general one
    for n in range(40):
        assert rhs_binom_pair_b(n) == rhs_multinom_u(BALANCING, 2, n)
        assert rhs_multinom_triple_b(n) == rhs_multinom_u(BALANCING, 3, n)
        assert rhs_fib_pair_f(n) == rhs_multinom_u(FIBONACCI, 2, n)
        assert rhs_fib_pair_l(n) == rhs_multinom_v(FIBONACCI, 2, n)
        # C-forms are v-forms rescaled by 2^r
        assert 4 * rhs_binom_pair_c(n) == rhs_multinom_v(BALANCING, 2, n)
        assert 8 * rhs_multinom_triple_c(n) == rhs_multinom_v(BALANCING, 3, n)


def rhs_printed_balancing_even_b(r: int, n: int) -> Fraction:
    """Even-r balancing specialization exactly as transcribed, as a rational.

    The transcription ends in (r/2)^n where the general form produces
    (3r)^n; with that term the expression is usually not even integral, so
    this evaluator returns the exact Fraction instead of asserting
    integrality.
    """
    if r < 2 or r % 2:
        raise ValueError(f"rhs_printed_balancing_even_b: r must be even and >= 2, got {r}")
    if n < 0:
        raise ValueError(f"rhs_printed_balancing_even_b: n must be nonnegative, got {n}")
    half = r // 2
    # the transcription's 2 * (C-weighted sum) is the v-weighted sum, since C_k = v_k / 2
    total = sum(
        (-1) ** j * binom(r, j) * identities._binomial_lucas(BALANCING, "v", 6 * j, r - 2 * j, n)
        for j in range(half)
    )
    total += (-1) ** half * binom(r, half) * half**n
    return Fraction(total, 32**half)


def test_printed_balancing_even_form_diverges():
    # transcribed even-r form ends in (r/2)^n instead of (3r)^n: not even
    # integral for most n, and wrong wherever it is
    for n in range(1, 20):
        val = rhs_printed_balancing_even_b(2, n)
        assert val.denominator != 1 or val != rhs_binom_pair_b(n)
    assert rhs_printed_balancing_even_b(2, 0) == rhs_binom_pair_b(0)  # 6^0 == 1^0


def test_printed_balancing_even_form_repaired_agrees():
    # swapping (r/2)^n for (3r)^n restores the oracle identity
    for r in (2, 4):
        half = r // 2
        for n in range(30):
            fix = Fraction((-1) ** half * binom(r, half) * ((3 * r) ** n - half**n), 32**half)
            repaired = rhs_printed_balancing_even_b(r, n) + fix
            assert repaired == binom_conv_u(BALANCING, r, n)


def test_printed_balancing_even_form_rejects_odd_r():
    with pytest.raises(ValueError):
        rhs_printed_balancing_even_b(3, 5)


# ---------------------------------------------------------------------------
# verification engine
# ---------------------------------------------------------------------------


def test_verify_pass_report():
    report = verify_identity(IdentityId.PAIR_TELESCOPE, (1, 100))
    assert report.passed
    assert report.checked == 100
    assert report.n_range == (1, 100)
    assert report.failures == ()
    assert report.r == 2
    assert report.params == BALANCING


def test_verify_general_alt():
    report = verify_identity(IdentityId.GENERAL_ALT, (7, 100), r=4)
    assert report.passed and report.checked == 94


def test_verify_clamps_to_domain():
    report = verify_identity(IdentityId.TRIPLE_ALT, (0, 20))
    assert report.n_range == (4, 20)
    assert report.checked == 17
    assert verify_identity(IdentityId.TRIPLE_ALT, (None, 20)) == report


def test_verify_printed_r5_records_failures():
    report = verify_identity(IdentityId.COR_PRINTED_R5, (10, 30))
    assert not report.passed
    assert [f.n for f in report.failures] == list(range(12, 31))
    # every witness re-evaluates to the recorded values
    for f in report.failures:
        assert f.lhs == alt_weighted_conv(5, f.n)
        assert f.rhs == rhs_printed_corollary(5, f.n)
        assert f.lhs == rhs_general_alt(5, f.n)  # the oracle sides with the general form


def test_verify_general_u_params():
    report = verify_identity(IdentityId.GENERAL_U, (0, 25), params=SeqParams(3, 2), r=4)
    assert report.passed
    assert report.params == SeqParams(3, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([IdentityId.GENERAL_U, IdentityId.GENERAL_V]),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(1, 5),
)
@example(IdentityId.GENERAL_U, -3, 2, 5)
@example(IdentityId.GENERAL_V, 2, -5, 4)
@example(IdentityId.GENERAL_U, 1, -1, 3)  # D = -3: a negative exact divisor
@example(IdentityId.GENERAL_U, 2, -3, 2)  # D = -8
def test_verify_general_u_v_random_params(identity, a, b, r):
    assume(a * a + 4 * b != 0)
    report = verify_identity(identity, (0, 15), params=SeqParams(a, b), r=r)
    assert report.passed and report.checked == 16


def test_verify_usage_errors():
    with pytest.raises(ValueError):
        verify_identity(IdentityId.PAIR_TELESCOPE, (1, 10), params=FIBONACCI)
    with pytest.raises(ValueError):
        verify_identity(IdentityId.GENERAL_ALT, (7, 10))  # r missing
    with pytest.raises(ValueError):
        verify_identity(IdentityId.GENERAL_ALT, (7, 10), r=1)
    with pytest.raises(ValueError):
        verify_identity(IdentityId.TRIPLE_ALT, (10, 5))  # empty range
    with pytest.raises(ValueError):
        verify_identity(IdentityId.TRIPLE_ALT, (0, 3))  # below domain entirely
    with pytest.raises(ValueError):
        verify_identity(IdentityId.TRIPLE_ALT, (4, 10), r=5)  # fixed r mismatch


def test_resolve_identity_args_defaults():
    assert resolve_identity_args(IdentityId.GENERAL_U, None, 3) == (BALANCING, 3)
    assert resolve_identity_args(IdentityId.FIB_PAIR_F) == (FIBONACCI, 2)
    info = CATALOG[IdentityId.GENERAL_ALT]
    assert info.n_min(4) == 7 and info.n_min(2) == 1


def test_report_round_trip():
    for report in (
        verify_identity(IdentityId.GENERAL_ALT, (7, 40), r=4),
        verify_identity(IdentityId.COR_PRINTED_R5, (10, 25)),
        verify_identity(IdentityId.GENERAL_V, (0, 12), params=SeqParams(1, 2), r=3),
        # a witness past CPython's default 4300-digit int/str limit (B_6000 has ~4600)
        VerificationReport(
            IdentityId.PAIR_PLAIN, BALANCING, 2, (6000, 6000), 1,
            (Failure(6000, balancing(6000), balancing(6000) + 1),),
        ),
    ):
        data = report_to_dict(report)
        assert all(isinstance(x, str) for x in (data["r"], data["checked"], *data["range"]))
        assert report_from_dict(data) == report


def test_clear_caches_drops_every_memo():
    conv_power(BALANCING, 3, 10)
    binom_conv_v(FIBONACCI, 2, 5)
    binom(9, 4)
    pair_plain_sum(12)
    # every memo in the package's modules, so one added later but not cleared fails here
    memos = {
        f"{module.__name__}.{name}": cached
        for module in (identities, combinatorics, sequences, series)
        for name, cached in vars(module).items()
        if hasattr(cached, "cache_clear")
    }
    assert {
        *(f"balconv.identities.{name}" for name in ("_ogf_power", "_pair_square", "_binom_fold")),
        "balconv.combinatorics.binom",
    } <= set(memos)
    assert sequences._tables
    for name, cached in memos.items():
        assert cached.cache_info().currsize > 0, name
    clear_caches()
    for name, cached in memos.items():
        assert cached.cache_info().currsize == 0, name
    assert not sequences._tables
    assert conv_power(BALANCING, 3, 10) == rhs_general_plain(3, 10)
    assert binom_conv_v(FIBONACCI, 2, 5) == rhs_multinom_v(FIBONACCI, 2, 5)
    assert binom_conv_v(FIBONACCI, 3, 70) == rhs_multinom_v(FIBONACCI, 3, 70)


def test_failure_is_value_object():
    assert Failure(3, 1, 2) == Failure(3, 1, 2)
    assert Failure(3, 1, 2) != Failure(3, 1, 3)


def test_integrality_never_fires_on_valid_domains():
    try:
        for r in range(2, 7):
            for n in range(3 * r - 5, 60):
                rhs_general_alt(r, n)
            for n in range(r, 60):
                rhs_general_plain(r, n)
        for params in (*PARAM_GRID, SeqParams(1, -1)):  # D = -3 divides by negative D^(r/2)
            for r in range(1, 5):
                for n in range(25):
                    rhs_multinom_u(params, r, n)
    except IntegralityError as exc:  # pragma: no cover
        pytest.fail(f"integrality assertion fired: {exc}")


def test_package_exports_what_the_cold_benchmark_calls():
    called = {"BALANCING", "conv_power", "rhs_general_plain", "binom_conv_u", "rhs_multinom_u",
              "verify_ogf_square_relation"}
    assert called <= set(balconv.__all__)
    assert all(hasattr(balconv, name) for name in balconv.__all__)
