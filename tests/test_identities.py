import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod
from operator import add
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import balconv
from balconv import combinatorics, identities, sequences, series
from balconv.combinatorics import IntegralityError, binom, exact_div
from balconv.identities import (
    CATALOG,
    Failure,
    IdentityInfo,
    NotInteger,
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
    terms,
    u,
    v,
)
from helpers import PARAM_GRID, multinomial, pair_plain_by_terms


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
    # S_2 from P f^2 = x f against the coefficients of x^2 / P^2, up to m = 200
    for m in range(201):
        assert pair_plain_sum(m) == conv_power(BALANCING, 2, m)


def test_pair_sums_from_a_high_start_match_literal_formulas():
    # the S_2 list grows from m = 0 to the highest n asked, and a lower n reads it as it is;
    # the store then holds that one list and the B terms it reads, nothing else
    clear_caches()
    pair_plain_sum(170)
    s = sequences._tables["S_2"]
    assert len(s) == 171
    pair_plain_sum(150)
    assert set(sequences._tables) == {"S_2", (BALANCING, "u")}
    assert sequences._tables["S_2"] is s and len(s) == 171
    got = {n: (pair_telescope_sum(n), pair_plain_sum(n)) for n in range(150, 171)}
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


def test_rhs_pair_plain_matches_the_literal_sum():
    clear_caches()
    for n in range(2, 401):
        assert rhs_pair_plain(n) == pair_plain_by_terms(n)


def test_rhs_pair_plain_from_a_high_start_matches_the_literal_sum():
    # the partial-sum list grows from k = 0 to the highest n asked; a lower n reads it as it is
    clear_caches()
    got = {n: rhs_pair_plain(n) for n in (1352, *range(2, 61))}
    assert got == {n: pair_plain_by_terms(n) for n in got}


def test_rhs_pair_plain_keeps_one_partial_sum_list():
    clear_caches()
    rhs_pair_plain(170)
    t = sequences._tables["T"]
    assert set(sequences._tables) == {"T", (BALANCING, "u")}
    assert len(t) == 171
    rhs_pair_plain(150)
    assert set(sequences._tables) == {"T", (BALANCING, "u")}
    assert sequences._tables["T"] is t and len(t) == 171


def test_rhs_pair_plain_never_reads_the_oracle_routes(monkeypatch):
    # the closed form reads B alone: not the S_2 list of the pair oracles, not P^r, not Series;
    # from an empty store it adds only its own list and B's
    def refuse(*args, **kwargs):
        raise AssertionError("the pair-plain closed form read an oracle route")

    clear_caches()
    for name in ("pair_plain_sum", "pair_telescope_sum", "conv_power", "_ogf_power", "Series"):
        monkeypatch.setattr(identities, name, refuse)
    got = {n: rhs_pair_plain(n) for n in (90, 2, 3, 41, 200)}
    assert set(sequences._tables) == {"T", (BALANCING, "u")}
    assert got == {n: pair_plain_by_terms(n) for n in got}


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
    # each call extends its key's list from its current length, and the closed
    # forms read (and grow) the u- and v-sequence tables the folds start from
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


#: oracle -> (its value at one key, the keys thread t asks, an independent value at one key);
#: in each entry thread t asks key n = n_0 + t, n_0 + 160 + t, ..., so four threads in step
#: grow one list by about 160 values per request, long enough for unlocked appends to
#: interleave
THREADED_ORACLES = {
    "fold": (  # the u fold list of r = 4 at (1, 2)
        lambda n: binom_conv_u(SeqParams(1, 2), 4, n),
        lambda t: range(t, 4000, 160),
        lambda n: rhs_multinom_u(SeqParams(1, 2), 4, n),
    ),
    "fold-v": (  # the v fold list of r = 120 at (1, 2), whose window calls math.comb
        lambda n: binom_conv_v(SeqParams(1, 2), 120, n),
        lambda t: range(t, 1600, 160),
        lambda n: rhs_multinom_v(SeqParams(1, 2), 120, n),
    ),
    "power": (  # the f^3 list at (6, -1)
        lambda n: conv_power(BALANCING, 3, n),
        lambda t: range(3 + t, 4003, 160),
        lambda n: rhs_general_plain(3, n),
    ),
    "pair": (  # the S_2 list
        pair_plain_sum,
        lambda t: range(2 + t, 4002, 160),
        rhs_pair_plain,
    ),
    "pair-closed": (  # the partial-sum list of the pair-plain closed form
        rhs_pair_plain,
        lambda t: range(2 + t, 4002, 160),
        pair_plain_by_terms,
    ),
}


def _run_in_threads(work, count=4):
    """Run work(t), t = 0..count-1, in daemon threads started together at a 1 us switch
    interval; return the threads still running 60 s later.

    A forcing term that re-entered the store's lock, which is not reentrant, would block its
    thread for good while holding that lock.  The store then gets a fresh lock, so the
    caller's failing assert is the only test the fault takes down.
    """
    start = threading.Barrier(count, timeout=60)

    def run(t):
        start.wait()
        work(t)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,), daemon=True) for t in range(count)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(saved)
    stuck = [thread for thread in threads if thread.is_alive()]
    if stuck:
        sequences._lock = threading.Lock()
        clear_caches()
    return stuck


@pytest.mark.parametrize("oracle", THREADED_ORACLES)
def test_oracle_table_grows_safely_from_four_threads(oracle):
    ask, keys_of, independent = THREADED_ORACLES[oracle]
    want = {key: independent(key) for t in range(4) for key in keys_of(t)}
    clear_caches()
    got = [{} for _ in range(4)]

    def grow(t):
        for key in keys_of(t):
            got[t][key] = ask(key)

    assert not _run_in_threads(grow)
    assert {key: value for part in got for key, value in part.items()} == want


def test_every_table_grows_safely_from_four_threads_at_once():
    # terms, f^r, S_2, T and both folds through the one lock: thread t asks the six tables
    # in its own rotation at n = 2 + t, 162 + t, ..., so each list grows while the others
    # do, and S_2, T and the folds grow the term lists they read; every table grows off
    # the main thread: the expected values in one thread, then the four at once
    params = SeqParams(1, 2)
    tables = (
        lambda n: terms(params, "v", 2 * n)[2 * n],
        lambda n: conv_power(BALANCING, 3, n),
        pair_plain_sum,
        rhs_pair_plain,
        lambda n: binom_conv_u(params, 4, n),
        lambda n: binom_conv_v(params, 40, n),
    )
    keys_of = [range(2 + t, 2002, 160) for t in range(4)]
    want = {}

    def in_turn(_):
        for keys in keys_of:
            want.update({(i, n): table(n) for n in keys for i, table in enumerate(tables)})

    clear_caches()
    assert not _run_in_threads(in_turn, count=1)
    clear_caches()
    got = [{} for _ in range(4)]

    def grow(t):
        for n in keys_of[t]:
            for k in range(len(tables)):
                i = (t + k) % len(tables)
                got[t][i, n] = tables[i](n)

    assert not _run_in_threads(grow)
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
    # the seeded window of a request for (r, n) ends at index min(n, r); a request either
    # starts or continues its own key's window, or, once that is built, only extends the
    # list by its recurrence; each request then grows every lower r's list, r = 1 included,
    # to n and reads it whole
    other = SeqParams(1, 2)
    requests = [  # (params, which, r, n)
        (BALANCING, "u", 3, 70),  # first call: window 0..3
        (BALANCING, "u", 3, 140),  # window built: recurrence only, crossing 128
        (BALANCING, "v", 4, 65),  # same params, other sequence: its own list
        (BALANCING, "u", 5, 100),  # higher r: its own list starts at 0
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
        # out of order, n <= r: lists of several r at different lengths inside their windows
        (other, "v", 8, 2),  # first call: window 0..2
        (other, "v", 3, 3),  # r = 3 continues at 3
        (other, "v", 8, 8),  # r = 8 continues at 3
        (other, "v", 9, 0),  # r = 9 starts at 0
        (other, "v", 9, 5),  # r = 9 continues at 1
        (other, "v", 10, 4),  # r = 10 starts at 0
        (other, "v", 7, 7),  # built by the lower-r reads of (8, 8): a lookup
        (other, "v", 10, 7),  # r = 10 continues at 5
        (other, "v", 11, 1),  # r = 11 starts at 0
        (other, "v", 10, 10),  # r = 10 continues at 8 and completes its window
        (other, "v", 10, 30),  # recurrence only
        (other, "v", 11, 12),  # r = 11 continues at 2, completes its window; then n = 12
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
    conv = {"u": binom_conv_u, "v": binom_conv_v}
    for params, which, r, n in requests:
        got = conv[which](params, r, n)
        for k in range(1, r + 1):
            conv[which](params, k, n)
            level = [conv[which](params, k, m) for m in range(n + 1)]
            assert level == want[params, which][k - 1][: n + 1], (params, which, r, n, k)
        assert got == want[params, which][r - 1][n]


#: Fold parameters: PARAM_GRID, the sweep-binomial strata with both signs of a, a = 0, b = 0.
_FOLD_PARAMS = list(dict.fromkeys([
    *PARAM_GRID,
    *(SeqParams(s * a, b) for a, b in ((2, 3), (4, -3), (1, 6), (5, -6)) for s in (1, -1)),
    SeqParams(0, 1),
    SeqParams(3, 0),
]))


@pytest.mark.parametrize("params", _FOLD_PARAMS, ids=str)
def test_binom_fold_recurrence_matches_literal_fold(params):
    # past index r each list grows by its ODE recurrence; requests come out of order and
    # cross indices r and r + 1, so a list is read at, below and past the seeded window's edge
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


@pytest.mark.parametrize("params", [*PARAM_GRID, SeqParams(-4, -3)], ids=str)
def test_binom_fold_of_large_r_matches_literal_fold(params):
    # r = 50 and 64, n = 0..r + 10 in order: the seeded window up to index r, then the
    # order-(r + 1) recurrence past it
    seqs = {which: sequences.terms(params, which, 74) for which in "uv"}
    want = {which: _literal_comb_fold(seq, 64, 74) for which, seq in seqs.items()}
    clear_caches()
    for r in (50, 64):
        for n in range(r + 11):
            assert binom_conv_u(params, r, n) == want["u"][r - 1][n], (r, n)
            assert binom_conv_v(params, r, n) == want["v"][r - 1][n], (r, n)


def _poly_mul(p, q):
    # product of two coefficient lists, highest degree first
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def test_binom_fold_matches_literal_fold_on_the_small_grid():
    # every (a, b) with |a|, |b| <= 6 and a nonzero discriminant, r = 2..9, n = 0..r + 2 in
    # order: the window of M's steps from (w_0, w_1), regrown inside itself, then the weights
    clear_caches()
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a * a + 4 * b == 0:
                continue
            params = SeqParams(a, b)
            for which, conv in (("u", binom_conv_u), ("v", binom_conv_v)):
                want = _literal_comb_fold(sequences.terms(params, which, 11), 9, 11)
                for r in range(2, 10):
                    got = [conv(params, r, n) for n in range(r + 3)]
                    assert got == want[r - 1][: r + 3], (a, b, which, r)
    clear_caches()


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
                weights = identities._binom_fold(params, r)
                assert [1, *(-w for w in weights)] == det, (a, b, r)
                assert identities._binom_fold(params, r) is weights  # one memo per (params, r)


def _fold_keys():
    return {key for key in sequences._tables if key[0] == "fold"}


def test_binom_fold_keeps_one_list_per_key(monkeypatch):
    # each (params, which, r) key is built from (w_0, w_1) and its own list alone: the window
    # through index top = min(n, r) calls math.comb once for each coordinate C(r, i) of the
    # band r - top .. r, and makes no weights; the weights are made once per (params, r),
    # only past index r, and u and v share them
    seeded = []
    monkeypatch.setattr(identities, "comb", lambda m, j: seeded.append((m, j)) or comb(m, j))
    params = SeqParams(2, 3)
    clear_caches()
    want = rhs_multinom_u(params, 5, 2000), rhs_multinom_v(params, 5, 2000)
    seeded.clear()
    assert binom_conv_u(params, 5, 2000) == want[0]
    assert seeded == [(5, i) for i in range(6)]
    assert binom_conv_v(params, 5, 2000) == want[1]
    assert seeded == [(5, i) for i in range(6)] * 2
    assert _fold_keys() == {("fold", params, "u", 5), ("fold", params, "v", 5)}
    assert identities._binom_fold.cache_info().currsize == 1
    clear_caches()
    seeded.clear()
    binom_conv_v(FIBONACCI, 1200, 3)
    assert seeded == [(1200, i) for i in range(1197, 1201)]
    assert _fold_keys() == {("fold", FIBONACCI, "v", 1200)}
    assert len(sequences._tables["fold", FIBONACCI, "v", 1200]) == 4
    assert identities._binom_fold.cache_info().currsize == 0
    # a large r with n = 0 holds one value, not one list per level, and builds no weights
    seeded.clear()
    assert binom_conv_u(params, 400_000, 0) == 0
    assert binom_conv_v(params, 100_000, 0) == 2**100_000
    assert seeded == [(400_000, 400_000), (100_000, 100_000)]
    assert _fold_keys() == {
        ("fold", FIBONACCI, "v", 1200), ("fold", params, "u", 400_000), ("fold", params, "v", 100_000)
    }
    assert [len(sequences._tables[key]) for key in sorted(_fold_keys(), key=str)] == [4, 1, 1]
    assert identities._binom_fold.cache_info().currsize == 0


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


def _sequence_keys():
    return {key for key in sequences._tables if isinstance(key[0], SeqParams)}


def test_fold_and_closed_forms_read_separate_sequence_tables():
    # The fold, r = 1 included, reads no term list and adds only its own fold lists; the
    # closed forms add only their derived pairs, (ar, (r-2j)^2 b - a^2 j(r-j)) for j < r/2,
    # u-tables only where r is odd.  At r = 1 the derived pair is (a, b) itself.
    pairs = (BALANCING, SeqParams(-2, 3))
    clear_caches()
    for params in pairs:
        for r in range(1, 6):
            for n in range(61):
                binom_conv_u(params, r, n)
                binom_conv_v(params, r, n)
    folds = {("fold", params, which, r) for params in pairs for which in "uv" for r in range(1, 6)}
    assert _sequence_keys() == set()
    assert set(sequences._tables) == folds
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
    assert _sequence_keys() == derived
    assert set(sequences._tables) - _sequence_keys() == folds


def test_closed_forms_and_oracles_grow_separate_store_tables():
    # the two routes, read off the store's keys: from an empty store no closed form adds an
    # oracle table, and no oracle adds a closed-form table (T, or a derived-pair sequence
    # table); each oracle reads only the term tables of its own parameters
    params = SeqParams(-2, 3)
    closed = [
        lambda: rhs_pair_plain(150),
        lambda: rhs_general_plain(4, 150),
        *(lambda r=r: rhs_multinom_u(params, r, 60) for r in range(1, 7)),
        *(lambda r=r: rhs_multinom_v(params, r, 60) for r in range(1, 7)),
    ]
    oracles = [
        lambda: pair_plain_sum(150),
        lambda: pair_telescope_sum(150),
        *(lambda r=r: conv_power(BALANCING, r, 150) for r in range(1, 7)),
        lambda: alt_weighted_conv(4, 150),
        *(lambda r=r: binom_conv_u(params, r, 60) for r in range(1, 7)),
        *(lambda r=r: binom_conv_v(params, r, 60) for r in range(1, 7)),
        lambda: binom_conv_c(3, 60),
    ]
    own = {(p, which) for p in (BALANCING, params) for which in "uv"}
    closed_keys = set()
    for run in closed:
        clear_caches()
        run()
        # besides term tables, at most T: no f^r, S_2 or fold list
        assert set(sequences._tables) - _sequence_keys() <= {"T"}
        closed_keys |= set(sequences._tables)
    assert closed_keys - own - {"T"}  # the derived-pair tables an oracle must not read
    for run in oracles:
        clear_caches()
        run()
        assert "T" not in sequences._tables
        assert _sequence_keys() <= own


def _key_kind(key, params):
    # "S_2", "T", "f^r", "fold", or a term list: "u"/"v" at the row's own parameters, or
    # "derived u"/"derived v" at the derived pairs of the binomial closed forms
    if key in ("S_2", "T"):
        return key
    if key[0] in ("f^r", "fold"):
        return key[0]
    key_params, which = key
    return which if key_params == params else f"derived {which}"


#: Row -> (key kinds the oracle reaches, key kinds the closed form reaches), r = 3 where the
#: row leaves r free, general-u/v at r = 1 too, and the default (6, -1) for general-u/v.  Only
#: a term list at the row's own parameters is shared; no fold reaches a term list, since its
#: window starts from (w_0, w_1) alone.
_ROUTE_KINDS = {
    "pair-telescope": ({"S_2", "u"}, {"u"}),
    "triple-alt": ({"f^r"}, {"u"}),
    "general-alt": ({"f^r"}, {"u"}),
    "cor-printed-r4": ({"f^r"}, {"u"}),
    "cor-printed-r5": ({"f^r"}, {"u"}),
    "cor-printed-r6": ({"f^r"}, {"u"}),
    "pair-plain": ({"S_2", "u"}, {"T", "u"}),
    "general-plain": ({"f^r"}, {"u"}),
    "binom-pair-b": ({"fold"}, {"v"}),
    "binom-pair-c": ({"fold"}, {"v"}),
    "multinom-triple-b": ({"fold"}, {"u", "derived u"}),
    "multinom-triple-c": ({"fold"}, {"v", "derived v"}),
    "general-u": ({"fold"}, {"derived u"}),
    "general-v": ({"fold"}, {"derived v"}),
    "general-u r=1": ({"fold"}, {"u"}),
    "general-v r=1": ({"fold"}, {"v"}),
    "fib-pair-f": ({"fold"}, {"v"}),
    "fib-pair-l": ({"fold"}, {"v"}),
}


def _row_args(identity, r=3):
    info = CATALOG[identity]
    return resolve_identity_args(identity, None, r if info.r is None else None)


#: Row -> (identity, r where it leaves r free): every catalog row, plus general-u/v at r = 1,
#: where both routes give w_n, the fold by one step of M and the closed form from its table.
_ROWS = {identity: (identity, 3) for identity in CATALOG} | {
    f"{identity} r=1": (identity, 1) for identity in ("general-u", "general-v")
}


def test_each_route_reaches_only_its_own_tables(monkeypatch):
    # every table read goes through grow(), so a spy on it sees each key a side reaches,
    # read or grown; a closed form that read an oracle table, or an oracle that read T or a
    # derived pair, would change the pinned kinds
    reached, grow = [], sequences.grow

    def spy(key, n, make):
        reached.append(key)
        return grow(key, n, make)

    monkeypatch.setattr(sequences, "grow", spy)
    monkeypatch.setattr(identities, "grow", spy)
    kinds = {}
    for row, (identity, free_r) in _ROWS.items():
        info = CATALOG[identity]
        params, r = _row_args(identity, free_r)
        sides = []
        for side in (info.lhs, info.rhs):
            clear_caches()
            reached.clear()
            for n in range(info.domain.n_min(r), 31):
                side(params, r, n)
            sides.append({_key_kind(key, params) for key in reached})
        kinds[row] = tuple(sides)
    assert kinds == _ROUTE_KINDS
    for oracle, closed in kinds.values():
        assert not closed & {"f^r", "S_2", "fold"}
        assert not oracle & {"T", "derived u", "derived v"}
        if "fold" in oracle:
            assert not oracle & {"u", "v"}


def test_every_catalog_side_carries_its_function_name():
    # the _of_n/_of_r_n adapters take the name and qualified name of the function they call,
    # so a trace span or a traceback names the side, never <lambda>
    for identity, info in CATALOG.items():
        for side in (info.lhs, info.rhs):
            fn = getattr(side, "__wrapped__", side)
            assert getattr(identities, fn.__name__) is fn, identity
            assert (side.__name__, side.__qualname__) == (fn.__name__, fn.__qualname__), identity
    side = CATALOG["general-alt"].rhs
    assert (side.__name__, side.__wrapped__) == ("rhs_general_alt", rhs_general_alt)
    assert side(BALANCING, 3, 10) == rhs_general_alt(3, 10)


def test_every_record_replays_in_a_bounded_window(monkeypatch):
    # each table's make() returns its recurrence as data, (seed, weights, forcing); rerun from
    # that record alone, holding only max(len(seed), len(weights)) values, it gives every
    # value of the store's list through the n it was made for
    records, grow = [], sequences.grow

    def spy(key, n, make):
        def recording_make():
            record = make()
            records.append((key, n, record))
            return record

        return grow(key, n, recording_make)

    monkeypatch.setattr(sequences, "grow", spy)
    monkeypatch.setattr(identities, "grow", spy)
    clear_caches()
    for identity in CATALOG:
        verify_identity(identity, (None, 40), *_row_args(identity))
    kinds = {key if isinstance(key, str) else key[0] if isinstance(key[0], str) else "terms"
             for key, _, _ in records}
    assert kinds == {"terms", "f^r", "S_2", "T", "fold"}
    assert any(len(weights) > 2 and n > len(seed) for key, n, (seed, weights, _) in records)
    for key, n, (seed, weights, forcing) in records:
        assert all(type(x) is int for x in (*seed, *weights)), key
        window = deque(maxlen=max(len(seed), len(weights)))
        listed = sequences._tables[key]
        for m in range(n + 1):
            if m < len(seed):
                value = seed[m]
            else:
                value = sum(w * h for w, h in zip(weights, reversed(window)))
                value += forcing(m) if forcing is not None else 0
            window.append(value)
            assert value == listed[m], (key, m)
    clear_caches()


#: Shared term list -> the rows whose sweep to n = 30 must find one of its entries off by one.
_READERS = {
    "B": ((BALANCING, "u"), {"pair-telescope", "triple-alt", "general-alt", "cor-printed-r4",
                             "cor-printed-r5", "cor-printed-r6", "pair-plain", "general-plain",
                             "multinom-triple-b", "general-u r=1"}),
    "C": ((BALANCING, "v"), {"binom-pair-b", "binom-pair-c", "multinom-triple-c", "general-v r=1"}),
    "Lucas": ((FIBONACCI, "v"), {"fib-pair-f", "fib-pair-l"}),
}


@pytest.mark.parametrize("key, readers", _READERS.values(), ids=_READERS)
def test_a_wrong_shared_term_is_found_by_every_row_that_reads_it(key, readers):
    # +1 at index 7 of a term list both routes of some row fetch.  Every row that reads that
    # value reports a witness n >= 7; binom-pair-b/c and multinom-triple-b/c, whose closed
    # forms then divide inexactly, report theirs as a side that is not an integer.  Every
    # other row reads nothing of it and gives its clean report, cor-printed-r5's transcription
    # failures included: a fold, r = 1 included, starts from (w_0, w_1) and grows from
    # weights in (a, b), so it reads no term list
    def sweep(identity, r):
        return verify_identity(identity, (None, 30), *_row_args(identity, r))

    clear_caches()
    clean = {row: sweep(*args) for row, args in _ROWS.items()}
    for row, args in _ROWS.items():
        clear_caches()
        terms(*key, 40)[7] += 1
        report = sweep(*args)
        if row in readers:
            assert not report.passed and report != clean[row], row
            assert report.failures[0].n >= 7
        else:
            assert report == clean[row], row
    clear_caches()


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
    report = verify_identity("pair-telescope", (1, 100))
    assert report.passed
    assert report.checked == 100
    assert report.n_range == (1, 100)
    assert report.failures == ()
    assert report.r == 2
    assert report.params == BALANCING


def test_verify_general_alt():
    report = verify_identity("general-alt", (7, 100), r=4)
    assert report.passed and report.checked == 94


def test_verify_clamps_to_domain():
    report = verify_identity("triple-alt", (0, 20))
    assert report.n_range == (4, 20)
    assert report.checked == 17
    assert verify_identity("triple-alt", (None, 20)) == report


def test_verify_printed_r5_records_failures():
    report = verify_identity("cor-printed-r5", (10, 30))
    assert not report.passed
    assert [f.n for f in report.failures] == list(range(12, 31))
    # every witness re-evaluates to the recorded values
    for f in report.failures:
        assert f.lhs == alt_weighted_conv(5, f.n)
        assert f.rhs == rhs_printed_corollary(5, f.n)
        assert f.lhs == rhs_general_alt(5, f.n)  # the oracle sides with the general form


def test_verify_general_u_params():
    report = verify_identity("general-u", (0, 25), params=SeqParams(3, 2), r=4)
    assert report.passed
    assert report.params == SeqParams(3, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["general-u", "general-v"]),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(1, 5),
)
@example("general-u", -3, 2, 5)
@example("general-v", 2, -5, 4)
@example("general-u", 1, -1, 3)  # D = -3: a negative exact divisor
@example("general-u", 2, -3, 2)  # D = -8
def test_verify_general_u_v_random_params(identity, a, b, r):
    assume(a * a + 4 * b != 0)
    report = verify_identity(identity, (0, 15), params=SeqParams(a, b), r=r)
    assert report.passed and report.checked == 16


def test_verify_usage_errors():
    with pytest.raises(ValueError):
        verify_identity("pair-telescope", (1, 10), params=FIBONACCI)
    with pytest.raises(ValueError):
        verify_identity("general-alt", (7, 10))  # r missing
    with pytest.raises(ValueError):
        verify_identity("general-alt", (7, 10), r=1)
    with pytest.raises(ValueError):
        verify_identity("triple-alt", (10, 5))  # empty range
    with pytest.raises(ValueError):
        verify_identity("triple-alt", (0, 3))  # below domain entirely
    with pytest.raises(ValueError):
        verify_identity("triple-alt", (4, 10), r=5)  # fixed r mismatch


#: Each public oracle and closed form with its domain: (name, r, least n at r, least r),
#: r and least r None where the side takes no r.  The sides of (params, r, n) run at (6, -1).
_SIDE_DOMAINS = [
    ("conv_power", 1, 0, 1),
    ("conv_power", 4, 0, 1),
    ("conv_power_by_enumeration", 1, 0, 1),
    ("alt_weighted_conv", 2, 0, 2),
    ("alt_weighted_conv", 5, 0, 2),
    ("pair_plain_sum", None, 0, None),
    ("pair_telescope_sum", None, 0, None),
    ("binom_conv_u", 1, 0, 1),
    ("binom_conv_v", 1, 0, 1),
    ("binom_conv_c", 1, 0, 1),
    ("rhs_general_alt", 2, 1, 2),
    ("rhs_general_alt", 4, 7, 2),
    ("rhs_triple_alt", None, 4, None),
    ("rhs_printed_corollary", 4, 7, 4),
    ("rhs_printed_corollary", 6, 13, 4),
    ("rhs_pair_telescope", None, 1, None),
    ("rhs_pair_plain", None, 2, None),
    ("rhs_general_plain", 2, 2, 2),
    ("rhs_general_plain", 5, 5, 2),
    ("rhs_multinom_u", 1, 0, 1),
    ("rhs_multinom_u", 4, 0, 1),
    ("rhs_multinom_v", 1, 0, 1),
    ("rhs_binom_pair_b", None, 0, None),
    ("rhs_binom_pair_c", None, 0, None),
    ("rhs_multinom_triple_b", None, 0, None),
    ("rhs_multinom_triple_c", None, 0, None),
    ("rhs_fib_pair_f", None, 0, None),
    ("rhs_fib_pair_l", None, 0, None),
]


def _call_side(name, r, n):
    side = getattr(identities, name)
    args = {"params": BALANCING, "r": r, "n": n}
    return side(*(args[arg] for arg in inspect.signature(side).parameters))


@pytest.mark.parametrize(
    "name, r, n_min, min_r", _SIDE_DOMAINS, ids=[f"{row[0]} r={row[1]}" for row in _SIDE_DOMAINS]
)
def test_every_side_rejects_the_first_argument_outside_its_domain(name, r, n_min, min_r):
    # the message must be the side's own: a side that lost its check may still fail deeper
    # down (v(-1), itertools at r = 0) or return a value read from the wrong end of a list
    assert type(_call_side(name, r, n_min)) is int
    with pytest.raises(ValueError, match=rf"^{name}: .*\bgot {n_min - 1}$"):
        _call_side(name, r, n_min - 1)
    if min_r is not None:
        with pytest.raises(ValueError, match=rf"^{name}: .*\bgot {min_r - 1}$"):
            _call_side(name, min_r - 1, n_min)


#: The README catalog table's domains, written out: identity -> {r: least n at r}, the
#: smallest r listed being the least r the row admits.
_DOCUMENTED_DOMAINS = {
    "pair-telescope": {2: 1},
    "triple-alt": {3: 4},
    "general-alt": {2: 1, 3: 4, 4: 7, 7: 16},
    "cor-printed-r4": {4: 7},
    "cor-printed-r5": {5: 10},
    "cor-printed-r6": {6: 13},
    "pair-plain": {2: 2},
    "general-plain": {2: 2, 3: 3, 6: 6},
    "binom-pair-b": {2: 0},
    "binom-pair-c": {2: 0},
    "multinom-triple-b": {3: 0},
    "multinom-triple-c": {3: 0},
    "general-u": {1: 0, 2: 0, 5: 0},
    "general-v": {1: 0, 2: 0, 5: 0},
    "fib-pair-f": {2: 0},
    "fib-pair-l": {2: 0},
}


@pytest.mark.parametrize("identity", _DOCUMENTED_DOMAINS)
def test_each_identity_keeps_its_documented_domain(identity):
    # literal values, not CATALOG's: a row moved to another rule together with its closed
    # form (pair-plain to n >= 1, where T(1) = S_2(1) = 0) still passes every sweep
    domain = _DOCUMENTED_DOMAINS[identity]
    for r, n_min in domain.items():
        assert verify_identity(identity, (None, n_min + 2), r=r).n_range == (n_min, n_min + 2)
    with pytest.raises(ValueError, match=rf"^{identity} (requires|has fixed) r"):
        resolve_identity_args(identity, None, min(domain) - 1)


def test_resolve_identity_args_defaults():
    assert resolve_identity_args("general-u", None, 3) == (BALANCING, 3)
    assert resolve_identity_args("fib-pair-f") == (FIBONACCI, 2)
    info = CATALOG["general-alt"]
    assert info.domain.n_min(4) == 7 and info.domain.n_min(2) == 1


def test_report_round_trip():
    for report in (
        verify_identity("general-alt", (7, 40), r=4),
        verify_identity("cor-printed-r5", (10, 25)),
        verify_identity("general-v", (0, 12), params=SeqParams(1, 2), r=3),
        # a witness past CPython's default 4300-digit int/str limit (B_6000 has ~4600)
        VerificationReport(
            "pair-plain", BALANCING, 2, (6000, 6000), 1,
            (Failure(6000, balancing(6000), balancing(6000) + 1),),
        ),
    ):
        data = report_to_dict(report)
        assert all(isinstance(x, str) for x in (data["r"], data["checked"], *data["range"]))
        assert report_from_dict(data) == report


def test_a_name_outside_the_catalog_is_a_value_error():
    with pytest.raises(ValueError, match="^unknown identity 'bogus'$"):
        verify_identity("bogus", (0, 1))
    with pytest.raises(ValueError, match="^unknown identity 'bogus'$"):
        resolve_identity_args("bogus")
    data = report_to_dict(verify_identity("pair-telescope", (1, 3))) | {"identity": "bogus"}
    with pytest.raises(ValueError, match="^unknown identity 'bogus'$"):
        report_from_dict(data)


def test_a_side_that_is_not_an_integer_fails_even_against_the_same(monkeypatch):
    # both sides leave the same remainder at every n: equal records, but no integer, so no match
    def inexact(params, r, n):
        return exact_div(2 * n + 1, 2)

    info = CATALOG["pair-plain"]
    monkeypatch.setitem(CATALOG, "pair-plain", dataclasses.replace(info, lhs=inexact, rhs=inexact))
    report = verify_identity("pair-plain", (2, 4))
    assert report.failures == tuple(Failure(n, NotInteger(2, 1), NotInteger(2, 1)) for n in (2, 3, 4))
    assert report_to_dict(report)["failures"][0]["lhs"] == {"divisor": "2", "remainder": "1"}
    assert report_from_dict(report_to_dict(report)) == report


def test_clear_caches_drops_every_memo():
    conv_power(BALANCING, 3, 10)
    binom_conv_v(FIBONACCI, 2, 5)
    binom(9, 4)
    pair_plain_sum(12)
    rhs_pair_plain(12)
    # every memo in the package's modules, so one added later but not cleared fails here
    memos = {
        f"{module.__name__}.{name}": cached
        for module in (identities, combinatorics, sequences, series)
        for name, cached in vars(module).items()
        if hasattr(cached, "cache_clear")
    }
    assert {
        "balconv.identities._ogf_power", "balconv.identities._binom_fold", "balconv.combinatorics.binom"
    } <= set(memos)
    # and every kind of list in the store: terms, f^r, S_2, T and the fold
    assert {key[0] for key in sequences._tables if not isinstance(key, str)} >= {
        BALANCING, FIBONACCI, "f^r", "fold"
    }
    assert {"S_2", "T"} <= set(sequences._tables)
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


def test_value_records_are_tuples_and_identity_info_the_only_dataclass():
    # perfbench/tracer.py rebuilds CATALOG with dataclasses.replace, so IdentityInfo stays a
    # dataclass; every other record is a tuple, and sequences never imports dataclasses
    modules = [balconv] + [
        importlib.import_module(f"balconv.{info.name}") for info in pkgutil.iter_modules(balconv.__path__)
    ]
    found = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
    }
    assert found == {IdentityInfo}
    tree = ast.parse(Path(sequences.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported
    report = verify_identity("cor-printed-r5", (10, 14))
    assert isinstance(report, tuple) and isinstance(report.failures[0], tuple)
    assert isinstance(VerificationReport.passed, property) and not report.passed
    assert hash(report) == hash(verify_identity("cor-printed-r5", (10, 14)))
    with pytest.raises(AttributeError):
        report.checked = 0
    with pytest.raises(AttributeError):
        report.failures[0].lhs = 0


def _count_growths(monkeypatch) -> list:
    # counts growths, not reads: the key is logged when grow() calls make, which it does
    # only when the list must grow; identities binds grow by name, so both names are wrapped
    calls, grow = [], sequences.grow

    def counting(key, n, make):
        def counted_make():
            calls.append(key)
            return make()

        return grow(key, n, counted_make)

    monkeypatch.setattr(sequences, "grow", counting)
    monkeypatch.setattr(identities, "grow", counting)
    return calls


def test_a_sweep_grows_each_table_once(monkeypatch):
    # evaluate_range computes the row at hi first, so each table grows once, to the top
    # of the range, and every lower row reads it as it is: not one growth per n.  Three
    # keys: the u fold, which reads no term list, and the closed form's two derived v pairs
    clear_caches()
    calls = _count_growths(monkeypatch)
    report = verify_identity("general-u", (0, 250), SeqParams(2, 3), 4)
    assert report.passed and report.checked == 251
    assert len(calls) == len(set(calls)) == len(sequences._tables) == 3


@pytest.mark.parametrize("identity", CATALOG)
def test_no_sweep_grows_a_table_per_n(identity, monkeypatch):
    # once per key: no oracle's make reads a term list short of the top, so no list grows
    # part way before a closed form of the same sweep grows it to the top
    clear_caches()
    calls = _count_growths(monkeypatch)
    r = 4 if CATALOG[identity].r is None else None
    report = verify_identity(identity, (None, 250), None, r)
    assert report.checked > 200
    assert set(calls) == set(sequences._tables)
    assert max(Counter(calls).values()) == 1


#: One read per store key kind: the terms, f^r, S_2, T and a fold read past its index r.
_TABLE_READS = {
    "terms": lambda n: sequences.terms(SeqParams(2, 3), "v", n)[n],
    "f^r": lambda n: conv_power(BALANCING, 3, n),
    "S_2": pair_plain_sum,
    "T": rhs_pair_plain,
    "fold": lambda n: binom_conv_v(SeqParams(2, 3), 4, n),
}


@pytest.mark.parametrize("read", _TABLE_READS.values(), ids=_TABLE_READS)
def test_a_second_read_makes_nothing(read, monkeypatch):
    # grow() calls make only when a list must grow, so once a table holds its top a read
    # at the top or below it builds no record and fetches no P^r, weights or terms
    def refuse(*args, **kwargs):
        raise AssertionError("a read of a grown table fetched what only growth needs")

    clear_caches()
    read(90)
    calls = _count_growths(monkeypatch)
    for name in ("_ogf_power", "_binom_fold", "terms"):
        monkeypatch.setattr(identities, name, refuse)
    got = {n: read(n) for n in (90, 89, 40, 5, 2)}
    assert calls == []
    monkeypatch.undo()
    clear_caches()
    assert got == {n: read(n) for n in got}


def _multinom_sum_by_comb(params, which, sign, r, n, row):
    # identities._multinom_sum with the literal binomial row C(r, 0..r/2) in place of the carried one
    half = r // 2
    total = sum(
        sign**j * row[j] * identities._binomial_lucas(params, which, params.a * j, r - 2 * j, n)
        for j in range((r + 1) // 2)
    )
    if r % 2 == 0:
        total += sign**half * row[half] * (params.a * half) ** n
    return total


@pytest.mark.parametrize("r", [2000, 2001])
def test_multinom_closed_forms_at_large_r_match_the_fold_and_a_literal_comb_row(r):
    params = SeqParams(2, 3)
    row = [comb(r, j) for j in range(r // 2 + 1)]
    for n in range(4):
        assert rhs_multinom_u(params, r, n) == binom_conv_u(params, r, n)  # 0 below n = r
        assert rhs_multinom_v(params, r, n) == binom_conv_v(params, r, n)
        for which, sign in (("u" if r % 2 else "v", -1), ("v", 1)):
            carried = identities._multinom_sum(params, which, sign, r, n)
            assert carried == _multinom_sum_by_comb(params, which, sign, r, n, row)


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
