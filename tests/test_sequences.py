import importlib
import pkgutil
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import balconv
from balconv import sequences
from balconv.identities import clear_caches
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
from helpers import check_cross_recurrence

def params_or_none(a, b):
    try:
        return SeqParams(a, b)
    except ValueError:
        return None


valid_params_st = (
    st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    .map(lambda ab: params_or_none(*ab))
    .filter(lambda p: p is not None)
)


def test_u_examples():
    assert u(BALANCING, 0) == 0
    assert u(BALANCING, 5) == 1189
    assert u(FIBONACCI, 10) == 55
    assert [balancing(n) for n in range(7)] == [0, 1, 6, 35, 204, 1189, 6930]


def test_v_examples():
    assert v(FIBONACCI, 0) == 2
    assert v(BALANCING, 2) == 34
    assert v(FIBONACCI, 3) == 4
    assert [lucas(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]


def test_lucas_balancing_examples():
    assert lucas_balancing(0) == 1
    assert lucas_balancing(1) == 3
    assert lucas_balancing(4) == 577
    assert [lucas_balancing(n) for n in range(6)] == [1, 3, 17, 99, 577, 3363]


def test_fibonacci_values():
    assert [u(FIBONACCI, n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        u(BALANCING, -1)
    with pytest.raises(ValueError):
        v(BALANCING, -2)
    with pytest.raises(ValueError):
        lucas_balancing(-1)


def test_zero_discriminant_rejected():
    with pytest.raises(ValueError):
        SeqParams(2, -1)
    with pytest.raises(ValueError):
        SeqParams(-4, -4)


def test_seq_params_is_a_tuple_that_keeps_its_check():
    params = SeqParams(a=2, b=3)
    assert repr(params) == str(params) == "SeqParams(a=2, b=3)"  # the test ids use ids=str
    assert params == SeqParams(2, 3) and hash(params) == hash((2, 3)) and params != SeqParams(3, 2)
    with pytest.raises(AttributeError):
        params.a = 1
    with pytest.raises(ValueError):
        SeqParams(a=2, b=-1)
    # store keys stay distinct per pair and per sequence
    clear_caches()
    for p in (params, SeqParams(3, 2)):
        for which in "uv":
            terms(p, which, 3)
    assert len(sequences._tables) == 4


def test_discriminant_values():
    assert BALANCING.discriminant == 32
    assert FIBONACCI.discriminant == 5
    assert SeqParams(3, 2).discriminant == 17


@given(valid_params_st, st.integers(2, 60))
def test_recurrence_invariant(params, n):
    assert u(params, n) == params.a * u(params, n - 1) + params.b * u(params, n - 2)
    assert v(params, n) == params.a * v(params, n - 1) + params.b * v(params, n - 2)


@given(valid_params_st, st.integers(0, 80))
def test_binet_norm(params, n):
    # v_n^2 - D u_n^2 = 4 (-b)^n
    d = params.discriminant
    assert v(params, n) ** 2 - d * u(params, n) ** 2 == 4 * (-params.b) ** n


def test_lucas_balancing_parity():
    for n in range(300):
        assert v(BALANCING, n) % 2 == 0


def test_pell_like_norm():
    for n in range(300):
        assert lucas_balancing(n) ** 2 - 8 * balancing(n) ** 2 == 1


def test_cross_recurrence():
    assert check_cross_recurrence(0)
    assert check_cross_recurrence(4)
    assert check_cross_recurrence(200)


def test_cross_recurrence_rejects_negative():
    with pytest.raises(ValueError):
        check_cross_recurrence(-1)


def test_cache_idempotence():
    first = [u(BALANCING, n) for n in range(40)]
    # deeper query must not disturb already-computed entries
    u(BALANCING, 400)
    second = [u(BALANCING, n) for n in range(40)]
    assert first == second
    assert u(BALANCING, 400) == u(BALANCING, 400)


def _recurrence(params, first, second, count):
    out = [first, second]
    while len(out) < count:
        out.append(params.a * out[-1] + params.b * out[-2])
    return out


def test_terms_returns_one_list_grown_in_place_out_of_order():
    params = SeqParams(1, 2)
    want = {"u": _recurrence(params, 0, 1, 77), "v": _recurrence(params, 2, 1, 77)}
    clear_caches()
    lists = {which: terms(params, which, 0) for which in "uv"}
    assert lists["u"] is not lists["v"]
    for n in (40, 3, 75, 0, 76):
        for which, values in lists.items():
            assert terms(params, which, n) is values
            assert len(values) > n
            assert values == want[which][: len(values)]
    assert u(params, 76) is lists["u"][76] and v(params, 76) is lists["v"][76]


def test_terms_grow_safely_from_four_threads():
    params, n_max = SeqParams(3, 2), 400
    want = {"u": _recurrence(params, 0, 1, n_max + 1), "v": _recurrence(params, 2, 3, n_max + 1)}
    clear_caches()
    start = threading.Barrier(4, timeout=60)
    seen = [[] for _ in range(4)]

    def grow(t):
        start.wait()
        for n in range(t, n_max + 1, 4):  # thread t asks n = t, t + 4, ...: interleaved growth
            for which in "uv":
                values = terms(params, which, n)
                seen[t].append((which, values, n, values[n]))

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
    final = {which: terms(params, which, n_max) for which in "uv"}
    for which, values, n, value in (entry for part in seen for entry in part):
        assert values is final[which] and value == want[which][n]
    for which, values in final.items():
        assert values[: n_max + 1] == want[which]


def test_the_table_store_holds_the_package_s_only_lock():
    # one table policy: every grow-only list grows through sequences.grow under its lock,
    # so no module of the package holds a lock of its own
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    modules = [balconv] + [
        importlib.import_module(f"balconv.{info.name}") for info in pkgutil.iter_modules(balconv.__path__)
    ]
    locks = [
        (module.__name__, name, value)
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, lock_types)
    ]
    assert len(locks) == 1 and locks[0][2] is sequences._lock
