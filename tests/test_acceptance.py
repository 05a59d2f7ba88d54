"""Acceptance sweep: every catalogued identity verified exactly, at scale.

Each criterion prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
All comparisons are bit-exact; the only tolerances are wall-clock budgets.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

from balconv.cli import run
from balconv.combinatorics import IntegralityError
from balconv.identities import (
    alt_weighted_conv,
    conv_power,
    conv_power_by_enumeration,
    report_from_dict,
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
    rhs_printed_corollary,
    rhs_triple_alt,
    verify_identity,
)
from balconv.sequences import BALANCING, balancing, lucas_balancing, u, v
from balconv.series import verify_ogf_square_relation, verify_power_expansion
from helpers import PARAM_GRID


def _criterion(num, label, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - t0
    within = limit_s is None or elapsed < limit_s
    timing = f"{elapsed:.2f}s" + (f" < {limit_s:.0f}s" if limit_s is not None else "")
    print(f"[{'PASS' if within else 'FAIL'}] criterion {num}: {label} ({timing})")
    assert within, f"criterion {num} exceeded its budget: {elapsed:.2f}s >= {limit_s}s"


def test_criterion_1_pair_telescope():
    def body():
        report = verify_identity("pair-telescope", (1, 500))
        assert report.passed and report.checked == 500

    _criterion(1, "telescoping pair identity, 1 <= n <= 500, exact", 5.0, body)


def test_criterion_2_triple_alternating():
    def body():
        report = verify_identity("triple-alt", (4, 300))
        assert report.passed and report.checked == 297

    _criterion(2, "alternating triple identity, 4 <= n <= 300, exact", 10.0, body)


def test_criterion_3_general_alternating():
    def body():
        for r in range(2, 9):
            report = verify_identity("general-alt", (3 * r - 5, 200), r=r)
            assert report.passed, r
        for n in range(1, 201):
            assert rhs_general_alt(2, n) == (n - 1) * balancing(n - 1)
        for n in range(4, 201):
            assert rhs_general_alt(3, n) == rhs_triple_alt(n)

    _criterion(3, "general alternating identity, r in 2..8, n <= 200, exact", 60.0, body)


def test_criterion_4_printed_corollaries():
    def body():
        assert verify_identity("cor-printed-r4", (7, 200)).passed
        assert verify_identity("cor-printed-r6", (13, 200)).passed
        for n in range(7, 201):
            assert rhs_printed_corollary(4, n) == rhs_general_alt(4, n)
        for n in range(13, 201):
            assert rhs_printed_corollary(6, n) == rhs_general_alt(6, n)
        # r = 5: transcription diverges exactly where its suspect term is nonzero
        report = verify_identity("cor-printed-r5", (10, 200))
        suspect = lambda n: Fraction((n - 5) * (n - 8) * (n - 10) * (n - 11), 8)
        expected = [n for n in range(10, 201) if suspect(n) * balancing(n - 8) != 0]
        assert expected == list(range(12, 201))
        assert [f.n for f in report.failures] == expected
        # re-indexing the suspect term restores agreement everywhere
        for n in range(10, 201):
            repaired = rhs_printed_corollary(5, n) + suspect(n) * (balancing(n - 8) - balancing(n - 6))
            assert repaired == rhs_general_alt(5, n)

    _criterion(4, "transcribed corollaries r=4,6 exact; r=5 divergence mapped and repaired", None, body)


def test_criterion_5_plain_convolutions():
    def body():
        report = verify_identity("pair-plain", (2, 500))
        assert report.passed and report.checked == 499
        for r in range(2, 9):
            assert verify_identity("general-plain", (r, 200), r=r).passed, r

    _criterion(5, "plain pair identity n <= 500; general plain r in 2..8, n <= 200", 60.0, body)


def test_criterion_6_binomial_pair_and_triple():
    def body():
        assert verify_identity("binom-pair-b", (0, 300)).passed
        assert verify_identity("binom-pair-c", (0, 300)).passed
        assert verify_identity("multinom-triple-b", (0, 200)).passed
        assert verify_identity("multinom-triple-c", (0, 200)).passed

    _criterion(6, "binomial pair identities n <= 300; triple products n <= 200", None, body)


def test_criterion_7_general_multinomial_family():
    def body():
        for params in PARAM_GRID:
            for r in range(1, 8):
                assert verify_identity("general-u", (0, 100), params=params, r=r).passed
                assert verify_identity("general-v", (0, 100), params=params, r=r).passed
        assert verify_identity("fib-pair-f", (0, 300)).passed
        assert verify_identity("fib-pair-l", (0, 300)).passed

    _criterion(
        7,
        "all four multinomial branches on 5 parameter pairs, r in 1..7, n <= 100; "
        "Fibonacci/Lucas pair forms n <= 300",
        120.0,
        body,
    )


def test_criterion_8_series_engine():
    def body():
        assert verify_ogf_square_relation(200)
        for r in range(2, 7):
            assert verify_power_expansion(r, 80), r

    _criterion(8, "series engine: square relation to order 200, power expansions r in 2..6 to order 80", 60.0, body)


def test_criterion_9_property_suites():
    def body():
        for params in PARAM_GRID:
            d = params.discriminant
            for n in range(301):
                assert v(params, n) ** 2 - d * u(params, n) ** 2 == 4 * (-params.b) ** n
        for n in range(301):
            assert lucas_balancing(n) ** 2 - 8 * balancing(n) ** 2 == 1
        for r in range(1, 5):
            for n in range(13):
                assert conv_power(BALANCING, r, n) == conv_power_by_enumeration(BALANCING, r, n)
        # integrality assertion must never fire on any validity domain above
        try:
            for r in range(2, 9):
                for n in range(3 * r - 5, 201):
                    rhs_general_alt(r, n)
                for n in range(r, 201):
                    rhs_general_plain(r, n)
            for r, n_min in ((4, 7), (5, 10), (6, 13)):
                for n in range(n_min, 201):
                    rhs_printed_corollary(r, n)
            for n in range(301):
                rhs_binom_pair_b(n)
                rhs_binom_pair_c(n)
                rhs_fib_pair_f(n)
                rhs_fib_pair_l(n)
            for n in range(201):
                rhs_multinom_triple_b(n)
                rhs_multinom_triple_c(n)
            for params in PARAM_GRID:
                for r in range(1, 8):
                    for n in range(101):
                        rhs_multinom_u(params, r, n)
                        rhs_multinom_v(params, r, n)
        except IntegralityError as exc:
            raise AssertionError(f"integrality assertion fired: {exc}") from exc

    _criterion(9, "Binet norm, Pell-like norm, oracle self-consistency, integrality sweep", None, body)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_cli_contract():
    def body():
        seq_argv = ["seq", "--kind", "balancing", "--to", "5", "--format", "csv"]
        code, out, _ = _invoke(seq_argv)
        assert code == 0 and out == "0,1,6,35,204,1189\n"
        assert _invoke(seq_argv) == (code, out, "")

        json_argv = ["verify", "--identity", "general-alt", "--r", "4", "--n-max", "100", "--format", "json"]
        code, out, _ = _invoke(json_argv)
        assert code == 0
        assert _invoke(json_argv) == (code, out, "")
        report = report_from_dict(json.loads(out))
        assert report == verify_identity("general-alt", (7, 100), r=4)

        fail_argv = ["verify", "--identity", "cor-printed-r5", "--n-max", "50"]
        code, out, _ = _invoke(fail_argv)
        assert code == 1 and "failures=39" in out
        assert _invoke(fail_argv) == (code, out, "")

    _criterion(10, "documented CLI invocations: exit codes, byte determinism, JSON round-trip", None, body)
