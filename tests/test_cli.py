import contextlib
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from balconv import cli, sequences
from balconv.cli import run
from balconv.combinatorics import exact_div, unlimited_int_digits
from balconv.identities import (
    CATALOG,
    binom_conv_c,
    binom_conv_u,
    binom_conv_v,
    clear_caches,
    report_from_dict,
    resolve_identity_args,
    verify_identity,
)
from balconv.sequences import BALANCING, FIBONACCI, SeqParams, balancing, lucas, lucas_balancing, u

#: stdout and exit code of every subcommand in every format, pinned byte for byte.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the three documented invocations
# ---------------------------------------------------------------------------


def test_documented_seq_csv():
    code, out, _ = invoke(["seq", "--kind", "balancing", "--to", "5", "--format", "csv"])
    assert code == 0
    assert out == "0,1,6,35,204,1189\n"


def test_documented_verify_general_alt_json():
    argv = ["verify", "--identity", "general-alt", "--r", "4", "--n-max", "100", "--format", "json"]
    code, out, _ = invoke(argv)
    assert code == 0
    data = json.loads(out)
    assert data["identity"] == "general-alt"
    assert data["params"] == {"a": "6", "b": "-1"}
    assert data["r"] == "4"
    assert data["range"] == ["7", "100"]
    assert data["checked"] == "94"
    assert data["failures"] == []


def test_documented_verify_printed_r5_fails():
    code, out, _ = invoke(["verify", "--identity", "cor-printed-r5", "--n-max", "50"])
    assert code == 1
    assert "status=FAIL" in out
    assert "n=12" in out  # first divergent index


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(case):
    code, out, err = invoke(case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], "")


# ---------------------------------------------------------------------------
# determinism and round-trips
# ---------------------------------------------------------------------------


def test_byte_determinism():
    for argv in (
        ["seq", "--kind", "balancing", "--to", "5", "--format", "csv"],
        ["verify", "--identity", "general-alt", "--r", "4", "--n-max", "60", "--format", "json"],
        ["verify", "--identity", "cor-printed-r5", "--n-max", "30"],
        ["table", "--identity", "pair-plain", "--n-max", "8", "--format", "csv"],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_json_report_round_trip():
    argv = ["verify", "--identity", "cor-printed-r5", "--n-max", "30", "--format", "json"]
    _, out, _ = invoke(argv)
    report = report_from_dict(json.loads(out))
    assert report == verify_identity("cor-printed-r5", (10, 30))


def test_json_integers_are_decimal_strings():
    argv = ["verify", "--identity", "pair-telescope", "--n-min", "160", "--n-max", "170", "--format", "json"]
    _, out, _ = invoke(argv)
    data = json.loads(out)
    assert isinstance(data["checked"], str)
    # B_170 vastly exceeds 64-bit range; strings keep it lossless
    assert data["failures"] == []


# ---------------------------------------------------------------------------
# per-command behavior
# ---------------------------------------------------------------------------


def test_seq_formats_and_kinds():
    code, out, _ = invoke(["seq", "--kind", "lucas-balancing", "--to", "4", "--format", "csv"])
    assert code == 0 and out == "1,3,17,99,577\n"
    code, out, _ = invoke(["seq", "--kind", "fibonacci", "--to", "6", "--format", "plain"])
    assert code == 0 and out.splitlines()[-1] == "6 8"
    code, out, _ = invoke(["seq", "--kind", "u", "--a", "2", "--b", "1", "--to", "4", "--format", "csv"])
    assert code == 0 and out == "0,1,2,5,12\n"
    code, out, _ = invoke(["seq", "--kind", "lucas", "--to", "3", "--format", "json"])
    assert code == 0 and json.loads(out)["values"] == ["2", "1", "3", "4"]


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--kind", "balancing"], (BALANCING, "u")),
        (["--kind", "lucas-balancing"], (BALANCING, "v")),
        (["--kind", "v", "--a", "2", "--b", "3"], (SeqParams(2, 3), "v")),
    ],
    ids=["balancing", "lucas-balancing", "v"],
)
def test_seq_grows_its_table_once(monkeypatch, flags, key):
    # the term at --to is read first, so one growth fills the table and every
    # lower term is read from it: grow() calls make only when a list must grow
    clear_caches()
    calls = Counter()
    grow = sequences.grow

    def counted(table, n, make):
        def counted_make():
            calls[table] += 1
            return make()

        return grow(table, n, counted_make)

    monkeypatch.setattr(sequences, "grow", counted)
    code, out, _ = invoke(["seq", *flags, "--to", "80", "--format", "csv"])
    assert code == 0 and len(out.split(",")) == 81
    assert calls == {key: 1}


def test_conv_plain_and_binomial():
    code, out, _ = invoke(["conv", "--kind", "balancing", "--r", "2", "--n", "4"])
    assert code == 0 and out == "106\n"
    code, out, _ = invoke(["conv", "--kind", "fibonacci", "--r", "3", "--n", "3", "--binomial"])
    assert code == 0 and out == "6\n"
    code, out, _ = invoke(["conv", "--kind", "lucas", "--r", "2", "--n", "1", "--binomial"])
    assert code == 0 and out == "4\n"
    code, out, _ = invoke(
        ["conv", "--kind", "lucas-balancing", "--r", "2", "--n", "1", "--binomial", "--format", "json"]
    )
    assert code == 0 and json.loads(out)["value"] == "6"


#: named kind -> (params, binomial fold of its u- or v-terms, divisor, its own sequence)
NAMED_KINDS = {
    "balancing": (BALANCING, binom_conv_u, 1, balancing),
    "lucas-balancing": (BALANCING, binom_conv_v, 2, lucas_balancing),
    "fibonacci": (FIBONACCI, binom_conv_u, 1, lambda n: u(FIBONACCI, n)),
    "lucas": (FIBONACCI, binom_conv_v, 1, lucas),
}


@pytest.mark.parametrize("kind", NAMED_KINDS)
def test_named_kind_is_u_or_v_over_its_divisor(kind):
    params, fold, divisor, term = NAMED_KINDS[kind]
    code, out, _ = invoke(["seq", "--kind", kind, "--to", "40", "--format", "csv"])
    assert code == 0 and out == ",".join(str(term(n)) for n in range(41)) + "\n"
    for r in range(1, 6):
        for n in (0, 1, 7, 30):
            code, out, _ = invoke(["conv", "--kind", kind, "--r", str(r), "--n", str(n), "--binomial"])
            quotient, rem = divmod(fold(params, r, n), divisor**r)
            assert rem == 0
            assert code == 0 and out == f"{quotient}\n"
            if kind == "lucas-balancing":
                assert quotient == binom_conv_c(r, n)


def test_closed_command():
    code, out, _ = invoke(["closed", "--identity", "general-plain", "--r", "3", "--n", "4"])
    assert code == 0 and out == "18\n"
    code, out, _ = invoke(["closed", "--identity", "binom-pair-b", "--n", "2", "--format", "json"])
    assert code == 0 and json.loads(out)["value"] == "2"


def test_table_command():
    code, out, _ = invoke(["table", "--identity", "pair-plain", "--n-min", "2", "--n-max", "5", "--format", "csv"])
    assert code == 0
    assert out == "n,lhs,rhs\n2,1,1\n3,12,12\n4,106,106\n5,828,828\n"
    # a mismatching row makes table exit 1 by verify's rule, every row still shown
    code, out, _ = invoke(["table", "--identity", "cor-printed-r5", "--n-max", "12", "--format", "json"])
    assert code == 1
    rows = json.loads(out)["rows"]
    assert rows[0]["n"] == "10" and rows[0]["lhs"] == rows[0]["rhs"]
    assert rows[-1]["n"] == "12" and rows[-1]["lhs"] != rows[-1]["rhs"]
    assert invoke(["table", "--identity", "cor-printed-r5", "--n-max", "11"])[0] == 0


def test_a_closed_form_that_is_not_an_integer_is_a_mismatch(monkeypatch):
    # cor-printed-r6's closed form, multiplied back by its lcm 60 and given a remainder of
    # 39 at n = 20 before the exact division: a slip that leaves it no integer at one n
    info = CATALOG["cor-printed-r6"]

    def slipped(params, r, n):
        return exact_div(60 * info.rhs(params, r, n) + 39 * (n == 20), 60)

    monkeypatch.setitem(CATALOG, "cor-printed-r6", dataclasses.replace(info, rhs=slipped))
    lhs = info.lhs(BALANCING, 6, 20)
    text = "not an integer (division by 60 leaves a remainder of 39)"
    argv = ["--identity", "cor-printed-r6", "--n-min", "18", "--n-max", "22", "--format"]
    assert invoke(["verify", *argv, "plain"]) == (1, (
        "identity=cor-printed-r6 params=(6,-1) r=6 range=[18,22] checked=5 failures=1 status=FAIL\n"
        f"  n=20 lhs={lhs} rhs={text}\n"
    ), "")
    assert invoke(["verify", *argv, "csv"]) == (1, f"n,lhs,rhs\n20,{lhs},{text}\n", "")
    code, out, err = invoke(["verify", *argv, "json"])
    assert (code, err) == (1, "")
    failures = json.loads(out)["failures"]
    assert failures == [{"n": "20", "lhs": str(lhs), "rhs": {"divisor": "60", "remainder": "39"}}]
    assert report_from_dict(json.loads(out)).failures[0].rhs == (60, 39)
    # table shows every row, the one that is no integer included, and exits 1 for it
    code, out, err = invoke(["table", *argv, "csv"])
    assert (code, err) == (1, "")
    assert out.splitlines()[3] == f"20,{lhs},{text}"
    code, out, err = invoke(["table", *argv, "plain"])
    assert (code, err, out.splitlines()[3]) == (1, "", f"20\t{lhs}\t{text}")
    code, out, err = invoke(["table", *argv, "json"])
    rows = json.loads(out)["rows"]
    assert (code, err, len(rows)) == (1, "", 5)
    assert rows[2] == {"n": "20", "lhs": str(lhs), "rhs": {"divisor": "60", "remainder": "39"}}
    # a range without n = 20 passes; closed at n = 20 compares nothing and still exits 2
    assert invoke(["verify", "--identity", "cor-printed-r6", "--n-max", "19"])[0] == 0
    assert invoke(["table", "--identity", "cor-printed-r6", "--n-max", "19"])[0] == 0
    closed = invoke(["closed", "--identity", "cor-printed-r6", "--n", "20"])
    assert closed == (2, "", "error: division by 60 leaves a remainder of 39\n")


def test_conv_that_divides_inexactly_exits_2(monkeypatch):
    # a Lucas-balancing fold is the v-fold divided exactly by 2^r; an odd v-fold is an error
    monkeypatch.setattr(cli, "binom_conv_v", lambda params, r, n: 1)
    code, out, err = invoke(["conv", "--kind", "lucas-balancing", "--r", "2", "--n", "5", "--binomial"])
    assert (code, out, err) == (2, "", "error: division by 4 leaves a remainder of 1\n")


def test_series_check_command():
    code, out, _ = invoke(["series-check", "--order", "40"])
    assert code == 0 and out == "ogf-square order=40: pass\n"
    code, out, _ = invoke(["series-check", "--order", "40", "--r", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"check": "power-expansion", "r": "3", "order": "40", "passed": True}


def test_series_check_order_below_power_bound_exits_2():
    code, out, err = invoke(["series-check", "--order", "0", "--r", "3"])
    assert code == 2 and out == ""
    assert err == "error: verify_power_expansion: order must be >= r - 1 = 2, got 0\n"


def test_series_check_that_fails_exits_1_and_still_writes_its_result(monkeypatch):
    monkeypatch.setattr(cli, "verify_ogf_square_relation", lambda order: False)
    monkeypatch.setattr(cli, "verify_power_expansion", lambda r, order: False)
    assert invoke(["series-check", "--order", "40"]) == (1, "ogf-square order=40: FAIL\n", "")
    code, out, err = invoke(["series-check", "--order", "40", "--r", "3", "--format", "csv"])
    assert (code, out, err) == (1, "check,r,order,passed\npower-expansion,3,40,false\n", "")
    code, out, err = invoke(["series-check", "--order", "40", "--format", "json"])
    assert (code, err) == (1, "") and '"passed": false' in out
    assert json.loads(out) == {"check": "ogf-square", "r": None, "order": "40", "passed": False}


def test_verify_csv_lists_failures():
    code, out, _ = invoke(["verify", "--identity", "cor-printed-r5", "--n-max", "14", "--format", "csv"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "n,lhs,rhs"
    assert [line.split(",")[0] for line in lines[1:]] == ["12", "13", "14"]


def test_values_past_the_int_digit_limit():
    # B_6000 has about 4600 digits and 5700 B_5700 about 4370, past CPython's default 4300.
    with unlimited_int_digits():
        terms = [0, 1]
        while len(terms) <= 6000:
            terms.append(6 * terms[-1] - terms[-2])
        want_seq = ",".join(map(str, terms)) + "\n"
        want_closed = f"{5700 * balancing(5700)}\n"
    assert invoke(["seq", "--to", "6000", "--format", "csv"]) == (0, want_seq, "")
    assert invoke(["closed", "--identity", "pair-telescope", "--n", "5700"]) == (0, want_closed, "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_run_restores_the_callers_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        invoke(["seq", "--to", "3"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def test_output_file(tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = invoke(["seq", "--kind", "balancing", "--to", "3", "--format", "csv", "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == "0,1,6,35\n"


# ---------------------------------------------------------------------------
# exit code 2: usage and domain errors
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2():
    code, _, _ = invoke(["seq", "--kind", "balancing", "--to", "5", "--frobnicate"])
    assert code == 2


def test_unknown_identity_exits_2():
    # the last stderr line lists the catalog's names, in catalog order
    code, out, err = invoke(["verify", "--identity", "not-a-thing", "--n-max", "5"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "balconv verify: error: argument --identity: invalid choice: 'not-a-thing' (choose from "
        "'pair-telescope', 'triple-alt', 'general-alt', 'cor-printed-r4', 'cor-printed-r5', "
        "'cor-printed-r6', 'pair-plain', 'general-plain', 'binom-pair-b', 'binom-pair-c', "
        "'multinom-triple-b', 'multinom-triple-c', 'general-u', 'general-v', 'fib-pair-f', 'fib-pair-l')"
    )


def test_missing_r_exits_2():
    code, _, err = invoke(["verify", "--identity", "general-alt", "--n-max", "5"])
    assert code == 2 and "requires r" in err


def test_out_of_domain_n_exits_2():
    code, _, err = invoke(["closed", "--identity", "general-alt", "--r", "4", "--n", "3"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "identity, r",
    [
        pytest.param(identity, r, id=f"{identity} r={r}")
        for identity, info in CATALOG.items()
        for r in ((info.r,) if info.r is not None else range(info.domain.min_r, info.domain.min_r + 3))
    ],
)
def test_closed_honours_each_identity_domain(identity, r):
    info = CATALOG[identity]
    params, r = resolve_identity_args(identity, None, r)
    n_min = info.domain.n_min(r)
    argv = ["closed", "--identity", identity, "--r", str(r), "--n"]
    assert invoke([*argv, str(n_min)]) == (0, f"{info.rhs(params, r, n_min)}\n", "")
    if n_min >= 1:
        code, out, err = invoke([*argv, str(n_min - 1)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: n = {n_min - 1} lies below the domain of ")
        assert err.endswith(f"{identity}: n >= {n_min}\n")
        with pytest.raises(ValueError):  # the closed form's own guard draws the same line
            info.rhs(params, r, n_min - 1)


def test_table_clamps_below_domain_like_verify():
    args = ["--identity", "general-alt", "--r", "4", "--n-min", "0", "--n-max", "8"]
    code, out, _ = invoke(["table", *args, "--format", "csv"])
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()] == ["n", "7", "8"]
    code, out, _ = invoke(["verify", *args, "--format", "json"])
    assert code == 0 and json.loads(out)["range"] == ["7", "8"]


@pytest.mark.parametrize("command", ["verify", "table"])
def test_range_below_domain_names_the_domain(command):
    code, out, err = invoke([command, "--identity", "general-plain", "--r", "2", "--n-max", "1"])
    assert (code, out) == (2, "")
    assert err == "error: n <= 1 lies below the domain of general-plain: n >= 2\n"


def test_malformed_range_exits_2():
    code, _, _ = invoke(["seq", "--kind", "balancing", "--to", "-2"])
    assert code == 2
    code, _, _ = invoke(["verify", "--identity", "pair-plain", "--n-min", "9", "--n-max", "4"])
    assert code == 2


def test_plain_conv_on_v_kind_exits_2():
    code, _, err = invoke(["conv", "--kind", "lucas", "--r", "2", "--n", "3"])
    assert code == 2 and "--binomial" in err


def test_params_on_named_kind_exits_2():
    code, _, _ = invoke(["seq", "--kind", "balancing", "--a", "2", "--b", "1", "--to", "3"])
    assert code == 2


def test_fixed_params_identity_rejects_override():
    code, _, _ = invoke(["verify", "--identity", "fib-pair-f", "--a", "6", "--b", "-1", "--n-max", "5"])
    assert code == 2


def test_unwritable_output_exits_2(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = invoke(["seq", "--to", "5", "--output", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_memory_error_exits_2_without_a_traceback(monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_series_check", exhausted)
    code, out, err = invoke(["series-check", "--order", "10"])
    assert (code, out, err) == (2, "", "error: out of memory\n")


def _run_child(script, *args, flags=(), **kwargs):
    """Run ``python *flags -c script *args`` in a fresh interpreter with this tree's src first on its path.

    The timeout sits below the per-test deadline of ``conftest.py``, so a hung child is
    killed and fails its test instead of outliving the run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    old = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else "")}
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args], env=env, capture_output=True, text=True, timeout=100, **kwargs
    )


def _cap_address_space():
    # 1 GiB of address space: the interpreter starts, but no 10**12-entry table can be made
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


_RUN_SCRIPT = "import sys\nfrom balconv.cli import run\nsys.exit(run(sys.argv[1:]))\n"


def test_seq_past_memory_exits_2():
    proc = _run_child(_RUN_SCRIPT, "seq", "--to", str(10**12), preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_series_check_of_a_huge_order_allocates_no_table():
    # the lemma is compared as polynomials of degree 5r - 6, so --order only bounds a prefix
    proc = _run_child(_RUN_SCRIPT, "series-check", "--order", str(10**12), preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"ogf-square order={10**12}: pass\n", "")


def test_plain_conv_of_large_r_needs_no_recursion():
    # the coefficient lists grow by a loop, so r = 120 answers under a recursion limit of 100
    script = (
        "import sys\n"
        "from balconv.cli import run\n"
        "sys.setrecursionlimit(100)\n"
        "sys.exit(run(['conv', '--r', '120', '--n', '127']))\n"
    )
    proc = _run_child(script)
    assert (proc.returncode, proc.stderr) == (0, "")
    closed = invoke(["closed", "--identity", "general-plain", "--r", "120", "--n", "127"])
    assert closed == (0, proc.stdout, "")
    assert proc.stdout.strip() == "23416989202260720"


def test_plain_conv_of_r_600_matches_the_closed_form():
    argv = ["--r", "600", "--n", "700"]
    code, out, err = invoke(["conv", "--kind", "balancing", *argv])
    assert (code, err) == (0, "")
    assert invoke(["closed", "--identity", "general-plain", *argv]) == (0, out, "")


@pytest.mark.parametrize("kind, a, b", [("u", "2", "3"), ("v", "-4", "-3")])
def test_binomial_conv_of_r_400_matches_the_closed_form(kind, a, b):
    argv = ["--a", a, "--b", b, "--r", "400", "--n", "500"]
    code, out, err = invoke(["conv", "--kind", kind, "--binomial", *argv])
    assert (code, err) == (0, "")
    assert invoke(["closed", "--identity", f"general-{kind}", *argv]) == (0, out, "")


def test_binomial_conv_of_large_r_needs_no_recursion():
    # the binomial fold grows one list per r by a loop, so a large r only costs time
    code, out, err = invoke(["conv", "--kind", "lucas", "--binomial", "--r", "1200", "--n", "3"])
    assert (code, err) == (0, "")
    closed = invoke(["closed", "--identity", "general-v", "--a", "1", "--b", "1", "--r", "1200", "--n", "3"])
    assert closed == (0, out, "")


def test_cli_imports_only_the_standard_library_and_no_fractions():
    # compare what importing the CLI adds, not all of sys.modules: site may load .pth modules,
    # so the child also runs under -S, where site loads nothing; every run pays for its imports
    # at start-up, so json (only --format json needs it), decimal, fractions and pathlib stay out
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import balconv.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    for flags in ((), ("-S",)):
        proc = _run_child(script, flags=flags)
        assert (proc.returncode, proc.stderr) == (0, ""), flags
        added = set(proc.stdout.split())
        assert "balconv.cli" in added, flags
        assert not added & {"json", "decimal", "fractions", "pathlib"}, flags
        assert {name.partition(".")[0] for name in added} - {"balconv"} <= sys.stdlib_module_names, flags


def test_help_exits_0():
    code, out, _ = invoke(["--help"])
    assert code == 0
