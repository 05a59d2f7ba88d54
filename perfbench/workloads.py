"""Seeded workloads for the balconv benchmark, and the checks on their outputs.

Each workload is a list of ``Op``s: one ``balconv`` invocation (its argv)
plus a check the benchmark derives on its own.  The same seed always gives
the same list.  Seeds move only choices that leave the cost alone: the sign
of a, n inside one table block, small shifts of range ends, output formats
and op order.  Every seed runs the same
mix of identities and r values, so a run-to-run spread is the machine's, not
the inputs'.

Expected values never come from the balconv package: sequences come from
this file's own recurrences, verify counts from the documented domains, and
convolutions are checked against the closed form computed on the other
route by a second invocation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("sweep-ogf", "sweep-binomial", "sweep-pair", "point-queries")

#: CPython refuses to print an int of more than this many digits by default.
STR_DIGITS_LIMIT = 4300

#: (|a|, b) strata for the general u/v families: nonzero discriminant,
#: |b| > 2, and dominant root 3 in every stratum, so their terms grow alike
#: and cost alike.  Flipping the sign of a keeps every |u_n| and |v_n|, so a
#: seeded sign changes the inputs but not the cost.
AB_STRATA = ((2, 3), (4, -3), (1, 6), (5, -6))

# Documented smallest n of each identity (README catalog), as a function of r.
N_MIN: dict[str, Callable[[int], int]] = {
    "pair-telescope": lambda r: 1,
    "triple-alt": lambda r: 4,
    "general-alt": lambda r: max(0, 3 * r - 5),
    "cor-printed-r4": lambda r: 7,
    "cor-printed-r5": lambda r: 10,
    "cor-printed-r6": lambda r: 13,
    "pair-plain": lambda r: 2,
    "general-plain": lambda r: r,
}


# ---------------------------------------------------------------------------
# Reference values, computed here and nowhere in balconv
# ---------------------------------------------------------------------------


class Reference:
    """Grow-only tables of u_n(a, b) and v_n(a, b) from the recurrence."""

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int, str], list[int]] = {}

    def term(self, a: int, b: int, which: str, n: int) -> int:
        table = self._tables.setdefault((a, b, which), [0, 1] if which == "u" else [2, a])
        while len(table) <= n:
            table.append(a * table[-1] + b * table[-2])
        return table[n]

    def seq(self, kind: str, n: int, a: int = 0, b: int = 0) -> int:
        if kind == "balancing":
            return self.term(6, -1, "u", n)
        if kind == "lucas-balancing":
            return self.term(6, -1, "v", n) // 2
        if kind == "fibonacci":
            return self.term(1, 1, "u", n)
        if kind == "lucas":
            return self.term(1, 1, "v", n)
        return self.term(a, b, kind, n)

    def pair_plain(self, n: int) -> int:
        # sum_j B_j B_{n-j}, whose characteristic polynomial is (x^2 - 6x + 1)^2
        table = self._tables.setdefault((6, -1, "pair-plain"), [0, 0, 1, 12])
        while len(table) <= n:
            t = table
            t.append(12 * t[-1] - 38 * t[-2] + 12 * t[-3] - t[-4])
        return table[n]

    def r5_gap(self, n: int) -> int:
        # The printed r = 5 corollary repeats B_{n-6} where the general form
        # has B_{n-8}, so rhs - lhs = (n-5)(n-8)(n-10)(n-11)/8 (B_{n-6} - B_{n-8}).
        B = lambda k: self.term(6, -1, "u", k)  # noqa: E731
        gap = (n - 5) * (n - 8) * (n - 10) * (n - 11) * (B(n - 6) - B(n - 8))
        return gap // 8


REF = Reference()


# ---------------------------------------------------------------------------
# Ops and output parsing
# ---------------------------------------------------------------------------

Check = Callable[[int, str], "tuple[str | None, object]"]


@dataclass
class Op:
    """One invocation: argv after ``balconv``, its check, and its bookkeeping.

    ``check(exit_code, stdout)`` returns (problem or None, parsed value).
    ``checks`` is how many n values the program itself compares.  ``route``
    names a group of ops that must print the same value.  ``known_limit``
    marks an op whose correct output exceeds CPython's digit limit.
    """

    argv: list[str]
    check: Check
    checks: int = 0
    route: str | None = None
    known_limit: bool = False


def _fmt_value(fmt: str, out: str) -> int:
    """The single integer printed by ``conv`` / ``closed`` in any format."""
    if fmt == "json":
        return int(json.loads(out)["value"])
    if fmt == "csv":
        return int(out.splitlines()[1].rsplit(",", 1)[1])
    return int(out.strip())


def _value_check(fmt: str, expected: int | None) -> Check:
    def check(code: int, out: str) -> tuple[str | None, object]:
        if code != 0:
            return f"exit {code}, expected 0", None
        value = _fmt_value(fmt, out)
        if expected is not None and value != expected:
            return "value differs from the benchmark's recurrence", value
        return None, value

    return check


def _verify_parse(fmt: str, out: str) -> tuple[int, list[tuple[int, int, int]]]:
    if fmt == "json":
        data = json.loads(out)
        fails = [(int(f["n"]), int(f["lhs"]), int(f["rhs"])) for f in data["failures"]]
        return int(data["checked"]), fails
    head, *rows = out.splitlines()
    fields = dict(part.split("=", 1) for part in head.split() if "=" in part)
    fails = []
    for row in rows:
        kv = dict(part.split("=", 1) for part in row.split())
        fails.append((int(kv["n"]), int(kv["lhs"]), int(kv["rhs"])))
    return int(fields["checked"]), fails


def verify(rng: random.Random, identity: str, n_max: int, n_min: int | None = None,
           r: int | None = None, a: int | None = None, b: int | None = None) -> Op:
    """``verify`` op that must pass, except cor-printed-r5, which must fail from n = 12 on."""
    fmt = rng.choice(("json", "plain"))
    argv = ["verify", "--identity", identity, "--n-max", str(n_max), "--format", fmt]
    if n_min is not None:
        argv += ["--n-min", str(n_min)]
    if r is not None:
        argv += ["--r", str(r)]
    if a is not None:
        argv += ["--a", str(a), "--b", str(b)]
    lo = max(n_min or 0, N_MIN.get(identity, lambda _: 0)(r or 0))
    checked = n_max - lo + 1
    witnesses = [n for n in range(lo, n_max + 1) if n >= 12] if identity == "cor-printed-r5" else []

    def check(code: int, out: str) -> tuple[str | None, object]:
        want = 1 if witnesses else 0
        if code != want:
            return f"exit {code}, expected {want}", None
        got_checked, fails = _verify_parse(fmt, out)
        if got_checked != checked:
            return f"checked={got_checked}, expected {checked}", None
        if [n for n, _, _ in fails] != witnesses:
            return "witness set differs", None
        for n, lhs, rhs in fails:
            if rhs - lhs != REF.r5_gap(n):
                return f"witness n={n}: rhs - lhs is not the r = 5 transcription gap", None
        return None, checked

    return Op(argv, check, checks=checked)


def table(identity: str, n_min: int, n_max: int) -> Op:
    """``table --format json``: every row has lhs == rhs == the benchmark's own value."""
    argv = ["table", "--identity", identity, "--n-min", str(n_min), "--n-max", str(n_max),
            "--format", "json"]
    own = (lambda n: n * REF.seq("balancing", n)) if identity == "pair-telescope" else REF.pair_plain

    def check(code: int, out: str) -> tuple[str | None, object]:
        if code != 0:
            return f"exit {code}, expected 0", None
        rows = json.loads(out)["rows"]
        if [int(row["n"]) for row in rows] != list(range(n_min, n_max + 1)):
            return "row indices differ from the requested range", None
        for row in rows:
            n, lhs, rhs = int(row["n"]), int(row["lhs"]), int(row["rhs"])
            if not lhs == rhs == own(n):
                return f"row n={n} disagrees", None
        return None, len(rows)

    return Op(argv, check, checks=n_max - n_min + 1)


def seq(rng: random.Random, kind: str, to: int, a: int = 0, b: int = 0) -> Op:
    fmt = rng.choice(("plain", "csv", "json"))
    argv = ["seq", "--kind", kind, "--to", str(to), "--format", fmt]
    if kind in ("u", "v"):
        argv += ["--a", str(a), "--b", str(b)]
    expected = [REF.seq(kind, n, a, b) for n in range(to + 1)]

    def check(code: int, out: str) -> tuple[str | None, object]:
        if code != 0:
            return f"exit {code}, expected 0", None
        if fmt == "json":
            values = [int(x) for x in json.loads(out)["values"]]
        elif fmt == "csv":
            values = [int(x) for x in out.strip().split(",")]
        else:
            values = [int(line.split()[1]) for line in out.splitlines()]
        if values != expected:
            return "values differ from the benchmark's recurrence", None
        return None, values

    return Op(argv, check)


def conv(rng: random.Random, kind: str, r: int, n: int, route: str, binomial: bool = False,
         a: int | None = None, b: int | None = None) -> Op:
    fmt = rng.choice(("plain", "csv", "json"))
    argv = ["conv", "--kind", kind, "--r", str(r), "--n", str(n), "--format", fmt]
    if binomial:
        argv.append("--binomial")
    if a is not None:
        argv += ["--a", str(a), "--b", str(b)]
    return Op(argv, _value_check(fmt, None), route=route)


def closed(rng: random.Random, identity: str, n: int, r: int | None = None,
           a: int | None = None, b: int | None = None, route: str | None = None,
           expected: int | None = None) -> Op:
    fmt = rng.choice(("plain", "csv", "json"))
    argv = ["closed", "--identity", identity, "--n", str(n), "--format", fmt]
    if r is not None:
        argv += ["--r", str(r)]
    if a is not None:
        argv += ["--a", str(a), "--b", str(b)]
    known_limit = expected is not None and len(str(abs(expected))) > STR_DIGITS_LIMIT
    return Op(argv, _value_check(fmt, expected), route=route, known_limit=known_limit)


def series_check(rng: random.Random, order: int, r: int | None = None) -> Op:
    fmt = rng.choice(("plain", "csv", "json"))
    argv = ["series-check", "--order", str(order), "--format", fmt]
    if r is not None:
        argv += ["--r", str(r)]

    def check(code: int, out: str) -> tuple[str | None, object]:
        if code != 0:
            return f"exit {code}, expected 0", None
        if fmt == "json":
            passed = json.loads(out)["passed"] is True
        elif fmt == "csv":
            passed = out.splitlines()[1].endswith(",true")
        else:
            passed = out.rstrip().endswith(": pass")
        return (None if passed else "series check did not pass"), passed

    return Op(argv, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _signed_strata(rng: random.Random) -> list[tuple[int, int]]:
    # Random sign of a per stratum, with at least one a < 0 and one a > 0.
    signs = [rng.choice((-1, 1)) for _ in AB_STRATA]
    signs[rng.randrange(len(signs))] = -1
    if all(s < 0 for s in signs):
        signs[rng.randrange(len(signs))] = 1
    return [(s * a, b) for s, (a, b) in zip(signs, AB_STRATA)]


def _cut(rng: random.Random, bounds: tuple[int, ...]) -> list[tuple[int, int]]:
    """Consecutive ranges between ``bounds``, each inner cut moved by up to 3."""
    cuts = [bounds[0], *(c + rng.randint(-3, 3) for c in bounds[1:-1]), bounds[-1] + 1]
    return [(cuts[i], cuts[i + 1] - 1) for i in range(len(cuts) - 1)]


def sweep_ogf(rng: random.Random) -> list[Op]:
    # n <= 127 keeps every sweep inside the 64- and 128-coefficient tables.
    ops = [verify(rng, "general-alt", rng.randint(118, 122), r=r) for r in range(4, 9)]
    ops += [verify(rng, "general-plain", rng.randint(118, 122), r=r) for r in range(3, 7)]
    ops += [verify(rng, identity, rng.randint(118, 122))
            for identity in ("triple-alt", "cor-printed-r4", "cor-printed-r5", "cor-printed-r6")]
    rng.shuffle(ops)
    return ops


def sweep_binomial(rng: random.Random) -> list[Op]:
    # Stratum i runs u at r = 2 + i and v at r = 5 - i, so both families
    # run at every r in 2..5; the seed picks the signs of a.
    ops = []
    for i, (a, b) in enumerate(_signed_strata(rng)):
        ops.append(verify(rng, "general-u", rng.randint(248, 252), r=2 + i, a=a, b=b))
        ops.append(verify(rng, "general-v", rng.randint(248, 252), r=5 - i, a=a, b=b))
    for identity in ("binom-pair-b", "binom-pair-c", "multinom-triple-b",
                     "multinom-triple-c", "fib-pair-f", "fib-pair-l"):
        ops.append(verify(rng, identity, rng.randint(248, 252)))
    rng.shuffle(ops)
    return ops


def sweep_pair(rng: random.Random) -> list[Op]:
    # The cuts split each sweep into pieces of about equal cost (it grows like n^3).
    ops = [verify(rng, "pair-telescope", hi, n_min=lo) for lo, hi in _cut(rng, (1, 555, 700, 800))]
    ops += [verify(rng, "pair-plain", hi, n_min=lo) for lo, hi in _cut(rng, (2, 625, 787, 900))]
    start = rng.randint(1197, 1203)
    ops.append(table("pair-plain", start, start + 150))
    rng.shuffle(ops)
    return ops


def point_queries(rng: random.Random) -> list[Op]:
    ops = []
    # Convolutions, each with its closed form on the other route.  Every n
    # stays inside one 64-wide table block (129..191 plain, 193..255
    # binomial), so each query builds a table of the same size whatever n the
    # seed picks.  These and the series checks are the 13 heaviest queries,
    # so the tail lands among them.
    for r in (3, 4, 5):
        n = rng.randint(130, 191)
        ops.append(conv(rng, "balancing", r, n, route=f"plain-{r}"))
        ops.append(closed(rng, "general-plain", n, r=r, route=f"plain-{r}"))
    (a, b) = rng.choice(_signed_strata(rng))
    for which, r in (("u", 3), ("u", 5), ("v", 2), ("v", 4)):
        n = rng.randint(194, 255)
        route = f"{which}-{r}"
        ops.append(conv(rng, which, r, n, route=route, binomial=True, a=a, b=b))
        ops.append(closed(rng, f"general-{which}", n, r=r, a=a, b=b, route=route))
    # Fixed-parameter binomial convolutions against the paper's printed forms.
    for kind, r, identity in (("lucas-balancing", 3, "multinom-triple-c"),
                              ("fibonacci", 2, "fib-pair-f")):
        n = rng.randint(194, 255)
        ops.append(conv(rng, kind, r, n, route=identity, binomial=True))
        ops.append(closed(rng, identity, n, route=identity))
    # Series checks: the square relation and r-th power expansions.
    ops.append(series_check(rng, rng.randint(118, 120)))
    ops += [series_check(rng, rng.randint(48, 50), r=r) for r in (3, 4, 5)]
    # n B_n at a moderate n, and past CPython's 4300-digit str limit
    # (B_n has about 0.766 n digits), against the benchmark's recurrence.
    for n in (rng.randint(1000, 3000), rng.randint(1000, 3000),
              rng.randint(5650, 5900), rng.randint(5650, 5900)):
        ops.append(closed(rng, "pair-telescope", n, expected=n * REF.seq("balancing", n)))
    # Short sequence ranges.
    (a, b) = rng.choice(_signed_strata(rng))
    for kind in rng.sample(("balancing", "lucas-balancing", "fibonacci", "lucas", "u", "v"), 2):
        ops.append(seq(rng, kind, rng.randint(20, 80), a, b))
    # Short verify ranges, all below n = 64 so each builds one table block.
    r = rng.randint(3, 6)
    for identity, r, lo in (("general-alt", r, rng.randint(3 * r - 5, 40)),
                            ("triple-alt", None, rng.randint(4, 40)),
                            ("general-u", rng.randint(2, 5), rng.randint(0, 40)),
                            ("binom-pair-b", None, rng.randint(0, 40))):
        ab = (a, b) if identity == "general-u" else (None, None)
        ops.append(verify(rng, identity, lo + 5, n_min=lo, r=r, a=ab[0], b=ab[1]))
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "sweep-ogf": sweep_ogf,
    "sweep-binomial": sweep_binomial,
    "sweep-pair": sweep_pair,
    "point-queries": point_queries,
}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one pass of ``workload`` for ``seed``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
