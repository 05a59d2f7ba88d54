"""Command-line frontend.

Subcommands: ``seq`` (sequence tables), ``conv`` (evaluate one convolution),
``closed`` (evaluate one closed form), ``verify`` (sweep an identity and
report mismatches), ``series-check`` (the power-expansion lemma), ``table``
(side-by-side LHS/RHS columns).

Exit codes: 0 success / all checks pass, 1 a mismatching row in ``verify`` or
``table`` (output still emitted; a side that is not an integer mismatches) or
a failed lemma check in ``series-check`` (its FAIL line still emitted), 2
usage or domain error, an exact division that leaves a remainder in ``closed``
or ``conv`` (which compare nothing), an unwritable ``--output``, or a run out
of memory.  No table recurses, so a large r or n never overflows the stack.
But a table holds every value up to n, so a large n can exhaust memory
(``conv --r 3 --n 100000`` needs more than 1.5 GB); the ``MemoryError`` then
exits 2.  Every integer in JSON output is a decimal string, written by the one
encoder :func:`~balconv.identities.to_json` that every payload passes through; the
values outgrow 64-bit types quickly, so CPython's int/str digit limit is lifted
while :func:`run` executes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable, Sequence

from .combinatorics import IntegralityError, exact_div, unlimited_int_digits
from .identities import (
    CATALOG,
    binom_conv_c,  # no caller here, but perfbench/tracer.py wraps it by this name
    binom_conv_u,
    binom_conv_v,
    clamp_to_domain,
    conv_power,
    evaluate_range,
    is_mismatch,
    report_to_dict,
    resolve_identity_args,
    to_json,
    verify_identity,
)
from .sequences import (
    BALANCING,
    FIBONACCI,
    SeqParams,
    lucas_balancing,  # no caller here, but perfbench/tracer.py wraps it by this name
    u,
    v,
)
from .series import verify_ogf_square_relation, verify_power_expansion

__all__ = ["main", "run"]

_FORMATS = ("plain", "csv", "json")

#: kind -> (params, "u" | "v", divisor): the kind's terms are the u- or v-terms
#: at params divided exactly by divisor (Lucas-balancing C_n = v_n / 2).
_NAMED_KINDS = {
    "balancing": (BALANCING, "u", 1),
    "lucas-balancing": (BALANCING, "v", 2),
    "fibonacci": (FIBONACCI, "u", 1),
    "lucas": (FIBONACCI, "v", 1),
}


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _lines(sep: str, rows: Iterable[Iterable[object]]) -> str:
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


def _write(
    args: argparse.Namespace,
    csv_rows: Iterable[Iterable[object]],
    plain: Callable[[], str],
    payload: Callable[[], object],
) -> None:
    """Render only the format asked for and write it to --output or stdout.

    ``csv_rows`` is the CSV header, if any, then the data rows; ``plain``
    builds the plain text and ``payload`` the object that :func:`to_json` encodes.
    """
    if args.format == "csv":
        text = _lines(",", csv_rows)
    elif args.format == "plain":
        text = plain()
    else:
        import json  # here only: plain and csv runs never load it
        text = json.dumps(to_json(payload()), indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)


def _kind_spec(args: argparse.Namespace) -> tuple[SeqParams, str, int]:
    """Map --kind/--a/--b to (params, "u" or "v", divisor) as in :data:`_NAMED_KINDS`."""
    if args.kind in ("u", "v"):
        if args.a is None or args.b is None:
            raise ValueError("--kind u/v requires both --a and --b")
        return SeqParams(args.a, args.b), args.kind, 1
    if args.a is not None or args.b is not None:
        raise ValueError("--a/--b apply only to --kind u or v")
    return _NAMED_KINDS[args.kind]


def _identity_args(args: argparse.Namespace) -> tuple[SeqParams, int]:
    params = None
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("--a and --b must be given together")
        params = SeqParams(args.a, args.b)
    return resolve_identity_args(args.identity, params, args.r)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_seq(args: argparse.Namespace) -> int:
    params, which, divisor = _kind_spec(args)
    term = u if which == "u" else v
    term(params, args.to)  # top first: the table grows once, every lower read finds it
    values = [exact_div(term(params, n), divisor) for n in range(args.to + 1)]
    _write(
        args,
        [values],
        lambda: _lines(" ", enumerate(values)),
        lambda: {"kind": args.kind, "params": params, "values": values},
    )
    return 0


def _cmd_conv(args: argparse.Namespace) -> int:
    params, which, divisor = _kind_spec(args)
    if args.binomial:
        fold = binom_conv_u if which == "u" else binom_conv_v
        value = fold(params, args.r, args.n)
    elif which == "u":
        value = conv_power(params, args.r, args.n)
    else:
        raise ValueError(
            "plain convolutions are defined for u-type kinds; "
            "use --binomial for lucas / lucas-balancing / v kinds"
        )
    value = exact_div(value, divisor**args.r)
    _write(
        args,
        [("r", "n", "value"), (args.r, args.n, value)],
        lambda: f"{value}\n",
        lambda: {
            "kind": args.kind,
            "params": params,
            "r": args.r,
            "n": args.n,
            "binomial": args.binomial,
            "value": value,
        },
    )
    return 0


def _cmd_closed(args: argparse.Namespace) -> int:
    params, r = _identity_args(args)
    clamp_to_domain(args.identity, r, args.n, args.n)
    value = CATALOG[args.identity].rhs(params, r, args.n)
    _write(
        args,
        [("identity", "r", "n", "value"), (args.identity, r, args.n, value)],
        lambda: f"{value}\n",
        lambda: {"identity": args.identity, "params": params, "r": r, "n": args.n, "value": value},
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params, r = _identity_args(args)
    report = verify_identity(args.identity, (args.n_min, args.n_max), params, r)
    rows = [(f.n, f.lhs, f.rhs) for f in report.failures]

    def plain() -> str:
        status = "pass" if report.passed else "FAIL"
        head = (
            f"identity={report.identity} params=({report.params.a},{report.params.b}) "
            f"r={report.r} range=[{report.n_range[0]},{report.n_range[1]}] "
            f"checked={report.checked} failures={len(rows)} status={status}\n"
        )
        return head + "".join(f"  n={n} lhs={lhs} rhs={rhs}\n" for n, lhs, rhs in rows)

    _write(args, [("n", "lhs", "rhs"), *rows], plain, lambda: report_to_dict(report))
    return 0 if report.passed else 1


def _cmd_series_check(args: argparse.Namespace) -> int:
    if args.r is None:
        name, r_text = "ogf-square", ""
        passed = verify_ogf_square_relation(args.order)
    else:
        name, r_text = "power-expansion", str(args.r)
        passed = verify_power_expansion(args.r, args.order)
    label = f"{name} r={r_text}" if r_text else name
    _write(
        args,
        [("check", "r", "order", "passed"), (name, r_text, args.order, str(passed).lower())],
        lambda: f"{label} order={args.order}: {'pass' if passed else 'FAIL'}\n",
        lambda: {"check": name, "r": args.r, "order": args.order, "passed": passed},
    )
    return 0 if passed else 1


def _cmd_table(args: argparse.Namespace) -> int:
    params, r = _identity_args(args)
    lo, hi = clamp_to_domain(args.identity, r, args.n_min, args.n_max)
    rows = list(evaluate_range(args.identity, params, r, lo, hi))
    header = ("n", "lhs", "rhs")
    _write(
        args,
        [header, *rows],
        lambda: _lines("\t", [header, *rows]),
        lambda: {
            "identity": args.identity,
            "params": params,
            "r": r,
            "rows": [dict(zip(header, row)) for row in rows],
        },
    )
    return 1 if any(is_mismatch(lhs, rhs) for _, lhs, rhs in rows) else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=_FORMATS, default="plain")
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_kind(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--kind",
        choices=(*_NAMED_KINDS, "u", "v"),
        default="balancing",
    )
    sub.add_argument("--a", type=int, default=None, help="recurrence coefficient a (kinds u/v)")
    sub.add_argument("--b", type=int, default=None, help="recurrence coefficient b (kinds u/v)")


def _add_identity(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--identity",
        required=True,
        choices=list(CATALOG),
    )
    sub.add_argument("--r", type=int, default=None, help="fold count for variable-r identities")
    sub.add_argument("--a", type=int, default=None, help="recurrence coefficient a (general-u/v)")
    sub.add_argument("--b", type=int, default=None, help="recurrence coefficient b (general-u/v)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balconv",
        description="Exact convolution-identity toolkit for balancing-type sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="emit sequence values 0..N")
    _add_kind(p)
    p.add_argument("--to", type=_nonneg, required=True, help="largest index")
    _add_common(p)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("conv", help="evaluate one r-fold convolution")
    _add_kind(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--binomial", action="store_true", help="binomial-weighted convolution")
    _add_common(p)
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("closed", help="evaluate an identity's closed form at one n")
    _add_identity(p)
    p.add_argument("--n", type=_nonneg, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_closed)

    p = sub.add_parser("verify", help="sweep an identity and report exact mismatches")
    _add_identity(p)
    p.add_argument("--n-min", type=_nonneg, default=None, help="default: the identity's domain minimum")
    p.add_argument("--n-max", type=_nonneg, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("series-check", help="check the power-expansion lemma on exact polynomials")
    p.add_argument("--order", type=_nonneg, default=200, help="compare through x^(order+r-1); >= 4r-5 proves it")
    p.add_argument("--r", type=int, default=None, help="check the r-th power expansion instead of the square relation")
    _add_common(p)
    p.set_defaults(func=_cmd_series_check)

    p = sub.add_parser("table", help="LHS/RHS columns for an identity over a range")
    _add_identity(p)
    p.add_argument("--n-min", type=_nonneg, default=None)
    p.add_argument("--n-max", type=_nonneg, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    return parser


@unlimited_int_digits()
def run(argv: Sequence[str]) -> int:
    """Execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, IntegralityError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
