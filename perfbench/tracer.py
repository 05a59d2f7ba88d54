#!/usr/bin/env python3
"""Run one ``balconv`` CLI invocation with layer tracing, for the benchmark.

    PERFBENCH_TRACE_FD=<fd> python3 perfbench/tracer.py ARGV...

Behaves like ``balconv ARGV...`` (same stdout, stderr and exit code) and, at
exit, writes one JSON trace record to the file descriptor named by
``PERFBENCH_TRACE_FD``.

Wrappers go where names are *looked up*, not only where they are defined:
``identities`` and ``cli`` bind sequence, oracle and closed-form functions
with ``from`` imports, ``CATALOG`` holds some of those function objects
directly, and ``Series.__mul__`` is patched on the class.  Self time per
layer is kept by one "current layer" pointer: each boundary charges the
time since the last boundary to the layer that was running.  Coarse
boundaries (cli, verify, oracle, closed form, series) also record spans with
parent ids; the hot ``sequences`` lookups and ``binom`` / ``math.comb`` calls
only bump counters.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from balconv import cli, combinatorics, identities, series  # noqa: E402

clock = time.perf_counter

CLI, VERIFY, ORACLE, CLOSED, SERIES, SEQUENCES = (
    "cli", "identities.verify", "identities.oracle", "identities.closed", "series", "sequences",
)

self_s: Counter = Counter()  # layer -> seconds while it was the current layer
entries: Counter = Counter()  # layer -> calls entering it from another layer
comb_calls: Counter = Counter()  # calling layer -> math.comb calls
counts: Counter = Counter()
spans: list[tuple[int, int, str, float, float]] = []  # (id, parent id, name, start, end)
span_ids = itertools.count(1)
span_stack = [0]  # 0: no enclosing span
layer_stack: list[str] = []
current = "startup"
last = clock()
max_index = 0
power_requests: dict = defaultdict(dict)  # params -> {r: largest n}
fold_requests: dict = defaultdict(dict)  # (params, selector) -> {r: largest n}


def _enter(layer: str) -> None:
    global current, last
    now = clock()
    self_s[current] += now - last
    if current != layer:
        entries[layer] += 1
    layer_stack.append(current)
    current, last = layer, now


def _leave() -> None:
    global current, last
    now = clock()
    self_s[current] += now - last
    current, last = layer_stack.pop(), now


def layer(name: str, fn, on_call=None):
    """Wrap ``fn`` as a boundary of layer ``name`` with a span of the function's name.

    ``on_call`` sees the arguments of every call first.
    """
    label = f"{name}:{getattr(fn, '__name__', 'lambda')}"

    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(*args)
        _enter(name)
        sid = next(span_ids)
        parent = span_stack[-1]
        span_stack.append(sid)
        start = last
        try:
            return fn(*args, **kwargs)
        finally:
            span_stack.pop()
            _leave()
            spans.append((sid, parent, label, start, last))

    return wrapper


def sequence_layer(fn):
    """Span-free boundary for the millions of sequence lookups; n is the last argument."""

    def wrapper(*args):
        global current, last, max_index
        n = args[-1]
        if n > max_index:
            max_index = n
        now = clock()
        self_s[current] += now - last
        entries[SEQUENCES] += 1
        caller, current, last = current, SEQUENCES, now
        try:
            return fn(*args)
        finally:
            now = clock()
            self_s[SEQUENCES] += now - last
            current, last = caller, now

    return wrapper


def counted(fn, key: str):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    return wrapper


def counted_comb(fn):
    def wrapper(n, k):
        comb_calls[current] += 1
        return fn(n, k)

    return wrapper


def _request(table: dict, key, r: int, n: int) -> None:
    levels = table[key]
    levels[r] = max(levels.get(r, -1), n)


def _record_power(params, r, n):
    if n >= r >= 2:  # smaller n never builds a power
        _request(power_requests, params, r, n)


def _record_fold(selector):
    def record(params, r, n):
        _request(fold_requests, (params, selector), r, n)

    return record


def _record_fold_c(r, n):
    _request(fold_requests, (identities.BALANCING, "c"), r, n)


def _needed_products(table: dict) -> int:
    """Cauchy products to build each power (or fold) once, level by level,
    up to the largest n requested at or above that level."""
    total = 0
    for levels in table.values():
        for k in range(2, max(levels) + 1):
            top = max(n for r, n in levels.items() if r >= k)
            total += (top + 1) * (top + 2) // 2
    return total


_original_mul = series.Series.__mul__


def _mul(self, other):
    result = _original_mul(self, other)
    if result is NotImplemented:
        return result
    p, q, m = self.order, other.order, result.order
    made = sum(min(q, m - i) + 1 for i in range(min(p, m) + 1))
    counts["mul_calls"] += 1
    counts["coeff_mults"] += made
    if layer_stack[-1] == ORACLE:
        counts["coeff_mults_oracle"] += made
    return result


def install() -> None:
    wrapped = {}

    def patch(module, name, wrapper_of):
        original = getattr(module, name)
        if original not in wrapped:
            wrapped[original] = wrapper_of(original)
        setattr(module, name, wrapped[original])

    for name in ("u", "v", "balancing", "lucas", "lucas_balancing"):
        patch(identities, name, sequence_layer)
    for name in ("u", "v", "lucas_balancing"):
        patch(cli, name, sequence_layer)
    records = {
        "conv_power": _record_power,
        "binom_conv_u": _record_fold("u"),
        "binom_conv_v": _record_fold("v"),
        "binom_conv_c": _record_fold_c,
    }
    for name in ("conv_power", "conv_power_by_enumeration", "alt_weighted_conv", "binom_conv_u",
                 "binom_conv_v", "binom_conv_c", "pair_telescope_sum", "pair_plain_sum"):
        patch(identities, name, lambda fn, name=name: layer(ORACLE, fn, records.get(name)))
    for name in ("conv_power", "binom_conv_u", "binom_conv_v", "binom_conv_c"):
        patch(cli, name, lambda fn: fn)  # reuses the identities wrapper
    for name in dir(identities):
        if name.startswith("rhs_"):
            patch(identities, name, lambda fn: layer(CLOSED, fn))
    for key, info in list(identities.CATALOG.items()):
        identities.CATALOG[key] = replace(
            info,
            lhs=wrapped.get(info.lhs) or layer(ORACLE, info.lhs),
            rhs=wrapped.get(info.rhs) or layer(CLOSED, info.rhs),
        )
    patch(identities, "binom", lambda fn: counted(fn, "binom_calls"))
    patch(series, "binom", lambda fn: fn)
    patch(identities, "comb", counted_comb)
    patch(identities, "ogf", lambda fn: layer(SERIES, fn))
    series.Series.__mul__ = layer(SERIES, _mul)
    for name in ("verify_ogf_square_relation", "verify_power_expansion"):
        patch(cli, name, lambda fn: layer(SERIES, fn))
    patch(cli, "verify_identity", lambda fn: layer(VERIFY, fn))
    patch(cli, "run", lambda fn: layer(CLI, fn))


def trace_record() -> dict:
    self_s[current] += clock() - last
    oracle_caches = [identities._ogf_power.cache_info(), identities._binom_fold.cache_info()]
    binom_cache = combinatorics.binom.cache_info()
    counts["power_needed"] = _needed_products(power_requests)
    counts["fold_needed"] = _needed_products(fold_requests)
    return {
        "self_s": self_s,
        "entries": entries,
        "comb": comb_calls,
        "counts": counts,
        "cache": {
            "oracle_hits": sum(c.hits for c in oracle_caches),
            "oracle_lookups": sum(c.hits + c.misses for c in oracle_caches),
            "binom_hits": binom_cache.hits,
            "binom_lookups": binom_cache.hits + binom_cache.misses,
        },
        "max_index": max_index,
        "spans": spans,
    }


def main() -> int:
    fd = int(os.environ["PERFBENCH_TRACE_FD"])
    install()
    sys.argv = ["balconv", *sys.argv[1:]]
    try:
        code = cli.main()
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as sink:
            json.dump(trace_record(), sink)
    return code


if __name__ == "__main__":
    sys.exit(main())
