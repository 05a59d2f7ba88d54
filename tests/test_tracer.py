"""The benchmark's tracer (``perfbench/tracer.py``) still fits the package.

The tracer wraps names where ``cli``, ``identities`` and ``series`` look them
up, so renaming or unbinding one of them breaks the traced benchmark run.
One small invocation per subcommand checks that the tracer installs, prints
what ``python -m balconv.cli`` prints with the same exit code, and writes a
trace record that parses.
"""

import json
import os
import subprocess
import sys
import threading
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

#: Test id -> argv.  The halved Lucas-balancing fold, a general-u sweep whose
#: fold and closed form read separate lists, a plain convolution read from
#: its coefficient list, a sweep that extends that list one n at a time, and
#: a catalog side bound to ``binom_conv_c`` itself run under the tracer too.
ARGVS = {
    "seq": ["seq", "--kind", "lucas-balancing", "--to", "6"],
    "conv": ["conv", "--kind", "v", "--a", "1", "--b", "2", "--r", "3", "--n", "9", "--binomial"],
    "conv-plain": ["conv", "--kind", "balancing", "--r", "4", "--n", "70"],
    "conv-lucas-balancing": ["conv", "--kind", "lucas-balancing", "--r", "3", "--n", "20", "--binomial"],
    "closed": ["closed", "--identity", "general-plain", "--r", "3", "--n", "10", "--format", "json"],
    "verify": ["verify", "--identity", "cor-printed-r5", "--n-max", "13"],
    "verify-general-u": ["verify", "--identity", "general-u", "--r", "4", "--a", "-2", "--b", "3", "--n-max", "30"],
    "series-check": ["series-check", "--r", "3", "--order", "20", "--format", "csv"],
    "series-check-square": ["series-check", "--order", "40"],
    "table": ["table", "--identity", "general-alt", "--r", "4", "--n-max", "12"],
    "verify-pair-plain": ["verify", "--identity", "pair-plain", "--n-max", "40"],
    "table-pair-telescope": ["table", "--identity", "pair-telescope", "--n-max", "20", "--format", "json"],
    "verify-general-v-r5": ["verify", "--identity", "general-v", "--r", "5", "--a", "4", "--b", "-3", "--n-max", "40"],
    "verify-general-plain-blocks": ["verify", "--identity", "general-plain", "--r", "3", "--n-min", "60", "--n-max", "70"],
    "verify-binom-pair-c": ["verify", "--identity", "binom-pair-c", "--n-max", "30"],
}


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


@lru_cache(maxsize=None)
def _traced(argv: tuple[str, ...]) -> tuple[subprocess.CompletedProcess, str]:
    read_fd, write_fd = os.pipe()
    chunks: list[str] = []
    with os.fdopen(read_fd, encoding="utf-8") as source:
        # Drain the trace pipe while the child runs, so a large record cannot block it.
        reader = threading.Thread(target=lambda: chunks.append(source.read()))
        reader.start()
        try:
            proc = subprocess.run(
                [sys.executable, str(TRACER), *argv],
                env={**_env(), "PERFBENCH_TRACE_FD": str(write_fd)},
                pass_fds=(write_fd,),
                capture_output=True,
                timeout=120,
            )
        finally:
            os.close(write_fd)
            reader.join(timeout=120)
    assert not reader.is_alive()
    return proc, "".join(chunks)


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS)
def test_tracer_matches_cli(argv):
    traced, record = _traced(tuple(argv))
    plain = subprocess.run(
        [sys.executable, "-m", "balconv.cli", *argv], env=_env(), capture_output=True, timeout=120
    )
    assert traced.stderr == b"", traced.stderr.decode()
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    trace = json.loads(record)
    assert trace["self_s"]["cli"] > 0 and trace["spans"]


#: Test id -> {(trace table, key): True if it must be positive, False if it must be 0}.
#: These mirror the tracer self-test ``EXPECT`` in perfbench/run.py: general-v and general-u
#: sweeps multiply no series, and general-v calls math.comb in the oracle layer
#: (sweep-binomial), a general-plain sweep multiplies series and calls no oracle comb
#: (sweep-ogf), and the pair sums multiply no series (sweep-pair).  They move when ROADMAP
#: item 2 moves those pins off these counters.
PINS = {
    "verify-general-v-r5": {("comb", "identities.oracle"): True, ("counts", "mul_calls"): False},
    "verify-general-u": {("counts", "mul_calls"): False},
    "verify-general-plain-blocks": {("counts", "mul_calls"): True, ("comb", "identities.oracle"): False},
    "verify-pair-plain": {("counts", "mul_calls"): False},
    "table-pair-telescope": {("counts", "mul_calls"): False},
}


@pytest.mark.parametrize("name", PINS)
def test_tracer_sees_the_workload_pins(name):
    traced, record = _traced(tuple(ARGVS[name]))
    assert traced.returncode == 0, traced.stderr.decode()
    trace = json.loads(record)
    for (table, key), positive in PINS[name].items():
        assert (trace[table].get(key, 0) > 0) == positive, (table, key, trace[table])
