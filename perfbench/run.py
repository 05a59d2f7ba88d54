#!/usr/bin/env python3
"""balconv benchmark: drive the ``balconv`` CLI in fresh subprocesses, one at a time.

    python3 perfbench/run.py --workload sweep-ogf --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One pass runs every op of the workload once.  Passes repeat
until another would overrun ``--seconds``, at least MIN_PASSES of them.
Every output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``, which also tests the tracer.  The line before it records the
run's context (interpreter, source digest, load, pass counts, ratio bases).

Exit status: 0 after a finished run, 2 if the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import cold
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: A run makes at least this many passes: query_tail_ms is taken over the
#: invocations of the first two, and a traced run compares counts between two.
MIN_PASSES = 2
SETUP_ARGV = ["seq", "--to", "1"]
#: CPU seconds ``reference.py`` takes on the host that timings are scaled to.
REFERENCE_CPU_S = 0.28
#: ``reference.py`` runs again once the ops since its last run used this much CPU.
REFERENCE_EVERY_S = 2.0


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of the ``kind`` ("end_to_end" or "per_layer") in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[kind]}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    trace: bytes
    wall: float
    cpu: float
    maxrss_kib: int


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(cmd: list[str], deadline: float, trace: bool = False) -> Child:
    """Run ``cmd`` to completion; wall time, CPU and peak RSS come from ``wait4``.

    With ``trace`` the child gets a pipe in ``PERFBENCH_TRACE_FD`` for its
    trace record.  A child still running at ``deadline`` is killed.
    """
    env = _child_env()
    trace_r = trace_w = None
    if trace:
        trace_r, trace_w = os.pipe()
        env["PERFBENCH_TRACE_FD"] = str(trace_w)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, pass_fds=(trace_w,) if trace else (),
    )
    if trace_w is not None:
        os.close(trace_w)
    fds = [proc.stdout.fileno(), proc.stderr.fileno()] + ([trace_r] if trace else [])
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            timeout = None if killed else max(0.0, deadline - time.perf_counter())
            ready = sel.select(timeout)
            if not ready and not killed:
                proc.kill()
                killed = True
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if trace_r is not None:
        os.close(trace_r)
    out, err = (b"".join(chunks[fd]) for fd in fds[:2])
    return Child(
        code=proc.returncode,
        out=out,
        err=err,
        trace=b"".join(chunks[trace_r]) if trace else b"",
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
    )


def cli_cmd(argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), *argv]
    return [sys.executable, "-m", "balconv.cli", *argv]


# ---------------------------------------------------------------------------
# Passes and output checks
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    children: list[Child]
    problems: list[str]  # wrong outputs: the run is not correct
    limits: list[str]  # documented digit-limit failures
    cpu: float
    checks: int
    references: list[float]  # CPU times of reference.py between the ops
    setups: list[Child]  # no-work `seq --to 1` runs, one beside each reference.py run


def reference_cpu(deadline: float) -> float:
    child = spawn([sys.executable, str(HERE / "reference.py")], deadline)
    if child.code != 0 or child.out.strip() != str(reference.OUTPUT_DIGITS).encode():
        raise SystemExit(f"perfbench: reference.py failed: {child.err.decode()[-400:]}")
    return child.cpu


def setup_run(deadline: float) -> Child:
    """The no-work ``seq --to 1`` in a fresh process, which set-up time is measured on."""
    child = spawn(cli_cmd(SETUP_ARGV, False), deadline)
    if child.code != 0 or child.out != b"0 0\n1 1\n":
        raise SystemExit(f"perfbench: `balconv seq --to 1` failed: {child.err.decode()[-400:]}")
    return child


def run_pass(ops: list[workloads.Op], deadline: float, traced: bool = False,
             gauge: bool = False) -> Pass:
    """Run and check every op once.

    With ``gauge``, every REFERENCE_EVERY_S of op CPU time it also runs
    ``reference.py`` and a set-up sample, so both see the host in the same
    state as the ops around them.
    """
    children, problems, limits, references, setups = [], [], [], [], []
    routes: dict[str, list[tuple[str, object]]] = {}
    checks = 0
    since_reference = REFERENCE_EVERY_S
    for op in ops:
        if gauge and since_reference >= REFERENCE_EVERY_S:
            references.append(reference_cpu(deadline))
            setups.append(setup_run(deadline))
            since_reference = 0.0
        child = spawn(cli_cmd(op.argv, traced), deadline, trace=traced)
        since_reference += child.cpu
        children.append(child)
        where = " ".join(op.argv)
        try:
            problem, value = op.check(child.code, child.out.decode())
        except (ValueError, KeyError, IndexError) as exc:  # unparsable output
            problem, value = f"unparsable output ({exc!r})", None
        if problem is None:
            checks += op.checks
            if op.route is not None:
                routes.setdefault(op.route, []).append((where, value))
        elif op.known_limit and child.code == 2 and b"Exceeds the limit" in child.err:
            limits.append(f"{where}: exit 2, value past the {workloads.STR_DIGITS_LIMIT}-digit str limit")
        else:
            tail = child.err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            problems.append(f"{where}: {problem} {tail[0]}".rstrip())
    for route, values in routes.items():
        if len({value for _, value in values}) != 1:
            problems.append(f"route {route}: " + " vs ".join(w for w, _ in values) + " disagree")
    return Pass(
        children=children,
        problems=problems,
        limits=limits,
        cpu=sum(c.cpu for c in children),
        checks=checks,
        references=references,
        setups=setups,
    )


def tail(samples: list[tuple[float, int]], per_op: list[float]) -> tuple[float, dict]:
    """The tail latency, with its percentile, sample count and the ops of the samples beyond it.

    ``samples`` are (time, op index) of every invocation in the first
    MIN_PASSES passes, so the percentile does not move with the number of
    passes that fit in a run.  The tail is the highest percentile of them
    with at least 10 samples beyond it.  Below 21 samples no percentile at or
    above the median qualifies, and the largest op latency in ``per_op`` is
    given instead.
    """
    n = len(samples)
    if n < 21:
        return max(per_op), {"percentile": 100.0, "samples": len(per_op), "beyond": []}
    ordered = sorted(samples)
    beyond = [i for _, i in ordered[n - 10:]]
    return ordered[n - 11][0], {"percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": beyond}


def timings(passes: list[Pass], clock: str, scale: float = 1.0) -> tuple[dict, dict]:
    """Throughput and latencies by one clock, ``cpu`` (user+sys) or ``wall``, times ``scale``.

    An op's latency is the median over passes of its invocation's time.
    """
    per_op = [
        scale * statistics.median(getattr(p.children[i], clock) for p in passes)
        for i in range(len(passes[0].children))
    ]
    samples = [(scale * getattr(c, clock), i)
               for p in passes[:MIN_PASSES] for i, c in enumerate(p.children)]
    tail_value, tail_info = tail(samples, per_op)
    return {
        "checks_per_s": sum(p.checks for p in passes)
        / (scale * sum(getattr(c, clock) for p in passes for c in p.children)),
        "query_p50_ms": 1000.0 * statistics.median(per_op),
        "query_tail_ms": 1000.0 * tail_value,
        "setup_s": scale * statistics.median(getattr(c, clock) for p in passes for c in p.setups),
    }, tail_info


def end_to_end(passes: list[Pass], ops: list[workloads.Op]) -> tuple[dict, dict]:
    """End-to-end metrics in CPU time, scaled to a host where reference.py takes REFERENCE_CPU_S."""
    references = [r for p in passes for r in p.references]
    scale = REFERENCE_CPU_S / statistics.median(references)
    metrics, tail_info = timings(passes, "cpu", scale)
    metrics["cpu_s"] = scale * statistics.median(p.cpu for p in passes)
    metrics["peak_rss_mib"] = max(c.maxrss_kib for p in passes for c in p.children) / 1024.0
    beyond = Counter(" ".join(ops[i].argv) for i in tail_info["beyond"])
    notes = {
        "metric_clock": "child user+sys CPU time, scaled by host_scale",
        "host_scale": scale,
        "reference_cpu_s": references,
        "query_tail": {"percentile": tail_info["percentile"], "samples": tail_info["samples"],
                       "ops_beyond": dict(beyond.most_common())},
        "checks_per_pass": passes[0].checks,
        "unscaled_cpu": timings(passes, "cpu")[0],
        "wall_clock": timings(passes, "wall")[0],
        "pass_cpu_s": [p.cpu for p in passes],
        "setup_cpu_s": [c.cpu for p in passes for c in p.setups],
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


#: Tracer self-test: on each workload, metric or layer -> True if it must be
#: positive, False if it must be zero.  A layer name stands for its entries.
EXPECT = {
    "sweep-ogf": {
        "series.mul_calls": True,
        "series.coeff_mults": True,
        "identities.verify": True,
        "combinatorics.binom_calls": True,
        "identities.oracle.comb_calls": False,
    },
    "sweep-binomial": {
        "identities.oracle.comb_calls": True,
        "identities.closed.calls": True,
        "series.mul_calls": False,
    },
    "sweep-pair": {
        "sequences.calls": True,
        "cli": True,
        "cli.stdout_bytes": True,
        "series.mul_calls": False,
    },
    "point-queries": {
        "cli": True,
        "identities.verify": True,
        "identities.oracle": True,
        "identities.closed": True,
        "series": True,
        "sequences": True,
    },
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: Pass, plain: Pass) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass; ``plain`` is the same pass untraced."""
    self_s: Counter = Counter()
    entries: Counter = Counter()
    comb: Counter = Counter()
    counts: Counter = Counter()
    cache: Counter = Counter()
    max_index, spans = 0, 0
    for child in traced.children:
        rec = json.loads(child.trace)
        for name, table in (("self_s", self_s), ("entries", entries), ("comb", comb),
                            ("counts", counts), ("cache", cache)):
            table.update(rec[name])
        max_index = max(max_index, rec["max_index"])
        spans += len(rec["spans"])
    metrics = {
        "series.mul_calls": counts["mul_calls"],
        "series.self_s": self_s["series"],
        "series.coeff_mults": counts["coeff_mults"],
        "series.useful_ratio": _ratio(counts["power_needed"], counts["coeff_mults_oracle"]),
        "identities.oracle.hit_ratio": _ratio(cache["oracle_hits"], cache["oracle_lookups"]),
        "identities.oracle.self_s": self_s["identities.oracle"],
        "identities.oracle.comb_calls": comb["identities.oracle"],
        "identities.oracle.fold_useful_ratio": _ratio(counts["fold_needed"], comb["identities.oracle"]),
        "identities.closed.calls": entries["identities.closed"],
        "identities.closed.self_s": self_s["identities.closed"],
        "sequences.calls": entries["sequences"],
        "sequences.self_s": self_s["sequences"],
        "sequences.max_index": max_index,
        "cli.self_s": self_s["cli"],
        "cli.stdout_bytes": sum(len(c.out) for c in plain.children),
        "identities.verify.self_s": self_s["identities.verify"],
        "combinatorics.binom_calls": counts["binom_calls"],
        "combinatorics.binom_hit_ratio": _ratio(cache["binom_hits"], cache["binom_lookups"]),
        "trace.overhead_ratio": traced.cpu / plain.cpu,
    }
    bases = {
        "series.useful_ratio": [counts["power_needed"], counts["coeff_mults_oracle"]],
        "identities.oracle.hit_ratio": [cache["oracle_hits"], cache["oracle_lookups"]],
        "identities.oracle.fold_useful_ratio": [counts["fold_needed"], comb["identities.oracle"]],
        "combinatorics.binom_hit_ratio": [cache["binom_hits"], cache["binom_lookups"]],
        "trace.overhead_ratio": [traced.cpu, plain.cpu],
        "spans": spans,
        "comb_calls_by_layer": dict(comb),
        "entries_by_layer": dict(entries),
    }
    return metrics, bases


def span_problem(spans: list) -> str | None:
    """Why ``spans`` do not nest (a parent missing or not covering a child), or None."""
    by_id = {}
    for sid, parent, name, start, end in spans:
        if sid in by_id or end < start:
            return f"span {sid} ({name}) is duplicated or ends before it starts"
        by_id[sid] = (parent, start, end)
    for sid, (parent, start, end) in by_id.items():
        if parent == 0:
            continue
        if parent not in by_id:
            return f"span {sid} names a missing parent {parent}"
        _, p_start, p_end = by_id[parent]
        if start < p_start or end > p_end:
            return f"span {sid} lies outside its parent {parent}"
    return None


def tracer_problems(workload: str, traced: Pass, metrics: dict, bases: dict) -> list[str]:
    """Self-test of the tracer on one traced pass of ``workload``."""
    problems = []
    entries = bases["entries_by_layer"]
    for key, positive in EXPECT[workload].items():
        value = metrics.get(key, entries.get(key, 0))
        if (value > 0) != positive:
            problems.append(f"tracer: {key} = {value}, expected {'> 0' if positive else '0'}")
    for child in traced.children:
        rec = json.loads(child.trace)
        problem = span_problem(rec["spans"])
        if problem:
            problems.append(f"tracer: {problem}")
        if not 0 <= sum(rec["self_s"].values()) <= child.wall:
            problems.append("tracer: self times add up to more than the child's wall time")
    return problems


def cold_timings(deadline: float) -> tuple[dict, list[str]]:
    """One fresh process per public call; values on two routes must agree."""
    metrics, values, problems = {}, {}, []
    for name in cold.CALLS:
        child = spawn([sys.executable, str(HERE / "cold.py"), name], deadline)
        if child.code != 0:
            problems.append(f"cold {name}: exit {child.code}")
            metrics[f"cold.{name}_s"] = 0.0
            continue
        rec = json.loads(child.out)
        metrics[f"cold.{name}_s"] = rec["seconds"]
        values[name] = rec["value"]
    for left, right in cold.ROUTES:
        if values.get(left) != values.get(right):
            problems.append(f"cold {left} and {right} disagree")
    if values.get("verify_ogf_square_relation") != "True":
        problems.append("cold verify_ogf_square_relation did not pass")
    return metrics, problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs (Linux only)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def context(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "steal_s_before": steal_seconds(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "balconv" / "cli.py").is_file():
        print(f"perfbench: no balconv source at {SRC / 'balconv'}", file=sys.stderr)
        return 2
    # Expected values pass 4300 digits; lift the limit here only, never in a child.
    sys.set_int_max_str_digits(0)
    # Passes stop starting after --seconds; the cap leaves room for a pass
    # that overruns it and for the cold calls.  A child still running is killed.
    deadline = time.perf_counter() + 4 * args.seconds + 70
    info = context(args)
    ops = workloads.build(args.workload, args.seed)
    info["ops_per_pass"] = len(ops)

    passes: list[Pass] = []
    traced: list[Pass] = []
    problems: list[str] = []
    start = time.perf_counter()
    if args.trace:
        while True:
            begin = time.perf_counter()
            passes.append(run_pass(ops, deadline))
            traced.append(run_pass(ops, deadline, traced=True))
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and 2 * now - start - begin > args.seconds:
                break  # another pair would overrun
        for plain, with_trace in zip(passes, traced):
            for i, (a, b) in enumerate(zip(plain.children, with_trace.children)):
                if a.out != b.out:
                    problems.append(f"traced output differs: {' '.join(ops[i].argv)}")
        samples = [layer_metrics(t, p) for t, p in zip(traced, passes)]
        metrics, info["ratio_bases"] = samples[0]
        for t, (m, bases) in zip(traced, samples):
            problems += tracer_problems(args.workload, t, m, bases)
        for name in metrics:
            values = [m[name] for m, _ in samples]
            if name.endswith(("_s", "_ratio")):
                metrics[name] = statistics.median(values)
            elif len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
        cold, cold_problems = cold_timings(deadline)
        metrics.update(cold)
        problems += cold_problems
    else:
        setup_run(deadline)  # warm-up: the first run also writes the bytecode caches
        while True:
            begin = time.perf_counter()
            passes.append(run_pass(ops, deadline, gauge=True))
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and 2 * now - start - begin > args.seconds:
                break  # another pass would overrun
        metrics, notes = end_to_end(passes, ops)
        info.update(notes)
    units = declared("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    every = passes + traced
    for p in every:
        problems += p.problems
    attempted = sum(len(p.children) for p in every)
    failed = sum(len(p.problems) + len(p.limits) for p in every)
    info["passes"] = len(passes)
    info["error_rate"] = failed / attempted
    info["known_limit_failures"] = sorted({m for p in every for m in p.limits})
    info["problems"] = problems[:20]
    info["loadavg_after"] = os.getloadavg()
    info["steal_s_after"] = steal_seconds()
    print("perfbench context " + json.dumps(info))
    result = {
        "correct": not problems and time.perf_counter() < deadline,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
