"""Benchmark of the entombed package, driven from outside through its CLI.

    python3 perfbench/run.py --workload maze --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; the package is taken
from ``src/`` beside this directory). ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that gives
the per-layer metrics. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the full report (every workload metric with its median, tail
percentile and sample count, the input properties and the environment).
A readable table goes to standard error. See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("prng-statespace", "maze", "rom-scan")
SETUP_LAUNCHES = 20


def tail(samples):
    """(p, value) for the highest whole percentile with ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None, None
    p = 100 * (n - 10) // n
    return p, sorted(samples)[max(math.ceil(p * n / 100), 1) - 1]


def setup_seconds(workload, launches: int = SETUP_LAUNCHES):
    """Wall times of fresh interpreters importing the CLI and building first-use objects."""
    code = f"import entombed.cli as c\nc.build_parser()\n{workload.first_use}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, env=env, check=True)  # writes bytecode caches; not timed
    times = []
    for _ in range(launches):
        start = perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def run_op(workload, index, tracer, problems):
    """One op; its parts' seconds, or None when it failed."""
    try:
        parts, found = workload.op(index, tracer)
    except Exception:  # a crash of the measured code is a failed op
        found, parts = [traceback.format_exc()], None
    problems.extend(f"{workload.name} op {index}: {p}" for p in found)
    return None if found else parts


def environment(args, trace_overhead=None):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_overhead_share": trace_overhead,
    }


def untraced(args, workload):
    setup = setup_seconds(workload)
    workload.prepare(args.seed, args.tmp)
    samples = {p: [] for p in workload.parts}
    op_times = []
    problems = []
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < args.seconds:
        parts = run_op(workload, attempted, None, problems)
        attempted += 1
        if parts is None:
            failed += 1
            continue
        for name, seconds in parts.items():
            samples[name].append(seconds)
        op_times.append(sum(parts.values()))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {}

    def add(name, values, unit, per_time=None):
        p, slow = tail(values)
        value = statistics.median(values)
        report[name] = {
            "value": per_time(value) if per_time else value,
            "unit": unit,
            "samples": len(values),
            "tail_percentile": p,
            "tail": None if slow is None else (per_time(slow) if per_time else slow),
        }

    add("setup_s", setup, "s")
    report["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB", "samples": 1}
    report["error_rate"] = {"value": failed / attempted, "unit": "share", "samples": attempted}
    if op_times:
        for name, (values, unit, per_time) in workload.metrics(samples).items():
            add(name, values, unit, per_time)
        add("op_s", op_times, "s")
    final = {
        name: {"value": report[name]["value"], "unit": report[name]["unit"]}
        for name in ("op_s", "peak_rss_mib", "setup_s")
        if name in report
    }
    return {
        "environment": environment(args),
        "metrics": report,
        "properties": workload.properties(),
    }, final, attempted, failed, problems


def traced(args, workload, others):
    """Per-layer metrics from spans, plus the tracing overhead.

    Untraced and traced ops of the workload alternate until the time is
    up; the overhead is the traced ops' median over the untraced ones'.
    Then one traced op of each other workload, so that every layer is
    measured.
    """
    from tracing import Tracer

    problems = []
    attempted = failed = 0
    for w in (workload, *others):
        w.prepare(args.seed, args.tmp)
    tracers = {w.name: Tracer() for w in (workload, *others)}
    totals = {False: [], True: []}
    start = perf_counter()
    while attempted < 2 or perf_counter() - start < args.seconds:
        tracer = tracers[workload.name] if attempted % 2 else None
        if tracer:
            tracer.op = attempted
        parts = run_op(workload, attempted, tracer, problems)
        attempted += 1
        if parts is None:
            failed += 1
        else:
            totals[tracer is not None].append(sum(parts.values()))
    for w in others:
        attempted += 1
        failed += run_op(w, 0, tracers[w.name], problems) is None

    overhead = None
    if totals[False] and totals[True]:
        overhead = statistics.median(totals[True]) / statistics.median(totals[False]) - 1
    metrics = {}
    absent = []
    for w in (workload, *others):
        metrics.update(w.layer_metrics(tracers[w.name]))
        absent.extend(tracers[w.name].absent)
    own = tracers[workload.name]
    n, overhead_ns = own.self_ns("cli.main")
    metrics["cli.overhead_ms"] = (overhead_ns / n / 1e6 if n else None, "ms")
    outputs = workload.stdout_bytes
    metrics["cli.stdout_bytes"] = (statistics.fmean(outputs) if outputs else None, "bytes")
    metrics["trace.overhead_share"] = (overhead, "share")
    absent.extend(name for name, (value, _unit) in metrics.items() if value is None)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(
        json.dumps({"environment": environment(args, overhead), **{k: t.export() for k, t in tracers.items()}})
    )
    report = {
        "environment": environment(args, overhead),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
        "absent": sorted(set(absent)),
        "self_time_ms": {k: t.summary() for k, t in tracers.items()},
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    final = dict(report["metrics"])
    return report, final, attempted, failed, problems


def print_table(report, problems) -> None:
    err = sys.stderr
    env = report["environment"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} python={env['python']} "
          f"nproc={env['nproc']} trace_overhead={env['trace_overhead_share']}", file=err)
    for name, m in report["metrics"].items():
        extra = ""
        if m.get("samples"):
            extra = f"  n={m['samples']}"
            if m.get("tail_percentile"):
                extra += f"  p{m['tail_percentile']}={m['tail']:.6g}"
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']:8s}{extra}", file=err)
    for name, value in report.get("properties", {}).items():
        if value is None:
            continue
        print(f"{name:45s} {value:>14.6g} (input property)", file=err)
    for name in report.get("absent", ()):
        print(f"{name:45s} {'absent':>14s}", file=err)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entombed" / "__init__.py").is_file():
        print(f"error: no entombed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import workloads

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    args.tmp = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        if args.trace:
            others = [cls() for name, cls in workloads.WORKLOADS.items() if name != args.workload]
            report, final, attempted, failed, problems = traced(args, workload, others)
        else:
            report, final, attempted, failed, problems = untraced(args, workload)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    report["attempted"], report["failed"], report["problems"] = attempted, failed, problems[:50]
    print_table(report, problems)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
    # Without a single successful op there is no op_s to report.
    return 0 if args.trace or "op_s" in final else 1


if __name__ == "__main__":
    sys.exit(main())
