"""Benchmark for the endhered package: five workloads over the CLI and the
public layers, plus a traced run that reports per-layer metrics.

Run it from the root of a checkout of the repository:

    python3 bench/run.py --workload mc_sample --seed 1 --seconds 20 --trace 0

It imports the package from `src/`, builds the workload's inputs from the
seed, runs operations for the given number of seconds in this one process,
and checks every output.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The full report
(provenance, input properties, error rate, tail percentile, per-layer self
times) is written to `.bench_results/`, and the traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import checks
import layers
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
# Set-ups per run: as many as fit in this share of the run, at least
# MIN_SETUPS; the fastest is reported.
SETUP_SHARE = 0.05
MIN_SETUPS = 12
# A group whose fastest operation ran this many times faster per item than
# its first or its median one has returned a remembered answer: that counts
# as a failure, not a gain.
CACHED_RATIO = 3.0
# Hardware counters need perf access that a shared container does not give,
# and the cgroup CPU quota (cpu.max) lies outside the checkout, which the
# benchmark does not read.
NOT_MEASURED = ["cache misses", "memory bandwidth", "instructions per cycle", "cgroup cpu.max"]
# Modules loaded before the package: everything else, the package and all it
# imports, is dropped before each set-up so that each imports it cold.
BASE_MODULES = frozenset(sys.modules)


def package_modules() -> Dict[str, object]:
    return {name: mod for name, mod in sys.modules.items() if name not in BASE_MODULES}


def import_package():
    """Import `endhered` and its dependencies afresh from this checkout's
    src/, never from elsewhere."""
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("endhered")
    importlib.import_module("endhered.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "endhered").resolve():
        raise ImportError(f"endhered was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def corrupt_output(out):
    """A wrong answer of the same shape, to show that the checks count it.
    Every workload's first operation is a CLI call, returning (code, stdout)."""
    return out[0], checks.corrupt(out[1])


class Done(NamedTuple):
    """What is kept of a finished operation: not its inputs or outputs, so
    that the run's memory does not grow with the number of operations."""

    kind: str
    group: str
    items: int
    latency: float  # seconds
    problems: List[str]


def run_op(op: workloads.Op, corrupt: bool = False, tracer: Optional[Tracer] = None) -> Done:
    """Run and check one operation; with a tracer, inside a span of its own."""
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span(f"bench.{op.kind}"):
                out = op.run()
    except Exception as exc:  # a failed operation is counted, and the run goes on
        error = f"raised {exc!r}"
    latency = time.perf_counter() - start
    if error is not None:
        return Done(op.kind, op.group, op.items, latency, [error])
    if corrupt:
        out = corrupt_output(out)
    try:
        problems = op.check(out)
    except Exception as exc:  # a malformed output can break a check
        problems = [f"check raised {exc!r}"]
    return Done(op.kind, op.group, op.items, latency, problems)


def run_ops(ops, seconds: float, corrupt: bool = False, interludes=()) -> List[Done]:
    """Run operations until `seconds` have passed.  Each interlude, a pair
    (seconds from the start, function), is called between operations once
    its time has come."""
    done: List[Done] = []
    interludes = sorted(interludes, key=lambda pair: pair[0])
    start = time.perf_counter()
    for i, op in enumerate(ops):
        done.append(run_op(op, corrupt and i == 0))
        while interludes and time.perf_counter() - start >= interludes[0][0]:
            interludes.pop(0)[1]()
        if time.perf_counter() - start >= seconds:
            break
    return done


def group_stats(done) -> Dict[str, dict]:
    """Seconds per item of the first, the median and the fastest operation
    of each group of operations that do the same work."""
    rates: Dict[str, List[float]] = {}
    for d in done:
        rates.setdefault(d.group, []).append(d.latency / d.items)
    return {group: {"ops": len(r), "first": r[0], "median": statistics.median(r), "best": min(r)}
            for group, r in rates.items()}


def cached_groups(stats: Dict[str, dict]) -> List[str]:
    """Groups whose fastest operation beat their first or their median by
    CACHED_RATIO: repeated work answered from memory."""
    return [f"group {group!r}: fastest operation {max(g['first'], g['median']) / g['best']:.1f}x faster "
            f"than its first or median one, so an answer was remembered, not computed"
            for group, g in stats.items()
            if g["ops"] >= 3 and g["best"] * CACHED_RATIO < max(g["first"], g["median"])]


def quantile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def provenance(args) -> dict:
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "not_measured": NOT_MEASURED, "git_sha": None, "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30)
            info["git_sha"] = sha.stdout.strip() or None
            info["git_dirty"] = bool(dirty.stdout.strip()) if dirty.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def setup(args, schemas):
    """Import, input generation and warm-up; returns the package, the
    workload and the seconds each step took."""
    t0 = time.perf_counter()
    pkg = import_package()
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](pkg, args.seed, WORK, schemas)
    t2 = time.perf_counter()
    wl.warm_up()
    t3 = time.perf_counter()
    return pkg, wl, {"import": t1 - t0, "inputs": t2 - t1, "warm_up": t3 - t2, "total": t3 - t0}


def traced(pkg, wl, args):
    """Run each operation untraced and then again with spans on, so that both
    see the same machine state, until --seconds pass.  Returns the untraced
    and the traced runs, the metrics, a report and the tracer."""
    tracer = Tracer()
    modules = [getattr(pkg, name) for name in ("matchings", "patterns", "tables", "series",
                                               "asymptotics", "structure", "corpus", "cli")]
    targets = layers.targets(pkg)
    untraced: List[Done] = []
    replay: List[Done] = []
    untraced_counts, traced_counts = wl.counters, Counter()
    deadline = time.perf_counter() + args.seconds
    for i, op in enumerate(wl.ops()):
        # Alternate which pass goes first, as running an operation can make
        # its immediate repeat faster.
        for traced_pass in (i % 2 == 1, i % 2 == 0):
            if traced_pass:
                wl.counters = traced_counts
                tracer.op = i
                tracer.install(modules, targets)
                try:
                    replay.append(run_op(op, tracer=tracer))
                finally:
                    tracer.uninstall()
            else:
                wl.counters = untraced_counts
                untraced.append(run_op(op, args.corrupt and i == 0))
        if time.perf_counter() >= deadline:
            break
    wl.counters = untraced_counts
    calls = layers.Calls(tracer.spans, tracer.self_times())
    metrics = layers.per_layer(calls, traced_counts)
    # The two passes interleave, so their totals see the same machine states.
    untraced_s = sum(d.latency for d in untraced)
    traced_s = sum(d.latency for d in replay)
    self_by_layer = layers.layer_self_times(calls)
    in_layers = sum(v for k, v in self_by_layer.items() if k != "bench")
    metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1, "unit": "ratio"}
    metrics["trace.accounted_frac"] = {"value": in_layers / traced_s, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    report = {"self_s_by_layer": self_by_layer, "traced_s": traced_s, "untraced_s": untraced_s}
    return untraced, replay, metrics, report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the first output, to show that the checks count it")
    args = parser.parse_args(argv)

    if not (SRC / "endhered" / "__init__.py").is_file() or not SCHEMAS.is_dir():
        print(f"error: {ROOT} has no src/endhered or docs/schemas; run from a checkout", file=sys.stderr)
        return 2
    os.environ.pop("ENDHERED_THREADS", None)
    sys.path.insert(0, str(SRC))
    schemas = {p.name.split(".")[0]: json.loads(p.read_text()) for p in SCHEMAS.glob("*.schema.json")}

    pkg, wl, first_setup = setup(args, schemas)
    setup_times = [first_setup]
    if args.trace:
        done, replay, metrics, trace_report, tracer = traced(pkg, wl, args)
    else:
        # The other set-ups are spread over the run, so that the fastest of
        # them, like the operations, is sought over the machine states of the
        # whole run.  Each imports afresh and makes a throw-away workload;
        # the measured one keeps the package of the first.
        def set_up_again():
            kept = package_modules()
            setup_times.append(setup(args, schemas)[2])
            for name in package_modules():
                del sys.modules[name]
            sys.modules.update(kept)
            gc.collect()

        repeats = max(MIN_SETUPS, int(SETUP_SHARE * args.seconds / first_setup["total"]))
        interludes = [(args.seconds * k / repeats, set_up_again) for k in range(1, repeats)]
        done = run_ops(wl.ops(), args.seconds, args.corrupt, interludes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [d.latency for d in done]
    # the highest percentile with at least ten operations beyond it
    tail_pct = int(100 * (1 - 10 / len(done))) if len(done) >= 20 else 50
    stats = group_stats(done)
    report = {
        "provenance": provenance(args), "inputs": wl.properties, "setup_s_each": setup_times,
        "ops": len(done), "us_per_item_by_group": {
            group: {k: v * 1e6 if k != "ops" else v for k, v in g.items()} for group, g in stats.items()},
        "op_p50_ms": quantile(latencies, 50) * 1e3,
        f"op_p{tail_pct}_ms": quantile(latencies, tail_pct) * 1e3,
        "op_latency_ms": [round(lat * 1e3, 3) for lat in latencies],
    }
    if args.trace:
        report["trace"] = trace_report
        done += replay
    else:
        # The time the operations would take if each ran at its group's
        # fastest rate per item.
        best_s = sum(d.items * stats[d.group]["best"] for d in done)
        metrics = {
            "setup_s": {"value": min(t["total"] for t in setup_times), "unit": "s"},
            "items_per_s": {"value": sum(d.items for d in done) / best_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    run_checks, run_problems = wl.finish()
    run_checks += 1
    run_problems += cached_groups(stats)
    problems = [(d.kind, p) for d in done for p in d.problems] + [("run", p) for p in run_problems]
    failed = sum(1 for d in done if d.problems) + (1 if run_problems else 0)
    attempted = len(done) + run_checks
    report.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  problems=problems[:20], metrics=metrics)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{stem}_spans.jsonl", args.workload)
    for kind, problem in problems[:5]:
        print(f"check failed ({kind}): {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {failed} of {attempted} checked operations failed; "
          f"p50 {report['op_p50_ms']:.1f} ms, p{tail_pct} {report[f'op_p{tail_pct}_ms']:.1f} ms "
          f"over {len(latencies)} untraced ops; report in {RESULTS.name}/{stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
