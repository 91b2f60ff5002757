#!/usr/bin/env python3
"""End-to-end benchmark over the four user paths of the repo.

Run from the repository root::

    python3 perfbench/run.py --workload des-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs the same workload's operation as
a warm-up, traced and untraced, and prints every per-layer metric.  Every output is
checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 0
only when every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("des-sweep", "preprocess-rm5", "serve-small", "fleet-faults")
#: before each repetition of the measured operation (after one untimed
#: warm-up call that takes the first-touch costs) the set-up runs this many
#: times back to back, each call timed on its own; setup_s is the fastest
#: call of the run.  A call takes a tenth to a third of a millisecond, and
#: a whole block of calls reads half again as long while a neighbour on the
#: host holds the core, so the blocks' medians land in one of two modes
#: while the run's fastest call does not
SETUP_CALLS_PER_REPETITION = 25
#: what throughput_per_s counts, per workload
THROUGHPUT_NAMES = {
    "des-sweep": "scenarios_per_s",
    "preprocess-rm5": "rows_per_s",
    "serve-small": "served_jobs_per_s",
    "fleet-faults": "fleet_jobs_per_s",
}


def _load(name: str) -> dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def benchmark_spec() -> dict:
    return _load(os.path.join(os.pardir, "BENCHMARK.json"))


def build(name: str, seed: int):
    """The workload object for ``name``, its inputs made from ``seed``."""
    import workloads

    meta = _load("meta.json")
    if name == "des-sweep":
        return workloads.DesSweep(seed, _load("reference.json"))
    if name == "preprocess-rm5":
        return workloads.PreprocessRm5(seed)
    if name == "serve-small":
        return workloads.ServeSmall(
            seed, meta["serve_small"]["offered_rate_jobs_per_s"]
        )
    return workloads.FleetFaults(seed)


def _malloc_trim() -> None:
    """Hand freed heap pages back to the OS (glibc only; else a no-op)."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, seconds: float):
    """(attempted, failed, metrics, notes) of one untraced measurement."""
    setups: list = []

    def between() -> None:
        # every repetition starts from a collected, trimmed heap, so peak
        # RSS does not creep with how freed memory happened to fragment;
        # then sample set-up
        gc.collect()
        _malloc_trim()
        workload.setup()
        setups.append([workload.setup() for _ in range(SETUP_CALLS_PER_REPETITION)])

    measured = workload.measure(seconds, between)
    tail_ms, tail_label, samples = measured.tail()
    metrics = {
        "setup_s": (min(min(block) for block in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (measured.throughput, "1/s"),
        "latency_p50_ms": (statistics.median(measured.latencies_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
    }
    notes = measured.notes + [
        f"{THROUGHPUT_NAMES[workload.name]} = {measured.throughput:.6g}",
        f"latency_tail_ms is {tail_label} of {samples} samples",
        f"setup_s is the fastest of {len(setups)} x {SETUP_CALLS_PER_REPETITION} "
        f"set-up calls; the blocks' medians range "
        f"{1e3 * min(map(statistics.median, setups)):.4f}-"
        f"{1e3 * max(map(statistics.median, setups)):.4f} ms",
        f"failed_ratio = {measured.failed}/{measured.attempted}",
    ]
    return measured.attempted, measured.failed, metrics, notes


def per_layer(workload, seed: int, names):
    """(attempted, failed, metrics, notes) of the traced run."""
    from layers import LAYERS, TARGETS, WAIT_SPANS, layer_of
    from tracing import Recorder, install, span_problems

    recorder = Recorder(run_id=f"{workload.name}-seed{seed}-pid{os.getpid()}")
    traced = workload.traced(recorder, lambda rec: install(rec, TARGETS))
    wall = traced.end - traced.start
    owned, leftover = recorder.self_times(traced.start, traced.end, WAIT_SPANS)
    # self times and leftover add up to the wall by construction; what can
    # break is the span tree they are taken over
    problems = span_problems(recorder.spans(), traced.start, traced.end)
    if leftover < 0:
        problems.append(f"negative leftover {leftover:.9f} s")
    problems += [f"{name}: negative self time {seconds:.9f} s"
                 for name, seconds in owned.items() if seconds < -1e-9]
    inclusive = recorder.inclusive()
    values = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": traced.untraced_wall_s,
        "trace.overhead_pct": 100.0 * (wall / traced.untraced_wall_s - 1.0),
        "trace.spans": len(recorder),
        "layer.leftover_s": leftover,
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            seconds for name, seconds in owned.items() if layer_of(name) == layer
        )
    values.update(traced.metrics)
    # "<span>.calls" / "<span>.s" / "<span>.self_s": calls, inclusive and
    # self seconds of the span named by the prefix
    for name in names:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = owned.get(span, 0.0)
        elif kind == "calls":
            values[name] = inclusive.get(span, (0, 0.0))[0]
        elif kind == "s":
            values[name] = inclusive.get(span, (0, 0.0))[1]
    attributed = sum(values[f"layer.{layer}.self_s"] for layer in LAYERS) + leftover
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    dump = os.path.join(HERE, ".out", f"trace-{workload.name}-seed{seed}.jsonl.gz")
    recorder.write(dump, origin=traced.start)
    units = {entry["name"]: entry["unit"] for entry in benchmark_spec()["per_layer"]}
    metrics = {name: (values.get(name, 0), units[name]) for name in names}
    notes = [
        f"traced wall {wall:.4f} s vs untraced {traced.untraced_wall_s:.4f} s "
        f"(tracing overhead {values['trace.overhead_pct']:.1f}%), "
        f"{len(recorder)} spans -> {os.path.relpath(dump, ROOT)}",
        f"layers + leftover = {attributed:.6f} s of {wall:.6f} s traced wall; "
        f"{len(problems)} span-tree problems",
    ] + [f"  {problem}" for problem in problems[:5]]
    for layer in LAYERS + ("leftover",):
        key = "layer.leftover_s" if layer == "leftover" else f"layer.{layer}.self_s"
        if values[key] > 0:
            notes.append(f"  {key:24s} {values[key]:10.4f} s {100 * values[key] / wall:6.1f}%")
    failed = traced.failed + bool(problems)
    return traced.attempted + 1, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: meta.json default_seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    spec = benchmark_spec()
    seed = args.seed if args.seed is not None else _load("meta.json")["default_seed"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seed < 0 or seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.perf_counter()
    workload = build(args.workload, seed)
    if args.trace:
        names = [entry["name"] for entry in spec["per_layer"]]
        attempted, failed, metrics, notes = per_layer(workload, seed, names)
    else:
        attempted, failed, metrics, notes = end_to_end(workload, seconds)
    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"({time.perf_counter() - started:.1f} s in all)")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
