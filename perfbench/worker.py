"""One workload in a fresh process; run.py starts it and reads its last line.

    python3 perfbench/worker.py --workload NAME --seed N --root DIR --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --root DIR --seconds S --trace 0|1

With --setup-only it imports the package, builds the workload's inputs and
documents, and prints the set-up time.  Otherwise it then warms up, runs
whole rounds of the workload in a closed loop for about S seconds, and
prints one JSON object with the counts, latencies and (traced) spans.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

# Reference-kernel runs after set-up, whose median states that process's speed.
SETUP_KERNEL_RUNS = 5
MODULES = {
    "graph-exact": "graph_exact",
    "quantum-realize": "quantum_realize",
    "cli-docs": "cli_docs",
}


def build(name: str, seed: int, root: str):
    """Import the package and build the workload; returns it with the seconds taken."""
    start = time.perf_counter()
    module = importlib.import_module(MODULES[name])
    if name == "cli-docs":
        workload = module.Workload(seed, root)
    else:
        workload = module.Workload(seed)
    return workload, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload, setup_s = build(args.workload, args.seed, args.root)

    from calibrate import SpeedProbe, kernel_seconds

    if args.setup_only:
        workload.close()
        kernel_s = statistics.median(kernel_seconds() for _ in range(SETUP_KERNEL_RUNS))
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))
        return 0

    import numpy

    import hyperwalk
    from core import Tally, execute, run_rounds
    from stats import latency_summary
    from tracing import NullTracer, Tracer, layer_metrics

    try:
        for _ in range(SETUP_KERNEL_RUNS):
            kernel_seconds()
        for op in workload.warmup():
            execute(op, NullTracer())
        tally = Tally()
        tracer = Tracer()
        probe = SpeedProbe()
        passes = [NullTracer(), tracer] if args.trace else [NullTracer()]
        walls = run_rounds(workload.round, args.seconds, passes, tally, probe)
        descriptors = workload.descriptors()
    finally:
        workload.close()

    untraced_s = sum(w[0] for w in walls)
    result = {
        "workload": args.workload,
        "package_file": hyperwalk.__file__,
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "rounds": len(walls),
        "ops_per_round": len(workload.round(0)),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "defects": tally.defects,
        "unexpected": tally.unexpected[:20],
        "unexpected_count": len(tally.unexpected),
        "descriptors": descriptors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_s": statistics.median(probe.samples or [kernel_seconds()]),
        "kernel_samples": len(probe.samples),
    }
    if args.trace:
        traced_s = sum(w[1] for w in walls)
        result["per_layer"] = layer_metrics(tracer.spans, len(walls))
        result["per_layer"]["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out_dir = os.path.join(args.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
        result["spans"] = len(tracer.spans)
    else:
        ops = tally.attempted
        result["throughput_ops_per_s"] = ops / untraced_s
        result["latency"] = latency_summary(tally.latencies_s, workload.tail_cap)
        result["median_ms_by_op"] = {
            label: round(statistics.median(values) * 1e3, 3)
            for label, values in sorted(tally.by_label.items())
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
