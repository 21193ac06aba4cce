"""The hyperwalk benchmark: one workload per run, in fresh processes.

    python3 perfbench/run.py --workload graph-exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Workloads: graph-exact, quantum-realize and cli-docs (see BENCHMARK.json
and perfbench/README.md); ``all`` runs each in turn.  Each run starts
several fresh set-up-only processes, whose median is ``setup_s``, and then
one measuring process: a closed loop with one caller, single-threaded, over
whole rounds of the workload for about ``--seconds``.  Every operation is
checked against expectations from the paper and the documented exit codes.
End-to-end times are stated at a fixed machine speed measured by a
reference kernel (calibrate.py); the raw values are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, which alternates untraced and traced rounds.  Runs from the
root of a source checkout: the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import NOMINAL_S
from oracles import KNOWN_DEFECTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 4  # fresh processes per run whose median set-up time is reported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict:
    """Single-threaded numerics, the package's default parallelism, no bytecode."""
    env = dict(os.environ)
    env.pop("HYPERWALK_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py with ``args`` in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=pinned_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, args, spec: dict) -> dict:
    """Measure one workload, print its report, and return its result line."""
    common = ["--workload", name, "--seed", str(args.seed), "--root", str(ROOT)]
    setups = [run_worker(common + ["--setup-only"], 60) for _ in range(SETUP_RUNS - 1)]
    result = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        timeout=args.seconds + 90)
    expected_file = ROOT / "src" / "hyperwalk" / "__init__.py"
    if os.path.realpath(result["package_file"]) != os.path.realpath(expected_file):
        raise RuntimeError(f"imported {result['package_file']}, not this checkout")
    setups.append(result)
    # Each process's times, stated at the reference machine speed.
    scale = NOMINAL_S / result["kernel_s"]
    setup_scaled = [p["setup_s"] * NOMINAL_S / p["kernel_s"] for p in setups]

    attempted, failed = result["attempted"], result["failed"]
    print(f"hyperwalk benchmark: workload {name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: git {git_sha() or 'unknown (not a git checkout)'}, "
          f"python {sys.version.split()[0]}, numpy {result['numpy']}, "
          f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"HYPERWALK_THREADS unset, {'/'.join(THREAD_VARS)}=1")
    print("load: closed loop, one caller, single-threaded. No layer waits on another, "
          "so there is no time-waited metric.")
    print(f"machine speed: reference kernel median {result['kernel_s'] * 1e3:.2f} ms over "
          f"{result['kernel_samples']} samples (nominal {NOMINAL_S * 1e3:g} ms); end-to-end "
          f"times are scaled by {scale:.4f} to the nominal speed, raw values in brackets")
    print("inputs:")
    for descriptor in result["descriptors"]:
        print(f"  {json.dumps(descriptor)}")
    print(f"operations: {attempted} attempted in {result['rounds']} rounds of "
          f"{result['ops_per_round']}, {failed} failed "
          f"(failed_frac {failed / attempted:.6f} ratio)")
    for defect, count in sorted(result["defects"].items()):
        print(f"  known defect {defect}: {count} ops failed. {KNOWN_DEFECTS[defect]}")
    for label, failures in result["unexpected"]:
        print(f"  UNEXPECTED failure in {label}: {'; '.join(failures)}")

    if args.trace:
        layers = result["per_layer"]
        print(f"traced run: {result['spans']} spans written to {result['spans_file']}; "
              f"per-layer values are per round")
        metrics = {}
        for entry in spec["per_layer"]:
            value = layers.get(entry["name"], 0.0)
            metrics[entry["name"]] = metric(value, entry["unit"])
            print(f"  {entry['name']:<48} {value:.6g} {entry['unit']}")
        unlisted = sorted(set(layers) - set(metrics))
        if unlisted:
            print(f"  (derived but not in BENCHMARK.json: {', '.join(unlisted)})")
    else:
        lat = result["latency"]
        raw = {
            "throughput_ops_per_s": result["throughput_ops_per_s"],
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "failed_frac": failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        values = dict(
            raw,
            throughput_ops_per_s=raw["throughput_ops_per_s"] / scale,
            latency_p50_ms=raw["latency_p50_ms"] * scale,
            latency_tail_ms=raw["latency_tail_ms"] * scale,
            setup_s=statistics.median(setup_scaled),
        )
        notes = {
            "latency_p50_ms": f"median of {lat['samples']} ops",
            "latency_tail_ms": (f"p{lat['tail_percentile']:g}, {lat['tail_beyond']} of "
                                f"{lat['samples']} samples beyond it"),
            "setup_s": f"median of {len(setups)} fresh processes",
            "failed_frac": "known defects count as failures",
        }
        units = {"failed_frac": "ratio"}
        units.update({e["name"]: e["unit"] for e in spec["end_to_end"]})
        print("median latency per operation (ms):")
        for label, ms in result["median_ms_by_op"].items():
            print(f"  {label:<48} {ms:.6g}")
        print("end-to-end metrics:")
        for key, value in values.items():
            shown = f"{value:.6g}" if value == raw[key] else f"{value:.6g} [{raw[key]:.6g}]"
            print(f"  {key:<22} {shown} {units[key]}  {notes.get(key, '')}")
        metrics = {e["name"]: metric(values[e["name"]], e["unit"]) for e in spec["end_to_end"]}
    return {
        "correct": result["unexpected_count"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hyperwalk" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: {ROOT} is not a hyperwalk source checkout (no src/hyperwalk)\n")
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {names}\n")
        return 2

    lines = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            lines[name] = run_workload(name, args, spec)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{name}.{key}": m for name, x in lines.items()
                        for key, m in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
