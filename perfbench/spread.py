"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload graph-exact --seeds 1-10 [--seconds 30]

Runs run.py once per seed, one after another, and prints for every
end-to-end metric its median and its quartile spread (Q3 - Q1) as a share
of the median, against a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_iqr

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {e["name"]: [] for e in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
    for entry in spec["end_to_end"]:
        vals = values[entry["name"]]
        spread = relative_iqr(vals)
        print(f"{entry['name']:<22} median {statistics.median(vals):.5g} {entry['unit']:<6} "
              f"spread {spread:.4f} (bound {entry['bound']}, target < {entry['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
