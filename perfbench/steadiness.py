"""Run the benchmark once per seed and print the spread of each metric.

    python3 perfbench/steadiness.py --workload tables --seeds 1-10

Each run is a separate `perfbench/run.py` process with BENCHMARK.json's
`run_seconds`, started the way a comparison of two commits starts it.  For
every metric it prints the median over the runs and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed:3} correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(
                  f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{args.workload:8} {name:12} median {median:9.4f}  spread {(q3 - q1) / median:.4f}"
              f"  bound {bounds.get(name)}")
    print(f"{args.workload:8} failed shares {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
