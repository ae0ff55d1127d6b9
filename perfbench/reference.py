"""Reference cases too long for a workload, each measured once.

    python3 perfbench/reference.py

Runs `table` at n = 9 and 10 in both bases (JSON) and `verify --suite all
--n 6` the way run.py runs an invocation, and prints wall time, CPU time,
peak RSS and output size of each.
"""

from __future__ import annotations

import sys

import run

CASES = (
    ["table", "--n", "9", "--format", "json"],
    ["table", "--n", "9", "--basis", "b-gamma", "--format", "json"],
    ["table", "--n", "10", "--format", "json"],
    ["table", "--n", "10", "--basis", "b-gamma", "--format", "json"],
    ["verify", "--n", "6", "--suite", "all"],
)


def main() -> int:
    env = run.child_env()
    run.check_environment(env)
    for args in CASES:
        r = run.launch([sys.executable, "-m", "ukin", *args], env)
        print(f"{' '.join(args):44} exit {r.returncode}  wall {r.wall:6.2f} s  cpu {r.cpu:6.2f} s  "
              f"peak RSS {r.maxrss_kb / 1024:6.1f} MB  stdout {len(r.stdout.encode()) / 1e6:.2f} MB",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
