"""Cold-process benchmark of the `ukin` command line.

    python3 perfbench/run.py --workload tables|queries|verify --seed N \
        --seconds S --trace 0|1

Every invocation is a fresh `python -m ukin` process, started with
`UKIN_COLOR=0` and this checkout's `src` first on `PYTHONPATH`, so no install
is needed.  Invocations run one at a time from this single process: a closed
loop with one client.  A run repeats whole rounds of its workload's fixed list
of invocations (see plans.py) until they have taken S seconds, then
checks every document apart from the program (see checks.py).  Cold starts
for `setup_s` are spread between the invocations of every round.  Metric
names and units are those of BENCHMARK.json at the root of the checkout.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it runs one untraced round, one round
with spans and one round with operation counts (see tracer.py) and reports
the per-layer metrics.  Either way the object also gives the invocations
attempted and failed; an invocation fails when it exits nonzero or its
document fails a check, and `correct` is false when a document that the
program reported as a success fails a check.

The exit code is 1, with no result, when the child does not import `ukin`
from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from checks import check_round
from plans import WORKLOADS, Invocation, plan_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Cold `import ukin.cli` starts per round, spread evenly between its invocations.
SETUP_PER_ROUND = 28

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DECLARED = {kind: {m["name"]: m["unit"] for m in BENCH[kind]} for kind in ("end_to_end", "per_layer")}


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ, UKIN_COLOR="0")
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *inherited])
    return env


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def launch(argv: list[str], env: dict[str, str]) -> Result:
    """Run one child; wall time from launch to exit, stdout read, rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"),
                  wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def check_environment(env: dict[str, str]) -> None:
    """The child must import `ukin` from this checkout, or every invocation fails."""
    want = ROOT / "src" / "ukin" / "__init__.py"
    probe = launch([sys.executable, "-c", "import ukin; print(ukin.__file__)"], env)
    got = probe.stdout.strip()
    if probe.returncode != 0 or not got or Path(got).resolve() != want:
        sys.exit(f"perfbench: the child does not import ukin from {want}: "
                 f"{(got or probe.stderr.strip())[-300:]}")


def ukin_command(inv: Invocation) -> list[str]:
    return [sys.executable, "-m", "ukin", *inv.argv()]


def run_round(plan: list[Invocation], command, env: dict[str, str],
              setup: list[float] | None = None) -> list[Result]:
    """Run the plan once; with `setup`, also time cold starts between the invocations."""
    results = []
    starts = SETUP_PER_ROUND if setup is not None else 0
    for i, inv in enumerate(plan):
        for _ in range((i + 1) * starts // len(plan) - i * starts // len(plan)):
            setup.append(launch([sys.executable, "-c", "import ukin.cli"], env).wall)
        results.append(launch(command(inv), env))
    return results


def with_units(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """Attach BENCHMARK.json's units; the names must be exactly those it declares."""
    declared = DECLARED[kind]
    if set(values) != set(declared):
        raise SystemExit(f"perfbench: {kind} metrics {sorted(set(values) ^ set(declared))} "
                         f"are not both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def check_rounds(plan: list[Invocation], rounds: list[list[Result]]) -> tuple[int, int, list[str]]:
    """Full checks on the first round; later rounds must repeat its output byte for byte.

    Returns (failed invocations, wrong documents from successful exits, messages).
    """
    first = rounds[0]
    errors = check_round(plan, [(r.returncode, r.stdout, r.stderr) for r in first])
    failed = wrong = 0
    messages = []
    for results in rounds:
        for inv, result, ref, errs in zip(plan, results, first, errors):
            if result is not ref and (result.returncode, result.stdout, result.stderr) != (
                    ref.returncode, ref.stdout, ref.stderr):
                errs = errs + ["output differs from the first round"]
            if errs:
                failed += 1
                wrong += result.returncode == 0
                messages.append(f"{inv.key()}: {'; '.join(errs)[:400]}")
    return failed, wrong, messages


def end_to_end(plan: list[Invocation], seconds: float, env: dict[str, str]):
    """Whole rounds until `seconds` of invocation wall time (cold starts not counted)."""
    rounds: list[list[Result]] = []
    setup: list[float] = []
    while not rounds or sum(r.wall for rs in rounds for r in rs) < seconds:
        rounds.append(run_round(plan, ukin_command, env, setup))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r.wall for r in rs) for rs in rounds),
        "cpu_s": statistics.median(sum(r.cpu for r in rs) for rs in rounds),
        "op_p50_s": statistics.median(r.wall for rs in rounds for r in rs),
        "peak_rss_mb": max(r.maxrss_kb for rs in rounds for r in rs) / 1024,
    }
    samples = {"setup": setup, "rounds": [[r.wall for r in rs] for rs in rounds],
               "cpu": [[r.cpu for r in rs] for rs in rounds]}
    return rounds, with_units("end_to_end", metrics), samples


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

# Per-layer metric -> how it is read from the aggregated trace.
# ("calls", label): calls of a spanned function; ("self", labels): summed
# self time; ("total", label): summed span duration; ("count", key): a
# counter of the counts pass; ("cache", label, field): lru_cache statistics.
LAYERS = {
    "cli.main_s": ("total", "cli.main"),
    "areabasis.valid_indices.calls": ("calls", "areabasis.valid_indices"),
    "areabasis.valid_indices.s": ("self", "areabasis.valid_indices"),
    "areabasis.indices_of_degree.calls": ("calls", "areabasis.indices_of_degree"),
    "areabasis.indices_of_degree.s": ("self", "areabasis.indices_of_degree"),
    "areabasis.is_valid.calls": ("count", "areabasis.is_valid.calls"),
    "exactnum.piscalar_ops": ("count", "exactnum.piscalar_ops"),
    "exactnum.fraction_ops": ("count", "exactnum.fraction_ops"),
    "stpoly.s": ("self", "stpoly."),
    "stpoly.stpoly_muls": ("count", "stpoly.stpoly_muls"),
    "dualalgebra.mul_tbar.calls": ("calls", "dualalgebra.mul_tbar"),
    "dualalgebra.mul_tbar.s": ("self", "dualalgebra.mul_tbar"),
    "dualalgebra.mul_sbar.calls": ("calls", "dualalgebra.mul_sbar"),
    "dualalgebra.mul_sbar.s": ("self", "dualalgebra.mul_sbar"),
    "dualalgebra.canonicalize.calls": ("calls", "dualalgebra.canonicalize"),
    "dualalgebra.canonicalize.distinct": ("count", "dualalgebra.canonicalize.distinct"),
    "dualalgebra.canonicalize.s": ("self", "dualalgebra.canonicalize"),
    "dualalgebra.gauss_solves": ("calls", "dualalgebra._gauss_solve"),
    "dualalgebra.gauss_solve.s": ("self", "dualalgebra._gauss_solve"),
    "dualalgebra.product.calls": ("calls", "dualalgebra.product"),
    "dualalgebra.product.s": ("self", "dualalgebra.product"),
    "dualalgebra.eval_poly.calls": ("calls", "dualalgebra.eval_poly"),
    "dualalgebra.eval_poly.s": ("self", "dualalgebra.eval_poly"),
    "dualalgebra.basis_product.hits": ("cache", "dualalgebra.basis_product", "hits"),
    "dualalgebra.basis_product.misses": ("cache", "dualalgebra.basis_product", "misses"),
    "dualalgebra.product_nn.s": ("self", "dualalgebra.product_nn"),
    "kinematics.local_formula.calls": ("calls", "kinematics.local_formula"),
    "kinematics.local_formula.s": ("self", "kinematics.local_formula"),
    "kinematics.pairs_visited": ("count", "kinematics.pairs_visited"),
    "kinematics.entries": ("count", "kinematics.entries"),
    "kinematics.render.s": ("self", "kinematics.emit", "kinematics.emit_tables",
                            "kinematics.table_json"),
    "verify.relations.s": ("self", "dualalgebra.verify_relations"),
    "verify.identities.s": ("self", "verify.identities_suite", "verify.identity_sweeps"),
    "verify.algebra.s": ("self", "verify.algebra_suite"),
    "verify.checks": ("count", "verify.checks"),
}


class Aggregate:
    """Per-name calls, total and self time, counters and cache statistics over a run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.caches: dict[str, dict[str, int]] = {}
        self.absent: set[str] = set()
        self.spans = 0

    def add(self, path: Path) -> None:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            count = header.get("spans", 0)
            ids, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
            for packed in (ids, parents, starts, ends):
                packed.fromfile(handle, count)
        names = header["names"]
        self.absent.update(header["absent"])
        self.spans += count
        for key, value in header["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for label, stats in header["caches"].items():
            mine = self.caches.setdefault(label, {"hits": 0, "misses": 0})
            for field in mine:
                mine[field] += stats[field]
        self_time = [0.0] * len(names)
        for i in range(count):
            name_id, duration = ids[i], ends[i] - starts[i]
            label = names[name_id]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.total[label] = self.total.get(label, 0.0) + duration
            self_time[name_id] += duration
            if parents[i] >= 0:
                self_time[ids[parents[i]]] -= duration
        for name_id, label in enumerate(names):
            self.self_time[label] = self.self_time.get(label, 0.0) + self_time[name_id]

    def read(self, how: tuple) -> tuple[float, bool]:
        """(value, present) of one LAYERS source."""
        kind, *keys = how
        if kind == "count":
            return self.counts.get(keys[0], 0), keys[0] in self.counts
        if kind == "cache":
            stats = self.caches.get(keys[0])
            return (stats[keys[1]], True) if stats else (0, False)
        labels = [label for label in self.self_time
                  if any(label == key or (key.endswith(".") and label.startswith(key))
                         for key in keys)]
        table = {"calls": self.calls, "total": self.total, "self": self.self_time}[kind]
        return sum(table.get(label, 0) for label in labels), bool(labels)


def traced_round(plan: list[Invocation], mode: str, env: dict[str, str]):
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    aggregate = Aggregate()
    results = []
    for i, inv in enumerate(plan):
        path = trace_dir / f"{mode}-{i}.bin"
        path.unlink(missing_ok=True)
        results.append(launch([sys.executable, str(HERE / "tracer.py"), mode, str(path),
                               *inv.argv()], env))
        if path.exists():
            aggregate.add(path)
            path.unlink()
    return results, aggregate


def per_layer(plan: list[Invocation], env: dict[str, str]):
    plain = run_round(plan, ukin_command, env)
    spans, by_span = traced_round(plan, "spans", env)
    counted, by_count = traced_round(plan, "counts", env)
    by_span.counts.update(by_count.counts)
    by_span.absent |= by_count.absent

    metrics, absent = {}, []
    for name, how in LAYERS.items():
        metrics[name], present = by_span.read(how)
        if not present:
            absent.append(name)
    walls = {key: sum(r.wall for r in rs)
             for key, rs in (("untraced", plain), ("spans", spans), ("counts", counted))}
    main_s = metrics["cli.main_s"]
    layer_self = sum(t for label, t in by_span.self_time.items() if label != "cli.main")
    metrics.update({
        "cli.output_bytes": sum(len(r.stdout.encode()) for r in plain),
        "trace.untraced_wall_s": walls["untraced"],
        "trace.overhead_s": walls["spans"] - walls["untraced"],
        "trace.counts_overhead_s": walls["counts"] - walls["untraced"],
        "trace.layer_share": layer_self / main_s if main_s else 0.0,
        "trace.spans": by_span.spans,
    })
    print("absent names: " + (", ".join(sorted(by_span.absent)) or "none"))
    print("absent metrics (reported as 0): " + (", ".join(absent) or "none"))
    return [plain, spans, counted], with_units("per_layer", metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    check_environment(env)
    plan = plan_for(args.workload, args.seed)
    if args.trace:
        rounds, metrics = per_layer(plan, env)
        samples = {}
    else:
        rounds, metrics, samples = end_to_end(plan, args.seconds, env)
    failed, wrong, messages = check_rounds(plan, rounds)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)

    result = {"correct": wrong == 0, "attempted": len(plan) * len(rounds), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(result, samples=samples, plan=[inv.key() for inv in plan]),
                                       indent=1) + "\n", encoding="utf-8")
    for key, metric in metrics.items():
        print(f"{args.workload:8} {key:36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:8} rounds {len(rounds)}, invocations attempted "
          f"{result['attempted']}, failed {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
