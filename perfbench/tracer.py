"""Entry point of one traced `ukin` invocation.

    python perfbench/tracer.py spans|counts TRACE_FILE UKIN_ARGS...

It imports `ukin`, installs wrappers around the public functions of each
module, calls `ukin.cli.main(UKIN_ARGS)` and, when the call returns, writes
what the wrappers recorded to TRACE_FILE.  Nothing in the program changes:
a wrapper replaces a function in every `ukin` module namespace that bound it
(`from .dualalgebra import basis_product` binds a second name in
`kinematics` and `verify`), and a name that no longer exists is reported as
absent.

* `spans` mode records one span (name, start, end, parent span) per call of
  a wrapped function, and the `lru_cache` statistics of the wrapped
  functions at exit.
* `counts` mode counts scalar and polynomial operations and a few
  per-call facts.  Per-call wrappers on scalar arithmetic would inflate span
  times, so this runs as its own pass.

TRACE_FILE holds one JSON line (names, absent names, counts, cache
statistics, span count) followed by the spans as four packed arrays: name
ids and parent span ids (int32), start and end times (float64, seconds).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from fractions import Fraction
from functools import wraps

# Functions whose calls become spans, by module.
SPANNED = {
    "cli": ("main",),
    "areabasis": ("valid_indices", "indices_of_degree", "dual_basis_indices", "census"),
    "stpoly": ("p_poly", "q_poly", "fu_poly", "check_fpq_relation", "tsu_ball_value",
               "tsu_ball_value_oracle", "mustar_pairing", "combinat_identity",
               "wz_certificate_check"),
    "dualalgebra": ("mul_tbar", "mul_sbar", "eval_poly", "canonicalize", "_gauss_solve",
                    "monomial_rank", "product", "basis_product", "product_nn",
                    "delta_star_closed_form", "verify_relations", "module_recurrence",
                    "verify_delta_pairing"),
    "kinematics": ("local_formula", "global_formula", "semilocal_formula", "full_table",
                   "product_table", "emit", "emit_tables", "table_json"),
    "verify": ("identities_suite", "identity_sweeps", "algebra_suite", "run_suite"),
}

PISCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__rmul__", "div_by_monomial")
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__")
FORMULAS = ("local_formula", "global_formula", "semilocal_formula")
SUITE_RUNNERS = ("run_suite", "identity_sweeps")


def _module(name: str):
    try:
        return importlib.import_module(f"ukin.{name}")
    except ImportError:
        return None


def _rebind(original, replacement) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "ukin" and not name.startswith("ukin."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Trace:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.counts: dict[str, int] = {}
        self.caches: dict[str, dict[str, int]] = {}

    def find(self, module_name: str, attr: str):
        module = _module(module_name)
        found = getattr(module, attr, None) if module is not None else None
        if found is None:
            self.absent.append(f"{module_name}.{attr}")
        return found

    def header(self) -> dict:
        return {"names": self.names, "absent": self.absent, "counts": self.counts,
                "caches": self.caches}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.header(), handle)
            handle.write("\n")


class Spans(Trace):
    def __init__(self) -> None:
        super().__init__()
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        for module_name, attrs in SPANNED.items():
            for attr in attrs:
                original = self.find(module_name, attr)
                if original is not None:
                    label = f"{module_name}.{attr}"
                    self.originals[label] = original
                    _rebind(original, self._wrap(label, original))

    def _wrap(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        ids, parents, starts, ends, stack = self.ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        @wraps(fn)
        def spanned(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    def header(self) -> dict:
        for label, original in self.originals.items():
            info = getattr(original, "cache_info", None)
            if info is not None:
                stats = info()
                self.caches[label] = {"hits": stats.hits, "misses": stats.misses}
        return dict(super().header(), spans=len(self.ids))

    def write(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(json.dumps(self.header()).encode() + b"\n")
            for packed in (self.ids, self.parents, self.starts, self.ends):
                packed.tofile(handle)


class Counts(Trace):
    def install(self) -> None:
        counts = self.counts
        for key in ("exactnum.piscalar_ops", "exactnum.fraction_ops", "stpoly.stpoly_muls",
                    "areabasis.is_valid.calls", "dualalgebra.canonicalize.distinct",
                    "kinematics.pairs_visited", "kinematics.entries", "verify.checks"):
            counts[key] = 0

        exactnum, stpoly = _module("exactnum"), _module("stpoly")
        self._count_methods(getattr(exactnum, "PiScalar", None), "exactnum.PiScalar",
                            PISCALAR_OPS, "exactnum.piscalar_ops")
        self._count_methods(Fraction, "fractions.Fraction", FRACTION_OPS, "exactnum.fraction_ops")
        self._count_methods(getattr(stpoly, "STPoly", None), "stpoly.STPoly",
                            ("__mul__", "__rmul__"), "stpoly.stpoly_muls")

        is_valid = self.find("areabasis", "is_valid")
        if is_valid is not None:
            def counted_is_valid(*args, **kwargs):
                counts["areabasis.is_valid.calls"] += 1
                return is_valid(*args, **kwargs)
            _rebind(is_valid, counted_is_valid)

        canonicalize = self.find("dualalgebra", "canonicalize")
        if canonicalize is not None:
            seen: set = set()

            def counted_canonicalize(x, *args, **kwargs):
                key = "dualalgebra.canonicalize.distinct"
                if key in counts:
                    try:
                        seen.add((x.n, tuple((idx, c.terms()) for idx, c in x.items())))
                        counts[key] = len(seen)
                    except (AttributeError, TypeError):
                        self._lose(key)
                return canonicalize(x, *args, **kwargs)
            _rebind(canonicalize, counted_canonicalize)

        # basis_product calls made while a local_formula call is running.
        depth = [0]
        basis_product = self.find("dualalgebra", "basis_product")
        if basis_product is not None:
            def counted_basis_product(*args, **kwargs):
                if depth[0]:
                    counts["kinematics.pairs_visited"] += 1
                return basis_product(*args, **kwargs)
            _rebind(basis_product, counted_basis_product)

        # Entries of the tables that the outermost formula call returns.
        outer = [0]
        for attr in FORMULAS:
            formula = self.find("kinematics", attr)
            if formula is not None:
                _rebind(formula, self._formula(formula, attr == "local_formula", depth, outer))

        outer_suite = [0]
        for attr in SUITE_RUNNERS:
            runner = self.find("verify", attr)
            if runner is not None:
                _rebind(runner, self._suite(runner, outer_suite))

    def _count_methods(self, cls, label: str, methods: tuple[str, ...], key: str) -> None:
        if cls is None:
            self.absent.append(label)
            return
        counts, busy = self.counts, [False]
        for method in methods:
            original = getattr(cls, method, None)
            if original is None:
                self.absent.append(f"{label}.{method}")
                continue

            def counted(*args, _original=original, **kwargs):
                # Count the outermost operation only: PiScalar.__sub__ calls __add__.
                if busy[0]:
                    return _original(*args, **kwargs)
                counts[key] += 1
                busy[0] = True
                try:
                    return _original(*args, **kwargs)
                finally:
                    busy[0] = False
            setattr(cls, method, counted)

    def _lose(self, key: str) -> None:
        """A result no longer has the shape a counter reads: report the counter as absent."""
        if self.counts.pop(key, None) is not None:
            self.absent.append(key)

    def _add(self, key: str, amount) -> None:
        if key in self.counts:
            try:
                self.counts[key] += amount()
            except (AttributeError, TypeError):
                self._lose(key)

    def _formula(self, fn, is_local: bool, depth: list[int], outer: list[int]):
        def counted_formula(*args, **kwargs):
            depth[0] += is_local
            outer[0] += 1
            try:
                table = fn(*args, **kwargs)
            finally:
                depth[0] -= is_local
                outer[0] -= 1
            if not outer[0]:
                self._add("kinematics.entries", lambda: len(table.entries))
            return table

        return counted_formula

    def _suite(self, fn, outer: list[int]):
        def counted_suite(*args, **kwargs):
            outer[0] += 1
            try:
                checks = fn(*args, **kwargs)
            finally:
                outer[0] -= 1
            if not outer[0]:
                self._add("verify.checks", lambda: len(checks))
            return checks

        return counted_suite


def main() -> int:
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode not in ("spans", "counts"):
        print(f"tracer: unknown mode {mode!r}", file=sys.stderr)
        return 2
    import ukin.cli  # noqa: F401  (loads every module before the wrappers go in)

    trace = Spans() if mode == "spans" else Counts()
    trace.install()
    try:
        code = _module("cli").main(argv)
    finally:
        sys.stdout.flush()
        trace.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
