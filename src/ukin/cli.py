"""Command-line driver.

Verbs: table, formula, global, semilocal, census, verify, identities.
Documents go to stdout or to --out, where a regular file is replaced
atomically, a symlink is followed and a FIFO or device is written in place;
verification reports go to stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 I/O error (e.g. --out names a missing directory or
a directory, the reader of stdout closed it early, or stdout or stderr is
full or was closed at startup).
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, NoReturn, Sequence, TextIO

from .areabasis import Family, InvalidIndexError, census, parse_index
from .dualalgebra import monomial_rank
from .kinematics import (
    BASIS_B_GAMMA,
    BASIS_DELTA_N,
    emit,
    emit_tables,
    full_table,
    global_formula,
    local_formula,
    semilocal_formula,
)

if TYPE_CHECKING:
    from .verify import CheckResult

# verify.SUITES, copied so that only the verify verbs import verify.
_SUITES = ("relations", "identities", "algebra", "all")

USAGE_ERROR = 2
VERIFY_FAILURE = 1
IO_ERROR = 3


def _add_common(sub: argparse.ArgumentParser, *, target: bool = False, basis: bool = False,
                fmt: bool = False) -> None:
    sub.add_argument("--n", type=int, required=True, metavar="N",
                     help="ambient complex dimension (n >= 2)")
    if target:
        sub.add_argument("--target", required=True, metavar="FAMILY:K,Q",
                         help="index such as Delta:2,1 or N:1,0")
    if basis:
        sub.add_argument("--basis", choices=[BASIS_DELTA_N, BASIS_B_GAMMA],
                         default=BASIS_DELTA_N, help="pair basis (default delta-n)")
    if fmt:
        sub.add_argument("--format", choices=["text", "latex", "json"], default="text",
                         dest="fmt", help="output format (default text)")
    sub.add_argument("--out", metavar="PATH", help="write the document to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ukin",
                                     description="Exact kinematic formulas for unitary area measures.")
    subs = parser.add_subparsers(dest="verb", required=True)

    table = subs.add_parser("table", help="full array of kinematic formulas")
    _add_common(table, basis=True, fmt=True)

    formula = subs.add_parser("formula", help="kinematic formula for one target")
    _add_common(formula, target=True, basis=True, fmt=True)

    glob = subs.add_parser("global", help="globalized formula over mu pairs")
    _add_common(glob, target=True, fmt=True)

    semi = subs.add_parser("semilocal", help="second slot globalized")
    _add_common(semi, target=True, fmt=True)

    cens = subs.add_parser("census", help="per-degree dimension table with rank check")
    _add_common(cens, fmt=True)

    ver = subs.add_parser("verify", help="run verification suites")
    ver.add_argument("--n", type=int, required=True, metavar="N")
    ver.add_argument("--suite", choices=list(_SUITES), default="all")

    subs.add_parser("identities", help="identity sweeps at their full bounds")

    return parser


def _color_enabled() -> bool:
    if os.environ.get("UKIN_COLOR") == "0" or sys.stderr is None:
        return False
    return sys.stderr.isatty()


@contextmanager
def _standard_stream(name: str) -> Iterator[TextIO]:
    """sys.stdout or sys.stderr; one closed at startup (None) is an OSError.

    A failed write leaves its bytes in the stream's buffer, and the
    interpreter's flush at exit would fail on them again and exit 120, so
    after the first OSError the stream counts as closed.
    """
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    try:
        yield stream
    except OSError:
        setattr(sys, name, None)
        raise


def _print_stderr(line: str) -> None:
    # Never print(file=None), which writes to stdout.
    with _standard_stream("stderr") as stderr:
        print(line, file=stderr)


def _print_error(message: str) -> None:
    # When stderr cannot take the line either, the exit code alone reports.
    try:
        _print_stderr(f"ukin: error: {message}")
    except OSError:
        pass


def _report(checks: list[CheckResult]) -> int:
    color = _color_enabled()
    failures = 0
    for check in checks:
        if check.passed:
            status = "\x1b[32mPASS\x1b[0m" if color else "PASS"
        else:
            status = "\x1b[31mFAIL\x1b[0m" if color else "FAIL"
            failures += 1
        line = f"{check.name}: {status}"
        if check.detail and not check.passed:
            line += f"  [{check.detail}]"
        _print_stderr(line)
    _print_stderr(f"{len(checks) - failures}/{len(checks)} checks passed")
    return VERIFY_FAILURE if failures else 0


def _write_stdout(document: str) -> None:
    # Through the binary layer until every byte is out: an unbuffered stdout
    # (PYTHONUNBUFFERED) drops the rest of a short write to a pipe whose
    # reader went away, where the retry raises BrokenPipeError.
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:  # a text-only stream such as io.StringIO
        sys.stdout.write(document)
        return
    sys.stdout.flush()
    data = memoryview(document.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        written = binary.write(data)
        if not written:  # None from a full non-blocking stdout
            raise BlockingIOError(errno.EAGAIN, "stdout would block")
        data = data[written:]
    binary.flush()


def _write_document(document: str, out_path: str | None) -> None:
    if out_path is None:
        with _standard_stream("stdout"):
            _write_stdout(document)
        return
    # A symlink is followed, so the link survives and its target gets the document.
    path = os.path.realpath(out_path)
    if os.path.exists(path) and not os.path.isfile(path):
        # A FIFO or a device is written in place; a rename would replace the node.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        return
    # A temp file beside the target, then an atomic rename: a failed run never
    # leaves half a document.
    head, tail = os.path.split(path)
    temp_path = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    handle = open(temp_path, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(document)
        os.replace(temp_path, path)
    except BaseException:
        os.unlink(temp_path)
        raise


def _usage_error(message: str) -> int:
    _print_error(message)
    return USAGE_ERROR


def _require_n(n: int) -> None:
    if n < 2:
        raise InvalidIndexError(f"n must be >= 2, got {n}")


def _census_document(n: int, fmt: str) -> tuple[str, bool]:
    counts = census(n)
    ranks = [monomial_rank(n, d) for d in range(2 * n)]
    ok = all(r == c for r, c in zip(ranks, counts.per_degree))
    if fmt == "json":
        import json

        doc = {
            "n": n,
            "per_degree": [
                {"degree": d, "census": counts.per_degree[d], "rank": ranks[d],
                 "match": ranks[d] == counts.per_degree[d]}
                for d in range(2 * n)
            ],
            "total": counts.total,
            "all_match": ok,
        }
        return json.dumps(doc, indent=2) + "\n", ok
    # the census is tabular either way; latex callers get the text table
    lines = [f"degree census for n={n} (Delta + N basis)"]
    for d in range(2 * n):
        match = "ok" if ranks[d] == counts.per_degree[d] else "MISMATCH"
        lines.append(f"  degree {d}: census {counts.per_degree[d]}, rank {ranks[d]}  [{match}]")
    lines.append(f"  total dimension: {counts.total}")
    return "\n".join(lines) + "\n", ok


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if getattr(args, "out", None) == "":
        # An empty path is not stdout: the user asked for a file.
        return _usage_error("--out needs a file path, got an empty one")

    try:
        if args.verb == "identities":
            from .verify import identity_sweeps

            return _report(identity_sweeps())

        _require_n(args.n)

        if args.verb == "verify":
            from .verify import run_suite

            return _report(run_suite(args.n, args.suite))

        if args.verb == "census":
            document, ok = _census_document(args.n, args.fmt)
            _write_document(document, args.out)
            if not ok:
                _print_stderr("census: rank/census mismatch")
                return VERIFY_FAILURE
            return 0

        if args.verb == "table":
            tables = full_table(args.n, args.basis)
            _write_document(emit_tables(args.n, args.basis, tables, args.fmt), args.out)
            return 0

        target = parse_index(args.target)
        if args.verb == "formula":
            table = local_formula(args.n, target, args.basis)
        elif args.verb == "global":
            if target.family is not Family.DELTA:
                return _usage_error(
                    f"global formulas exist for Delta targets only, got {target.text()}")
            table = global_formula(args.n, target.k, target.q)
        else:  # semilocal
            table = semilocal_formula(args.n, target)
        document = emit(table, args.fmt)
        if not document.endswith("\n"):
            document += "\n"
        _write_document(document, args.out)
        return 0

    except ValueError as exc:
        return _usage_error(str(exc))
    except OSError as exc:
        # verify and identities write their report, and nothing else, to stderr.
        target = "stderr" if args.verb in ("verify", "identities") else getattr(args, "out", None) or "stdout"
        _print_error(f"cannot write {target}: {exc.strerror or exc}")
        return IO_ERROR


def run() -> NoReturn:
    """The `ukin` command, for `python -m ukin` and the installed script.

    Runs main and exits with its status.  The heap is frozen first, so the
    interpreter's collection at shutdown skips everything the run built;
    atexit hooks and the final flush of stdout and stderr still run.  main
    itself leaves the collector alone, for callers that go on running.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
