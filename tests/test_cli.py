"""CLI contract: exit codes, stream separation, determinism, golden files."""

import ast
import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ukin
from ukin.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The directory holding the `ukin` package this process imported, so that the
# subprocess runs the same code however pytest found it (PYTHONPATH, pytest's
# `pythonpath` setting, or an install).
PACKAGE_ROOT = str(Path(ukin.__file__).resolve().parents[1])


def cli_env() -> dict[str, str]:
    """Minimal subprocess environment: no color, empty PATH, package root first."""
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = PACKAGE_ROOT + (os.pathsep + inherited if inherited else "")
    return {"UKIN_COLOR": "0", "PATH": "", "PYTHONPATH": pythonpath}


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "ukin", *args],
        capture_output=True, text=True, env=cli_env(),
    )


def test_harness_imports_package_under_test():
    result = subprocess.run(
        [sys.executable, "-c", "import ukin; print(ukin.__file__)"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(ukin.__file__).resolve()


# ukin.__all__ as it stood when the check code moved to ukin.verify.
PUBLIC_NAMES = [
    "AreaDualElement", "AreaIndex", "CanonicalForm", "Census", "CheckResult",
    "Family", "InvalidIndexError", "KinematicTable", "PiScalar", "Rational",
    "STPoly", "ball_volume", "basis_element", "basis_product", "binomial",
    "canonicalize", "census", "check_fpq_relation", "combinat_identity",
    "delta_star_closed_form", "dual_bg_to_dn", "dual_dn_to_bg", "dual_element",
    "emit", "emit_tables", "eval_poly", "full_table", "fu_poly",
    "global_formula", "local_formula", "module_recurrence", "monomial_rank",
    "mul_sbar", "mul_tbar", "mustar_pairing", "p_poly", "parse_index",
    "primal_bg_from_dn", "primal_dn_from_bg", "product", "product_nn",
    "q_poly", "sbar", "semilocal_formula", "tbar",
    "tsu_ball_value", "unit", "valid_indices", "vbar", "verify_delta_pairing",
    "verify_relations", "wz_certificate_check",
]

# The modules that build tables; none of them may import ukin.verify.
ENGINE_MODULES = ("exactnum", "stpoly", "areabasis", "dualalgebra", "kinematics")

# The check code that moved from dualalgebra and stpoly into ukin.verify.
CHECK_NAMES = (
    "AlgebraConsistencyError", "CheckResult", "_combinat_term", "_delta_star_coefficients",
    "_zero_check", "check_fpq_relation", "combinat_identity", "delta_star_closed_form",
    "module_recurrence", "mustar_pairing", "product_nn", "tsu_ball_value",
    "tsu_ball_value_oracle", "verify_delta_pairing", "verify_relations", "wz_certificate_check",
)

# Prints the loaded ukin modules, and dataclasses if it is loaded, to stderr
# as JSON.
PRINT_MODULES = (
    "print(json.dumps(sorted(m for m in sys.modules\n"
    "                        if m.split('.')[0] == 'ukin' or m == 'dataclasses')), file=sys.stderr)\n"
)

# Runs ukin.cli.main on the command-line arguments, then prints the modules.
MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "from ukin.cli import main\n"
    "code = main(sys.argv[1:])\n"
    + PRINT_MODULES +
    "sys.exit(code)\n"
)


def _modules_after(script: str, *argv: str) -> list[str]:
    """The modules that PRINT_MODULES reports at the end of a script that exits 0."""
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, env=cli_env())
    assert result.returncode == 0, result.stderr
    return json.loads(result.stderr.splitlines()[-1])


def _imported_names(module: str) -> set[str]:
    """Every module part and name that an import statement in ukin/<module>.py names."""
    tree = ast.parse((Path(ukin.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


class TestLazyImports:
    def test_public_names_are_unchanged(self):
        from ukin import verify

        assert ukin.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            assert getattr(ukin, name) is not None, name
        assert ukin.product_nn is verify.product_nn
        assert ukin.CheckResult is verify.CheckResult
        with pytest.raises(AttributeError):
            ukin.no_such_name

    @pytest.mark.parametrize("argv", [
        ["table", "--n", "3"],
        ["table", "--n", "3", "--basis", "b-gamma", "--format", "json"],
        ["formula", "--n", "3", "--target", "N:2,0", "--format", "latex"],
        ["global", "--n", "3", "--target", "Delta:2,1"],
        ["semilocal", "--n", "3", "--target", "N:1,0"],
        ["census", "--n", "5", "--format", "json"],
    ], ids=["table", "table-b-gamma", "formula", "global", "semilocal", "census"])
    def test_engine_verbs_leave_verify_unloaded(self, argv):
        loaded = _modules_after(MODULES_AFTER_MAIN, *argv)
        assert "ukin.cli" in loaded and "ukin.dualalgebra" in loaded
        assert "ukin.verify" not in loaded
        assert "dataclasses" not in loaded

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "2", "--suite", "relations"],
        ["verify", "--n", "3", "--suite", "all"],
        ["identities"],
    ], ids=["verify-relations", "verify-all", "identities"])
    def test_verify_verbs_load_verify_but_not_dataclasses(self, argv):
        # The probe above can see ukin.verify when it is loaded.
        loaded = _modules_after(MODULES_AFTER_MAIN, *argv)
        assert "ukin.verify" in loaded
        assert "dataclasses" not in loaded

    def test_import_of_cli_leaves_dataclasses_unloaded(self):
        loaded = _modules_after("import json, sys\nimport ukin.cli\n" + PRINT_MODULES)
        assert "ukin.cli" in loaded
        assert "dataclasses" not in loaded

    def test_probe_sees_dataclasses(self):
        loaded = _modules_after("import dataclasses, json, sys\nimport ukin.cli\n" + PRINT_MODULES)
        assert "dataclasses" in loaded

    def test_records_keep_their_contract(self):
        # The records are immutable and hash, compare and print by their
        # fields; a hash of the field tuple keeps set and dict orders fixed.
        index = ukin.AreaIndex(ukin.Family.DELTA, 2, 1)
        assert hash(index) == hash((ukin.Family.DELTA, 2, 1))
        assert index == ukin.AreaIndex(ukin.Family.DELTA, 2, 1) != ukin.AreaIndex(ukin.Family.N, 2, 1)
        assert repr(index) == "AreaIndex(family=<Family.DELTA: 'Delta'>, k=2, q=1)"
        table = ukin.KinematicTable(2, index, "delta-n", {})
        assert table.kind == "local"
        assert repr(table) == ("KinematicTable(n=2, target=AreaIndex(family=<Family.DELTA: 'Delta'>, "
                               "k=2, q=1), basis='delta-n', entries={}, kind='local')")
        assert repr(ukin.census(2)) == ("Census(n=2, per_degree=(1, 2, 2, 1), per_degree_delta=(1, 1, 2, 1), "
                                        "per_degree_n=(0, 1, 0, 0))")
        assert repr(ukin.CheckResult("x", True)) == "CheckResult(name='x', passed=True, detail='')"
        form = ukin.canonicalize(ukin.unit(2))
        assert repr(form) == "CanonicalForm(n=2, phi=STPoly('1'), psi=STPoly('0'))"
        for record, field in ((index, "k"), (table, "kind"), (ukin.census(2), "n"),
                              (ukin.CheckResult("x", True), "detail"), (form, "phi")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    @pytest.mark.parametrize("module", ENGINE_MODULES)
    def test_engine_module_does_not_import_verify(self, module):
        assert "verify" not in _imported_names(module)

    def test_check_code_lives_in_verify(self):
        from ukin import verify

        for name in CHECK_NAMES:
            assert getattr(verify, name).__module__ == "ukin.verify", name
        for module in ENGINE_MODULES:
            defined = vars(importlib.import_module(f"ukin.{module}"))
            assert not set(CHECK_NAMES) & set(defined), module

    def test_import_scan_sees_verify(self):
        # cli imports verify inside its verify and identities branches.
        assert "verify" in _imported_names("cli")

    def test_parser_suites_are_verify_suites(self):
        from ukin import cli, verify

        assert cli._SUITES == verify.SUITES

    def test_formula_does_not_import_verify(self):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ukin", "formula", "--n", "3",
             "--target", "Delta:2,1", "--format", "text"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "ukin.cli" in imported
        assert "ukin.verify" not in imported


class TestExitCodes:
    def test_success(self):
        result = run_cli("table", "--n", "2")
        assert result.returncode == 0
        assert result.stdout

    def test_invalid_index_is_usage_error(self):
        result = run_cli("formula", "--n", "2", "--target", "Delta:9,9")
        assert result.returncode == 2
        assert "invalid index" in result.stderr

    def test_malformed_target(self):
        result = run_cli("formula", "--n", "2", "--target", "Delta:2")
        assert result.returncode == 2

    @pytest.mark.parametrize("target", ["Delta:1_0,0", "Delta:\u0661,0"], ids=["underscore", "arabic-indic"])
    def test_target_digits_are_ascii_only(self, target):
        # int() alone would read these as Delta:10,0 and Delta:1,0.
        result = run_cli("formula", "--n", "6", "--target", target)
        assert result.returncode == 2
        assert "malformed index" in result.stderr and "invalid index" not in result.stderr

    def test_small_n_rejected(self):
        result = run_cli("table", "--n", "1")
        assert result.returncode == 2

    def test_unknown_flag(self):
        result = run_cli("table", "--n", "2", "--wat")
        assert result.returncode == 2

    def test_verify_passes(self):
        result = run_cli("verify", "--n", "2", "--suite", "relations")
        assert result.returncode == 0
        assert "p_2 - q_1*v = 0: PASS" in result.stderr

    def test_global_requires_delta(self):
        result = run_cli("global", "--n", "2", "--target", "N:1,0")
        assert result.returncode == 2


class TestStreams:
    def test_documents_on_stdout_reports_on_stderr(self):
        result = run_cli("table", "--n", "2", "--format", "latex")
        assert "A(\\Delta_{2,1})" in result.stdout
        assert result.stderr == ""
        verify = run_cli("verify", "--n", "2", "--suite", "relations")
        assert verify.stdout == ""
        assert "PASS" in verify.stderr

    def test_out_flag_writes_file(self, tmp_path):
        out_file = tmp_path / "doc.json"
        rc = main(["table", "--n", "2", "--format", "json", "--out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["tables"]) == 6

    def test_out_replaces_existing_file(self, tmp_path):
        out_file = tmp_path / "doc.json"
        out_file.write_text("stale")
        assert main(["table", "--n", "2", "--format", "json", "--out", str(out_file)]) == 0
        assert out_file.read_text() == (GOLDEN / "n2_table.json").read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestOutErrors:
    """An OSError on --out is exit 3 with one stderr line and no file left behind."""

    def assert_io_error(self, result):
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("ukin: error: cannot write ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    def test_missing_directory(self, tmp_path):
        result = run_cli("table", "--n", "2", "--format", "json", "--out", str(tmp_path / "missing" / "x.json"))
        self.assert_io_error(result)
        assert list(tmp_path.iterdir()) == []

    def test_onto_directory(self, tmp_path):
        target = tmp_path / "existing"
        target.mkdir()
        result = run_cli("table", "--n", "2", "--out", str(target))
        self.assert_io_error(result)
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]
        assert list(target.iterdir()) == []


class TestOutSpecialFiles:
    """--out follows a symlink and writes a FIFO in place instead of replacing either."""

    def test_symlink_survives_and_target_gets_document(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("stale")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["table", "--n", "2", "--format", "json", "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == (GOLDEN / "n2_table.json").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_reader_gets_every_byte(self, tmp_path):
        fifo = tmp_path / "doc.fifo"
        os.mkfifo(fifo)
        received = []

        def read_all():
            with open(fifo, "rb") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        result = subprocess.run(
            [sys.executable, "-m", "ukin", "table", "--n", "2", "--format", "json", "--out", str(fifo)],
            capture_output=True, env=cli_env(), timeout=120,
        )
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert result.returncode == 0, result.stderr
        assert received == [(GOLDEN / "n2_table.json").read_bytes()]
        assert [p.name for p in tmp_path.iterdir()] == ["doc.fifo"]


class TestStdoutErrors:
    """A reader that closes stdout early is exit 3 with one stderr line, buffered or not."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe(self, unbuffered):
        env = dict(cli_env(), PYTHONUNBUFFERED="1") if unbuffered else cli_env()
        # The n = 6 JSON table is about 0.9 MB, far more than a pipe buffers.
        proc = subprocess.Popen([sys.executable, "-m", "ukin", "table", "--n", "6", "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.read(10) == b'{\n  "n": 6'
            proc.stdout.close()
            assert proc.wait(timeout=120) == 3
            stderr = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert stderr.startswith("ukin: error: cannot write stdout")
        assert stderr.count("\n") == 1


class TestStderrErrors:
    """A stderr that cannot take the report or the error line is exit 3, not the
    exit 1 of a failed verification, buffered or not."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("args, stdout_full", [
        (("verify", "--n", "2", "--suite", "relations"), False),
        (("identities",), False),
        (("table", "--n", "2"), True),
    ])
    def test_full_stderr(self, args, stdout_full, unbuffered):
        env = dict(cli_env(), PYTHONUNBUFFERED="1") if unbuffered else cli_env()
        with open("/dev/full", "wb") as full:
            result = subprocess.run([sys.executable, "-m", "ukin", *args],
                                    stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                                    env=env, timeout=120)
        assert result.returncode == 3
        assert not result.stdout

    @pytest.mark.skipif(os.name != "posix", reason="closes file descriptor 2 in the child")
    def test_closed_at_startup(self):
        # Python starts with sys.stderr None; the report must not fall through
        # to stdout, where print(file=None) writes.
        result = subprocess.run([sys.executable, "-m", "ukin", "verify", "--n", "2", "--suite", "relations"],
                                stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2),
                                env=cli_env(), timeout=120)
        assert result.returncode == 3
        assert result.stdout == b""


@pytest.mark.skipif(os.name != "posix", reason="closes file descriptor 1 in the child")
def test_stdout_closed_at_startup():
    result = subprocess.run([sys.executable, "-m", "ukin", "table", "--n", "2"],
                            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                            env=cli_env(), timeout=120)
    assert result.returncode == 3
    assert result.stderr == b"ukin: error: cannot write stdout: stdout is closed\n"


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_repeated_runs_identical(self, fmt):
        first = run_cli("table", "--n", "2", "--format", fmt)
        second = run_cli("table", "--n", "2", "--format", fmt)
        assert first.stdout == second.stdout
        assert first.stdout

    def test_formula_identical(self):
        first = run_cli("formula", "--n", "3", "--target", "Delta:5,2", "--format", "json")
        second = run_cli("formula", "--n", "3", "--target", "Delta:5,2", "--format", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


class TestGoldenFiles:
    def test_n2_table(self):
        stored = (GOLDEN / "n2_table.json").read_text()
        fresh = run_cli("table", "--n", "2", "--format", "json").stdout
        assert fresh == stored

    def test_n3_formula_spot(self):
        stored = (GOLDEN / "n3_delta52_formula.json").read_text()
        fresh = run_cli("formula", "--n", "3", "--target", "Delta:5,2", "--format", "json").stdout
        assert fresh == stored


class TestReportHelper:
    def test_failure_exit_code_and_stream(self, capsys, monkeypatch):
        from ukin.cli import _report
        from ukin.verify import CheckResult
        monkeypatch.setenv("UKIN_COLOR", "0")
        rc = _report([CheckResult("good", True), CheckResult("bad", False, "boom")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "bad: FAIL  [boom]" in captured.err
        assert "1/2 checks passed" in captured.err
        assert captured.out == ""

    def test_color_follows_env(self, capsys, monkeypatch):
        from ukin.cli import _report
        from ukin.verify import CheckResult
        monkeypatch.delenv("UKIN_COLOR", raising=False)
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True, raising=False)
        _report([CheckResult("x", True)])
        assert "\x1b[32m" in capsys.readouterr().err
        monkeypatch.setenv("UKIN_COLOR", "0")
        _report([CheckResult("x", True)])
        assert "\x1b[" not in capsys.readouterr().err


class TestVerbs:
    def test_census(self):
        result = run_cli("census", "--n", "3")
        assert result.returncode == 0
        assert "total dimension: 12" in result.stdout

    def test_census_json(self):
        result = run_cli("census", "--n", "2", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["total"] == 6 and doc["all_match"]

    def test_global_verb(self):
        result = run_cli("global", "--n", "2", "--target", "Delta:2,1")
        assert result.returncode == 0
        assert "mu_{1,0} (x) mu_{1,0} : 8/9 * pi^-1" in result.stdout

    def test_semilocal_verb(self):
        result = run_cli("semilocal", "--n", "2", "--target", "N:1,0")
        assert result.returncode == 0
        assert "N_{1,0} (x) mu_{0,0} : 1" in result.stdout

    def test_bgamma_basis(self):
        result = run_cli("formula", "--n", "2", "--target", "B:1,0", "--basis", "b-gamma")
        assert result.returncode == 0

    def test_identities_verb(self):
        result = run_cli("identities")
        assert result.returncode == 0
        assert "binomial identity sweep" in result.stderr

    def test_verify_all_suites_n2(self):
        result = run_cli("verify", "--n", "2", "--suite", "all")
        assert result.returncode == 0
        assert "FAIL" not in result.stderr

    def test_in_process_entrypoint_matches_subprocess(self, capsys):
        rc = main(["formula", "--n", "2", "--target", "Delta:2,1", "--format", "latex"])
        captured = capsys.readouterr()
        assert rc == 0
        sub = run_cli("formula", "--n", "2", "--target", "Delta:2,1", "--format", "latex")
        assert captured.out == sub.stdout
