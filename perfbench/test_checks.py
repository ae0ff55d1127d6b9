"""Each output check rejects a document with one fault put in.

    python3 -m pytest perfbench/test_checks.py -q

The documents come from the program at n = 3 (`ukin` from this checkout's
`src`).  The faults are one coefficient changed, one entry dropped and one pi
exponent shifted by one; the degree check gets a slot index moved instead.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import checks
import run
from plans import Invocation

N = 3
TARGET = ("Delta", 3, 1)
N_TARGET = ("N", 3, 1)
FAULTS = ("change", "drop", "shift")

PLAN = {
    "dn": Invocation("table", N),
    "bg_text": Invocation("table", N, "text", checks.B_GAMMA),
    "bg_latex": Invocation("table", N, "latex", checks.B_GAMMA),
    "formula": Invocation("formula", N, target=TARGET),
    "formula_text": Invocation("formula", N, "text", target=TARGET),
    "formula_latex": Invocation("formula", N, "latex", target=TARGET),
    "global": Invocation("global", N, target=TARGET),
    "semilocal": Invocation("semilocal", N, "text", target=TARGET),
    "n_formula": Invocation("formula", N, target=N_TARGET),
    "n_semilocal": Invocation("semilocal", N, "latex", target=N_TARGET),
    "census": Invocation("census", 5),
    "verify": Invocation("verify", N, suite="relations"),
}


@pytest.fixture(scope="module")
def docs() -> dict[str, tuple[int, str, str]]:
    env = run.child_env()
    run.check_environment(env)
    out = {}
    for name, inv in PLAN.items():
        result = run.launch(run.ukin_command(inv), env)
        out[name] = (result.returncode, result.stdout, result.stderr)
    return out


def round_errors(docs, name: str, stdout: str) -> list[str]:
    """Errors check_round reports for document `name` when its stdout is replaced."""
    names = list(PLAN)
    results = [docs[k] if k != name else (docs[k][0], stdout, docs[k][2]) for k in names]
    return check_round_by_name(results)[name]


def check_round_by_name(results) -> dict[str, list[str]]:
    return dict(zip(PLAN, checks.check_round(list(PLAN.values()), results)))


# -- faults put into documents ------------------------------------------------

def fault_json(text: str, fault: str, pick) -> str:
    """Apply `fault` to the first entry for which pick(target, left, right) holds."""
    doc = json.loads(text)
    for table in doc.get("tables", [doc]):
        target = checks._json_index(table["target"])
        for i, entry in enumerate(table["entries"]):
            if pick(target, checks._json_index(entry["left"]), checks._json_index(entry["right"])):
                term = entry["value"]["terms"][0]
                if fault == "drop":
                    del table["entries"][i]
                elif fault == "change":
                    term["num"] = str(int(term["num"]) + int(term["den"]))
                else:
                    term["pi"] += 1
                return json.dumps(doc, indent=2) + "\n"
    raise AssertionError("no entry picked")


def fault_text(text: str, fault: str, line_part: str) -> str:
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line_part in line and " : " in line)
    head, coeff = lines[i].split(" : ")
    value, times_pi, pi = coeff.partition(" * pi")
    exp = (int(pi[1:]) if pi else 1) if times_pi else 0
    if fault == "drop":
        del lines[i]
        return "\n".join(lines)
    if fault == "change":
        value = str(Fraction(value) + 1)
    else:
        exp += 1
    lines[i] = f"{head} : {value}" + ("" if exp == 0 else " * pi" if exp == 1 else f" * pi^{exp}")
    return "\n".join(lines)


def fault_latex(text: str, fault: str, pair: str) -> str:
    """`pair` names an entry whose coefficient is written as \\frac{a}{b} with no pi."""
    start = text.index(pair)
    frac_start = text.rindex("\\frac{", 0, start)
    frac = text[frac_start:start - 1]
    a, b = frac[len("\\frac{"):-1].split("}{")
    if fault == "drop":
        sign_start = text.rindex(" ", 0, frac_start - 1)
        return text[:sign_start] + text[start + len(pair):]
    new = f"\\frac{{{int(a) + int(b)}}}{{{b}}}" if fault == "change" else f"\\frac{{{a}\\pi}}{{{b}}}"
    return text[:frac_start] + new + text[start - 1:]


def off_diagonal(target, left, right) -> bool:
    return target == TARGET and left != right and left[1] > 0


# -- checks on one table --------------------------------------------------------

def test_clean_round_passes(docs):
    assert check_round_by_name(list(docs.values())) == {name: [] for name in PLAN}


def test_degree_check_rejects_moved_slot(docs):
    table = checks.parse_json(docs["formula"][1])[0]
    (left, right), coeff = next(iter(table.entries.items()))
    del table.entries[(left, right)]
    table.entries[(left, (right[0], right[1] + 1, right[2]))] = coeff
    assert checks.check_degrees(table)


@pytest.mark.parametrize("fault", FAULTS)
def test_symmetry_check(docs, fault):
    doc = fault_json(docs["dn"][1], fault, off_diagonal)
    table = next(t for t in checks.parse_json(doc) if t.target == TARGET)
    assert checks.check_symmetric(table)
    assert round_errors(docs, "dn", doc)


@pytest.mark.parametrize("fault", FAULTS)
def test_unit_check(docs, fault):
    unit = checks.UNIT[checks.DELTA_N]
    doc = fault_json(docs["formula"][1], fault, lambda t, left, right: left == unit)
    assert checks.check_unit(checks.parse_json(doc)[0])


def test_pi_grading_check(docs):
    doc = fault_json(docs["formula"][1], "shift", lambda t, left, right: left[1] == 1)
    assert checks.check_pi_grading(checks.parse_json(doc)[0])
    assert round_errors(docs, "formula", doc)


# -- checks across documents --------------------------------------------------

def parsed(docs, name: str, stdout: str | None = None) -> list[checks.Table]:
    inv = PLAN[name]
    kind = "local" if inv.verb in ("table", "formula") else inv.verb
    text = docs[name][1] if stdout is None else stdout
    return checks.parse_tables(text, inv.fmt, inv.n, inv.basis, kind)


def mapped_b_gamma(docs) -> list[checks.Table]:
    return checks.b_gamma_from_delta_n(N, parsed(docs, "dn"))


@pytest.mark.parametrize("fault", FAULTS)
def test_b_gamma_check_rejects_faulty_b_gamma(docs, fault):
    text = fault_text(docs["bg_text"][1], fault, "Gamma_{1,0} (x) B_{2,0}")
    latex = fault_latex(docs["bg_latex"][1], fault, "\\Gamma_{1,0}\\otimes B_{2,0}")
    for name, doc in (("bg_text", text), ("bg_latex", latex)):
        assert not checks.check_same_tables(parsed(docs, name), mapped_b_gamma(docs), "map")
        assert checks.check_same_tables(parsed(docs, name, doc), mapped_b_gamma(docs), "map")
        assert round_errors(docs, name, doc)


def test_b_gamma_check_rejects_faulty_delta_n(docs):
    # A diagonal entry keeps the delta-n table symmetric, so only the map finds it.
    doc = fault_json(docs["dn"][1], "change",
                     lambda t, left, right: t[1] == 2 and left == right == ("Delta", 1, 0))
    assert not [e for t in checks.parse_json(doc) for e in checks.check_table(t)]
    mapped = checks.b_gamma_from_delta_n(N, checks.parse_json(doc))
    assert checks.check_same_tables(parsed(docs, "bg_text"), mapped, "map")
    results = [docs[k] if k != "dn" else (0, doc, "") for k in PLAN]
    errors = check_round_by_name(results)
    assert errors["bg_text"] and errors["bg_latex"]


@pytest.mark.parametrize("fault", FAULTS)
def test_text_and_latex_match_json(docs, fault):
    text = fault_text(docs["formula_text"][1], fault, "Delta_{1,0} (x) N_{2,0}")
    latex = fault_latex(docs["formula_latex"][1], fault, "\\Delta_{1,0}\\otimes N_{2,0}")
    for name, doc in (("formula_text", text), ("formula_latex", latex)):
        assert not checks.check_same_tables(parsed(docs, name), parsed(docs, "formula"), "fmt")
        assert checks.check_same_tables(parsed(docs, name, doc), parsed(docs, "formula"), "fmt")
        assert round_errors(docs, name, doc)


@pytest.mark.parametrize("fault", FAULTS)
def test_global_and_semilocal_are_restricted_formula(docs, fault):
    faulty = {
        "global": fault_json(docs["global"][1], fault, lambda t, left, right: left != right),
        "semilocal": fault_text(docs["semilocal"][1], fault, "N_{1,0} (x) mu_{2,0}"),
        "n_semilocal": fault_latex(docs["n_semilocal"][1], fault, "N_{2,0}\\otimes \\mu_{1,0}"),
    }
    for name, doc in faulty.items():
        formula = parsed(docs, "formula" if PLAN[name].target == TARGET else "n_formula")[0]
        want = checks.restrict(formula, PLAN[name].verb)
        assert not checks.check_same(parsed(docs, name)[0], want, "restrict")
        assert checks.check_same(parsed(docs, name, doc)[0], want, "restrict")
        assert round_errors(docs, name, doc)


# -- verify and census ----------------------------------------------------------

def test_verify_report_check(docs):
    code, _, err = docs["verify"]
    lines = err.strip("\n").split("\n")
    assert not checks.check_verify_report(code, err)
    failed = "\n".join([lines[0].replace(": PASS", ": FAIL")] + lines[1:])
    dropped = "\n".join(lines[1:])
    miscounted = "\n".join(lines[:-1] + [f"{len(lines) - 2}/{len(lines) - 1} checks passed"])
    for faulty in (failed, dropped, miscounted):
        assert checks.check_verify_report(0, faulty)
    assert checks.check_verify_report(1, err)


def test_census_check(docs):
    doc = json.loads(docs["census"][1])
    assert not checks.check_census(docs["census"][1], 5)
    changed = json.loads(json.dumps(doc))
    changed["per_degree"][3]["census"] += 1
    dropped = json.loads(json.dumps(doc))
    del dropped["per_degree"][3]
    no_match = dict(doc, all_match=False)
    for faulty in (changed, dropped, no_match):
        assert checks.check_census(json.dumps(faulty), 5)


def test_readme_names_every_declared_metric():
    # run.py takes names and units from BENCHMARK.json and refuses a mismatch;
    # the README's metric tables are the one other place that lists them.
    readme = (run.HERE / "README.md").read_text(encoding="utf-8")
    declared = [name for names in run.DECLARED.values() for name in names]
    assert [name for name in declared if f"`{name}`" not in readme] == []
    assert set(run.LAYERS) < set(run.DECLARED["per_layer"])
