"""Output checks for the documents `ukin` prints, made apart from the program.

Nothing here imports `ukin`.  Documents are parsed from their text, and every
rule a check applies is re-derived from a formula stated in the program's
docstrings (validity ranges and 2x2 block maps in `areabasis`, the kinematic
table as a dual pairing in `kinematics`) or from a law the tables obey:

* the degrees of the two slots add up to the target degree;
* a local or global table is symmetric, c(L, R) = c(R, L);
* the unit row holds exactly one entry, (unit, target) with coefficient 1;
* every coefficient is one pi-monomial with exponent
  floor(k/2) + floor(l/2) - floor(r/2) for slot degrees k, l and target r;
* the b-gamma table of n is the delta-n table of n mapped through the block maps;
* `global` and `semilocal` are `formula` restricted to Delta slots;
* text and latex documents carry the same coefficients as the JSON document.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

Index = tuple[str, int, int]            # (family, k, q)
Coeff = tuple[tuple[int, Fraction], ...]  # ((pi exponent, rational), ...) in exponent order
Pair = tuple[Index, Index]

DELTA_N = "delta-n"
B_GAMMA = "b-gamma"
UNIT = {DELTA_N: ("Delta", 0, 0), B_GAMMA: ("Gamma", 0, 0)}


@dataclass
class Table:
    """One kinematic table as a document states it."""

    n: int
    target: Index
    basis: str
    kind: str = "local"
    entries: dict[Pair, Coeff] = field(default_factory=dict)


def monomial(value: Fraction, pi: int) -> Coeff:
    return ((pi, value),) if value else ()


# ---------------------------------------------------------------------------
# Parsers: JSON, text and latex documents of `table`, `formula`, `global` and
# `semilocal`.  A document that does not parse raises ValueError.
# ---------------------------------------------------------------------------

def _json_index(doc: dict) -> Index:
    return (doc["family"], int(doc["k"]), int(doc["q"]))


def _json_table(doc: dict, basis: str) -> Table:
    table = Table(int(doc["n"]), _json_index(doc["target"]), doc.get("basis", basis),
                  doc.get("kind", "local"))
    for entry in doc["entries"]:
        pair = (_json_index(entry["left"]), _json_index(entry["right"]))
        if pair in table.entries:
            raise ValueError(f"duplicate entry {pair}")
        terms = sorted((int(t["pi"]), Fraction(int(t["num"]), int(t["den"])))
                       for t in entry["value"]["terms"])
        table.entries[pair] = tuple(terms)
    return table


def parse_json(text: str) -> list[Table]:
    doc = json.loads(text)
    if "tables" in doc:
        return [_json_table(t, doc["basis"]) for t in doc["tables"]]
    return [_json_table(doc, DELTA_N)]


_TEXT_HEAD = re.compile(r"A\((\w+)_\{(\d+),(\d+)\}\)  \[n=(\d+), basis ([\w-]+), (\w+)\]")
_TEXT_ENTRY = re.compile(r"  (\w+)_\{(\d+),(\d+)\} \(x\) (\w+)_\{(\d+),(\d+)\} : (.+)")
_TEXT_COEFF = re.compile(r"(-?\d+(?:/\d+)?)(?: \* pi(?:\^(-?\d+))?)?")


def _text_coeff(text: str) -> Coeff:
    match = _TEXT_COEFF.fullmatch(text)
    if match is None:
        raise ValueError(f"coefficient {text!r} is not one pi-monomial")
    exp = 0 if " * pi" not in text else int(match.group(2) or 1)
    return monomial(Fraction(match.group(1)), exp)


def _as_delta(index: Index) -> Index:
    # Headers of global tables name the target as mu; JSON names it Delta.
    return ("Delta",) + index[1:] if index[0] == "mu" else index


def parse_text(text: str) -> list[Table]:
    tables = []
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        head = _TEXT_HEAD.fullmatch(lines[0])
        if head is None:
            raise ValueError(f"bad table header {lines[0]!r}")
        fam, k, q, n, basis, kind = head.groups()
        table = Table(int(n), _as_delta((fam, int(k), int(q))), basis, kind)
        for line in lines[1:]:
            m = _TEXT_ENTRY.fullmatch(line)
            if m is None:
                raise ValueError(f"bad table line {line!r}")
            pair = ((m[1], int(m[2]), int(m[3])), (m[4], int(m[5]), int(m[6])))
            table.entries[pair] = _text_coeff(m[7])
        tables.append(table)
    return tables


_LATEX_FAMILY = {"\\Delta": "Delta", "N": "N", "B": "B", "\\Gamma": "Gamma", "\\mu": "mu"}
_LATEX_INDEX = r"(\\Delta|N|B|\\Gamma|\\mu)_\{(\d+),(\d+)\}"
_LATEX_HEAD = re.compile(r"A\(" + _LATEX_INDEX + r"\) = (.*)")
_LATEX_PAIR = re.compile(_LATEX_INDEX + r"\\otimes" + _LATEX_INDEX)
_LATEX_PI = re.compile(r"\\pi(?:\^\{(\d+)\})?")


def _latex_part(text: str) -> tuple[int, int]:
    """'8\\pi^{2}' -> (8, 2); a missing number is 1."""
    exp = 0
    match = _LATEX_PI.search(text)
    if match:
        exp = int(match.group(1) or 1)
        text = text[:match.start()] + text[match.end():]
    if not re.fullmatch(r"\d*", text):
        raise ValueError(f"bad latex factor {text!r}")
    return int(text or 1), exp


def _latex_coeff(text: str) -> tuple[Fraction, int]:
    if text.startswith("\\frac{"):
        match = re.fullmatch(r"\\frac\{([^{}]*(?:\{\d+\})?)\}\{([^{}]*(?:\{\d+\})?)\}", text)
        if match is None:
            raise ValueError(f"bad latex coefficient {text!r}")
        (num, up), (den, down) = _latex_part(match[1]), _latex_part(match[2])
        return Fraction(num, den), up - down
    num, up = _latex_part(text)
    return Fraction(num), up


def parse_latex(text: str, n: int, basis: str, kind: str) -> list[Table]:
    """Latex documents do not state n, basis or kind; the caller supplies them."""
    tables = []
    for block in text.strip("\n").split("\n\n"):
        head = _LATEX_HEAD.fullmatch(block)
        if head is None:
            raise ValueError(f"bad latex table {block[:60]!r}")
        target = _as_delta((_LATEX_FAMILY[head[1]], int(head[2]), int(head[3])))
        table = Table(n, target, basis, kind)
        sign, magnitude = 1, (Fraction(1), 0)
        for token in head[4].replace("\\otimes ", "\\otimes").split(" "):
            if token in ("+", "-"):
                sign = 1 if token == "+" else -1
                continue
            if token.startswith("-"):
                sign, token = -1, token[1:]
            pair = _LATEX_PAIR.fullmatch(token)
            if pair is None:
                magnitude = _latex_coeff(token)
                continue
            key = ((_LATEX_FAMILY[pair[1]], int(pair[2]), int(pair[3])),
                   (_LATEX_FAMILY[pair[4]], int(pair[5]), int(pair[6])))
            table.entries[key] = monomial(sign * magnitude[0], magnitude[1])
            sign, magnitude = 1, (Fraction(1), 0)
        tables.append(table)
    return tables


def parse_tables(text: str, fmt: str, n: int, basis: str, kind: str) -> list[Table]:
    if fmt == "json":
        return parse_json(text)
    if fmt == "text":
        return parse_text(text)
    return parse_latex(text, n, basis, kind)


# ---------------------------------------------------------------------------
# Checks on one table
# ---------------------------------------------------------------------------

def check_degrees(table: Table) -> list[str]:
    return [f"A{table.target}: degrees of {left}, {right} do not add up"
            for left, right in table.entries if left[1] + right[1] != table.target[1]]


def check_symmetric(table: Table) -> list[str]:
    return [f"A{table.target}: c{left, right} != c{right, left}"
            for (left, right), coeff in table.entries.items()
            if table.entries.get((right, left)) != coeff]


def check_unit(table: Table) -> list[str]:
    """The unit row is exactly (unit, target) -> 1 (mu slots in global tables)."""
    unit, target = UNIT[table.basis], table.target
    if table.kind == "global":
        unit, target = ("mu", 0, 0), ("mu",) + target[1:]
    row = {right: c for (left, right), c in table.entries.items() if left == unit}
    if row != {target: monomial(Fraction(1), 0)}:
        return [f"A{table.target}: unit row is {row}"]
    return []


def pi_exponent(k: int, l: int, r: int) -> int:
    return k // 2 + l // 2 - r // 2


def check_pi_grading(table: Table) -> list[str]:
    errors = []
    r = table.target[1]
    for (left, right), coeff in table.entries.items():
        want = pi_exponent(left[1], right[1], r)
        if len(coeff) != 1 or coeff[0][0] != want:
            errors.append(f"A{table.target}: c{left, right} = {coeff}, expected one term pi^{want}")
    return errors


def check_table(table: Table) -> list[str]:
    errors = check_degrees(table) + check_pi_grading(table)
    if table.kind in ("local", "global"):
        errors += check_symmetric(table) + check_unit(table)
    return errors


def check_same(got: Table, want: Table, what: str) -> list[str]:
    if got.target != want.target:
        return [f"{what}: target {got.target} != {want.target}"]
    diff = [pair for pair in set(got.entries) | set(want.entries)
            if got.entries.get(pair) != want.entries.get(pair)]
    return [f"{what} A{want.target}: {len(diff)} entries differ, e.g. {min(diff)}"] if diff else []


def check_same_tables(got: list[Table], want: list[Table], what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} tables, expected {len(want)}"]
    return [e for g, w in zip(got, want) for e in check_same(g, w, what)]


# ---------------------------------------------------------------------------
# Checks across documents
# ---------------------------------------------------------------------------

def restrict(formula: Table, kind: str) -> Table:
    """`formula` restricted as `global` (Delta (x) Delta) or `semilocal` (Delta right slot)."""
    out = Table(formula.n, formula.target, formula.basis, kind)
    for (left, right), coeff in formula.entries.items():
        if right[0] != "Delta" or (kind == "global" and left[0] != "Delta"):
            continue
        mu_left = ("mu",) + left[1:] if kind == "global" else left
        out.entries[(mu_left, ("mu",) + right[1:])] = coeff
    return out


def is_valid(n: int, index: Index) -> bool:
    """Validity ranges from the `areabasis` module docstring."""
    family, k, q = index
    if not 0 <= k <= 2 * n - 1:
        return False
    low = max(0, k - n + (1 if family in ("N", "Gamma") else 0))
    high_ok = 2 * q <= k if family in ("Delta", "Gamma") else 2 * q < k
    return low <= q and high_ok


def valid_indices(n: int, family: str) -> list[Index]:
    return [(family, k, q) for k in range(2 * n) for q in range(k // 2 + 1)
            if is_valid(n, (family, k, q))]


def _dual_bg_to_dn(n: int, index: Index) -> dict[Index, Fraction]:
    """B* and Gamma* in Delta*/N* coordinates (`areabasis.dual_bg_to_dn` docstring)."""
    family, k, q = index
    delta, nn = ("Delta", k, q), ("N", k, q)
    if family == "B":
        coords = {delta: Fraction(1)} if q == k - n else {
            delta: Fraction(k - 2 * q, 2 * n - k), nn: Fraction(-2 * (n - k + q), 2 * n - k)}
    elif 2 * q == k:
        coords = {delta: Fraction(1)}
    else:
        coeff = Fraction(2 * (n - k + q), 2 * n - k)
        coords = {delta: coeff, nn: coeff}
    return {idx: c for idx, c in coords.items() if c and is_valid(n, idx)}


def _primal_dn_from_bg(n: int, index: Index) -> dict[Index, Fraction]:
    """B and Gamma in Delta/N coordinates (`areabasis.primal_dn_from_bg` docstring)."""
    family, k, q = index
    delta, nn = ("Delta", k, q), ("N", k, q)
    if family == "B":
        coords = {delta: Fraction(1)} if q == k - n else {delta: Fraction(1), nn: Fraction(-1)}
    elif 2 * q == k:
        coords = {delta: Fraction(1)}
    else:
        coords = {delta: Fraction(1), nn: Fraction(k - 2 * q, 2 * (n - k + q))}
    return {idx: c for idx, c in coords.items() if c and is_valid(n, idx)}


def b_gamma_from_delta_n(n: int, delta_n: list[Table]) -> list[Table]:
    """c_bg(i, j; Psi) = sum_c P(Psi, c) sum_{a,b} M(i, a) M(j, b) c_dn(a, b; c)."""
    by_target = {t.target: t for t in delta_n}
    duals = {idx: _dual_bg_to_dn(n, idx)
             for fam in ("B", "Gamma") for idx in valid_indices(n, fam)}
    users: dict[Index, list[tuple[Index, Fraction]]] = {}
    for bg, coords in duals.items():
        for dn, weight in coords.items():
            users.setdefault(dn, []).append((bg, weight))
    out = []
    for target in sorted(duals, key=lambda i: (i[1], i[0] != "B", i[2])):
        acc: dict[Pair, dict[int, Fraction]] = {}
        for dn_target, p in _primal_dn_from_bg(n, target).items():
            for (a, b), coeff in by_target[dn_target].entries.items():
                for i, mi in users.get(a, ()):
                    for j, mj in users.get(b, ()):
                        slot = acc.setdefault((i, j), {})
                        for exp, value in coeff:
                            slot[exp] = slot.get(exp, Fraction(0)) + p * mi * mj * value
        table = Table(n, target, B_GAMMA)
        for pair, terms in acc.items():
            kept = tuple(sorted((e, v) for e, v in terms.items() if v))
            if kept:
                table.entries[pair] = kept
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# verify and census
# ---------------------------------------------------------------------------

def check_verify_report(returncode: int, stderr: str) -> list[str]:
    lines = stderr.strip("\n").split("\n")
    errors = [] if returncode == 0 else [f"exit code {returncode}"]
    summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1])
    if summary is None:
        return errors + [f"no summary line, last line {lines[-1]!r}"]
    passed, total = int(summary[1]), int(summary[2])
    if passed != total or total == 0:
        errors.append(f"summary {lines[-1]!r}")
    checks = lines[:-1]
    if len(checks) != total:
        errors.append(f"{len(checks)} report lines for {total} checks")
    errors += [f"not PASS: {line!r}" for line in checks if not line.endswith(": PASS")]
    return errors


def census_counts(n: int) -> list[int]:
    counts = [0] * (2 * n)
    for family in ("Delta", "N"):
        for _, k, _ in valid_indices(n, family):
            counts[k] += 1
    return counts


def check_census(text: str, n: int) -> list[str]:
    doc = json.loads(text)
    errors = [] if doc["all_match"] is True else ["all_match is not true"]
    got = [row["census"] for row in doc["per_degree"]]
    want = census_counts(n)
    if got != want:
        errors.append(f"per-degree census {got}, recount {want}")
    if [row["degree"] for row in doc["per_degree"]] != list(range(2 * n)):
        errors.append("degrees are not 0..2n-1")
    errors += [f"degree {row['degree']}: rank {row['rank']} != census {row['census']}"
               for row in doc["per_degree"] if row["rank"] != row["census"] or not row["match"]]
    if doc["total"] != sum(want) or doc["n"] != n:
        errors.append(f"total {doc['total']} for n={doc['n']}, recount {sum(want)} for n={n}")
    return errors


# ---------------------------------------------------------------------------
# One round of a workload
# ---------------------------------------------------------------------------

def _expected_targets(n: int, basis: str) -> list[Index]:
    families = ("Delta", "N") if basis == DELTA_N else ("B", "Gamma")
    rank = {family: i for i, family in enumerate(families)}
    return sorted((idx for family in families for idx in valid_indices(n, family)),
                  key=lambda idx: (idx[1], rank[idx[0]], idx[2]))


def _check_document(inv, returncode: int, stdout: str) -> tuple[list[Table], list[str]]:
    if returncode != 0:
        return [], [f"exit code {returncode}"]
    kind = "local" if inv.verb in ("table", "formula") else inv.verb
    try:
        tables = parse_tables(stdout, inv.fmt, inv.n, inv.basis, kind)
    except (ValueError, KeyError, TypeError) as exc:
        return [], [f"unparsable document: {exc}"]
    errors = [e for t in tables for e in check_table(t)]
    errors += [f"A{t.target}: n={t.n}, basis {t.basis}, kind {t.kind}; expected "
               f"n={inv.n}, basis {inv.basis}, kind {kind}"
               for t in tables if (t.n, t.basis, t.kind) != (inv.n, inv.basis, kind)]
    want = _expected_targets(inv.n, inv.basis) if inv.verb == "table" else [inv.target]
    if [t.target for t in tables] != want:
        errors.append(f"targets {[t.target for t in tables][:4]}..., expected {want[:4]}...")
    return tables, errors


def check_round(plan, results) -> list[list[str]]:
    """Errors per invocation; results[i] is (returncode, stdout, stderr) of plan[i]."""
    errors: list[list[str]] = [[] for _ in plan]
    parsed: dict[tuple, tuple[int, list[Table]]] = {}
    for i, (inv, (code, out, err)) in enumerate(zip(plan, results)):
        if inv.verb in ("verify", "identities"):
            errors[i] = check_verify_report(code, err)
        elif inv.verb == "census":
            errors[i] = [f"exit code {code}"] if code else check_census(out, inv.n)
        else:
            tables, errors[i] = _check_document(inv, code, out)
            if not errors[i]:
                parsed[(inv.verb, inv.n, inv.basis, inv.target, inv.fmt)] = (i, tables)
    for (verb, n, basis, target, fmt), (i, tables) in parsed.items():
        if verb == "table" and basis == B_GAMMA:
            ref = parsed.get(("table", n, DELTA_N, None, "json"))
            if ref is not None:
                errors[i] += check_same_tables(tables, b_gamma_from_delta_n(n, ref[1]),
                                               f"b-gamma vs mapped delta-n, n={n}")
        elif verb == "formula" and fmt != "json":
            ref = parsed.get((verb, n, basis, target, "json"))
            if ref is not None:
                errors[i] += check_same_tables(tables, ref[1], f"{fmt} vs json")
        elif verb in ("global", "semilocal"):
            ref = parsed.get(("formula", n, DELTA_N, target, "json"))
            if ref is not None:
                errors[i] += check_same(tables[0], restrict(ref[1][0], verb),
                                        f"{verb} vs restricted formula")
    return errors
