"""Assembly and rendering of additive kinematic formulas.

A kinematic formula for a primal basis measure Psi is the expansion
A(Psi) = sum c_ij  b_i (x) b_j over pairs of primal basis measures with
deg b_i + deg b_j = deg Psi.  The coefficients are extracted by duality:
c_ij is the pairing of the dual product b*_i b*_j against Psi, where matched
dual/primal bases pair diagonally.  The full array comes from a single pass
over the slot pairs: each pair's product is read once from the delta-n
structure constants and scattered into the tables of all targets of its
degree.  One target needs only its own coordinate of each product, which
dualalgebra.target_coefficients reads off the target's row of the images
without forming the product.  Globalization keeps only pairs that survive on
the full sphere, turning area-measure slots into the global valuations
mu_{k,q}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .areabasis import (
    AreaIndex,
    Family,
    InvalidIndexError,
    indices_of_degree,
    primal_dn_from_bg,
    require_valid,
    valid_indices,
)
from .dualalgebra import basis_product, target_coefficients
from .exactnum import PiScalar, add_terms, join_signed, scaled_term

BASIS_DELTA_N = "delta-n"
BASIS_B_GAMMA = "b-gamma"

_BASIS_FAMILIES = {
    BASIS_DELTA_N: (Family.DELTA, Family.N),
    BASIS_B_GAMMA: (Family.B, Family.GAMMA),
}

Pair = tuple[AreaIndex, AreaIndex]


class KinematicTable(NamedTuple):
    """Coefficient array of one additive kinematic formula.

    kind is 'local' (both slots area measures), 'semilocal' (second slot
    globalized to mu), or 'global' (both slots globalized).
    """

    n: int
    target: AreaIndex
    basis: str
    entries: Mapping[Pair, PiScalar]
    kind: str = "local"

    def sorted_entries(self) -> list[tuple[Pair, PiScalar]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key))

    def coefficient(self, left: AreaIndex, right: AreaIndex) -> PiScalar:
        return self.entries.get((left, right), PiScalar())


def _families_for(basis: str) -> tuple[Family, Family]:
    try:
        return _BASIS_FAMILIES[basis]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}; expected 'delta-n' or 'b-gamma'") from None


def _target_dn_coordinates(n: int, target: AreaIndex) -> dict[AreaIndex, Fraction]:
    if target.family in (Family.DELTA, Family.N):
        return {target: Fraction(1)}
    return primal_dn_from_bg(n, target)


def _target_table(n: int, target: AreaIndex, basis: str, left_families: tuple[Family, ...],
                  right_families: tuple[Family, ...], kind: str = "local") -> KinematicTable:
    # One target: each slot pair's coefficient is read off the target's row
    # of the images, and no product is formed.
    coefficient = target_coefficients(n, _target_dn_coordinates(n, target))
    entries: dict[Pair, PiScalar] = {}
    for d1 in range(target.k + 1):
        rights = indices_of_degree(n, target.k - d1, right_families)
        for left in indices_of_degree(n, d1, left_families):
            for right in rights:
                coeff = coefficient(left, right)
                if coeff:
                    entries[left, right] = coeff
    return KinematicTable(n, target, basis, entries, kind)


def local_formula(n: int, target: AreaIndex, basis: str = BASIS_DELTA_N) -> KinematicTable:
    """Full coefficient table of A(target) over the chosen pair basis."""
    families = _families_for(basis)
    require_valid(n, target)
    if target.family not in families:
        raise InvalidIndexError(
            f"target {target.text()} does not belong to the {basis} basis")
    return _target_table(n, target, basis, families, families)


def full_table(n: int, basis: str = BASIS_DELTA_N) -> list[KinematicTable]:
    """One kinematic table per primal basis element, ordered by (k, family, q).

    One pass over the slot pairs: each dual product b*_l b*_r is read once
    and scattered, through the Delta/N coordinates of the targets of its
    degree, into every one of their tables.
    """
    families = _families_for(basis)
    targets = sorted((idx for family in families for idx in valid_indices(n, family)),
                     key=lambda idx: idx.sort_key)
    entries: list[dict[Pair, PiScalar]] = [{} for _ in targets]
    readers: dict[int, dict[AreaIndex, list[tuple[dict, Fraction]]]] = {}
    for target, acc in zip(targets, entries):
        by_coordinate = readers.setdefault(target.k, {})
        for idx, weight in _target_dn_coordinates(n, target).items():
            by_coordinate.setdefault(idx, []).append((acc, weight))
    for degree, by_coordinate in readers.items():
        for d1 in range(degree + 1):
            rights = indices_of_degree(n, degree - d1, families)
            for left in indices_of_degree(n, d1, families):
                for right in rights:
                    prod = basis_product(n, left, right)
                    pair = (left, right)
                    for idx, scatter in by_coordinate.items():
                        coeff = prod.coefficient(idx)
                        if coeff:
                            for acc, weight in scatter:
                                add_terms(acc, ((pair, coeff * weight),))
    return [KinematicTable(n, target, basis, acc) for target, acc in zip(targets, entries)]


def global_formula(n: int, k: int, q: int) -> KinematicTable:
    """Globalized formula for mu_{k,q}: N-slots vanish on the full sphere."""
    target = require_valid(n, AreaIndex(Family.DELTA, k, q))
    return _target_table(n, target, BASIS_DELTA_N, (Family.DELTA,), (Family.DELTA,), kind="global")


def semilocal_formula(n: int, target: AreaIndex) -> KinematicTable:
    """Semilocal formula: second slot globalized, so N indices drop there."""
    require_valid(n, target)
    if target.family not in (Family.DELTA, Family.N):
        raise InvalidIndexError("semilocal targets use the Delta/N basis")
    return _target_table(n, target, BASIS_DELTA_N, (Family.DELTA, Family.N), (Family.DELTA,), kind="semilocal")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _slot_globalized(kind: str) -> tuple[bool, bool]:
    if kind == "global":
        return True, True
    if kind == "semilocal":
        return False, True
    return False, False


def _index_text(index: AreaIndex, as_mu: bool) -> str:
    return f"mu_{{{index.k},{index.q}}}" if as_mu else str(index)


def _index_latex(index: AreaIndex, as_mu: bool) -> str:
    return f"\\mu_{{{index.k},{index.q}}}" if as_mu else index.latex()


def _index_json(index: AreaIndex, as_mu: bool) -> dict:
    if as_mu:
        return {"family": "mu", "k": index.k, "q": index.q}
    return index.to_json_dict()


def emit(table: KinematicTable, fmt: str = "text") -> str:
    """Render one table as 'text', 'latex', or 'json'."""
    if fmt == "json":
        import json

        return json.dumps(table_json(table), indent=2) + "\n"
    if fmt == "latex":
        return _emit_latex(table)
    if fmt == "text":
        return _emit_text(table)
    raise ValueError(f"unknown format {fmt!r}; expected text, latex, or json")


def _emit_text(table: KinematicTable) -> str:
    left_mu, right_mu = _slot_globalized(table.kind)
    if not table.entries:
        return "0"
    head_target = _index_text(table.target, left_mu and right_mu)
    lines = [f"A({head_target})  [n={table.n}, basis {table.basis}, {table.kind}]"]
    for (left, right), coeff in table.sorted_entries():
        lines.append(f"  {_index_text(left, left_mu)} (x) {_index_text(right, right_mu)} : {coeff.text()}")
    return "\n".join(lines)


def _emit_latex(table: KinematicTable) -> str:
    left_mu, right_mu = _slot_globalized(table.kind)
    if not table.entries:
        return "0"
    head_target = _index_latex(table.target, left_mu and right_mu)
    return f"A({head_target}) = " + join_signed(
        scaled_term(coeff, f"{_index_latex(left, left_mu)}\\otimes {_index_latex(right, right_mu)}", " ", True)
        for (left, right), coeff in table.sorted_entries())


def table_json(table: KinematicTable) -> dict:
    left_mu, right_mu = _slot_globalized(table.kind)
    doc: dict = {"n": table.n, "target": table.target.to_json_dict(), "basis": table.basis}
    if table.kind != "local":
        doc["kind"] = table.kind
    doc["entries"] = [
        {
            "left": _index_json(left, left_mu),
            "right": _index_json(right, right_mu),
            "value": coeff.to_json_dict(),
        }
        for (left, right), coeff in table.sorted_entries()
    ]
    return doc


def emit_tables(n: int, basis: str, tables: list[KinematicTable], fmt: str = "text") -> str:
    """Render a list of tables as one document."""
    if fmt == "json":
        import json

        doc = {"n": n, "basis": basis, "tables": [table_json(t) for t in tables]}
        return json.dumps(doc, indent=2) + "\n"
    if fmt in ("text", "latex"):
        return "\n\n".join(emit(t, fmt) for t in tables) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected text, latex, or json")
