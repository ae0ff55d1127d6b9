"""Kinematic tables: coefficient extraction, globalization, rendering."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from ukin import dualalgebra, kinematics
from ukin.areabasis import AreaIndex, Family, primal_bg_from_dn, primal_dn_from_bg, valid_indices
from ukin.dualalgebra import AreaDualElement
from ukin.exactnum import PiScalar
from ukin.kinematics import (
    BASIS_B_GAMMA,
    BASIS_DELTA_N,
    KinematicTable,
    emit,
    emit_tables,
    full_table,
    global_formula,
    local_formula,
    semilocal_formula,
)
from ukin.stpoly import STPoly


def D(k, q):
    return AreaIndex(Family.DELTA, k, q)


def N(k, q):
    return AreaIndex(Family.N, k, q)


def _table_as_plain(table: KinematicTable):
    return {pair: coeff for pair, coeff in table.entries.items()}


ONE = PiScalar(1)


def _sym(*pairs_and_values):
    """Build an entry dict containing both orders of each listed pair."""
    out = {}
    for left, right, value in pairs_and_values:
        out[(left, right)] = value
        out[(right, left)] = value
    return out


# The full n=2 array.  Diagonal-pair coefficients appear once; all values were
# cross-checked against the worked dual products and co-associativity.
EXPECTED_N2 = {
    D(0, 0): _sym((D(0, 0), D(0, 0), ONE)),
    D(1, 0): _sym((D(0, 0), D(1, 0), ONE)),
    N(1, 0): _sym((D(0, 0), N(1, 0), ONE)),
    D(2, 0): {
        **_sym((D(0, 0), D(2, 0), ONE)),
        (D(1, 0), D(1, 0)): PiScalar(Fraction(16, 9), -1),
        **_sym((D(1, 0), N(1, 0), PiScalar(Fraction(-4, 9), -1))),
        (N(1, 0), N(1, 0)): PiScalar(Fraction(-8, 9), -1),
    },
    D(2, 1): {
        **_sym((D(0, 0), D(2, 1), ONE)),
        (D(1, 0), D(1, 0)): PiScalar(Fraction(8, 9), -1),
        **_sym((D(1, 0), N(1, 0), PiScalar(Fraction(4, 9), -1))),
        (N(1, 0), N(1, 0)): PiScalar(Fraction(2, 9), -1),
    },
    D(3, 1): {
        **_sym((D(0, 0), D(3, 1), ONE)),
        **_sym((D(1, 0), D(2, 0), PiScalar(Fraction(2, 3)))),
        **_sym((D(1, 0), D(2, 1), PiScalar(Fraction(2, 3)))),
        **_sym((N(1, 0), D(2, 0), PiScalar(Fraction(1, 3)))),
        **_sym((N(1, 0), D(2, 1), PiScalar(Fraction(-2, 3)))),
    },
}


class TestLocalFormulas:
    def test_full_n2_array(self):
        tables = {t.target: t for t in full_table(2)}
        assert set(tables) == set(EXPECTED_N2)
        for target, expected in EXPECTED_N2.items():
            assert _table_as_plain(tables[target]) == expected, target

    def test_n3_spot_coefficient(self):
        table = local_formula(3, D(5, 2))
        assert table.coefficient(N(2, 0), N(3, 1)) == PiScalar(Fraction(-2, 9))
        assert table.coefficient(N(3, 1), N(2, 0)) == PiScalar(Fraction(-2, 9))

    def test_symmetry(self):
        for n in (2, 3, 4):
            for table in full_table(n):
                for (left, right), coeff in table.entries.items():
                    assert table.coefficient(right, left) == coeff, (n, table.target)

    def test_unit_slot_law(self):
        for n in (2, 3):
            for table in full_table(n):
                target = table.target
                degree_zero = [(pair, c) for pair, c in table.entries.items() if pair[0].k == 0]
                assert degree_zero == [((D(0, 0), target), ONE)], (n, target)

    def test_invalid_target(self):
        with pytest.raises(Exception):
            local_formula(2, D(9, 9))

    def test_basis_target_mismatch(self):
        with pytest.raises(Exception):
            local_formula(2, AreaIndex(Family.B, 1, 0), BASIS_DELTA_N)
        with pytest.raises(Exception):
            local_formula(2, D(1, 0), BASIS_B_GAMMA)


class TestAssociativityShadow:
    @pytest.mark.parametrize("n", (2, 3))
    def test_triple_coefficients_agree(self, n):
        # coefficient of a (x) b (x) c assembled from pairwise tables, both ways
        indices = [idx for fam in (Family.DELTA, Family.N) for idx in valid_indices(n, fam)]
        tables = {t.target: t for t in full_table(n)}
        for target, table in tables.items():
            for a in indices:
                for b in indices:
                    for c in indices:
                        if a.k + b.k + c.k != target.k:
                            continue
                        left_way = PiScalar()
                        for m in indices:
                            if m.k != a.k + b.k:
                                continue
                            left_way = left_way + table.coefficient(m, c) * tables[m].coefficient(a, b)
                        right_way = PiScalar()
                        for m in indices:
                            if m.k != b.k + c.k:
                                continue
                            right_way = right_way + table.coefficient(a, m) * tables[m].coefficient(b, c)
                        assert left_way == right_way, (n, target, a, b, c)


class TestBasisModes:
    @pytest.mark.parametrize("n", (2, 3))
    def test_bg_tables_convert_to_dn_tables(self, n):
        dn_tables = {t.target: t for t in full_table(n, BASIS_DELTA_N)}
        bg_tables = {t.target: t for t in full_table(n, BASIS_B_GAMMA)}
        for target, dn_table in dn_tables.items():
            assembled: dict = {}
            for bg_target, weight in primal_bg_from_dn(n, target).items():
                for (left, right), coeff in bg_tables[bg_target].entries.items():
                    for dn_left, w_left in primal_dn_from_bg(n, left).items():
                        for dn_right, w_right in primal_dn_from_bg(n, right).items():
                            pair = (dn_left, dn_right)
                            acc = assembled.get(pair, PiScalar()) + coeff * (weight * w_left * w_right)
                            if acc:
                                assembled[pair] = acc
                            else:
                                assembled.pop(pair, None)
            assert assembled == _table_as_plain(dn_table), (n, target)


class TestOnePass:
    SLOT_FAMILIES = {BASIS_DELTA_N: (Family.DELTA, Family.N), BASIS_B_GAMMA: (Family.B, Family.GAMMA)}

    @pytest.mark.parametrize("basis", [BASIS_DELTA_N, BASIS_B_GAMMA])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_table_reads_each_slot_pair_once(self, n, basis, monkeypatch):
        reads = Counter()
        real = kinematics.basis_product

        def counting(m, left, right):
            reads[(left, right)] += 1
            return real(m, left, right)

        monkeypatch.setattr(kinematics, "basis_product", counting)
        full_table(n, basis)
        slots = [idx for family in self.SLOT_FAMILIES[basis] for idx in valid_indices(n, family)]
        assert set(reads) == {(left, right) for left in slots for right in slots
                              if left.k + right.k <= 2 * n - 1}
        assert set(reads.values()) == {1}


class TestSingleTarget:
    # The single-target verbs read one target row; full_table forms every
    # product.  The two routes must agree entry for entry.

    @pytest.mark.parametrize("basis", [BASIS_DELTA_N, BASIS_B_GAMMA])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_local_formula_equals_full_table(self, n, basis):
        targets = [idx for family in TestOnePass.SLOT_FAMILIES[basis] for idx in valid_indices(n, family)]
        tables = {table.target: table for table in full_table(n, basis)}
        assert set(tables) == set(targets)
        for target in targets:
            assert local_formula(n, target, basis) == tables[target], target

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_global_and_semilocal_equal_filtered_full_table(self, n):
        for table in full_table(n):
            target = table.target
            assert semilocal_formula(n, target) == KinematicTable(
                n, target, BASIS_DELTA_N, kind="semilocal",
                entries={p: c for p, c in table.entries.items() if p[1].family is Family.DELTA})
            if target.family is Family.DELTA:
                assert global_formula(n, target.k, target.q) == KinematicTable(
                    n, target, BASIS_DELTA_N, kind="global",
                    entries={p: c for p, c in table.entries.items()
                             if p[0].family is Family.DELTA and p[1].family is Family.DELTA})

    VERBS = [
        ("formula", lambda n, idx: local_formula(n, idx), (Family.DELTA, Family.N)),
        ("formula b-gamma", lambda n, idx: local_formula(n, idx, BASIS_B_GAMMA), (Family.B, Family.GAMMA)),
        ("global", lambda n, idx: global_formula(n, idx.k, idx.q), (Family.DELTA,)),
        ("semilocal", semilocal_formula, (Family.DELTA, Family.N)),
    ]

    @pytest.mark.parametrize("verb, build, families", VERBS, ids=[v[0] for v in VERBS])
    @pytest.mark.parametrize("n", [3, 5])
    def test_single_target_fills_no_product_and_solves_no_higher_degree(self, n, verb, build, families,
                                                                        monkeypatch):
        solved = []
        real = dualalgebra._degree_solution
        caches = (real, dualalgebra._degree_forms, dualalgebra._dn_product)

        def recording(m, degree):
            solved.append(degree)
            return real(m, degree)

        monkeypatch.setattr(dualalgebra, "_degree_solution", recording)
        for target in [idx for family in families for idx in valid_indices(n, family)]:
            for cached in caches:
                cached.cache_clear()
            solved.clear()
            table = build(n, target)
            assert table.entries, target
            assert dualalgebra._dn_product.cache_info().currsize == 0, target
            assert dualalgebra._degree_forms.cache_info().currsize == 0, target
            assert set(solved) == set(range(target.k + 1)), target


class TestGlobalAndSemilocal:
    def test_global_n2_degree1(self):
        table = global_formula(2, 1, 0)
        assert _table_as_plain(table) == _sym((D(0, 0), D(1, 0), ONE))
        assert table.kind == "global"

    def test_global_n2_d21(self):
        table = global_formula(2, 2, 1)
        assert table.coefficient(D(1, 0), D(1, 0)) == PiScalar(Fraction(8, 9), -1)
        assert all(p[0].family is Family.DELTA and p[1].family is Family.DELTA
                   for p in table.entries)

    def test_global_n2_d20(self):
        table = global_formula(2, 2, 0)
        assert table.coefficient(D(1, 0), D(1, 0)) == PiScalar(Fraction(16, 9), -1)

    def test_semilocal_filters_second_slot(self):
        table = semilocal_formula(2, D(2, 1))
        assert table.coefficient(N(1, 0), D(1, 0)) == PiScalar(Fraction(4, 9), -1)
        assert all(p[1].family is Family.DELTA for p in table.entries)

    def test_semilocal_n10(self):
        table = semilocal_formula(2, N(1, 0))
        assert _table_as_plain(table) == {(N(1, 0), D(0, 0)): ONE}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_filtered_local_formula(self, n):
        for target in valid_indices(n, Family.DELTA) + valid_indices(n, Family.N):
            local = local_formula(n, target).entries
            semilocal = semilocal_formula(n, target)
            assert semilocal == KinematicTable(
                n, target, BASIS_DELTA_N, kind="semilocal",
                entries={p: c for p, c in local.items() if p[1].family is Family.DELTA})
            if target.family is Family.DELTA:
                assert global_formula(n, target.k, target.q) == KinematicTable(
                    n, target, BASIS_DELTA_N, kind="global",
                    entries={p: c for p, c in local.items()
                             if p[0].family is Family.DELTA and p[1].family is Family.DELTA})


class TestEmit:
    def test_latex_contains_worked_coefficient(self):
        document = emit(local_formula(2, D(2, 1)), "latex")
        assert "\\frac{8}{9\\pi} \\Delta_{1,0}\\otimes \\Delta_{1,0}" in document
        assert document.startswith("A(\\Delta_{2,1}) =")

    def test_json_schema_instance(self):
        doc = json.loads(emit(local_formula(2, D(2, 1)), "json"))
        assert doc["n"] == 2 and doc["basis"] == "delta-n"
        assert doc["target"] == {"family": "Delta", "k": 2, "q": 1}
        entry = [e for e in doc["entries"]
                 if e["left"] == {"family": "Delta", "k": 1, "q": 0}
                 and e["right"] == {"family": "N", "k": 1, "q": 0}]
        assert entry and entry[0]["value"] == {"terms": [{"num": "4", "den": "9", "pi": -1}]}

    def test_two_term_coefficient_is_grouped_before_every_symbol(self):
        # One rule, exactnum.scaled_term, for a table entry, a polynomial
        # term and a dual-element term.
        two = PiScalar(1, -1) + PiScalar(2)
        table = KinematicTable(2, D(1, 0), BASIS_DELTA_N, {(D(0, 0), D(1, 0)): two})
        assert emit(table, "latex") == (
            "A(\\Delta_{1,0}) = \\left(\\frac{1}{\\pi} + 2\\right) \\Delta_{0,0}\\otimes \\Delta_{1,0}")
        assert STPoly({(1, 0): two}).latex() == "\\left(\\frac{1}{\\pi} + 2\\right)t"
        assert AreaDualElement(2, {D(1, 0): two}).text() == "(1 * pi^-1 + 2) * Delta_{1,0}"

    def test_empty_table_renders_zero(self):
        empty = KinematicTable(2, D(2, 1), BASIS_DELTA_N, {})
        assert emit(empty, "text") == "0"
        assert emit(empty, "latex") == "0"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(local_formula(2, D(1, 0)), "html")

    def test_global_renders_mu(self):
        text = emit(global_formula(2, 2, 1), "text")
        assert "mu_{1,0} (x) mu_{1,0}" in text
        latex = emit(global_formula(2, 2, 1), "latex")
        assert "\\mu_{1,0}\\otimes \\mu_{1,0}" in latex
        doc = json.loads(emit(global_formula(2, 2, 1), "json"))
        assert doc["kind"] == "global"
        assert all(e["left"]["family"] == "mu" for e in doc["entries"])

    def test_document_assembly(self):
        document = emit_tables(2, BASIS_DELTA_N, full_table(2), "json")
        doc = json.loads(document)
        assert len(doc["tables"]) == 6
        assert document == emit_tables(2, BASIS_DELTA_N, full_table(2), "json")
