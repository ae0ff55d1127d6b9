"""The dual algebra engine: generators, raising rules, canonical forms, products."""

import math
import random
from fractions import Fraction

import pytest

from ukin import dualalgebra
from ukin.areabasis import AreaIndex, Family, valid_indices, dual_basis_indices, census
from ukin.dualalgebra import (
    AreaDualElement,
    InconsistentSystemError,
    basis_element,
    basis_product,
    canonicalize,
    dual_element,
    eval_poly,
    monomial_rank,
    mul_sbar,
    mul_tbar,
    product,
    sbar,
    tbar,
    unit,
    vbar,
)
from ukin.exactnum import PiScalar, ball_volume
from ukin.kinematics import BASIS_B_GAMMA, BASIS_DELTA_N, full_table
from ukin.stpoly import STPoly, fu_poly, p_poly
from ukin.verify import (
    delta_star_closed_form,
    module_recurrence,
    product_nn,
    verify_delta_pairing,
    verify_relations,
)


def D(k, q):
    return AreaIndex(Family.DELTA, k, q)


def N(k, q):
    return AreaIndex(Family.N, k, q)


def element(n, coords):
    return AreaDualElement(n, coords)


class TestGenerators:
    def test_tbar_n2(self):
        assert tbar(2) == element(2, {D(1, 0): Fraction(3, 2)})

    def test_tbar_equals_raising_of_unit(self):
        for n in range(2, 7):
            assert mul_tbar(unit(n)) == tbar(n)

    def test_sbar_equals_raising_of_unit(self):
        for n in range(2, 7):
            assert mul_sbar(unit(n)) == sbar(n)
            assert sbar(n) == element(n, {D(2, 1): PiScalar(n, -1)})

    def test_vbar_n2(self):
        assert vbar(2) == element(2, {D(1, 0): Fraction(1, 2), N(1, 0): -1})

    def test_vbar_n3(self):
        assert vbar(3) == element(3, {D(1, 0): Fraction(3, 8), N(1, 0): Fraction(-3, 2)})

    def test_tbar_minus_vbar_is_gamma_dual(self):
        # tbar - vbar = 2 omega_{2n-2}/omega_{2n-1} Gamma*_{1,0}
        for n in (2, 3, 4):
            scale = (2 * ball_volume(2 * n - 2)).div_by_monomial(ball_volume(2 * n - 1))
            gamma = dual_element(n, AreaIndex(Family.GAMMA, 1, 0))
            assert tbar(n) - vbar(n) == scale * gamma


class TestRaisingRules:
    def test_tbar_on_n10_drops_invalid_emission(self):
        # the N_{2,1} term has nonzero structural coefficient but no valid target
        got = mul_tbar(basis_element(2, N(1, 0)))
        assert got == element(2, {
            D(2, 1): PiScalar(Fraction(2, 3), -1),
            D(2, 0): PiScalar(Fraction(-2, 3), -1),
        })

    def test_tbar_on_degree2_deltas(self):
        assert mul_tbar(basis_element(2, D(2, 0))) == element(2, {D(3, 1): 1})
        assert mul_tbar(basis_element(2, D(2, 1))) == element(2, {D(3, 1): 1})

    def test_sbar_on_n20_example(self):
        # within 2pi/9 tbar (sbar N*_{2,0}) = -5/18 Delta*_{5,2}
        inner = mul_sbar(basis_element(3, N(2, 0)))
        assert inner == element(3, {
            D(4, 2): PiScalar(Fraction(1, 4), -1),
            D(4, 1): PiScalar(Fraction(-3, 2), -1),
        })
        total = PiScalar(Fraction(2, 9), 1) * mul_tbar(inner)
        assert total == element(3, {D(5, 2): Fraction(-5, 18)})

    def test_top_degree_truncates_to_zero(self):
        for n in (2, 3):
            top = basis_element(n, D(2 * n - 1, n - 1) if n == 2 else D(2 * n - 1, n - 1))
            assert mul_tbar(top).is_zero()
            assert mul_sbar(top).is_zero()

    def test_operator_commutativity(self):
        for n in range(2, 7):
            for idx in dual_basis_indices(n):
                x = basis_element(n, idx)
                assert mul_sbar(mul_tbar(x)) == mul_tbar(mul_sbar(x)), (n, idx)

    def test_b_row_cross_check(self):
        # tbar * B*_{k,q} = w_k ((k-2q) B*_{k+1,q+1}
        #                        + 2(n-k+q)(k-2q)/(k-2q+1) B*_{k+1,q})
        for n in (2, 3, 4):
            for b in valid_indices(n, Family.B):
                k, q = b.k, b.q
                left = mul_tbar(dual_element(n, b))
                step = ball_volume(2 * n - k).div_by_monomial(
                    PiScalar(1, 1) * ball_volume(2 * n - k - 1))
                right = AreaDualElement(n)
                for target, factor in (
                    (AreaIndex(Family.B, k + 1, q + 1), Fraction(k - 2 * q)),
                    (AreaIndex(Family.B, k + 1, q),
                     Fraction(2 * (n - k + q) * (k - 2 * q), k - 2 * q + 1)),
                ):
                    from ukin.areabasis import is_valid
                    if is_valid(n, target):
                        right = right + (step * factor) * dual_element(n, target)
                assert left == right, (n, b)


class TestEvalPoly:
    def test_t_squared_at_unit(self):
        got = eval_poly(STPoly.monomial(2, 0), unit(2))
        assert got == element(2, {D(2, 0): PiScalar(4, -1), D(2, 1): PiScalar(2, -1)})

    def test_p2_at_unit(self):
        got = eval_poly(p_poly(2), unit(2))
        assert got == element(2, {D(2, 0): PiScalar(4, -1)})

    def test_f3_vanishes(self):
        assert eval_poly(fu_poly(3), unit(2)).is_zero()

    def test_general_base_element(self):
        base = basis_element(2, N(1, 0))
        got = eval_poly(STPoly.monomial(1, 0, Fraction(2, 3)), base)
        assert got == element(2, {
            D(2, 1): PiScalar(Fraction(4, 9), -1),
            D(2, 0): PiScalar(Fraction(-4, 9), -1),
        })

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_reference_chain(self, n):
        # Mixed-degree elements and polynomials, with two-term pi coefficients.
        rng = random.Random(100 + n)

        def two_term():
            low = PiScalar(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-2, 1))
            return low + PiScalar(rng.randint(1, 5), rng.randint(2, 3))

        indices = dual_basis_indices(n)
        for _ in range(8):
            x = element(n, {idx: two_term() for idx in rng.sample(indices, 4)})
            p = STPoly({(rng.randint(0, 3), rng.randint(0, 2)): two_term() for _ in range(3)})
            assert len(x.degrees()) > 1 and len(p.degrees()) > 1
            expected = sum((coeff * _reference_chain(x, a, b) for (a, b), coeff in p.terms()), AreaDualElement(n))
            assert eval_poly(p, x) == expected, (p, x)


class TestCanonicalForm:
    def test_unit(self):
        cf = canonicalize(unit(3))
        assert cf.phi == STPoly.constant(1)
        assert not cf.psi

    def test_n10(self):
        cf = canonicalize(basis_element(2, N(1, 0)))
        assert cf.phi == STPoly.monomial(1, 0, Fraction(1, 3))
        assert cf.psi == STPoly.constant(-1)

    def test_b20_has_no_phi_component(self):
        cf = canonicalize(dual_element(2, AreaIndex(Family.B, 2, 0)))
        assert not cf.phi
        assert cf.psi

    def test_b_duals_lie_in_vbar_ideal(self):
        # every B* element is psi(sbar, tbar) * vbar for some psi: restricting
        # the degree system to the vbar columns must stay solvable
        for n in (2, 3, 4):
            for b in valid_indices(n, Family.B):
                x = dual_element(n, b)
                rows, cols, matrix = _piscalar_degree_system(n, b.k)
                keep = [i for i, (_, on_v) in enumerate(cols) if on_v]
                restricted = [[row[i] for i in keep] for row in matrix]
                rhs = [x.coefficient(idx) for idx in rows]
                _reference_gauss_solve(restricted, rhs)  # raises if outside the ideal

    def test_round_trip_every_basis_element(self):
        for n in (2, 3, 4):
            for idx in dual_basis_indices(n):
                x = basis_element(n, idx)
                assert canonicalize(x).evaluate() == x, (n, idx)

    def test_mixed_degrees(self):
        x = unit(2) + Fraction(5, 3) * basis_element(2, N(1, 0)) + sbar(2)
        assert canonicalize(x).evaluate() == x


def _apply_rule(x, rule):
    """Reference one-step application of a raising rule in PiScalar: a rule
    coefficient c from X'_k to X'_r acts on X* as c * pi^(floor(k/2) - floor(r/2))."""
    terms = []
    for idx, coeff in x.items():
        terms.extend((target, coeff * PiScalar(c, idx.k // 2 - target.k // 2))
                     for target, c in rule(x.n, idx.family, idx.k, idx.q))
    return AreaDualElement(x.n, terms)


def _reference_chain(x, t_exp, s_exp):
    """tbar^t_exp sbar^s_exp x, one rule step at a time."""
    for _ in range(t_exp):
        x = _apply_rule(x, dualalgebra._tbar_rule)
    for _ in range(s_exp):
        x = _apply_rule(x, dualalgebra._sbar_rule)
    return x


def _piscalar_degree_system(n, degree):
    """Rows, column keys and the PiScalar image matrix of the reference chain."""
    rows, cols, _, _ = dualalgebra._degree_system(n, degree)
    images = [_reference_chain(vbar(n) if on_v else unit(n), degree - on_v - 2 * b, b) for b, on_v in cols]
    return rows, cols, [[image.coefficient(idx) for image in images] for idx in rows]


def _reference_gauss_solve(matrix, rhs):
    """Reference solver: exact Gauss-Jordan elimination over PiScalar.

    Same pivot rule as dualalgebra._gauss_solve (columns left to right, first
    unused row with a nonzero entry); pivots stay monomials so exact division
    applies.  Returns (solution, rank) with free variables set to zero.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows = [list(r) for r in matrix]
    vec = list(rhs)
    used = [False] * nrows
    pivots = []
    for col in range(ncols):
        pivot_row = next((r for r in range(nrows) if not used[r] and rows[r][col]), None)
        if pivot_row is None:
            continue
        used[pivot_row] = True
        pivots.append((pivot_row, col))
        pivot = rows[pivot_row][col]
        for r in range(nrows):
            if r == pivot_row or not rows[r][col]:
                continue
            ratio = rows[r][col].div_by_monomial(pivot)
            for c in range(col, ncols):
                if rows[pivot_row][c]:
                    rows[r][c] = rows[r][c] - ratio * rows[pivot_row][c]
            vec[r] = vec[r] - ratio * vec[pivot_row]
    for r in range(nrows):
        if not used[r] and vec[r]:
            raise InconsistentSystemError("inconsistent system: element is outside the generator span")
    solution = [PiScalar()] * ncols
    for pivot_row, col in pivots:
        solution[col] = vec[pivot_row].div_by_monomial(rows[pivot_row][col])
    return solution, len(pivots)


def _per_degree_canonical_form(x):
    """Reference: one solve per degree with x's own coefficients as right-hand side."""
    phi, psi = STPoly(), STPoly()
    for degree in x.degrees():
        rows, cols, matrix = _piscalar_degree_system(x.n, degree)
        solution, _ = _reference_gauss_solve(matrix, [x.coefficient(idx) for idx in rows])
        for (b, on_v), coeff in zip(cols, solution):
            term = STPoly.monomial(degree - (1 if on_v else 0) - 2 * b, b, coeff)
            if on_v:
                psi = psi + term
            else:
                phi = phi + term
    return phi, psi


def _clear_product_caches():
    for cached in (dualalgebra._basis_canonical, dualalgebra._dn_product):
        cached.cache_clear()


class TestMemoizedCanonicalForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_per_degree_solve(self, n):
        dualalgebra._basis_canonical.cache_clear()
        rng = random.Random(n)
        indices = dual_basis_indices(n)
        for _ in range(12):
            coords = {}
            for idx in rng.sample(indices, 5):
                coeff = PiScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-2, 2))
                if rng.random() < 0.3:
                    coeff = coeff + PiScalar(rng.randint(1, 5), 1)
                coords[idx] = coeff
            x = element(n, coords)
            form = canonicalize(x)
            assert (form.phi, form.psi) == _per_degree_canonical_form(x), x

    @pytest.mark.parametrize("basis", [BASIS_DELTA_N, BASIS_B_GAMMA])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_table_solves_once_per_basis_element(self, n, basis, monkeypatch):
        _clear_product_caches()
        solves = []
        real = dualalgebra._gauss_solve

        def counting(matrix, rhs):
            if rhs is not None:
                solves.append(rhs)
            return real(matrix, rhs)

        monkeypatch.setattr(dualalgebra, "_gauss_solve", counting)
        full_table(n, basis)
        assert len(solves) == census(n).total

    def test_only_delta_n_products_are_cached(self, monkeypatch):
        _clear_product_caches()
        real = dualalgebra._dn_product
        keys = set()

        def recording(n, left, right):
            keys.add((n, left, right))
            return real(n, left, right)

        monkeypatch.setattr(dualalgebra, "_dn_product", recording)
        full_table(4, BASIS_B_GAMMA)
        # Every key of the one product cache went in through a recorded call.
        assert real.cache_info().currsize == len(keys) > 0
        assert {idx.family for _, left, right in keys for idx in (left, right)} == {Family.DELTA, Family.N}
        assert not hasattr(basis_product, "cache_info")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bg_products_match_dual_element_route(self, n):
        _clear_product_caches()
        bg = valid_indices(n, Family.B) + valid_indices(n, Family.GAMMA)
        for left in bg:
            for right in bg + dual_basis_indices(n):
                if left.k + right.k > 2 * n - 1:
                    continue
                expected = product(dual_element(n, left), dual_element(n, right))
                assert basis_product(n, left, right) == expected, (left, right)
                assert basis_product(n, right, left) == expected, (right, left)


class TestIntegerDegreeSystems:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_image_matrix_is_generator_images_rescaled(self, n):
        # Column (b, on_v) of degree r is tbar^a sbar^b applied to the unit or
        # to vbar; mul_tbar and mul_sbar give it in X* coordinates, as does the
        # reference chain of one-step rules.  The matrix holds it as a
        # primitive, nonzero integer column, and each entry times its column's
        # scale is that image times pi^floor(r/2).
        for degree in range(2 * n):
            rows, cols, matrix, scales = dualalgebra._degree_system(n, degree)
            _, _, reference = _piscalar_degree_system(n, degree)
            assert len(scales) == len(cols) and all(scale > 0 for scale in scales)
            for j, (b, on_v) in enumerate(cols):
                column = [row[j] for row in matrix]
                assert any(column) and math.gcd(*column) == 1, (n, degree, b, on_v)
                image = vbar(n) if on_v else unit(n)
                for _ in range(degree - on_v - 2 * b):
                    image = mul_tbar(image)
                for _ in range(b):
                    image = mul_sbar(image)
                for i, idx in enumerate(rows):
                    scaled = PiScalar(matrix[i][j] * scales[j], -(degree // 2))
                    assert scaled == image.coefficient(idx) == reference[i][j], (n, degree, idx, b, on_v)

    def test_bareiss_matches_reference_on_rank_deficient_systems(self):
        # Low-rank integer matrices, with consistent and inconsistent right-hand sides.
        rng = random.Random(7)
        for _ in range(300):
            nrows, ncols, rank = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 5)
            left = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(nrows)]
            right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
            matrix = [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(ncols)]
                      for i in range(nrows)]
            rhs = [rng.randint(-3, 3) for _ in range(nrows)]
            if rng.random() < 0.5:
                x = [rng.randint(-4, 4) for _ in range(ncols)]
                rhs = [sum(row[j] * x[j] for j in range(ncols)) for row in matrix]
            try:
                expected = _reference_gauss_solve([[PiScalar(v) for v in row] for row in matrix],
                                                  [PiScalar(v) for v in rhs])
            except InconsistentSystemError:
                with pytest.raises(InconsistentSystemError):
                    dualalgebra._gauss_solve(matrix, rhs)
                continue
            solution, rank_found = dualalgebra._gauss_solve(matrix, rhs)
            assert ([PiScalar(c) for c in solution], rank_found) == expected, (matrix, rhs)
            assert dualalgebra._gauss_solve(matrix, None) == (None, rank_found)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_integer_solve_matches_piscalar_reference(self, n):
        for idx in dual_basis_indices(n):
            form = dualalgebra._basis_canonical(n, idx)
            assert (form.phi, form.psi) == _per_degree_canonical_form(basis_element(n, idx)), (n, idx)


class TestProducts:
    def test_example_products_n2(self):
        d10, n10 = basis_element(2, D(1, 0)), basis_element(2, N(1, 0))
        assert product(d10, d10) == element(2, {
            D(2, 0): PiScalar(Fraction(16, 9), -1), D(2, 1): PiScalar(Fraction(8, 9), -1)})
        assert product(d10, n10) == element(2, {
            D(2, 0): PiScalar(Fraction(-4, 9), -1), D(2, 1): PiScalar(Fraction(4, 9), -1)})
        assert product(n10, n10) == element(2, {
            D(2, 0): PiScalar(Fraction(-8, 9), -1), D(2, 1): PiScalar(Fraction(2, 9), -1)})

    def test_spot_chain_n3(self):
        pairs = {
            (D(3, 1), N(2, 0)): Fraction(-5, 18),
            (D(3, 1), D(2, 0)): Fraction(7, 18),
            (D(2, 0), N(3, 1)): Fraction(1, 9),
            (N(2, 0), N(3, 1)): Fraction(-2, 9),
        }
        top = basis_element(3, D(5, 2))
        for (left, right), value in pairs.items():
            assert basis_product(3, left, right) == value * top, (left, right)

    def test_unit_law(self):
        for n in (2, 3, 4):
            for idx in dual_basis_indices(n):
                x = basis_element(n, idx)
                assert product(unit(n), x) == x

    def test_commutativity(self):
        for n in (2, 3, 4):
            indices = dual_basis_indices(n)
            for i, left in enumerate(indices):
                for right in indices[i:]:
                    assert (basis_product(n, left, right)
                            == product(basis_element(n, right), basis_element(n, left)))

    def test_associativity_on_compatible_triples(self):
        for n in (2, 3):
            indices = dual_basis_indices(n)
            top = 2 * n - 1
            for a in indices:
                for b in indices:
                    if a.k + b.k > top:
                        continue
                    ab = basis_product(n, a, b)
                    for c in indices:
                        if a.k + b.k + c.k > top:
                            continue
                        bc = basis_product(n, b, c)
                        assert product(ab, basis_element(n, c)) == product(basis_element(n, a), bc)

    def test_truncation_soundness(self):
        for n in (2, 3):
            indices = dual_basis_indices(n)
            for a in indices:
                for b in indices:
                    if a.k + b.k > 2 * n - 1:
                        assert basis_product(n, a, b).is_zero(), (n, a, b)

    def test_nn_route_matches(self):
        for n in (2, 3, 4):
            n_indices = valid_indices(n, Family.N)
            for left in n_indices:
                for right in n_indices:
                    assert product_nn(n, left, right) == basis_product(n, left, right)

    def test_nn_reduction_shape_n2(self):
        d10, n10 = basis_element(2, D(1, 0)), basis_element(2, N(1, 0))
        direct = product(d10, n10) - Fraction(1, 4) * product(d10, d10)
        assert direct == product_nn(2, N(1, 0), N(1, 0))

    def test_bb_products_vanish(self):
        for n in (2, 3, 4):
            b_indices = valid_indices(n, Family.B)
            for i, left in enumerate(b_indices):
                for right in b_indices[i:]:
                    assert basis_product(n, left, right).is_zero(), (n, left, right)

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            product(unit(2), unit(3))


class TestClosedForm:
    def test_examples(self):
        assert delta_star_closed_form(2, 1, 0) == STPoly.monomial(1, 0, Fraction(2, 3))
        assert delta_star_closed_form(3, 2, 0) == STPoly({
            (2, 0): PiScalar(Fraction(1, 8), 1), (0, 1): PiScalar(Fraction(-1, 12), 1)})
        for n in (2, 3, 4, 5):
            assert delta_star_closed_form(n, 2, 1) == STPoly.monomial(0, 1, PiScalar(Fraction(1, n), 1))

    def test_reproduces_basis_elements(self):
        for n in range(2, 6):
            for idx in valid_indices(n, Family.DELTA):
                got = eval_poly(delta_star_closed_form(n, idx.k, idx.q), unit(n))
                assert got == basis_element(n, idx), (n, idx)


class TestRelations:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_all_relations_pass(self, n):
        for check in verify_relations(n):
            assert check.passed, (n, check.name, check.detail)

    def test_pn_value_n2(self):
        got = eval_poly(p_poly(2), unit(2))
        assert got == element(2, {D(2, 0): PiScalar(4, -1)})

    def test_pn_vbar_cancellation_n2(self):
        # t^2 v - s v = (2/pi - 2/pi) Delta*_{3,1} = 0
        t2v = eval_poly(STPoly.monomial(2, 0), vbar(2))
        sv = eval_poly(STPoly.monomial(0, 1), vbar(2))
        assert t2v == sv == element(2, {D(3, 1): PiScalar(2, -1)})
        assert eval_poly(p_poly(2), vbar(2)).is_zero()


class TestGradedDimension:
    @pytest.mark.parametrize("n", range(2, 25))
    def test_rank_equals_census(self, n):
        counts = census(n)
        for degree in range(2 * n):
            assert monomial_rank(n, degree) == counts.per_degree[degree], (n, degree)


class TestModuleRecurrence:
    def test_n2_sequences(self):
        cs, ds = module_recurrence(2)
        assert cs == [PiScalar(1), PiScalar(Fraction(4, 3), -1), PiScalar(0)]
        assert ds == [PiScalar(0), PiScalar(Fraction(4, 3), -1), PiScalar(4, -1)]

    def test_ratio_one_to_n_minus_one(self):
        for n in range(2, 8):
            cs, ds = module_recurrence(n)
            assert ds[n - 1] == (n - 1) * cs[n - 1]

    @pytest.mark.parametrize("n", range(2, 16))
    def test_closed_forms_hold(self, n):
        module_recurrence(n)  # raises AlgebraConsistencyError on mismatch


class TestDeltaPairing:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_all_valid_indices(self, n):
        for idx in valid_indices(n, Family.DELTA):
            assert verify_delta_pairing(n, idx.k, idx.q), (n, idx)

    def test_examples(self):
        assert verify_delta_pairing(2, 2, 1)
        assert verify_delta_pairing(3, 3, 1)


class TestElementBasics:
    def test_text_rendering(self):
        x = element(2, {D(1, 0): Fraction(1, 2), N(1, 0): -1})
        assert x.text() == "1/2 * Delta_{1,0} - N_{1,0}"
        assert element(2, {}).text() == "0"

    def test_text_negative_lead_and_two_term_coefficient(self):
        two = PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)
        x = element(3, {D(1, 0): PiScalar(Fraction(-4, 9), -1), D(2, 0): -1, D(2, 1): two, N(2, 0): 1})
        assert x.text() == ("-(4/9 * pi^-1) * Delta_{1,0} - Delta_{2,0}"
                            " - (2/3 * pi^-1 - 5 * pi^2) * Delta_{2,1} + N_{2,0}")
        assert element(2, {N(1, 0): PiScalar(-1)}).text() == "-N_{1,0}"

    def test_homogeneous_part(self):
        x = unit(2) + tbar(2)
        assert x.homogeneous_part(0) == unit(2)
        assert x.homogeneous_part(1) == tbar(2)

    def test_invalid_coordinate_rejected(self):
        with pytest.raises(Exception):
            element(2, {AreaIndex(Family.B, 1, 0): 1})
        with pytest.raises(Exception):
            element(2, {D(9, 9): 1})
