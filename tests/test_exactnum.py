"""Exact scalar arithmetic: ring laws, ball volumes, rendering, and the
linear-combination core shared with STPoly and AreaDualElement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ukin.areabasis import dual_basis_indices
from ukin.dualalgebra import AreaDualElement
from ukin.exactnum import (
    PI,
    Combination,
    NonMonomialDivisorError,
    PiScalar,
    add_terms,
    ball_volume,
    binomial,
    join_signed,
    scaled_term,
    split_sign,
)
from ukin.stpoly import STPoly

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)
scalars = st.builds(
    PiScalar.from_terms,
    st.dictionaries(st.integers(min_value=-4, max_value=4), rationals, max_size=4),
)
monomials = st.builds(
    PiScalar,
    rationals.filter(lambda f: f != 0),
    st.integers(min_value=-4, max_value=4),
)


class TestPiScalarBasics:
    def test_additive_closure(self):
        half_inv = PiScalar(Fraction(1, 2), -1)
        assert half_inv + half_inv == PiScalar(1, -1)

    def test_exponent_cancellation(self):
        assert PiScalar(Fraction(2, 3), 1) * PiScalar(Fraction(4, 3), -1) == PiScalar(Fraction(8, 9))

    def test_additive_inverse(self):
        x = PiScalar(Fraction(7, 5), 3)
        assert (x + (-x)) == PiScalar(0)
        assert not (x - x)

    def test_zero_terms_never_stored(self):
        x = PiScalar.from_terms([(1, Fraction(2)), (1, Fraction(-2))])
        assert x.terms() == ()
        assert x == PiScalar(0)

    def test_mixed_int_fraction_operands(self):
        assert 2 * PI == PiScalar(2, 1)
        assert PI * Fraction(1, 2) == PiScalar(Fraction(1, 2), 1)
        assert 1 + PiScalar(1) == PiScalar(2)


class TestDivision:
    def test_monomial_quotient(self):
        assert PiScalar(Fraction(4, 3), 1) / PI == PiScalar(Fraction(4, 3))

    def test_divide_sum_by_rational(self):
        a = PiScalar(Fraction(8, 9), -1) + PiScalar(2, 1)
        expected = PiScalar(Fraction(8, 3), -1) + PiScalar(6, 1)
        assert a / PiScalar(Fraction(1, 3)) == expected

    def test_non_monomial_divisor_rejected(self):
        with pytest.raises(NonMonomialDivisorError):
            PI / (PI + PiScalar(1))

    def test_zero_divisor_rejected(self):
        with pytest.raises(NonMonomialDivisorError):
            PI / PiScalar(0)


class TestRingAxioms:
    @given(scalars, scalars)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars, scalars, scalars)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(scalars, scalars, scalars)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars, monomials)
    def test_division_inverts_multiplication(self, a, b):
        assert (a * b).div_by_monomial(b) == a


class TestBallVolume:
    @pytest.mark.parametrize("m, expected", [
        (0, PiScalar(1)),
        (1, PiScalar(2)),
        (2, PI),
        (3, PiScalar(Fraction(4, 3), 1)),
        (4, PiScalar(Fraction(1, 2), 2)),
        (5, PiScalar(Fraction(8, 15), 2)),
    ])
    def test_small_values(self, m, expected):
        assert ball_volume(m) == expected

    def test_two_step_recurrence(self):
        for m in range(2, 61):
            assert ball_volume(m) == ball_volume(m - 2) * PiScalar(Fraction(2, m), 1)

    def test_always_single_term(self):
        for m in range(0, 40):
            assert ball_volume(m).is_monomial()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ball_volume(-1)


class TestBinomial:
    @pytest.mark.parametrize("n, k, expected", [
        (4, 2, 6), (3, 5, 0), (0, 0, 1), (7, 0, 1), (7, 7, 1), (5, -1, 0),
    ])
    def test_values(self, n, k, expected):
        assert binomial(n, k) == expected

    def test_negative_k_before_validation(self):
        # boundary terms of the telescoping certificate rely on this
        assert binomial(-2, -1) == 0

    def test_negative_n_with_valid_k_rejected(self):
        with pytest.raises(ValueError):
            binomial(-2, 1)


class TestRendering:
    def test_text(self):
        x = PiScalar(Fraction(8, 9), -1) + PiScalar(2, 1)
        assert x.text() == "8/9 * pi^-1 + 2 * pi"
        assert PiScalar(0).text() == "0"
        assert (-PI).text() == "-1 * pi"
        assert (PiScalar(2) - PI).text() == "2 - 1 * pi"

    def test_json_sorted_by_exponent(self):
        x = PiScalar(2, 1) + PiScalar(Fraction(8, 9), -1)
        assert x.to_json_dict() == {
            "terms": [
                {"num": "8", "den": "9", "pi": -1},
                {"num": "2", "den": "1", "pi": 1},
            ]
        }

    def test_latex_monomials(self):
        assert PiScalar(Fraction(8, 9), -1).latex() == "\\frac{8}{9\\pi}"
        assert PiScalar(Fraction(1, 8), 1).latex() == "\\frac{\\pi}{8}"
        assert PiScalar(Fraction(2, 3)).latex() == "\\frac{2}{3}"
        assert PiScalar(2, 1).latex() == "2\\pi"
        assert PiScalar(1, 1).latex() == "\\pi"
        assert PiScalar(1, -2).latex() == "\\frac{1}{\\pi^{2}}"

    def test_two_term_rendering(self):
        assert (PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)).text() == "-2/3 * pi^-1 + 5 * pi^2"
        assert (PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)).latex() == "-\\frac{2}{3\\pi} + 5\\pi^{2}"
        assert (PiScalar(Fraction(1, 2), -1) - PI).latex() == "\\frac{1}{2\\pi} - \\pi"


class TestSharedHelpers:
    def test_add_terms_merges_and_drops_zero_sums(self):
        acc = {1: Fraction(2), 2: Fraction(1)}
        out = add_terms(acc, [(1, Fraction(-2)), (3, Fraction(5)), (2, Fraction(1, 2)), (4, Fraction(0))])
        assert out is acc
        assert acc == {2: Fraction(3, 2), 3: Fraction(5)}

    def test_add_terms_on_piscalar_coefficients(self):
        acc = add_terms({}, [("x", PI), ("y", PiScalar(1)), ("x", -PI)])
        assert acc == {"y": PiScalar(1)}

    def test_join_signed(self):
        assert join_signed([]) == "0"
        assert join_signed([(1, "a")]) == "a"
        assert join_signed([(-1, "a"), (-1, "b"), (1, "c")]) == "-a - b + c"

    def test_scaled_term_drops_units_and_groups_sums(self):
        two = PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)
        assert scaled_term(PiScalar(-1), "x", "*", False) == (-1, "x")
        assert scaled_term(PiScalar(-1), "", "*", False) == (-1, "1")
        assert scaled_term(PiScalar(Fraction(3, 2)), "x", "*", False) == (1, "3/2*x")
        assert scaled_term(PiScalar(2, 1), "x", " * ", False) == (1, "(2 * pi) * x")
        assert scaled_term(PiScalar(2, 1), "", "*", False) == (1, "2 * pi")
        assert scaled_term(PiScalar(2, 1), "x", " ", True) == (1, "2\\pi x")
        assert scaled_term(two, "x", "*", False) == (-1, "(2/3 * pi^-1 - 5 * pi^2)*x")
        assert scaled_term(two, "", "", True) == (-1, "\\left(\\frac{2}{3\\pi} - 5\\pi^{2}\\right)")

    def test_split_sign_follows_lowest_pi_exponent(self):
        x = PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)
        assert split_sign(x) == (-1, -x)
        assert split_sign(-x) == (1, -x)
        assert split_sign(PiScalar(3, 1)) == (1, PiScalar(3, 1))


# The three kinds built on the Combination core, each as a strategy.
KINDS = {
    "PiScalar": scalars,
    "STPoly": st.builds(STPoly, st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), scalars, max_size=4)),
    "AreaDualElement": st.builds(lambda coords: AreaDualElement(3, coords), st.dictionaries(
        st.sampled_from(dual_basis_indices(3)), scalars, max_size=4)),
}

# A coefficient of each kind's terms, for scaling.
COEFFICIENTS = {"PiScalar": rationals, "STPoly": scalars, "AreaDualElement": scalars}

# One nonzero element of each kind.
SAMPLES = {
    "PiScalar": PiScalar(Fraction(-2, 3), -1) + PI,
    "STPoly": STPoly({(1, 0): PI, (0, 1): Fraction(1, 2)}),
    "AreaDualElement": AreaDualElement(3, {idx: PiScalar(1, idx.k) for idx in dual_basis_indices(3)[:3]}),
}


def _normalized(x) -> bool:
    return all(x._terms.values())


class TestCombinationCore:
    """The contract every kind inherits from exactnum.Combination."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_negation_and_subtraction(self, kind, data):
        x, y = data.draw(KINDS[kind]), data.draw(KINDS[kind])
        zero = x + (-x)
        assert not zero and zero._terms == {} and zero == y * 0
        assert x - y == x + (-y)
        assert x - x == zero and -(-x) == x
        assert all(_normalized(z) for z in (x, -x, x + y, x - y))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=50)
    @given(data=st.data())
    def test_scaling(self, kind, data):
        x, coeff = data.draw(KINDS[kind]), data.draw(COEFFICIENTS[kind])
        for nought in (0, Fraction(0), coeff * 0):
            assert not x * nought and (x * nought)._terms == {}
        scaled = x * coeff
        assert _normalized(scaled)
        assert bool(scaled) == bool(x and coeff)
        assert coeff * x == scaled

    @pytest.mark.parametrize("kind", KINDS)
    def test_foreign_operand_raises_type_error(self, kind):
        x = SAMPLES[kind]
        foreign = [1.5, "x", object()] + [SAMPLES[other] for other in KINDS if other != kind]
        if kind != "PiScalar":
            foreign.append(1)
        for other in foreign:
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b + a, lambda a, b: b - a):
                with pytest.raises(TypeError):
                    op(x, other)
            assert x != other

    def test_dual_elements_of_different_n_never_mix(self):
        indices = dual_basis_indices(2)
        x = AreaDualElement(2, {indices[0]: 1})
        y = AreaDualElement(3, {indices[0]: 1})
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="mixed ambient dimensions"):
                op(x, y)
        assert x != y and AreaDualElement(2) != AreaDualElement(3)
        assert x == AreaDualElement(2, {indices[0]: 1})

    @pytest.mark.parametrize("cls", [PiScalar, STPoly, AreaDualElement])
    def test_only_the_core_defines_the_linear_structure(self, cls):
        assert issubclass(cls, Combination)
        for name in ("__bool__", "__neg__", "__sub__", "__str__"):
            assert name not in vars(cls), (cls.__name__, name)
            assert getattr(cls, name) is getattr(Combination, name)
