"""Exact scalar arithmetic: ring laws, ball volumes, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ukin.exactnum import (
    PI,
    NonMonomialDivisorError,
    PiScalar,
    add_terms,
    ball_volume,
    binomial,
    join_signed,
    split_sign,
)

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

    def test_split_sign_follows_lowest_pi_exponent(self):
        x = PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)
        assert split_sign(x) == (-1, -x)
        assert split_sign(-x) == (1, -x)
        assert split_sign(PiScalar(3, 1)) == (1, PiScalar(3, 1))
