"""Polynomial families against independent series oracles.

The oracles below expand the generating functions directly over plain
dictionaries keyed by (t-exponent, s-exponent) with Fraction coefficients,
sharing no code with the closed forms they validate.
"""

from fractions import Fraction

import pytest

from ukin.exactnum import PiScalar
from ukin.stpoly import STPoly, fu_poly, p_poly, q_poly
from ukin.verify import (
    check_fpq_relation,
    combinat_identity,
    mustar_pairing,
    tsu_ball_value,
    tsu_ball_value_oracle,
    wz_certificate_check,
)

Poly = dict  # {(t_exp, s_exp): Fraction}


def _padd(a: Poly, b: Poly, factor: Fraction = Fraction(1)) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        acc = out.get(mono, Fraction(0)) + coeff * factor
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            mono = (a1 + a2, b1 + b2)
            acc = out.get(mono, Fraction(0)) + c1 * c2
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return out


def _series_pq_f(order: int):
    """Expand 1/(1+tx+sx^2), -1/(1+tx+sx^2)^2, log(1+tx+sx^2) to x^order.

    Returns three lists of plain-dict polynomials indexed by the x-power.
    Uses only the geometric series in u = t x + s x^2.
    """
    t = {(1, 0): Fraction(1)}
    s = {(0, 1): Fraction(1)}
    # u^m organized by x-degree: u_pows[m] maps x-degree -> Poly
    u_pows = [{0: {(0, 0): Fraction(1)}}]
    for m in range(1, order + 1):
        prev = u_pows[-1]
        nxt: dict[int, Poly] = {}
        for deg, poly in prev.items():
            for shift, var in ((1, t), (2, s)):
                if deg + shift > order:
                    continue
                nxt[deg + shift] = _padd(nxt.get(deg + shift, {}), _pmul(poly, var))
        u_pows.append(nxt)

    p = [dict() for _ in range(order + 1)]
    q = [dict() for _ in range(order + 1)]
    f = [dict() for _ in range(order + 1)]
    for m in range(0, order + 1):
        sign = Fraction(-1) ** m
        for deg, poly in u_pows[m].items():
            # 1/(1+u) = sum (-u)^m ; -1/(1+u)^2 = sum (-1)^(m+1) (m+1) u^m
            p[deg] = _padd(p[deg], poly, sign)
            q[deg] = _padd(q[deg], poly, -sign * (m + 1))
            if m >= 1:
                # log(1+u) = sum (-1)^(m+1) u^m / m
                f[deg] = _padd(f[deg], poly, -sign * Fraction(1, m))
    return p, q, f


def _as_plain(poly: STPoly) -> Poly:
    out = {}
    for (a, b), coeff in poly.terms():
        exp, frac = coeff.monomial()
        assert exp == 0, "purely rational family expected"
        out[(a, b)] = frac
    return out


SERIES_ORDER = 40
P_SERIES, Q_SERIES, F_SERIES = _series_pq_f(SERIES_ORDER)


class TestFamilies:
    @pytest.mark.parametrize("k, expected", [
        (0, {(0, 0): Fraction(1)}),
        (2, {(2, 0): Fraction(1), (0, 1): Fraction(-1)}),          # t^2 - s
        (3, {(3, 0): Fraction(-1), (1, 1): Fraction(2)}),          # -t^3 + 2st
    ])
    def test_p_small(self, k, expected):
        assert _as_plain(p_poly(k)) == expected

    @pytest.mark.parametrize("k, expected", [
        (0, {(0, 0): Fraction(-1)}),
        (1, {(1, 0): Fraction(2)}),
        (2, {(2, 0): Fraction(-3), (0, 1): Fraction(2)}),          # -3t^2 + 2s
    ])
    def test_q_small(self, k, expected):
        assert _as_plain(q_poly(k)) == expected

    @pytest.mark.parametrize("k, expected", [
        (1, {(1, 0): Fraction(1)}),
        (2, {(0, 1): Fraction(1), (2, 0): Fraction(-1, 2)}),       # s - t^2/2
        (3, {(3, 0): Fraction(1, 3), (1, 1): Fraction(-1)}),       # t^3/3 - st
    ])
    def test_f_small(self, k, expected):
        assert _as_plain(fu_poly(k)) == expected

    def test_f0_zero(self):
        assert not fu_poly(0)

    def test_f_matches_derivative_recurrence(self):
        # The definition fu_poly had before its closed form: k f_k = t p_{k-1} + 2 s p_{k-2}.
        t, s = STPoly.var_t(), STPoly.var_s()
        for k in range(1, 42):
            rhs = t * p_poly(k - 1)
            if k >= 2:
                rhs = rhs + 2 * (s * p_poly(k - 2))
            assert k * fu_poly(k) == rhs, f"f_{k}"

    def test_closed_forms_match_series(self):
        for k in range(SERIES_ORDER + 1):
            assert _as_plain(p_poly(k)) == P_SERIES[k], f"p_{k}"
            assert _as_plain(q_poly(k)) == Q_SERIES[k], f"q_{k}"
            assert _as_plain(fu_poly(k)) == F_SERIES[k], f"f_{k}"

    def test_q_is_cauchy_square_of_p(self):
        for k in range(SERIES_ORDER + 1):
            square: Poly = {}
            for i in range(k + 1):
                square = _padd(square, _pmul(P_SERIES[i], P_SERIES[k - i]))
            assert _padd({}, square, Fraction(-1)) == _as_plain(q_poly(k))


class TestFpqRelation:
    def test_k1_by_hand(self):
        # -(4s - t^2)(-1) + t(-t) = 4s - 2t^2 = 4 f_2
        assert check_fpq_relation(1)

    def test_k2_both_sides(self):
        t, s = STPoly.var_t(), STPoly.var_s()
        u = 4 * s - t * t
        lhs = -(u * q_poly(1)) + t * p_poly(2)
        assert lhs == STPoly({(3, 0): 3, (1, 1): -9})  # 3t^3 - 9st
        assert lhs == 9 * fu_poly(3)
        assert check_fpq_relation(2)

    def test_sweep(self):
        assert all(check_fpq_relation(k) for k in range(1, 41))


class TestBallValues:
    @pytest.mark.parametrize("n, i, j, expected", [
        (2, 0, 0, 6),
        (2, 0, 1, 2),
        (3, 1, 0, 6),
    ])
    def test_examples(self, n, i, j, expected):
        assert tsu_ball_value(n, i, j) == expected

    def test_closed_form_matches_expansion(self):
        for n in range(1, 9):
            for i in range(n + 1):
                for j in range(n - i + 1):
                    assert tsu_ball_value(n, i, j) == tsu_ball_value_oracle(n, i, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tsu_ball_value(2, 2, 1)


class TestMustarPairing:
    def test_examples(self):
        assert mustar_pairing(2, 2, 1, 0) == PiScalar(2, -1)
        assert mustar_pairing(2, 2, 1, 1) == PiScalar(2, -1)

    def test_direct_substitution(self):
        # n=3, k=2, q=0, j=1: omega_4 * 2! * 2! * C(1,1) / pi^4 = 2 / pi^2
        assert mustar_pairing(3, 2, 0, 1) == PiScalar(2, -2)

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            mustar_pairing(2, 2, 1, 2)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            mustar_pairing(2, 1, 1, 0)


class TestCombinatorialIdentity:
    @pytest.mark.parametrize("r, m", [(0, 5), (2, 1), (5, 0)])
    def test_examples(self, r, m):
        assert combinat_identity(r, m)

    def test_r2_m1_values(self):
        # LHS 2^2 C(3,2) = 12; RHS C(6,2) - C(3,1) = 15 - 3
        assert 2 ** 2 * 3 == 12 and 15 - 3 == 12
        assert combinat_identity(2, 1)

    def test_sweep(self):
        for r in range(26):
            for m in range(-(r // 2), 41 - r):
                assert combinat_identity(r, m), (r, m)

    def test_below_domain_rejected(self):
        with pytest.raises(ValueError):
            combinat_identity(2, -2)


class TestWzCertificate:
    @pytest.mark.parametrize("r, m, i", [(2, 1, 0), (3, 2, 1), (4, 0, 2)])
    def test_examples(self, r, m, i):
        assert wz_certificate_check(r, m, i)

    def test_termwise_sweep(self):
        for r in range(11):
            for m in range(-(r // 2), 21 - r):
                for i in range(r // 2 + 1):
                    assert wz_certificate_check(r, m, i), (r, m, i)


class TestRenderingAndArithmetic:
    def test_text_order_and_signs(self):
        # ascending total degree, ties by ascending s-exponent: t^3 before s*t
        poly = STPoly({(3, 0): 1, (1, 1): -2})
        assert poly.text() == "t^3 - 2*s*t"

    def test_text_examples(self):
        assert STPoly().text() == "0"
        assert STPoly.monomial(2, 0, PiScalar(Fraction(1, 8), 1)).text() == "(1/8 * pi)*t^2"
        assert (STPoly.monomial(0, 1) - STPoly.monomial(2, 0)).text() == "-t^2 + s"

    def test_latex(self):
        assert (STPoly.monomial(3, 0) - 2 * STPoly.monomial(1, 1)).latex() == "t^{3} - 2st"

    def test_latex_two_term_coefficients(self):
        two = PiScalar(Fraction(-2, 3), -1) + PiScalar(5, 2)
        poly = STPoly({(0, 0): two, (2, 0): -two, (1, 1): PiScalar(1, -1), (0, 2): two})
        assert poly.latex() == (
            "-\\left(\\frac{2}{3\\pi} - 5\\pi^{2}\\right)"
            " + \\left(\\frac{2}{3\\pi} - 5\\pi^{2}\\right)t^{2}"
            " + \\frac{1}{\\pi}st"
            " - \\left(\\frac{2}{3\\pi} - 5\\pi^{2}\\right)s^{2}")

    def test_homogeneous_components(self):
        poly = p_poly(4)
        assert poly.homogeneous_component(4) == poly
        assert not poly.homogeneous_component(3)

    def test_grading(self):
        assert STPoly.monomial(3, 2).degrees() == {7}
