"""Polynomials in the commuting symbols s and t, plus the classical families.

The symbol t has degree 1 and s has degree 2, so the monomial t^a s^b is
homogeneous of degree a + 2b.  STPoly is the exactnum.Combination keyed by
(t, s) exponents, with PiScalar coefficients so that pi-weighted polynomials
(as produced by the dual-basis closed form) live in the same type as the
purely rational families below; it adds only the polynomial product and its
renderers to the core's linear structure.

The three families carried here are the Taylor coefficients of

    log(1 + t x + s x^2)      -> f_k,
    1 / (1 + t x + s x^2)     -> p_k,
    -1 / (1 + t x + s x^2)^2  -> q_k,

the polynomials in the relations of the dual algebra; each is a binomial
closed form over its s-exponent, given as a rational coefficient list
(p_coefficients, q_coefficients, fu_coefficients) that p_poly, q_poly and
fu_poly wrap as polynomials.  The identities that check
them and the dual-basis closed form (the f/p/q relation, unit-ball values of
t,s,u monomials, a binomial identity and its telescoping certificate) live
in ukin.verify.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .exactnum import (
    ZERO,
    Combination,
    PiScalar,
    add_terms,
    as_piscalar,
    binomial,
    join_signed,
    scaled_term,
)

# Monomial key: (t-exponent, s-exponent).
Monomial = tuple[int, int]

ScalarLike = Union[PiScalar, int, Fraction]


class STPoly(Combination):
    """Sparse polynomial in s and t: a combination of (t, s) exponents with
    PiScalar coefficients.

    Terms print in ascending total degree, ties broken by ascending
    s-exponent, which fixes a canonical text form.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | Iterable[tuple[Monomial, ScalarLike]] = ()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        self._terms = add_terms({}, ((mono, as_piscalar(coeff)) for mono, coeff in terms))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value: ScalarLike) -> "STPoly":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, t_exp: int, s_exp: int, coeff: ScalarLike = 1) -> "STPoly":
        if t_exp < 0 or s_exp < 0:
            raise ValueError("negative exponent")
        return cls({(t_exp, s_exp): coeff})

    @classmethod
    def var_t(cls) -> "STPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_s(cls) -> "STPoly":
        return cls({(0, 1): 1})

    # -- inspection -----------------------------------------------------------

    def terms(self) -> tuple[tuple[Monomial, PiScalar], ...]:
        return tuple(sorted(self._terms.items(), key=lambda kv: (kv[0][0] + 2 * kv[0][1], kv[0][1])))

    def coefficient(self, t_exp: int, s_exp: int) -> PiScalar:
        return self._terms.get((t_exp, s_exp), ZERO)

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other: "STPoly | ScalarLike") -> "STPoly":
        if isinstance(other, (int, Fraction, PiScalar)):
            return self._scaled(as_piscalar(other))
        if not isinstance(other, STPoly):
            return NotImplemented
        return self._like(add_terms({}, (((a1 + a2, b1 + b2), c1 * c2)
                                         for (a1, b1), c1 in self._terms.items()
                                         for (a2, b2), c2 in other._terms.items())))

    __rmul__ = __mul__

    # -- rendering ------------------------------------------------------------

    def text(self) -> str:
        """E.g. 't^3 - 2*s*t'; pi-carrying coefficients are parenthesized."""
        return join_signed(scaled_term(coeff, _vars(a, b, False), "*", False) for (a, b), coeff in self.terms())

    def latex(self) -> str:
        return join_signed(scaled_term(coeff, _vars(a, b, True), "", True) for (a, b), coeff in self.terms())


def _vars(a: int, b: int, latex: bool) -> str:
    # s^b t^a: a factor of exponent 0 is dropped, one of exponent 1 is bare.
    factors = [name if exp == 1 else f"{name}^{{{exp}}}" if latex else f"{name}^{exp}"
               for name, exp in (("s", b), ("t", a)) if exp]
    return ("" if latex else "*").join(factors)


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------

# Each family member of degree k is read as a coefficient list c, with c[i]
# the coefficient of t^(k-2i) s^i for i = 0..floor(k/2); the checks in
# ukin.verify compare these lists, and p_poly, q_poly and fu_poly wrap them.

def _homogeneous(k: int, coeffs: list) -> STPoly:
    return STPoly({(k - 2 * i, i): c for i, c in enumerate(coeffs)})


def p_coefficients(k: int) -> list[int]:
    """Coefficient list of p_k, the coefficient of x^k in 1 / (1 + t x + s x^2).

    Closed form: p_k = (-1)^k * sum_i (-1)^i C(k-i, i) s^i t^(k-2i).  The
    geometric-series recurrence p_k = -t p_{k-1} - s p_{k-2} produces the
    same polynomial and is kept as a test oracle.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    sign = -1 if k % 2 else 1
    return [sign * (-1 if i % 2 else 1) * binomial(k - i, i) for i in range(k // 2 + 1)]


def q_coefficients(k: int) -> list[int]:
    """Coefficient list of q_k, the coefficient of x^k in -1 / (1 + t x + s x^2)^2.

    Closed form: q_k = (-1)^(k+1) * sum_i (-1)^i (i+1) C(k+1-i, i+1) s^i t^(k-2i);
    equals minus the Cauchy square of the p-series.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    sign = 1 if k % 2 else -1
    return [sign * (-1 if i % 2 else 1) * (i + 1) * binomial(k + 1 - i, i + 1) for i in range(k // 2 + 1)]


def fu_coefficients(k: int) -> list[Fraction]:
    """Coefficient list of f_k, the coefficient of x^k in log(1 + t x + s x^2).

    Closed form: f_k = sum_j (-1)^(k-j+1) C(k-j, j)/(k-j) s^j t^(k-2j), the
    x^k terms of sum_m (-1)^(m+1) (t x + s x^2)^m / m at m = k - j; f_0 = 0.
    It equals (t p_{k-1} + 2 s p_{k-2}) / k (differentiate the log series),
    which is kept as a test oracle.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return [Fraction(0)]
    return [Fraction((1 if (k - j) % 2 else -1) * binomial(k - j, j), k - j) for j in range(k // 2 + 1)]


def p_poly(k: int) -> STPoly:
    """p_k as a polynomial: the closed form of p_coefficients."""
    return _homogeneous(k, p_coefficients(k))


def q_poly(k: int) -> STPoly:
    """q_k as a polynomial: the closed form of q_coefficients."""
    return _homogeneous(k, q_coefficients(k))


def fu_poly(k: int) -> STPoly:
    """f_k as a polynomial: the closed form of fu_coefficients."""
    return _homogeneous(k, fu_coefficients(k))
