"""Polynomials in the commuting symbols s and t, plus the classical families.

The symbol t has degree 1 and s has degree 2, so the monomial t^a s^b is
homogeneous of degree a + 2b.  Coefficients are PiScalar so that pi-weighted
polynomials (as produced by the dual-basis closed form) live in the same type
as the purely rational families below.

The three families carried here are the Taylor coefficients of

    log(1 + t x + s x^2)      -> f_k,
    1 / (1 + t x + s x^2)     -> p_k,
    -1 / (1 + t x + s x^2)^2  -> q_k,

the polynomials in the relations of the dual algebra; each is a binomial
closed form over its s-exponent.  The identities that check
them and the dual-basis closed form (the f/p/q relation, unit-ball values of
t,s,u monomials, a binomial identity and its telescoping certificate) live
in ukin.verify.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .exactnum import (
    ZERO,
    PiScalar,
    add_terms,
    as_piscalar,
    binomial,
    join_signed,
    split_sign,
)

# Monomial key: (t-exponent, s-exponent).
Monomial = tuple[int, int]

ScalarLike = Union[PiScalar, int, Fraction]


class STPoly:
    """Sparse polynomial in s and t with PiScalar coefficients.

    Immutable; zero coefficients are never stored.  Terms print in ascending
    total degree, ties broken by ascending s-exponent, which fixes a canonical
    text form.
    """

    __slots__ = ("_terms",)

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

    def degrees(self) -> set[int]:
        """Set of total degrees a + 2b present in the support."""
        return {a + 2 * b for a, b in self._terms}

    def homogeneous_component(self, degree: int) -> "STPoly":
        return STPoly({m: c for m, c in self._terms.items() if m[0] + 2 * m[1] == degree})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, STPoly):
            return self._terms == other._terms
        return NotImplemented

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "STPoly") -> "STPoly":
        if not isinstance(other, STPoly):
            return NotImplemented
        out = STPoly.__new__(STPoly)
        out._terms = add_terms(dict(self._terms), other._terms.items())
        return out

    def __neg__(self) -> "STPoly":
        out = STPoly.__new__(STPoly)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: "STPoly") -> "STPoly":
        if not isinstance(other, STPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "STPoly | ScalarLike") -> "STPoly":
        if isinstance(other, (int, Fraction, PiScalar)):
            coeff = as_piscalar(other)
            if not coeff:
                return STPoly()
            out = STPoly.__new__(STPoly)
            out._terms = {m: c * coeff for m, c in self._terms.items()}
            return out
        if not isinstance(other, STPoly):
            return NotImplemented
        out = STPoly.__new__(STPoly)
        out._terms = add_terms({}, (((a1 + a2, b1 + b2), c1 * c2)
                                    for (a1, b1), c1 in self._terms.items()
                                    for (a2, b2), c2 in other._terms.items()))
        return out

    __rmul__ = __mul__

    # -- rendering ------------------------------------------------------------

    def text(self) -> str:
        """E.g. 't^3 - 2*s*t'; pi-carrying coefficients are parenthesized."""
        return join_signed(_term_text(a, b, coeff) for (a, b), coeff in self.terms())

    def latex(self) -> str:
        return join_signed(_term_latex(a, b, coeff) for (a, b), coeff in self.terms())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"STPoly({self.text()!r})"


def _vars_text(a: int, b: int) -> list[str]:
    out = []
    if b:
        out.append("s" if b == 1 else f"s^{b}")
    if a:
        out.append("t" if a == 1 else f"t^{a}")
    return out


def _term_text(a: int, b: int, coeff: PiScalar) -> tuple[int, str]:
    sign, mag = split_sign(coeff)
    variables = _vars_text(a, b)
    if not variables:
        return sign, mag.text() if mag.is_monomial() else f"({mag.text()})"
    if mag == PiScalar(1):
        return sign, "*".join(variables)
    exp, frac = mag.monomial() if mag.is_monomial() else (None, None)
    if exp == 0:
        return sign, "*".join([str(frac), *variables])
    return sign, "*".join([f"({mag.text()})", *variables])


def _term_latex(a: int, b: int, coeff: PiScalar) -> tuple[int, str]:
    sign, mag = split_sign(coeff)
    variables = ""
    if b:
        variables += "s" if b == 1 else f"s^{{{b}}}"
    if a:
        variables += "t" if a == 1 else f"t^{{{a}}}"
    if not variables:
        return sign, mag.latex() if mag.is_monomial() else f"\\left({mag.latex()}\\right)"
    if mag == PiScalar(1):
        return sign, variables
    body = mag.latex() if mag.is_monomial() else f"\\left({mag.latex()}\\right)"
    return sign, f"{body}{variables}"


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------

def p_poly(k: int) -> STPoly:
    """Coefficient of x^k in 1 / (1 + t x + s x^2).

    Closed form: p_k = (-1)^k * sum_i (-1)^i C(k-i, i) s^i t^(k-2i).  The
    geometric-series recurrence p_k = -t p_{k-1} - s p_{k-2} produces the
    same polynomial and is kept as a test oracle.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    sign = -1 if k % 2 else 1
    return STPoly({
        (k - 2 * i, i): Fraction(sign * (-1 if i % 2 else 1) * binomial(k - i, i))
        for i in range(k // 2 + 1)
    })


def q_poly(k: int) -> STPoly:
    """Coefficient of x^k in -1 / (1 + t x + s x^2)^2.

    Closed form: q_k = (-1)^(k+1) * sum_i (-1)^i (i+1) C(k+1-i, i+1) s^i t^(k-2i);
    equals minus the Cauchy square of the p-series.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    sign = 1 if k % 2 else -1
    return STPoly({
        (k - 2 * i, i): Fraction(sign * (-1 if i % 2 else 1) * (i + 1) * binomial(k + 1 - i, i + 1))
        for i in range(k // 2 + 1)
    })


def fu_poly(k: int) -> STPoly:
    """Coefficient of x^k in log(1 + t x + s x^2).

    Closed form: f_k = sum_j (-1)^(k-j+1) C(k-j, j)/(k-j) s^j t^(k-2j), the
    x^k terms of sum_m (-1)^(m+1) (t x + s x^2)^m / m at m = k - j; f_0 = 0.
    It equals (t p_{k-1} + 2 s p_{k-2}) / k (differentiate the log series),
    which is kept as a test oracle.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return STPoly()
    return STPoly({
        (k - 2 * j, j): Fraction((1 if (k - j) % 2 else -1) * binomial(k - j, j), k - j)
        for j in range(k // 2 + 1)
    })
