"""Exact scalars: arbitrary-precision rationals and Laurent polynomials in pi.

Every coefficient this package ever produces is a finite sum of terms
(p/q) * pi^j with rational p/q and integer j.  pi is kept as a formal symbol,
so all arithmetic happens in Q[pi, pi^-1] and results are reproducible bit
for bit; no floating point enters anywhere.

Combination is the one sparse linear combination of the package: the
normalized term map with its sum, negation, difference, scaling, equality
and printing.  PiScalar (terms keyed by pi-exponent), stpoly.STPoly (keyed
by s,t-monomial) and dualalgebra.AreaDualElement (keyed by Delta/N index)
are its kinds and add only their products and renderers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, Union

#: Rational scalars are stdlib fractions: arbitrary precision, always stored
#: reduced, denominator positive.
Rational = Fraction

RationalLike = Union[int, Fraction]


def add_terms(into: dict, items: Iterable[tuple]) -> dict:
    """Add (key, coeff) pairs into a sparse dict, dropping keys whose sum is zero.

    The one accumulator behind every sparse coefficient map in the package;
    returns `into`.
    """
    for key, coeff in items:
        total = into.get(key)
        total = coeff if total is None else total + coeff
        if total:
            into[key] = total
        else:
            into.pop(key, None)
    return into


def join_signed(terms: Iterable[tuple[int, str]]) -> str:
    """Join (sign, body) pairs as 'a - b + c'; no pairs give '0'."""
    parts: list[str] = []
    for sign, body in terms:
        if parts:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
        else:
            parts.append(body if sign > 0 else f"-{body}")
    return " ".join(parts) or "0"


class NonMonomialDivisorError(ArithmeticError):
    """A scalar read as one pi-term is zero or has several.

    PiScalar.monomial() raises it, and so does the public division, which
    divides only by a single term r * pi^j.  No code in this package divides
    a PiScalar; it reads ball volumes as single terms through monomial(), and
    anything else indicates a bug in the caller, so this is raised instead of
    attempting a rational-function field.
    """


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Combination:
    """A finite linear combination: a sparse map from keys to coefficients.

    Immutable and normalized: zero coefficients are never stored, so equality
    is term-by-term comparison of the mapping.  A subclass supplies two
    hooks: _operand, which takes the other side of +, - and == to a
    combination of its own kind (or None when it is foreign), and _like,
    which wraps normalized terms as one of its own kind.
    """

    __slots__ = ("_terms",)

    #: Whether _operand checks more than the class, so that __add__ may not
    #: skip it for two instances of one class (AreaDualElement checks n).
    _checks_operands = False

    def _operand(self, other: object) -> "Combination | None":
        return other if isinstance(other, self.__class__) else None

    def _like(self, terms: dict) -> "Combination":
        out = self.__class__.__new__(self.__class__)
        out._terms = terms
        return out

    def _scaled(self, coeff) -> "Combination":
        """Every coefficient times one coefficient of the same type."""
        return self._like({key: c * coeff for key, c in self._terms.items()} if coeff else {})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        other = self._operand(other)
        return NotImplemented if other is None else self._terms == other._terms

    def __add__(self, other: object) -> "Combination":
        if other.__class__ is not self.__class__ or self._checks_operands:
            other = self._operand(other)
            if other is None:
                return NotImplemented
        return self._like(add_terms(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Combination":
        return self._like({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: object) -> "Combination":
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other: object) -> "Combination":
        other = self._operand(other)
        return NotImplemented if other is None else other + (-self)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.text()!r})"


class PiScalar(Combination):
    """Element of Q[pi, pi^-1]: a Laurent polynomial in a formal pi.

    A combination of pi-exponents with Fraction coefficients; an int or a
    Fraction operand is the constant scalar.
    """

    __slots__ = ()

    def __init__(self, value: RationalLike = 0, pi_exp: int = 0):
        coeff = _as_fraction(value)
        self._terms: dict[int, Fraction] = {pi_exp: coeff} if coeff else {}

    @classmethod
    def from_terms(cls, items: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]]) -> "PiScalar":
        """Build from (pi_exp, coefficient) pairs, merging and dropping zeros."""
        if isinstance(items, Mapping):
            items = items.items()
        out = cls.__new__(cls)
        out._terms = add_terms({}, ((exp, _as_fraction(coeff)) for exp, coeff in items))
        return out

    def _operand(self, other: object) -> "PiScalar | None":
        if isinstance(other, PiScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PiScalar(other)
        return None

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Terms as (pi_exp, coefficient), sorted by ascending pi-exponent."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, pi_exp: int) -> Fraction:
        return self._terms.get(pi_exp, _ZERO_FRACTION)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def monomial(self) -> tuple[int, Fraction]:
        """The single (pi_exp, coefficient) term of a monomial scalar."""
        if len(self._terms) != 1:
            raise NonMonomialDivisorError(f"not a monomial: {self}")
        return next(iter(self._terms.items()))

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "PiScalar | RationalLike") -> "PiScalar":
        if isinstance(other, (int, Fraction)):
            return self._scaled(_as_fraction(other))
        if not isinstance(other, PiScalar):
            return NotImplemented
        # Built in place, not through _like: the table products run on this.
        out = PiScalar.__new__(PiScalar)
        out._terms = add_terms({}, ((e1 + e2, c1 * c2)
                                    for e1, c1 in self._terms.items()
                                    for e2, c2 in other._terms.items()))
        return out

    __rmul__ = __mul__

    def div_by_monomial(self, divisor: "PiScalar") -> "PiScalar":
        """Exact division by a one-term scalar.

        The quotient q satisfies q * divisor == self exactly.  Raises
        NonMonomialDivisorError if the divisor is zero or has several terms.
        """
        if not isinstance(divisor, PiScalar):
            divisor = PiScalar(divisor)
        exp, coeff = divisor.monomial()
        return self._like({e - exp: c / coeff for e, c in self._terms.items()})

    def __truediv__(self, other: "PiScalar | RationalLike") -> "PiScalar":
        other = self._operand(other)
        return NotImplemented if other is None else self.div_by_monomial(other)

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        """Plain rendering such as '8/9 * pi^-1 + 2 * pi'; zero is '0'."""
        return join_signed((coeff.numerator, _term_text(abs(coeff), exp)) for exp, coeff in self.terms())

    def latex(self) -> str:
        """LaTeX rendering; monomials collapse pi into the fraction bar."""
        return join_signed((coeff.numerator, _term_latex(abs(coeff), exp)) for exp, coeff in self.terms())

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"num": str(coeff.numerator), "den": str(coeff.denominator), "pi": exp}
                for exp, coeff in self.terms()
            ]
        }


_ZERO_FRACTION = Fraction(0)

ZERO = PiScalar()
ONE = PiScalar(1)
PI = PiScalar(1, 1)


def as_piscalar(value: PiScalar | RationalLike) -> PiScalar:
    """A PiScalar as is; an int or Fraction as the constant PiScalar."""
    return value if isinstance(value, PiScalar) else PiScalar(value)


def split_sign(coeff: PiScalar) -> tuple[int, PiScalar]:
    """(sign, magnitude) of a nonzero scalar, signed by its lowest-pi-exponent term."""
    _, lead = coeff.terms()[0]
    return (1, coeff) if lead > 0 else (-1, -coeff)


def scaled_term(coeff: PiScalar, symbol: str, sep: str, latex: bool) -> tuple[int, str]:
    """(sign, body) of the nonzero coeff times symbol, for join_signed.

    The empty symbol gives the scalar alone.  Before a symbol a unit
    magnitude is dropped; a magnitude of several terms is bracketed, and in
    text so is one whose rendering has a space, such as '2 * pi'.
    """
    sign, magnitude = split_sign(coeff)
    body = magnitude.latex() if latex else magnitude.text()
    if symbol and body == "1":
        return sign, symbol
    if not magnitude.is_monomial():
        body = f"\\left({body}\\right)" if latex else f"({body})"
    elif symbol and not latex and " " in body:
        body = f"({body})"
    return sign, f"{body}{sep}{symbol}" if symbol else body


def _term_text(coeff: Fraction, exp: int) -> str:
    if exp == 0:
        return str(coeff)
    pi = "pi" if exp == 1 else f"pi^{exp}"
    return f"{coeff} * {pi}"


def _term_latex(coeff: Fraction, exp: int) -> str:
    num_parts: list[str] = []
    den_parts: list[str] = []
    if coeff.numerator != 1 or exp <= 0:
        num_parts.append(str(coeff.numerator))
    if exp > 0:
        num_parts.append("\\pi" if exp == 1 else f"\\pi^{{{exp}}}")
    if coeff.denominator != 1:
        den_parts.append(str(coeff.denominator))
    if exp < 0:
        den_parts.append("\\pi" if exp == -1 else f"\\pi^{{{-exp}}}")
    num = "".join(num_parts) or "1"
    if not den_parts:
        return num
    return f"\\frac{{{num}}}{{{''.join(den_parts)}}}"


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the usual zero outside 0 <= k <= n.

    k < 0 yields 0 before n is validated: telescoping-certificate boundary
    terms evaluate C(negative, negative) and must see the zero convention.
    """
    if k < 0:
        return 0
    if n < 0:
        raise ValueError(f"binomial requires n >= 0 when k >= 0, got n={n}, k={k}")
    if k > n:
        return 0
    return comb(n, k)


def ball_volume(m: int) -> PiScalar:
    """Volume of the m-dimensional euclidean unit ball, as a pi-monomial.

    omega_{2j} = pi^j / j! and omega_{2j+1} = 2^{2j+1} j! pi^j / (2j+1)!,
    equivalently omega_m = omega_{m-2} * 2*pi / m.
    """
    if m < 0:
        raise ValueError(f"ball_volume requires m >= 0, got {m}")
    j, odd = divmod(m, 2)
    if odd:
        return PiScalar(Fraction(2 ** (2 * j + 1) * factorial(j), factorial(2 * j + 1)), j)
    return PiScalar(Fraction(1, factorial(j)), j)
