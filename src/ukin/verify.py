"""Self-verification: the check code and the suites that run it.

The closed form of Delta* and the two-route products, the relations, the
module recurrence, the identity sweeps and the algebra laws all live here.
No engine module imports this one, and the command line imports it only for
the verify and identities verbs.  Each suite returns a list of CheckResult
records for CLI reporting and CI gating.  All checks are exact; a failure
carries the offending values.  The series oracles below (geometric, log, and
Cauchy-square expansions) are deliberately independent of the closed forms
they validate.

The checks compute on rationals.  The f/p/q families are compared as the
coefficient lists of ukin.stpoly, and the telescoping certificate on
integers.  The dual-algebra routes work in the rescaled basis
X'_{k,q} = pi^(-floor(k/2)) X*_{k,q} of ukin.dualalgebra, where sbar and tbar
act with rational coefficients: a route sums rational (t, s)-coefficients
times the image columns of _rational_image, so it shares only the raising
rules with the engine.  Each route carries one pi-exponent, which is checked
against the pi-grading where the route starts: a closed form of Delta*_{k,q}
must carry pi^floor(k/2), and a basis product of degrees k, l is read as
rational X' coordinates only if its coordinate at degree r is one
pi-monomial of exponent floor(k/2) + floor(l/2) - floor(r/2).  A public
function builds its PiScalar, STPoly or AreaDualElement result only at its
return.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Mapping, NamedTuple

from .areabasis import (
    AreaIndex,
    Coordinates,
    Family,
    InvalidIndexError,
    census,
    dual_basis_indices,
    require_valid,
    valid_indices,
)
from .dualalgebra import (
    AreaDualElement,
    _rational_image,
    basis_product,
    monomial_rank,
)
from .exactnum import ONE, PiScalar, Rational, add_terms, ball_volume, binomial
from .kinematics import BASIS_B_GAMMA, BASIS_DELTA_N, full_table
from .stpoly import Monomial, STPoly, fu_coefficients, p_coefficients, q_coefficients


class AlgebraConsistencyError(RuntimeError):
    """An internal cross-check against a closed form failed."""


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _sweep(name: str, failures: list[str]) -> CheckResult:
    return CheckResult(name, not failures, "; ".join(failures[:8]))


def _zero_check(name: str, n: int, remainder: Coordinates) -> CheckResult:
    # remainder: X' coordinates at pi^0, shown on X* when nonzero.
    if not remainder:
        return CheckResult(name, True)
    return CheckResult(name, False, f"nonzero remainder: {_element(n, 0, remainder).text()}")


# ---------------------------------------------------------------------------
# Identities of the s,t polynomial families and unit-ball values
# ---------------------------------------------------------------------------

# A homogeneous polynomial of degree k is a list c with c[b] the coefficient
# of t^(k-2b) s^b, the form of stpoly.p_coefficients and of the series below.

def _add_shifted(into: list, coeffs: list, shift: int, weight: int = 1) -> None:
    # into += weight * s^shift * coeffs, in the list form above.
    for b, c in enumerate(coeffs):
        into[b + shift] += weight * c


def _monomials(k: int, coeffs: list) -> dict[Monomial, Rational]:
    # The list form of degree k by (t, s)-exponents, without its zeros.
    return {(k - 2 * b, b): c for b, c in enumerate(coeffs) if c}


def check_fpq_relation(k: int) -> bool:
    """Exact check of -(4s - t^2) q_{k-1} + t p_k == (k+1)^2 f_{k+1}, on coefficient lists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # Degree k+1: t p_k and t^2 q_{k-1} keep their s-exponents, s q_{k-1} shifts by one.
    lhs = [0] * ((k + 1) // 2 + 1)
    q = q_coefficients(k - 1)
    _add_shifted(lhs, p_coefficients(k), 0)
    _add_shifted(lhs, q, 1, -4)
    _add_shifted(lhs, q, 0)
    square = (k + 1) ** 2
    return lhs == [square * c for c in fu_coefficients(k + 1)]


def tsu_ball_value(n: int, i: int, j: int) -> Rational:
    """Value of the monomial t^(2n-2i-2j) s^i u^j on the unit ball of C^n.

    Here u = 4s - t^2.  Closed form C(2j,j) C(2n-2i-2j, n-i-j) / C(n-i, j);
    agrees with expanding u^j and evaluating t^(2n-2m) s^m at C(2n-2m, n-m).
    """
    if n < 1 or i < 0 or j < 0:
        raise ValueError("need n >= 1 and i, j >= 0")
    if i + j > n:
        raise ValueError(f"i + j must not exceed n (got i={i}, j={j}, n={n})")
    return Fraction(binomial(2 * j, j) * binomial(2 * n - 2 * i - 2 * j, n - i - j), binomial(n - i, j))


def tsu_ball_value_oracle(n: int, i: int, j: int) -> Rational:
    """Same value via binomial expansion of u^j; independent of the closed form."""
    if i + j > n:
        raise ValueError("i + j must not exceed n")
    total = Fraction(0)
    for l in range(j + 1):
        m = i + l
        sign = -1 if (j - l) % 2 else 1
        total += sign * binomial(j, l) * 4 ** l * binomial(2 * n - 2 * m, n - m)
    return total


def mustar_pairing(n: int, k: int, q: int, j: int) -> PiScalar:
    """Pairing of the (k,q) dual basis functional with t^(2n-k-2j) u^j.

    Equals omega_{2n-k} (2n-k-2j)! (2j)! C(n-k+q, j) / pi^(2n-k).
    """
    if not (0 <= k <= 2 * n - 1 and max(0, k - n) <= q <= k // 2):
        raise ValueError(f"invalid index (k={k}, q={q}) for n={n}")
    if not (0 <= 2 * j <= 2 * n - k):
        raise ValueError(f"j out of range: need 0 <= 2j <= {2 * n - k}, got j={j}")
    value = Fraction(factorial(2 * n - k - 2 * j) * factorial(2 * j) * binomial(n - k + q, j))
    return ball_volume(2 * n - k) * PiScalar(value, -(2 * n - k))


def _combinat_term(r: int, m: int, i: int) -> int:
    return (-1 if i % 2 else 1) * binomial(2 * m + 2 * r - 2 * i, r - 2 * i) * binomial(m + r, i)


def combinat_identity(r: int, m: int) -> bool:
    """Exact check of 2^r C(m+r, r) == sum_i (-1)^i C(2m+2r-2i, r-2i) C(m+r, i).

    Stated for integers r >= 0 and m with 2m + r >= 0.
    """
    if r < 0 or 2 * m + r < 0:
        raise ValueError("need r >= 0 and 2m + r >= 0")
    rhs = sum(_combinat_term(r, m, i) for i in range(r // 2 + 1))
    return 2 ** r * binomial(m + r, r) == rhs


def wz_certificate_check(r: int, m: int, i: int) -> bool:
    """Termwise telescoping certificate behind combinat_identity.

    With F(m,i) the summand and
    G(m,i) = F(m,i) * 2i (2m+2r-2i+1)(m+r+1) / ((2m+r+1)(2m+r+2)),
    verifies -(m+r+1) F(m,i) + (m+1) F(m+1,i) == G(m,i+1) - G(m,i).
    """
    if r < 0 or 2 * m + r < 0 or i < 0:
        raise ValueError("indices outside the certificate domain")

    def g_numerator(ii: int) -> int:
        # G(m, ii) times its denominator (2m+r+1)(2m+r+2), which is positive.
        return _combinat_term(r, m, ii) * 2 * ii * (2 * m + 2 * r - 2 * ii + 1) * (m + r + 1)

    lhs = -(m + r + 1) * _combinat_term(r, m, i) + (m + 1) * _combinat_term(r, m + 1, i)
    return lhs * (2 * m + r + 1) * (2 * m + r + 2) == g_numerator(i + 1) - g_numerator(i)


# ---------------------------------------------------------------------------
# Closed forms in the dual algebra and the presentation relations
# ---------------------------------------------------------------------------

# Here Coordinates are the X' coordinates of pi^(-e) x for an element x on one
# pi-exponent e, and a Poly holds rational coefficients by (t, s)-exponents.
# A product table holds the Coordinates of products by ordered pair, or None
# for one off the pi-grading.
Poly = Mapping[Monomial, Rational]
ProductTable = dict[tuple[AreaIndex, AreaIndex], Coordinates | None]

# The unit is X'_{Delta 0,0}.  _rational_image reads the source B_{1,0} as
# vbar, which is rational in degree 1, where X' = X*.
_UNIT: Coordinates = {AreaIndex(Family.DELTA, 0, 0): Fraction(1)}
_VBAR: Coordinates = {AreaIndex(Family.B, 1, 0): Fraction(1)}
_T: Poly = {(1, 0): 1}
_S: Poly = {(0, 1): 1}


def _image(n: int, poly: Poly, x: Mapping[AreaIndex, Rational]) -> Coordinates:
    # poly(sbar, tbar) x in X' coordinates, for x in X' coordinates: each
    # coefficient times the image column of each source.
    out: Coordinates = {}
    for (a, b), coeff in poly.items():
        for source, x_coeff in x.items():
            weight = coeff * x_coeff
            add_terms(out, ((idx, weight * c) for idx, c in _rational_image(n, a, b, source).items()))
    return out


def _poly_product(left: Poly, right: Poly) -> dict[Monomial, Rational]:
    return add_terms({}, (((a1 + a2, b1 + b2), c1 * c2)
                          for (a1, b1), c1 in left.items() for (a2, b2), c2 in right.items()))


def _combine(terms: Iterable[tuple[Rational, Coordinates | None]]) -> Coordinates | None:
    # The sum of weight * coordinates, or None if one of them is None.
    out: Coordinates = {}
    for weight, coords in terms:
        if coords is None:
            return None
        add_terms(out, ((idx, weight * c) for idx, c in coords.items()))
    return out


def _graded_value(coeff: PiScalar, exponent: int) -> Fraction | None:
    # The rational part of coeff if it is one pi-monomial of this exponent.
    if coeff.is_monomial():
        exp, value = coeff.monomial()
        if exp == exponent:
            return value
    return None


def _product_coordinates(n: int, left: AreaIndex, right: AreaIndex) -> Coordinates | None:
    """basis_product(n, left, right) as the X' coordinates of X'_left X'_right.

    None when a coordinate at degree r is not one pi-monomial of exponent
    floor(k/2) + floor(l/2) - floor(r/2) for factor degrees k and l.
    """
    grade = left.k // 2 + right.k // 2
    coords: Coordinates = {}
    for idx, coeff in basis_product(n, left, right).items():
        value = _graded_value(coeff, grade - idx.k // 2)
        if value is None:
            return None
        coords[idx] = value
    return coords


def _element(n: int, grade: int, coords: Mapping[AreaIndex, Rational]) -> AreaDualElement:
    # pi^grade times the element with these X' coordinates, on X*.
    return AreaDualElement(n, {idx: PiScalar(c, grade - idx.k // 2) for idx, c in coords.items()})


def _delta_star_coefficients(n: int, k: int, q: int) -> tuple[int, Fraction, dict[int, Fraction]]:
    # The prefactor as (pi-exponent, rational scale), and the coefficient of
    # t^(k-2i) s^i by i, of the closed form below; verify_delta_pairing checks
    # these same numbers.
    require_valid(n, AreaIndex(Family.DELTA, k, q))
    exponent, volume = ball_volume(2 * n - k).monomial()
    scale = volume * Fraction(factorial(k - 2 * q) * factorial(n - k + q), 2 ** (k - 2 * q) * factorial(n))
    coeffs = {i: Fraction((-1) ** (i + q) * factorial(n - i), factorial(i - q) * factorial(k - 2 * i))
              for i in range(q, k // 2 + 1)}
    return exponent + k - n, scale, coeffs


def delta_star_closed_form(n: int, k: int, q: int) -> STPoly:
    """Polynomial phi with phi(sbar, tbar) = Delta*_{k,q}:

    omega_{2n-k} (k-2q)! (n-k+q)! / (pi^(n-k) 2^(k-2q) n!) *
        sum_{i=q}^{floor(k/2)} (-1)^(i+q)/(i-q)! * (n-i)!/(k-2i)! * t^(k-2i) s^i
    """
    exponent, scale, coeffs = _delta_star_coefficients(n, k, q)
    return STPoly({(k - 2 * i, i): PiScalar(scale * c, exponent) for i, c in coeffs.items()})


def _rational_closed_form(n: int, k: int, q: int) -> dict[Monomial, Fraction] | None:
    # The closed form over pi^floor(k/2), so that it gives Delta'_{k,q} on the
    # unit; None when its prefactor carries another pi-power.
    exponent, scale, coeffs = _delta_star_coefficients(n, k, q)
    if exponent != k // 2:
        return None
    return {(k - 2 * i, i): scale * c for i, c in coeffs.items()}


def _nn_coordinates(n: int, left: AreaIndex, right: AreaIndex,
                    poly_left: Poly | None, poly_right: Poly | None) -> Coordinates | None:
    # N'_left N'_right by the reduction of product_nn, in X' coordinates, from
    # the rational closed forms of Delta*_left and Delta*_right; None when one
    # of them is off the pi-grading.
    k, q = left.k, left.q
    kp, qp = right.k, right.q
    if poly_left is None or poly_right is None:
        return None
    inner = _combine(((Fraction(2 * (n - kp + qp), kp - 2 * qp), _image(n, poly_left, {right: 1})),
                      (Fraction(2 * (n - k + q), k - 2 * q), _image(n, poly_right, {left: 1})),
                      (-1, _image(n, _poly_product(poly_left, poly_right), _UNIT))))
    scale = Fraction((k - 2 * q) * (kp - 2 * qp), 4 * (n - k + q) * (n - kp + qp))
    return {idx: scale * c for idx, c in inner.items()}


def product_nn(n: int, left: AreaIndex, right: AreaIndex) -> AreaDualElement:
    """Product of two N* basis elements via the reduction

    N*_{k,q} N*_{k',q'} = (k-2q)(k'-2q')/(4(n-k+q)(n-k'+q')) *
        ( 2(n-k'+q')/(k'-2q') Delta*_{k,q} N*_{k',q'}
        + 2(n-k+q)/(k-2q)   Delta*_{k',q'} N*_{k,q}
        - Delta*_{k,q} Delta*_{k',q'} )

    The three constituent products run through the closed-form polynomial for
    Delta* applied directly to basis elements, on rational X' coordinates,
    making this an independent route for cross-checking `product`.  Raises
    AlgebraConsistencyError if a closed form is off the pi-grading.
    """
    for idx in (left, right):
        if idx.family is not Family.N:
            raise InvalidIndexError(f"product_nn expects N indices, got {idx.text()}")
        require_valid(n, idx)
    coords = _nn_coordinates(n, left, right, *(_rational_closed_form(n, idx.k, idx.q) for idx in (left, right)))
    if coords is None:
        raise AlgebraConsistencyError(f"a closed form of Delta* is off the pi-grading at n={n}")
    return _element(n, left.k // 2 + right.k // 2, coords)


def verify_relations(n: int) -> list[CheckResult]:
    """Exact verification of every presentation relation at dimension n.

    Checks f_{n+1} = f_{n+2} = 0, p_n - q_{n-1} vbar = 0, p_n vbar = 0, the
    vanishing of all B* pair products, and that p_n(sbar, tbar) equals
    (-1)^n 2^n / omega_n times Delta*_{n,0}.  The families act on the unit
    and on vbar in X' coordinates, where all of them lie on pi^0.
    """
    p = _monomials(n, p_coefficients(n))
    p_unit = _image(n, p, _UNIT)
    q_vbar = _image(n, _monomials(n - 1, q_coefficients(n - 1)), _VBAR)
    checks = [_zero_check(f"f_{m}(sbar, tbar) = 0", n, _image(n, _monomials(m, fu_coefficients(m)), _UNIT))
              for m in (n + 1, n + 2)]
    checks.append(_zero_check(f"p_{n} - q_{n - 1}*v = 0", n, _combine(((1, p_unit), (-1, q_vbar)))))
    checks.append(_zero_check(f"p_{n}*v = 0", n, _image(n, p, _VBAR)))

    b_indices = valid_indices(n, Family.B)
    offenders = []
    for i, left in enumerate(b_indices):
        for right in b_indices[i:]:
            result = basis_product(n, left, right)
            if result:
                offenders.append(f"{left.text()} * {right.text()} = {result.text()}")
    checks.append(CheckResult("B* * B* = 0 (all pairs)", not offenders, "; ".join(offenders)))

    # Delta*_{n,0} = pi^floor(n/2) Delta'_{n,0}, so the expected value is rational
    # exactly when omega_n carries pi^floor(n/2).
    sign = -1 if n % 2 else 1
    exponent, volume = ball_volume(n).monomial()
    expected = {AreaIndex(Family.DELTA, n, 0): sign * 2 ** n / volume} if exponent == n // 2 else None
    passed = p_unit == expected
    checks.append(CheckResult(f"p_{n}(sbar, tbar) = (-1)^{n} 2^{n}/omega_{n} * Delta*_{{{n},0}}",
                              passed, "" if passed else f"got {_element(n, 0, p_unit).text()}"))
    return checks


def module_recurrence(n: int) -> tuple[list[PiScalar], list[PiScalar]]:
    """Iterate the 2x2 coefficient recurrence for repeated degree lowering.

    Starting from (c_0, d_0) = (1, 0),

        (c_{i+1}, d_{i+1}) = 2(i+1) omega_{n+i+1} / ((n-i) pi omega_{n+i})
                             * [[n-i-1, 0], [1, n-i]] (c_i, d_i),

    and the results must match the closed forms: (c_{n-1}, d_{n-1})
    proportional to (1, n-1) with c_{n-1} = 2^(n-1)/n *
    omega_{2n-1}/(omega_{2n-2} omega_n), and (c_n, d_n) = (0, 2^n/omega_n).
    Also checks the underlying integer matrix identity with value (n-1)!(1, n-1).
    Each step is one pi-monomial, so c_i and d_i share one pi-exponent and
    the iteration runs on their rational parts.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    cs, ds, exponents = [Fraction(1)], [Fraction(0)], [0]
    for i in range(n):
        (high_exp, high), (low_exp, low) = ball_volume(n + i + 1).monomial(), ball_volume(n + i).monomial()
        step = 2 * (i + 1) * high / ((n - i) * low)
        exponents.append(exponents[i] + high_exp - 1 - low_exp)
        cs.append(step * ((n - i - 1) * cs[i]))
        ds.append(step * (cs[i] + (n - i) * ds[i]))

    (top_exp, top), (mid_exp, mid), (n_exp, omega_n) = (ball_volume(m).monomial()
                                                        for m in (2 * n - 1, 2 * n - 2, n))
    c_exp, c_closed = top_exp - mid_exp - n_exp, Fraction(2 ** (n - 1), n) * top / (mid * omega_n)
    if exponents[n - 1] != c_exp or cs[n - 1] != c_closed or ds[n - 1] != (n - 1) * c_closed:
        raise AlgebraConsistencyError(
            f"step {n - 1} of the module recurrence disagrees with its closed form at n={n}")
    if cs[n] != 0 or exponents[n] != -n_exp or ds[n] != 2 ** n / omega_n:
        raise AlgebraConsistencyError(
            f"step {n} of the module recurrence disagrees with its closed form at n={n}")

    vec = (1, 0)
    for i in range(n - 1, 0, -1):
        vec = (i * vec[0], vec[0] + (i + 1) * vec[1])
    if vec != (factorial(n - 1), factorial(n - 1) * (n - 1)):
        raise AlgebraConsistencyError(f"integer matrix identity fails at n={n}")
    return ([PiScalar(c, e) for c, e in zip(cs, exponents)],
            [PiScalar(d, e) for d, e in zip(ds, exponents)])


def verify_delta_pairing(n: int, k: int, q: int) -> bool:
    """Two-route check of the closed form behind delta_star_closed_form.

    For every j with 0 <= 2j <= 2n-k, the direct pairing value
    omega_{2n-k} (2n-k-2j)! (2j)! C(n-k+q, j) / pi^(2n-k) must equal the
    expansion through unit-ball values of t^(2n-2i-2j) s^i u^j monomials.
    """
    exponent, scale, coeffs = _delta_star_coefficients(n, k, q)
    for j in range(0, (2 * n - k) // 2 + 1):
        total = sum(c * tsu_ball_value(n, i, j) for i, c in coeffs.items())
        if mustar_pairing(n, k, q, j) != PiScalar(scale * total * factorial(n), exponent - n):
            return False
    return True


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

# Sweep bounds for the identity suites.
MAX_FPQ_K = 40
MAX_SERIES_K = 40
MAX_COMBINAT_R = 25
MAX_COMBINAT_MR = 40
MAX_WZ_R = 10
MAX_WZ_MR = 20
MAX_TSU_N = 8
MAX_RECURRENCE_N = 15


# The series below are coefficient lists: term k of each is a list c with c[b]
# the coefficient of t^(k-2b) s^b, the form of the closed forms they check.

def p_series(upto: int) -> list[list[int]]:
    """p_0..p_upto through the geometric-series recurrence p_k = -t p_{k-1} - s p_{k-2}."""
    out = [[1]]
    for k in range(1, upto + 1):
        terms = [0] * (k // 2 + 1)
        _add_shifted(terms, out[k - 1], 0, -1)
        if k >= 2:
            _add_shifted(terms, out[k - 2], 1, -1)
        out.append(terms)
    return out[: upto + 1]


def q_series(upto: int) -> list[list[int]]:
    """q_0..q_upto as minus the Cauchy square of the p-series, over integer coefficients."""
    ps = p_series(upto)
    out = []
    for k in range(upto + 1):
        terms = [0] * (k // 2 + 1)
        for i in range(k + 1):
            for shift, c in enumerate(ps[i]):
                _add_shifted(terms, ps[k - i], shift, -c)
        out.append(terms)
    return out


def f_series(upto: int) -> list[list[Fraction]]:
    """f_0..f_upto by expanding log(1 + u) with u = t x + s x^2 directly.

    The coefficient of x^d in u^m is built by multiplying by u once per m,
    and the alternating 1/m weights are summed as integers over the common
    denominator lcm(1..upto).
    """
    common = lcm(*range(1, upto + 1))
    sums = [[0] * (d // 2 + 1) for d in range(upto + 1)]
    power = {0: [1]}  # u^0, by power of x
    for m in range(1, upto + 1):
        nxt: dict[int, list[int]] = {}
        for d, coeffs in power.items():
            for shift in (0, 1):  # times t x, times s x^2
                degree = d + 1 + shift
                if degree <= upto:
                    _add_shifted(nxt.setdefault(degree, [0] * (degree // 2 + 1)), coeffs, shift)
        power = nxt
        weight = common // m if m % 2 else -(common // m)
        for d, coeffs in power.items():
            _add_shifted(sums[d], coeffs, 0, weight)
    return [[Fraction(c, common) for c in terms] for terms in sums]


def _ball_values_check(n: int) -> CheckResult:
    bad = [f"(i={i}, j={j})" for i in range(n + 1) for j in range(n - i + 1)
           if tsu_ball_value(n, i, j) != tsu_ball_value_oracle(n, i, j)]
    return _sweep(f"t,s,u ball values closed form vs expansion (n={n})", bad)


def identities_suite(n: int) -> list[CheckResult]:
    """Identity sweeps plus the dimension-n two-route checks."""
    checks: list[CheckResult] = []

    ps, qs, fs = p_series(MAX_SERIES_K), q_series(MAX_SERIES_K), f_series(MAX_SERIES_K)
    bad = [f"p_{k}" for k in range(MAX_SERIES_K + 1) if p_coefficients(k) != ps[k]]
    bad += [f"q_{k}" for k in range(MAX_SERIES_K + 1) if q_coefficients(k) != qs[k]]
    bad += [f"f_{k}" for k in range(MAX_SERIES_K + 1) if fu_coefficients(k) != fs[k]]
    checks.append(_sweep(f"closed forms match series expansions (k <= {MAX_SERIES_K})", bad))

    bad = [f"k={k}" for k in range(1, MAX_FPQ_K + 1) if not check_fpq_relation(k)]
    checks.append(_sweep(f"-(4s-t^2) q_(k-1) + t p_k = (k+1)^2 f_(k+1) (k <= {MAX_FPQ_K})", bad))

    bad = [f"(r={r}, m={m})" for r in range(MAX_COMBINAT_R + 1)
           for m in range(-(r // 2), MAX_COMBINAT_MR - r + 1) if not combinat_identity(r, m)]
    checks.append(_sweep(
        f"binomial identity sweep (r <= {MAX_COMBINAT_R}, 2m+r >= 0, m+r <= {MAX_COMBINAT_MR})", bad))

    bad = [f"(r={r}, m={m}, i={i})" for r in range(MAX_WZ_R + 1)
           for m in range(-(r // 2), MAX_WZ_MR - r + 1) for i in range(r // 2 + 1)
           if not wz_certificate_check(r, m, i)]
    checks.append(_sweep(f"telescoping certificate termwise (r <= {MAX_WZ_R})", bad))

    checks.append(_ball_values_check(n))

    bad = [idx.text() for idx in valid_indices(n, Family.DELTA)
           if not verify_delta_pairing(n, idx.k, idx.q)]
    checks.append(_sweep(f"dual-basis pairing two-route (n={n}, all k,q,j)", bad))

    try:
        module_recurrence(n)
        checks.append(CheckResult(f"module recurrence closed forms (n={n})", True))
    except Exception as exc:  # raised as AlgebraConsistencyError
        checks.append(CheckResult(f"module recurrence closed forms (n={n})", False, str(exc)))

    return checks


def identity_sweeps() -> list[CheckResult]:
    """The full identity sweeps at their acceptance bounds (dimension-free driver)."""
    checks = identities_suite(MAX_TSU_N)
    checks.extend(_ball_values_check(n) for n in range(2, MAX_TSU_N))
    bad = []
    for n in range(2, MAX_RECURRENCE_N + 1):
        try:
            module_recurrence(n)
        except Exception as exc:
            bad.append(f"n={n}: {exc}")
    checks.append(_sweep(f"module recurrence closed forms (n <= {MAX_RECURRENCE_N})", bad))
    return checks


def algebra_suite(n: int) -> list[CheckResult]:
    """Structural laws of the dual algebra at dimension n."""
    checks: list[CheckResult] = []
    indices = dual_basis_indices(n)

    # sbar tbar against tbar sbar, one raising step at a time on each X'_idx.
    bad = [idx.text() for idx in indices
           if _image(n, _S, _image(n, _T, {idx: 1})) != _image(n, _T, _image(n, _S, {idx: 1}))]
    checks.append(_sweep("operator commutativity sbar tbar = tbar sbar", bad))

    # Every ordered pair read once, as X' coordinates or None off the
    # pi-grading; each law and two-route check below is a pass over this table.
    products: ProductTable = {(left, right): _product_coordinates(n, left, right)
                              for left in indices for right in indices}

    unit = AreaIndex(Family.DELTA, 0, 0)
    bad = [idx.text() for idx in indices if products[unit, idx] != {idx: 1}]
    checks.append(_sweep("unit law", bad))

    bad = []
    top = 2 * n - 1
    for i, left in enumerate(indices):
        for right in indices[i:]:
            forward = products[left, right]
            if forward is None or forward != products[right, left]:
                bad.append(f"{left.text()} * {right.text()}")
            if left.k + right.k > top and forward != {}:
                bad.append(f"truncation: {left.text()} * {right.text()}")
    checks.append(_sweep("product commutativity and degree truncation", bad))

    # The solve-free routes below compare X' coordinates: each closed form and
    # each basis product on its pi-grading, or the pair fails.
    closed_forms = {idx: _rational_closed_form(n, idx.k, idx.q) for idx in valid_indices(n, Family.DELTA)}
    n_indices = valid_indices(n, Family.N)
    # The N* N* reduction is symmetric in its two factors: one route per
    # unordered pair, read against both products.
    routes: ProductTable = {}
    bad = []
    for left in n_indices:
        for right in n_indices:
            if (right, left) in routes:
                route = routes[right, left]
            else:
                route = routes[left, right] = _nn_coordinates(
                    n, left, right, *(closed_forms[idx._replace(family=Family.DELTA)] for idx in (left, right)))
            if route is None or route != products[left, right]:
                bad.append(f"{left.text()} * {right.text()}")
    checks.append(_sweep("two-route N* products agree", bad))

    bad = [idx.text() for idx, poly in closed_forms.items()
           if poly is None or _image(n, poly, _UNIT) != {idx: 1}]
    checks.append(_sweep("closed form reproduces each Delta* basis element", bad))

    # No Gauss solve on this route: the product of the two closed forms,
    # evaluated on the unit.
    deltas = list(closed_forms)
    bad = []
    for i, left in enumerate(deltas):
        for right in deltas[i:]:
            if left.k + right.k > top:
                break
            poly_left, poly_right = closed_forms[left], closed_forms[right]
            if (poly_left is None or poly_right is None
                    or _image(n, _poly_product(poly_left, poly_right), _UNIT) != products[left, right]):
                bad.append(f"{left.text()} * {right.text()}")
    checks.append(_sweep("two-route Delta* products agree", bad))

    # No Gauss solve either: the closed form of Delta* applied to N* directly.
    bad = [f"{left.text()} * {right.text()}"
           for left, poly in closed_forms.items() for right in n_indices
           if left.k + right.k <= top
           and (poly is None or _image(n, poly, {right: 1}) != products[left, right])]
    checks.append(_sweep("two-route Delta* N* products agree", bad))

    checks.append(_associativity_check(n, indices, products))
    checks.append(_pi_grading_check(n, indices, products))

    counts = census(n)
    bad = [f"degree {d}: rank {monomial_rank(n, d)} != census {counts.per_degree[d]}"
           for d in range(2 * n) if monomial_rank(n, d) != counts.per_degree[d]]
    checks.append(_sweep("graded rank equals Delta/N census", bad))

    tables = {basis_name: full_table(n, basis_name) for basis_name in (BASIS_DELTA_N, BASIS_B_GAMMA)}
    bad = [f"{basis_name} A({table.target.text()}): {left.text()},{right.text()}"
           for basis_name, basis_tables in tables.items() for table in basis_tables
           for (left, right), coeff in table.entries.items() if table.coefficient(right, left) != coeff]
    checks.append(_sweep("kinematic tables symmetric", bad))

    # The counit: the entries of A(T) with the unit in a slot are exactly
    # (unit, T) -> 1 and (T, unit) -> 1.
    bad = []
    for basis_name, basis_tables in tables.items():
        unit = AreaIndex(Family.DELTA if basis_name == BASIS_DELTA_N else Family.GAMMA, 0, 0)
        for table in basis_tables:
            expected = {(unit, table.target): ONE, (table.target, unit): ONE}
            found = {pair: coeff for pair, coeff in table.entries.items() if unit in pair}
            bad.extend(f"{basis_name} A({table.target.text()}): {left.text()},{right.text()}"
                       for left, right in {**expected, **found}
                       if found.get((left, right)) != expected.get((left, right)))
    checks.append(_sweep("kinematic tables counit", bad))

    return checks


def _associativity_check(n: int, indices: list[AreaIndex], products: ProductTable) -> CheckResult:
    """(ab)c = a(bc) for basis triples a <= b <= c of total degree at most 2n-1.

    Both sides expand the inner product in the basis and sum the basis
    products, i.e. they read the structure constants in the product table
    only, as rational X' coordinates; a triple that reads a product off the
    pi-grading fails.  The sums run on integers: every product is scaled by one common
    denominator D, so both sides are D^2 times their rational values.
    """
    top = 2 * n - 1
    triples = [(a, b, c) for i, a in enumerate(indices) for j, b in enumerate(indices[i:], i)
               if a.k + b.k <= top for c in indices[j:] if a.k + b.k + c.k <= top]
    denominator = lcm(*(c.denominator for coords in products.values() if coords for c in coords.values()))
    scaled = {key: None if coords is None else {idx: c.numerator * (denominator // c.denominator)
                                                  for idx, c in coords.items()}
              for key, coords in products.items()}
    bad = []
    for a, b, c in triples:
        ab, bc = scaled[a, b], scaled[b, c]
        left = None if ab is None else _combine((coeff, scaled[inner, c]) for inner, coeff in ab.items())
        right = None if bc is None else _combine((coeff, scaled[a, inner]) for inner, coeff in bc.items())
        if left is None or left != right:
            bad.append(f"({a.text()} {b.text()}) {c.text()}")
    return _sweep("associativity (ab)c = a(bc) on basis triples", bad)


def _pi_grading_check(n: int, indices: list[AreaIndex], products: ProductTable) -> CheckResult:
    """Every coordinate of a basis-pair product of degrees k, l is one pi-monomial,
    with exponent floor(k/2) + floor(l/2) - floor(r/2) at a coordinate of degree r.

    A pair that the product table holds as None is read again, to list its
    off-grade coordinates."""
    bad = []
    for i, left in enumerate(indices):
        for right in indices[i:]:
            if left.k + right.k > 2 * n - 1:
                break
            if products[left, right] is not None:
                continue
            grade = left.k // 2 + right.k // 2
            bad.extend(f"{left.text()} * {right.text()} at {idx.text()}: {coeff.text()}"
                       for idx, coeff in basis_product(n, left, right).items()
                       if _graded_value(coeff, grade - idx.k // 2) is None)
    return _sweep("pi-grading of basis-pair products", bad)


SUITES = ("relations", "identities", "algebra", "all")


def run_suite(n: int, suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    checks: list[CheckResult] = []
    if suite in ("relations", "all"):
        checks.extend(verify_relations(n))
    if suite in ("identities", "all"):
        checks.extend(identities_suite(n))
    if suite in ("algebra", "all"):
        checks.extend(algebra_suite(n))
    return checks
