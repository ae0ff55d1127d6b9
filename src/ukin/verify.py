"""Self-verification: the check code and the suites that run it.

The closed form of Delta* and the two-route products, the relations, the
module recurrence, the identity sweeps and the algebra laws all live here.
No engine module imports this one, and the command line imports it only for
the verify and identities verbs.  Each suite returns a list of CheckResult
records for CLI reporting and CI gating.  All checks are exact; a failure
carries the offending values.  The series oracles below (geometric, log, and
Cauchy-square expansions) are deliberately independent of the closed forms
they validate.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from .areabasis import (
    AreaIndex,
    Family,
    InvalidIndexError,
    census,
    dual_basis_indices,
    require_valid,
    valid_indices,
)
from .dualalgebra import (
    AreaDualElement,
    basis_element,
    basis_product,
    eval_poly,
    monomial_rank,
    mul_sbar,
    mul_tbar,
    product,
    unit,
    vbar,
)
from .exactnum import PiScalar, Rational, add_terms, ball_volume, binomial
from .kinematics import BASIS_B_GAMMA, BASIS_DELTA_N, full_table
from .stpoly import STPoly, fu_poly, p_poly, q_poly


class AlgebraConsistencyError(RuntimeError):
    """An internal cross-check against a closed form failed."""


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _sweep(name: str, failures: list[str]) -> CheckResult:
    return CheckResult(name, not failures, "; ".join(failures[:8]))


def _zero_check(name: str, element: AreaDualElement) -> CheckResult:
    if element.is_zero():
        return CheckResult(name, True)
    return CheckResult(name, False, f"nonzero remainder: {element.text()}")


# ---------------------------------------------------------------------------
# Identities of the s,t polynomial families and unit-ball values
# ---------------------------------------------------------------------------

def _coefficients(poly: STPoly) -> dict[tuple[int, int, int], Rational]:
    # The rational coefficients of poly by (t-exponent, s-exponent, pi-exponent).
    return {(a, b, e): c for (a, b), coeff in poly.terms() for e, c in coeff.terms()}


def check_fpq_relation(k: int) -> bool:
    """Exact check of -(4s - t^2) q_{k-1} + t p_k == (k+1)^2 f_{k+1}, on coefficient dicts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs: dict[tuple[int, int, int], Rational] = {}
    add_terms(lhs, (((a + 1, b, e), c) for (a, b, e), c in _coefficients(p_poly(k)).items()))
    q = _coefficients(q_poly(k - 1)).items()
    add_terms(lhs, (((a, b + 1, e), -4 * c) for (a, b, e), c in q))
    add_terms(lhs, (((a + 2, b, e), c) for (a, b, e), c in q))
    square = (k + 1) ** 2
    return lhs == {key: square * c for key, c in _coefficients(fu_poly(k + 1)).items()}


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

    def g(mm: int, ii: int) -> Fraction:
        return Fraction(
            _combinat_term(r, mm, ii) * 2 * ii * (2 * mm + 2 * r - 2 * ii + 1) * (mm + r + 1),
            (2 * mm + r + 1) * (2 * mm + r + 2),
        )

    lhs = Fraction(-(m + r + 1) * _combinat_term(r, m, i) + (m + 1) * _combinat_term(r, m + 1, i))
    return lhs == g(m, i + 1) - g(m, i)


# ---------------------------------------------------------------------------
# Closed forms in the dual algebra and the presentation relations
# ---------------------------------------------------------------------------

def product_nn(n: int, left: AreaIndex, right: AreaIndex) -> AreaDualElement:
    """Product of two N* basis elements via the reduction

    N*_{k,q} N*_{k',q'} = (k-2q)(k'-2q')/(4(n-k+q)(n-k'+q')) *
        ( 2(n-k'+q')/(k'-2q') Delta*_{k,q} N*_{k',q'}
        + 2(n-k+q)/(k-2q)   Delta*_{k',q'} N*_{k,q}
        - Delta*_{k,q} Delta*_{k',q'} )

    The three constituent products run through the closed-form polynomial for
    Delta* applied directly to basis elements, making this an independent
    route for cross-checking `product`.
    """
    for idx in (left, right):
        if idx.family is not Family.N:
            raise InvalidIndexError(f"product_nn expects N indices, got {idx.text()}")
        require_valid(n, idx)
    k, q = left.k, left.q
    kp, qp = right.k, right.q
    poly_left = delta_star_closed_form(n, k, q)
    poly_right = delta_star_closed_form(n, kp, qp)
    dn_right = eval_poly(poly_left, basis_element(n, right))
    dn_left = eval_poly(poly_right, basis_element(n, left))
    dd = eval_poly(poly_left * poly_right, unit(n))
    inner = (Fraction(2 * (n - kp + qp), kp - 2 * qp) * dn_right
             + Fraction(2 * (n - k + q), k - 2 * q) * dn_left
             - dd)
    return Fraction((k - 2 * q) * (kp - 2 * qp), 4 * (n - k + q) * (n - kp + qp)) * inner


def _delta_star_coefficients(n: int, k: int, q: int) -> tuple[PiScalar, dict[int, Fraction]]:
    # The prefactor, and the coefficient of t^(k-2i) s^i by i, of the closed form
    # below; verify_delta_pairing checks these same numbers.
    require_valid(n, AreaIndex(Family.DELTA, k, q))
    prefactor = (ball_volume(2 * n - k)
                 * PiScalar(Fraction(factorial(k - 2 * q) * factorial(n - k + q),
                                     2 ** (k - 2 * q) * factorial(n)), k - n))
    coeffs = {i: Fraction((-1) ** (i + q) * factorial(n - i), factorial(i - q) * factorial(k - 2 * i))
              for i in range(q, k // 2 + 1)}
    return prefactor, coeffs


def delta_star_closed_form(n: int, k: int, q: int) -> STPoly:
    """Polynomial phi with phi(sbar, tbar) = Delta*_{k,q}:

    omega_{2n-k} (k-2q)! (n-k+q)! / (pi^(n-k) 2^(k-2q) n!) *
        sum_{i=q}^{floor(k/2)} (-1)^(i+q)/(i-q)! * (n-i)!/(k-2i)! * t^(k-2i) s^i
    """
    prefactor, coeffs = _delta_star_coefficients(n, k, q)
    return STPoly({(k - 2 * i, i): prefactor * c for i, c in coeffs.items()})


def verify_relations(n: int) -> list[CheckResult]:
    """Exact verification of every presentation relation at dimension n.

    Checks f_{n+1} = f_{n+2} = 0, p_n - q_{n-1} vbar = 0, p_n vbar = 0, the
    vanishing of all B* pair products, and that p_n(sbar, tbar) equals
    (-1)^n 2^n / omega_n times Delta*_{n,0}.
    """
    p_unit = eval_poly(p_poly(n), unit(n))
    checks = [
        _zero_check(f"f_{n + 1}(sbar, tbar) = 0", eval_poly(fu_poly(n + 1), unit(n))),
        _zero_check(f"f_{n + 2}(sbar, tbar) = 0", eval_poly(fu_poly(n + 2), unit(n))),
        _zero_check(f"p_{n} - q_{n - 1}*v = 0", p_unit - eval_poly(q_poly(n - 1), vbar(n))),
        _zero_check(f"p_{n}*v = 0", eval_poly(p_poly(n), vbar(n))),
    ]

    b_indices = valid_indices(n, Family.B)
    offenders = []
    for i, left in enumerate(b_indices):
        for right in b_indices[i:]:
            result = basis_product(n, left, right)
            if not result.is_zero():
                offenders.append(f"{left.text()} * {right.text()} = {result.text()}")
    checks.append(CheckResult("B* * B* = 0 (all pairs)", not offenders, "; ".join(offenders)))

    sign = -1 if n % 2 else 1
    expected = (PiScalar(sign * 2 ** n).div_by_monomial(ball_volume(n))
                * basis_element(n, AreaIndex(Family.DELTA, n, 0)))
    checks.append(CheckResult(f"p_{n}(sbar, tbar) = (-1)^{n} 2^{n}/omega_{n} * Delta*_{{{n},0}}",
                              p_unit == expected, "" if p_unit == expected else f"got {p_unit.text()}"))
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
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    cs = [PiScalar(1)]
    ds = [PiScalar(0)]
    for i in range(n):
        step = (2 * (i + 1) * ball_volume(n + i + 1)).div_by_monomial(
            PiScalar(n - i, 1) * ball_volume(n + i))
        cs.append(step * ((n - i - 1) * cs[i]))
        ds.append(step * (cs[i] + (n - i) * ds[i]))

    c_closed = (PiScalar(Fraction(2 ** (n - 1), n)) * ball_volume(2 * n - 1)).div_by_monomial(
        ball_volume(2 * n - 2) * ball_volume(n))
    if cs[n - 1] != c_closed or ds[n - 1] != (n - 1) * c_closed:
        raise AlgebraConsistencyError(
            f"step {n - 1} of the module recurrence disagrees with its closed form at n={n}")
    d_final = PiScalar(2 ** n).div_by_monomial(ball_volume(n))
    if cs[n] != PiScalar(0) or ds[n] != d_final:
        raise AlgebraConsistencyError(
            f"step {n} of the module recurrence disagrees with its closed form at n={n}")

    vec = (1, 0)
    for i in range(n - 1, 0, -1):
        vec = (i * vec[0], vec[0] + (i + 1) * vec[1])
    if vec != (factorial(n - 1), factorial(n - 1) * (n - 1)):
        raise AlgebraConsistencyError(f"integer matrix identity fails at n={n}")
    return cs, ds


def verify_delta_pairing(n: int, k: int, q: int) -> bool:
    """Two-route check of the closed form behind delta_star_closed_form.

    For every j with 0 <= 2j <= 2n-k, the direct pairing value
    omega_{2n-k} (2n-k-2j)! (2j)! C(n-k+q, j) / pi^(2n-k) must equal the
    expansion through unit-ball values of t^(2n-2i-2j) s^i u^j monomials.
    """
    prefactor, coeffs = _delta_star_coefficients(n, k, q)
    for j in range(0, (2 * n - k) // 2 + 1):
        total = sum(c * tsu_ball_value(n, i, j) for i, c in coeffs.items())
        if mustar_pairing(n, k, q, j) != prefactor * PiScalar(total * factorial(n), -n):
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


# The series below are homogeneous: term k of each is a list c with c[b] the
# coefficient of t^(k-2b) s^b.

def _series_poly(k: int, coeffs: list) -> STPoly:
    return STPoly({(k - 2 * b, b): c for b, c in enumerate(coeffs) if c})


def _add_shifted(into: list[int], coeffs: list[int], shift: int, weight: int = 1) -> None:
    # into += weight * s^shift * coeffs, in the list form above.
    for b, c in enumerate(coeffs):
        into[b + shift] += weight * c


def _p_coefficients(upto: int) -> list[list[int]]:
    # Integer coefficients of p_0..p_upto through the geometric-series
    # recurrence p_k = -t p_{k-1} - s p_{k-2}.
    out = [[1]]
    for k in range(1, upto + 1):
        terms = [0] * (k // 2 + 1)
        _add_shifted(terms, out[k - 1], 0, -1)
        if k >= 2:
            _add_shifted(terms, out[k - 2], 1, -1)
        out.append(terms)
    return out[: upto + 1]


def p_series(upto: int) -> list[STPoly]:
    """p_0..p_upto through the geometric-series recurrence p_k = -t p_{k-1} - s p_{k-2}."""
    return [_series_poly(k, terms) for k, terms in enumerate(_p_coefficients(upto))]


def q_series(upto: int) -> list[STPoly]:
    """q_0..q_upto as minus the Cauchy square of the p-series, over integer coefficients."""
    ps = _p_coefficients(upto)
    out = []
    for k in range(upto + 1):
        terms = [0] * (k // 2 + 1)
        for i in range(k + 1):
            for shift, c in enumerate(ps[i]):
                _add_shifted(terms, ps[k - i], shift, -c)
        out.append(_series_poly(k, terms))
    return out


def f_series(upto: int) -> list[STPoly]:
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
    return [_series_poly(d, [Fraction(c, common) for c in terms]) for d, terms in enumerate(sums)]


def _ball_values_check(n: int) -> CheckResult:
    bad = [f"(i={i}, j={j})" for i in range(n + 1) for j in range(n - i + 1)
           if tsu_ball_value(n, i, j) != tsu_ball_value_oracle(n, i, j)]
    return _sweep(f"t,s,u ball values closed form vs expansion (n={n})", bad)


def identities_suite(n: int) -> list[CheckResult]:
    """Identity sweeps plus the dimension-n two-route checks."""
    checks: list[CheckResult] = []

    ps, qs, fs = p_series(MAX_SERIES_K), q_series(MAX_SERIES_K), f_series(MAX_SERIES_K)
    bad = [f"p_{k}" for k in range(MAX_SERIES_K + 1) if p_poly(k) != ps[k]]
    bad += [f"q_{k}" for k in range(MAX_SERIES_K + 1) if q_poly(k) != qs[k]]
    bad += [f"f_{k}" for k in range(MAX_SERIES_K + 1) if fu_poly(k) != fs[k]]
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
    basis = [basis_element(n, idx) for idx in dual_basis_indices(n)]
    labels = [idx.text() for idx in dual_basis_indices(n)]

    bad = [label for label, x in zip(labels, basis)
           if mul_sbar(mul_tbar(x)) != mul_tbar(mul_sbar(x))]
    checks.append(_sweep("operator commutativity sbar tbar = tbar sbar", bad))

    bad = [label for label, x in zip(labels, basis) if product(unit(n), x) != x]
    checks.append(_sweep("unit law", bad))

    bad = []
    top = 2 * n - 1
    indices = dual_basis_indices(n)
    for i, left in enumerate(indices):
        for right in indices[i:]:
            forward = basis_product(n, left, right)
            if forward != basis_product(n, right, left):
                bad.append(f"{left.text()} * {right.text()}")
            if left.k + right.k > top and not forward.is_zero():
                bad.append(f"truncation: {left.text()} * {right.text()}")
    checks.append(_sweep("product commutativity and degree truncation", bad))

    n_indices = valid_indices(n, Family.N)
    bad = []
    for left in n_indices:
        for right in n_indices:
            if product_nn(n, left, right) != basis_product(n, left, right):
                bad.append(f"{left.text()} * {right.text()}")
    checks.append(_sweep("two-route N* products agree", bad))

    closed_forms = {idx: delta_star_closed_form(n, idx.k, idx.q) for idx in valid_indices(n, Family.DELTA)}
    bad = [idx.text() for idx, poly in closed_forms.items()
           if eval_poly(poly, unit(n)) != basis_element(n, idx)]
    checks.append(_sweep("closed form reproduces each Delta* basis element", bad))

    # No Gauss solve on this route: the product of the two closed forms,
    # evaluated on the unit.
    deltas = list(closed_forms)
    bad = []
    for i, left in enumerate(deltas):
        for right in deltas[i:]:
            if left.k + right.k > top:
                break
            direct = eval_poly(closed_forms[left] * closed_forms[right], unit(n))
            if direct != basis_product(n, left, right):
                bad.append(f"{left.text()} * {right.text()}")
    checks.append(_sweep("two-route Delta* products agree", bad))

    # No Gauss solve either: the closed form of Delta* applied to N* directly.
    bad = [f"{left.text()} * {right.text()}"
           for left, poly in closed_forms.items() for right in n_indices
           if left.k + right.k <= top
           and eval_poly(poly, basis_element(n, right)) != basis_product(n, left, right)]
    checks.append(_sweep("two-route Delta* N* products agree", bad))

    checks.append(_associativity_check(n))
    checks.append(_pi_grading_check(n))

    counts = census(n)
    bad = [f"degree {d}: rank {monomial_rank(n, d)} != census {counts.per_degree[d]}"
           for d in range(2 * n) if monomial_rank(n, d) != counts.per_degree[d]]
    checks.append(_sweep("graded rank equals Delta/N census", bad))

    bad = []
    for basis_name in (BASIS_DELTA_N, BASIS_B_GAMMA):
        for table in full_table(n, basis_name):
            for (left, right), coeff in table.entries.items():
                if table.coefficient(right, left) != coeff:
                    bad.append(f"{basis_name} A({table.target.text()}): {left.text()},{right.text()}")
    checks.append(_sweep("kinematic tables symmetric", bad))

    return checks


def _associativity_check(n: int) -> CheckResult:
    """(ab)c = a(bc) for basis triples a <= b <= c of total degree at most 2n-1.

    Both sides expand the inner product in the basis and sum the cached
    basis products, i.e. they read the structure constants only.
    """
    indices = dual_basis_indices(n)
    top = 2 * n - 1
    bad = []
    for i, a in enumerate(indices):
        for j in range(i, len(indices)):
            b = indices[j]
            if a.k + b.k > top:
                break
            ab = basis_product(n, a, b)
            for c in indices[j:]:
                if a.k + b.k + c.k > top:
                    break
                left = add_terms({}, ((idx, coeff * term) for inner, coeff in ab.items()
                                      for idx, term in basis_product(n, inner, c).items()))
                right = add_terms({}, ((idx, coeff * term) for inner, coeff in basis_product(n, b, c).items()
                                       for idx, term in basis_product(n, a, inner).items()))
                if left != right:
                    bad.append(f"({a.text()} {b.text()}) {c.text()}")
    return _sweep("associativity (ab)c = a(bc) on basis triples", bad)


def _pi_grading_check(n: int) -> CheckResult:
    """Every coordinate of a basis-pair product of degrees k, l is one pi-monomial,
    with exponent floor(k/2) + floor(l/2) - floor(r/2) at a coordinate of degree r."""
    indices = dual_basis_indices(n)
    bad = []
    for i, left in enumerate(indices):
        for right in indices[i:]:
            if left.k + right.k > 2 * n - 1:
                break
            for idx, coeff in basis_product(n, left, right).items():
                expected = left.k // 2 + right.k // 2 - idx.k // 2
                if not coeff.is_monomial() or coeff.monomial()[0] != expected:
                    bad.append(f"{left.text()} * {right.text()} at {idx.text()}: {coeff.text()}")
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
