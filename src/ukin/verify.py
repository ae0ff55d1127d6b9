"""Self-verification suites: relations, identity sweeps, and algebra laws.

Each suite returns a list of CheckResult records suitable for CLI reporting
and CI gating.  All checks are exact; a failure carries the offending values.
The series oracles below (geometric, log, and Cauchy-square expansions) are
deliberately independent of the closed forms they validate.
"""

from __future__ import annotations

from fractions import Fraction

from .areabasis import Family, census, dual_basis_indices, valid_indices
from .dualalgebra import (
    CheckResult,
    basis_element,
    basis_product,
    delta_star_closed_form,
    eval_poly,
    module_recurrence,
    monomial_rank,
    mul_sbar,
    mul_tbar,
    product,
    product_nn,
    unit,
    verify_delta_pairing,
    verify_relations,
    zero,
)
from .exactnum import add_terms
from .kinematics import BASIS_B_GAMMA, BASIS_DELTA_N, full_table
from .stpoly import (
    STPoly,
    check_fpq_relation,
    combinat_identity,
    fu_poly,
    p_poly,
    q_poly,
    tsu_ball_value,
    tsu_ball_value_oracle,
    wz_certificate_check,
)

# Sweep bounds for the identity suites.
MAX_FPQ_K = 40
MAX_SERIES_K = 40
MAX_COMBINAT_R = 25
MAX_COMBINAT_MR = 40
MAX_WZ_R = 10
MAX_WZ_MR = 20
MAX_TSU_N = 8
MAX_RECURRENCE_N = 15


def _p_coefficients(upto: int) -> list[dict[tuple[int, int], int]]:
    # Integer coefficients of p_0..p_upto by (t-exponent, s-exponent), through
    # the geometric-series recurrence p_k = -t p_{k-1} - s p_{k-2}.
    out = [{(0, 0): 1}]
    for k in range(1, upto + 1):
        terms: dict[tuple[int, int], int] = {}
        add_terms(terms, (((a + 1, b), -c) for (a, b), c in out[k - 1].items()))
        if k >= 2:
            add_terms(terms, (((a, b + 1), -c) for (a, b), c in out[k - 2].items()))
        out.append(terms)
    return out[: upto + 1]


def p_series(upto: int) -> list[STPoly]:
    """p_0..p_upto through the geometric-series recurrence p_k = -t p_{k-1} - s p_{k-2}."""
    return [STPoly(terms) for terms in _p_coefficients(upto)]


def q_series(upto: int) -> list[STPoly]:
    """q_0..q_upto as minus the Cauchy square of the p-series, over integer coefficients."""
    ps = _p_coefficients(upto)
    out = []
    for k in range(upto + 1):
        terms: dict[tuple[int, int], int] = {}
        for i in range(k + 1):
            add_terms(terms, (((a1 + a2, b1 + b2), -c1 * c2)
                              for (a1, b1), c1 in ps[i].items() for (a2, b2), c2 in ps[k - i].items()))
        out.append(STPoly(terms))
    return out


def f_series(upto: int) -> list[STPoly]:
    """f_0..f_upto by expanding log(1 + u) with u = t x + s x^2 directly."""
    t, s = STPoly.var_t(), STPoly.var_s()
    # Coefficients of x^k in u^m, accumulated with alternating 1/m weights.
    out = [STPoly() for _ in range(upto + 1)]
    power: dict[int, STPoly] = {0: STPoly.constant(1)}  # u^0
    for m in range(1, upto + 1):
        nxt: dict[int, STPoly] = {}
        for deg, coeff in power.items():
            for shift, factor in ((1, t), (2, s)):
                if deg + shift > upto:
                    continue
                acc = nxt.get(deg + shift, STPoly()) + coeff * factor
                nxt[deg + shift] = acc
        power = nxt
        weight = Fraction(1 if m % 2 else -1, m)
        for deg, coeff in power.items():
            out[deg] = out[deg] + coeff * weight
    return out


def _sweep(name: str, failures: list[str]) -> CheckResult:
    return CheckResult(name, not failures, "; ".join(failures[:8]))


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

    bad = []
    for r in range(MAX_COMBINAT_R + 1):
        for m in range(-(r // 2), MAX_COMBINAT_MR - r + 1):
            if not combinat_identity(r, m):
                bad.append(f"(r={r}, m={m})")
    checks.append(_sweep(
        f"binomial identity sweep (r <= {MAX_COMBINAT_R}, 2m+r >= 0, m+r <= {MAX_COMBINAT_MR})", bad))

    bad = []
    for r in range(MAX_WZ_R + 1):
        for m in range(-(r // 2), MAX_WZ_MR - r + 1):
            for i in range(r // 2 + 1):
                if not wz_certificate_check(r, m, i):
                    bad.append(f"(r={r}, m={m}, i={i})")
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
            backward = product(basis_element(n, right), basis_element(n, left))
            if forward != backward:
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
                left = sum((coeff * basis_product(n, idx, c) for idx, coeff in ab.items()), zero(n))
                right = sum((coeff * basis_product(n, a, idx)
                             for idx, coeff in basis_product(n, b, c).items()), zero(n))
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
