"""The structure-constant checks of `verify --suite algebra` and that each one catches a fault."""

from collections import Counter
from fractions import Fraction

import pytest

from ukin import dualalgebra, verify
from ukin.areabasis import AreaIndex, Family, census, dual_basis_indices
from ukin.cli import main
from ukin.dualalgebra import AreaDualElement
from ukin.exactnum import PI, PiScalar

UNIT_LAW = "unit law"
COMMUTATIVITY = "product commutativity and degree truncation"
ASSOCIATIVITY = "associativity (ab)c = a(bc) on basis triples"
PI_GRADING = "pi-grading of basis-pair products"
DELTA_ROUTE = "two-route Delta* products agree"
DELTA_N_ROUTE = "two-route Delta* N* products agree"


def _algebra_checks(n):
    return {check.name: check for check in verify.algebra_suite(n)}


def _failing(checks):
    return {check.name: check.detail for check in checks if not check.passed}


def _patch_one_coefficient(monkeypatch, n, left, right, change):
    """Make verify read basis_product(n, left, right) with its first coordinate changed."""
    real = verify.basis_product

    def patched(m, a, b):
        result = real(m, a, b)
        if (m, a, b) != (n, left, right):
            return result
        idx, coeff = result.items()[0]
        return result + AreaDualElement(m, {idx: change(coeff) - coeff})

    monkeypatch.setattr(verify, "basis_product", patched)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_new_checks_pass(n):
    checks = _algebra_checks(n)
    for name in (ASSOCIATIVITY, PI_GRADING, DELTA_ROUTE, DELTA_N_ROUTE):
        assert checks[name].passed, checks[name].detail


def test_associativity_fails_on_changed_coefficient(monkeypatch):
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.DELTA, 1, 0), AreaIndex(Family.N, 1, 0),
                           lambda c: 2 * c)
    check = _algebra_checks(3)[ASSOCIATIVITY]
    assert not check.passed and "N:1,0" in check.detail


def test_pi_grading_fails_on_shifted_exponent(monkeypatch):
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.N, 1, 0), AreaIndex(Family.N, 2, 0),
                           lambda c: c * PI)
    check = _algebra_checks(3)[PI_GRADING]
    assert not check.passed and check.detail.startswith("N:1,0 * N:2,0 at ")


def test_delta_route_fails_on_changed_coefficient(monkeypatch):
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.DELTA, 1, 0), AreaIndex(Family.DELTA, 2, 1),
                           lambda c: 2 * c)
    check = _algebra_checks(3)[DELTA_ROUTE]
    assert not check.passed and check.detail == "Delta:1,0 * Delta:2,1"


def test_delta_n_route_fails_on_changed_coefficient(monkeypatch):
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.DELTA, 2, 0), AreaIndex(Family.N, 1, 0),
                           lambda c: 2 * c)
    check = _algebra_checks(3)[DELTA_N_ROUTE]
    assert not check.passed and check.detail == "Delta:2,0 * N:1,0"


def test_unit_law_fails_on_changed_unit_product(monkeypatch):
    # The unit times N*_{1,0} read as twice N*_{1,0}; every check that reads that pair fails.
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.DELTA, 0, 0), AreaIndex(Family.N, 1, 0),
                           lambda c: 2 * c)
    failing = _failing(verify.algebra_suite(3))
    assert set(failing) == {UNIT_LAW, COMMUTATIVITY, DELTA_N_ROUTE, ASSOCIATIVITY}
    assert failing[UNIT_LAW] == "N:1,0"
    assert failing[COMMUTATIVITY] == failing[DELTA_N_ROUTE] == "Delta:0,0 * N:1,0"


def test_product_commutativity_fails_on_changed_ordered_pair(monkeypatch):
    # N*_{1,0} Delta*_{1,0} doubled, Delta*_{1,0} N*_{1,0} left as it is.
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.N, 1, 0), AreaIndex(Family.DELTA, 1, 0),
                           lambda c: 2 * c)
    assert _failing(verify.algebra_suite(3)) == {COMMUTATIVITY: "Delta:1,0 * N:1,0"}


def test_degree_truncation_fails_on_product_above_top_degree(monkeypatch):
    # Delta*_{3,1} Delta*_{3,1} has degree 6 > 2n-1 at n = 3; it reads as pi^2 times the unit, on
    # its pi-grading.  No two-route check reads a Delta pair above the top degree.
    real = verify.basis_product
    top_pair = (AreaIndex(Family.DELTA, 3, 1), AreaIndex(Family.DELTA, 3, 1))

    def patched(n, left, right):
        if (n, (left, right)) != (3, top_pair):
            return real(n, left, right)
        return AreaDualElement(3, {AreaIndex(Family.DELTA, 0, 0): PiScalar(1, 2)})

    monkeypatch.setattr(verify, "basis_product", patched)
    assert _failing(verify.algebra_suite(3)) == {COMMUTATIVITY: "truncation: Delta:3,1 * Delta:3,1"}


def test_graded_rank_fails_on_lowered_rank(monkeypatch):
    real = verify.monomial_rank
    monkeypatch.setattr(verify, "monomial_rank", lambda n, d: real(n, d) - (d == 2))
    rank = census(3).per_degree[2]
    assert _failing(verify.algebra_suite(3)) == {
        "graded rank equals Delta/N census": f"degree 2: rank {rank - 1} != census {rank}"}


def test_kinematic_symmetry_fails_on_changed_entry(monkeypatch):
    # The entry (Delta_{1,0}, N_{1,0}) of the delta-n table of Delta_{2,0}, doubled.
    real = verify.full_table
    target, pair = AreaIndex(Family.DELTA, 2, 0), (AreaIndex(Family.DELTA, 1, 0), AreaIndex(Family.N, 1, 0))

    def patched(n, basis):
        tables = real(n, basis)
        return [table._replace(entries={**table.entries, pair: 2 * table.entries[pair]})
                if (basis, table.target) == (verify.BASIS_DELTA_N, target) else table for table in tables]

    monkeypatch.setattr(verify, "full_table", patched)
    assert _failing(verify.algebra_suite(3)) == {
        "kinematic tables symmetric": "delta-n A(Delta:2,0): Delta:1,0,N:1,0; delta-n A(Delta:2,0): N:1,0,Delta:1,0"}


@pytest.mark.parametrize("basis, target, unit", [
    (verify.BASIS_DELTA_N, AreaIndex(Family.DELTA, 2, 0), AreaIndex(Family.DELTA, 0, 0)),
    (verify.BASIS_B_GAMMA, AreaIndex(Family.B, 2, 0), AreaIndex(Family.GAMMA, 0, 0)),
])
def test_kinematic_counit_fails_on_doubled_unit_entries(monkeypatch, basis, target, unit):
    # Both unit entries of one table doubled: the table stays symmetric.
    real = verify.full_table
    pairs = ((unit, target), (target, unit))

    def patched(n, basis_name):
        tables = real(n, basis_name)
        return [table._replace(entries={**table.entries, **{pair: 2 * table.entries[pair] for pair in pairs}})
                if (basis_name, table.target) == (basis, target) else table for table in tables]

    monkeypatch.setattr(verify, "full_table", patched)
    name = f"{basis} A({target.text()})"
    assert _failing(verify.algebra_suite(3)) == {
        "kinematic tables counit": f"{name}: {unit.text()},{target.text()}; {name}: {target.text()},{unit.text()}"}


def test_b_relation_fails_on_nonzero_b_pair(monkeypatch):
    real = verify.basis_product
    pair = (AreaIndex(Family.B, 1, 0), AreaIndex(Family.B, 2, 0))

    def patched(n, left, right):
        if (n, (left, right)) != (3, pair):
            return real(n, left, right)
        return AreaDualElement(3, {AreaIndex(Family.DELTA, 3, 0): PiScalar(Fraction(1, 2), 1)})

    monkeypatch.setattr(verify, "basis_product", patched)
    assert _failing(verify.verify_relations(3)) == {
        "B* * B* = 0 (all pairs)": "B:1,0 * B:2,0 = (1/2 * pi) * Delta_{3,0}"}


def test_algebra_suite_reads_each_ordered_pair_once(monkeypatch):
    real = verify.basis_product
    reads = Counter()

    def counted(n, left, right):
        reads[left, right] += 1
        return real(n, left, right)

    monkeypatch.setattr(verify, "basis_product", counted)
    assert not _failing(verify.algebra_suite(3))
    indices = dual_basis_indices(3)
    assert reads == Counter({(left, right): 1 for left in indices for right in indices})


FPQ_SWEEP = f"-(4s-t^2) q_(k-1) + t p_k = (k+1)^2 f_(k+1) (k <= {verify.MAX_FPQ_K})"


@pytest.mark.parametrize("change", [1, PI], ids=["rational", "pi"])
def test_fpq_sweep_fails_on_changed_q_coefficient(monkeypatch, change):
    # The t^7 coefficient of q_7, moved by 1 or by pi; only the relation at k = 8 reads q_7.
    real = verify.q_coefficients

    def patched(k):
        coeffs = real(k)
        return [coeffs[0] + change, *coeffs[1:]] if k == 7 else coeffs

    monkeypatch.setattr(verify, "q_coefficients", patched)
    checks = {check.name: check for check in verify.identities_suite(4)}
    assert not checks[FPQ_SWEEP].passed and checks[FPQ_SWEEP].detail == "k=8"


SERIES_SWEEP = f"closed forms match series expansions (k <= {verify.MAX_SERIES_K})"


@pytest.mark.parametrize("reader, label", [("p_coefficients", "p_5"), ("q_coefficients", "q_5"),
                                           ("fu_coefficients", "f_5")])
def test_series_sweep_fails_on_changed_closed_form(monkeypatch, reader, label):
    # The s^1 coefficient of the degree-5 closed form, moved by 1/2.
    real = getattr(verify, reader)

    def patched(k):
        coeffs = real(k)
        return [coeffs[0], coeffs[1] + Fraction(1, 2), *coeffs[2:]] if k == 5 else coeffs

    monkeypatch.setattr(verify, reader, patched)
    checks = {check.name: check for check in verify.identities_suite(4)}
    assert not checks[SERIES_SWEEP].passed and checks[SERIES_SWEEP].detail == label


WZ_SWEEP = f"telescoping certificate termwise (r <= {verify.MAX_WZ_R})"


def test_wz_sweep_fails_on_changed_term(monkeypatch):
    # One summand F(m=3, i=2) at r = 6, moved by 1: the certificate at (6, 3, 2) reads it.
    real = verify._combinat_term
    assert verify.wz_certificate_check(6, 3, 2)
    monkeypatch.setattr(verify, "_combinat_term", lambda r, m, i: real(r, m, i) + ((r, m, i) == (6, 3, 2)))
    checks = {check.name: check for check in verify.identities_suite(4)}
    assert not checks[WZ_SWEEP].passed and "(r=6, m=3, i=2)" in checks[WZ_SWEEP].detail


PAIRING = "dual-basis pairing two-route (n=4, all k,q,j)"


def test_delta_pairing_fails_on_changed_pairing_value(monkeypatch):
    # The pairing of the (3, 1) functional at j = 1, moved by one pi-term of its own exponent.
    real = verify.mustar_pairing

    def patched(n, k, q, j):
        value = real(n, k, q, j)
        return value + value * Fraction(1, 7) if (n, k, q, j) == (4, 3, 1, 1) else value

    monkeypatch.setattr(verify, "mustar_pairing", patched)
    checks = {check.name: check for check in verify.identities_suite(4)}
    assert not checks[PAIRING].passed and checks[PAIRING].detail == "Delta:3,1"


NN_ROUTE = "two-route N* products agree"


def test_nn_route_fails_on_changed_coefficient(monkeypatch):
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.N, 1, 0), AreaIndex(Family.N, 2, 0),
                           lambda c: 2 * c)
    check = _algebra_checks(3)[NN_ROUTE]
    assert not check.passed and check.detail == "N:1,0 * N:2,0"


def test_associativity_fails_on_non_monomial_coordinate(monkeypatch):
    # c becomes c + c*pi: the product can no longer be read on the pi-grading.
    _patch_one_coefficient(monkeypatch, 3, AreaIndex(Family.DELTA, 1, 0), AreaIndex(Family.N, 1, 0),
                           lambda c: c + c * PI)
    checks = _algebra_checks(3)
    assert not checks[ASSOCIATIVITY].passed and "N:1,0" in checks[ASSOCIATIVITY].detail
    assert checks[PI_GRADING].detail.startswith("Delta:1,0 * N:1,0 at ")


def test_closed_form_off_the_pi_grading_fails_every_route(monkeypatch):
    # The prefactor of Delta*_{2,0} given one pi too many.
    real = verify._delta_star_coefficients

    def patched(n, k, q):
        exponent, scale, coeffs = real(n, k, q)
        return (exponent + 1 if (k, q) == (2, 0) else exponent), scale, coeffs

    monkeypatch.setattr(verify, "_delta_star_coefficients", patched)
    checks = _algebra_checks(3)
    assert checks["closed form reproduces each Delta* basis element"].detail == "Delta:2,0"
    assert "Delta:2,0" in checks[DELTA_ROUTE].detail and "Delta:2,0" in checks[DELTA_N_ROUTE].detail
    assert checks[NN_ROUTE].detail == ("N:1,0 * N:2,0; N:2,0 * N:1,0; N:2,0 * N:2,0; "
                                       "N:2,0 * N:3,1; N:3,1 * N:2,0")
    with pytest.raises(verify.AlgebraConsistencyError):
        verify.product_nn(3, AreaIndex(Family.N, 2, 0), AreaIndex(Family.N, 1, 0))


# Every cache that holds a value derived from the raising rules, taken before
# any test patches a name.
RULE_CACHES = tuple(getattr(dualalgebra, name) for name in (
    "_tbar_rule", "_sbar_rule", "_integer_image", "_rational_image", "_degree_system",
    "_degree_solution", "_degree_forms", "_dn_product"))

# The caches of dualalgebra whose values do not depend on the raising rules.
RULE_INDEPENDENT_CACHES = ("unit", "tbar", "sbar", "vbar", "_edge_ratio")


def test_every_dualalgebra_cache_is_classified():
    # A new cache of a rule-derived value must join RULE_CACHES, or a patched
    # rule would not reach it and test_changed_rule_coefficient_fails_verify
    # would pass on stale values.
    caches = {name for name, value in vars(dualalgebra).items()
              if hasattr(value, "cache_clear") and value.__module__ == dualalgebra.__name__}
    assert caches == {cached.__name__ for cached in RULE_CACHES} | set(RULE_INDEPENDENT_CACHES)


def _clear_rule_caches():
    for cached in RULE_CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_rule_caches():
    _clear_rule_caches()
    yield
    _clear_rule_caches()


def test_changed_rule_coefficient_fails_verify(monkeypatch, capsys, fresh_rule_caches):
    # One coefficient of the rescaled rule sbar * N'_{3,1} at n = 4, doubled.
    real = dualalgebra._sbar_rule

    def patched(n, family, k, q):
        rule = real(n, family, k, q)
        if (n, family, k, q) != (4, Family.N, 3, 1):
            return rule
        (idx, coeff), *rest = rule
        return ((idx, 2 * coeff), *rest)

    monkeypatch.setattr(dualalgebra, "_sbar_rule", patched)
    assert main(["verify", "--n", "4", "--suite", "all"]) == 1
    report = capsys.readouterr().err
    assert "operator commutativity sbar tbar = tbar sbar: FAIL  [N:2,0; N:3,1]" in report
    assert "p_4*v = 0: FAIL" in report
