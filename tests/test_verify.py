"""The structure-constant checks of `verify --suite algebra` and that each one catches a fault."""

import pytest

from ukin import dualalgebra, verify
from ukin.areabasis import AreaIndex, Family
from ukin.cli import main
from ukin.dualalgebra import AreaDualElement
from ukin.exactnum import PI
from ukin.stpoly import STPoly

ASSOCIATIVITY = "associativity (ab)c = a(bc) on basis triples"
PI_GRADING = "pi-grading of basis-pair products"
DELTA_ROUTE = "two-route Delta* products agree"
DELTA_N_ROUTE = "two-route Delta* N* products agree"


def _algebra_checks(n):
    return {check.name: check for check in verify.algebra_suite(n)}


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


FPQ_SWEEP = f"-(4s-t^2) q_(k-1) + t p_k = (k+1)^2 f_(k+1) (k <= {verify.MAX_FPQ_K})"


@pytest.mark.parametrize("change", [1, PI], ids=["rational", "pi"])
def test_fpq_sweep_fails_on_changed_q_coefficient(monkeypatch, change):
    # The t^7 coefficient of q_7, moved by 1 or by pi; only the relation at k = 8 reads q_7.
    real = verify.q_poly

    def patched(k):
        poly = real(k)
        return poly + STPoly.monomial(7, 0, change) if k == 7 else poly

    monkeypatch.setattr(verify, "q_poly", patched)
    checks = {check.name: check for check in verify.identities_suite(4)}
    assert not checks[FPQ_SWEEP].passed and checks[FPQ_SWEEP].detail == "k=8"


# Every cache that holds a value derived from the raising rules, taken before
# any test patches a name.
RULE_CACHES = tuple(getattr(dualalgebra, name) for name in (
    "_tbar_rule", "_sbar_rule", "_integer_image", "_rational_image", "_degree_system",
    "_basis_canonical", "_dn_product"))

# The caches of dualalgebra whose values do not depend on the raising rules.
RULE_INDEPENDENT_CACHES = ("unit", "tbar", "sbar", "vbar", "_edge_ratio", "_degree_columns")


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
