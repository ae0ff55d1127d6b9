"""The structure-constant checks of `verify --suite algebra` and that each one catches a fault."""

import pytest

from ukin import verify
from ukin.areabasis import AreaIndex, Family
from ukin.dualalgebra import AreaDualElement
from ukin.exactnum import PI

ASSOCIATIVITY = "associativity (ab)c = a(bc) on basis triples"
PI_GRADING = "pi-grading of basis-pair products"
DELTA_ROUTE = "two-route Delta* products agree"


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
    for name in (ASSOCIATIVITY, PI_GRADING, DELTA_ROUTE):
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
