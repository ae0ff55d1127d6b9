"""Acceptance suite: one test per criterion, exact tolerances, stated runtimes.

Each test prints a single `criterion N: PASS` line once its assertions hold;
run with `pytest tests/test_acceptance.py -v -s` to see them live.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import ukin
from ukin.areabasis import AreaIndex, Family, census, valid_indices, dual_basis_indices
from ukin.dualalgebra import (
    basis_element,
    basis_product,
    eval_poly,
    monomial_rank,
    mul_sbar,
    mul_tbar,
    unit,
)
from ukin.exactnum import PiScalar, ball_volume
from ukin.kinematics import full_table
from ukin.stpoly import p_poly
from ukin.verify import (
    check_fpq_relation,
    combinat_identity,
    delta_star_closed_form,
    module_recurrence,
    product_nn,
    tsu_ball_value,
    tsu_ball_value_oracle,
    verify_delta_pairing,
    verify_relations,
    wz_certificate_check,
)


def D(k, q):
    return AreaIndex(Family.DELTA, k, q)


def N(k, q):
    return AreaIndex(Family.N, k, q)


ONE = PiScalar(1)


def _report(number: int, label: str):
    print(f"criterion {number}: PASS  ({label})")


def test_criterion_1_full_n2_array():
    """Full n=2 table, exact, via the CLI, under one second."""
    # The subprocess must import the same `ukin` as this process, also when
    # PYTHONPATH is unset and pytest's `pythonpath` setting found the package.
    package_root = str(Path(ukin.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": package_root + (os.pathsep + inherited if inherited else "")}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "ukin", "table", "--n", "2", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    doc = json.loads(result.stdout)

    def entry_map(target):
        table = next(t for t in doc["tables"] if t["target"] == target.to_json_dict())
        return {
            (tuple(e["left"].values()), tuple(e["right"].values())):
                [(t["num"], t["den"], t["pi"]) for t in e["value"]["terms"]]
            for e in table["entries"]
        }

    def key(idx):
        return (idx.family.value, idx.k, idx.q)

    d21 = entry_map(D(2, 1))
    assert d21[(key(D(1, 0)), key(D(1, 0)))] == [("8", "9", -1)]
    assert d21[(key(D(1, 0)), key(N(1, 0)))] == [("4", "9", -1)]
    assert d21[(key(N(1, 0)), key(D(1, 0)))] == [("4", "9", -1)]
    assert d21[(key(N(1, 0)), key(N(1, 0)))] == [("2", "9", -1)]
    assert d21[(key(D(0, 0)), key(D(2, 1)))] == [("1", "1", 0)]

    d20 = entry_map(D(2, 0))
    assert d20[(key(D(1, 0)), key(D(1, 0)))] == [("16", "9", -1)]
    assert d20[(key(D(1, 0)), key(N(1, 0)))] == [("-4", "9", -1)]
    assert d20[(key(N(1, 0)), key(N(1, 0)))] == [("-8", "9", -1)]
    assert d20[(key(D(0, 0)), key(D(2, 0)))] == [("1", "1", 0)]

    d31 = entry_map(D(3, 1))
    assert d31[(key(D(1, 0)), key(D(2, 0)))] == [("2", "3", 0)]
    assert d31[(key(N(1, 0)), key(D(2, 0)))] == [("1", "3", 0)]
    assert d31[(key(N(1, 0)), key(D(2, 1)))] == [("-2", "3", 0)]
    assert d31[(key(D(1, 0)), key(D(2, 1)))] == [("2", "3", 0)]

    trivial = entry_map(N(1, 0))
    assert trivial == {
        (key(D(0, 0)), key(N(1, 0))): [("1", "1", 0)],
        (key(N(1, 0)), key(D(0, 0))): [("1", "1", 0)],
    }
    assert entry_map(D(0, 0)) == {(key(D(0, 0)), key(D(0, 0))): [("1", "1", 0)]}

    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"n=2 full array exact, {elapsed:.2f}s")


def test_criterion_2_n3_spot_chain():
    start = time.perf_counter()
    top = basis_element(3, D(5, 2))
    assert basis_product(3, D(3, 1), N(2, 0)) == Fraction(-5, 18) * top
    assert basis_product(3, D(3, 1), D(2, 0)) == Fraction(7, 18) * top
    assert basis_product(3, D(2, 0), N(3, 1)) == Fraction(1, 9) * top
    assert basis_product(3, N(2, 0), N(3, 1)) == Fraction(-2, 9) * top
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, f"n=3 spot chain exact, {elapsed:.2f}s")


def test_criterion_3_relation_suite():
    start = time.perf_counter()
    for n in range(2, 7):
        for check in verify_relations(n):
            assert check.passed, (n, check.name, check.detail)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(3, f"relations exact zeros for n=2..6, {elapsed:.2f}s")


def test_criterion_4_leading_constant():
    for n in range(2, 7):
        sign = -1 if n % 2 else 1
        expected = (PiScalar(sign * 2 ** n).div_by_monomial(ball_volume(n))
                    * basis_element(n, D(n, 0)))
        assert eval_poly(p_poly(n), unit(n)) == expected, n
    _report(4, "p_n coefficient (-1)^n 2^n / omega_n for n<=6")


def test_criterion_5_basis_reproduction():
    for n in range(2, 6):
        for idx in valid_indices(n, Family.DELTA):
            got = eval_poly(delta_star_closed_form(n, idx.k, idx.q), unit(n))
            assert got == basis_element(n, idx), (n, idx)
    _report(5, "closed form reproduces every Delta* for n<=5")


def test_criterion_6_graded_dimension():
    for n in range(2, 6):
        counts = census(n)
        for degree in range(2 * n):
            assert monomial_rank(n, degree) == counts.per_degree[degree], (n, degree)
    _report(6, "monomial-image rank equals census for n<=5")


def test_criterion_7_commutativity_and_symmetry():
    for n in range(2, 5):
        for idx in dual_basis_indices(n):
            x = basis_element(n, idx)
            assert mul_sbar(mul_tbar(x)) == mul_tbar(mul_sbar(x)), (n, idx)
        for table in full_table(n):
            for (left, right), coeff in table.entries.items():
                assert table.coefficient(right, left) == coeff, (n, table.target)
    _report(7, "operator commutativity and table symmetry for n<=4")


def test_criterion_8_two_route_products():
    for n in range(2, 5):
        for left in valid_indices(n, Family.N):
            for right in valid_indices(n, Family.N):
                assert product_nn(n, left, right) == basis_product(n, left, right), (n, left, right)
    _report(8, "canonical-form and reduction routes agree on N pairs for n<=4")


def test_criterion_9_identity_sweeps():
    start = time.perf_counter()
    for r in range(26):
        for m in range(-(r // 2), 41 - r):
            assert combinat_identity(r, m), (r, m)
    for r in range(11):
        for m in range(-(r // 2), 21 - r):
            for i in range(r // 2 + 1):
                assert wz_certificate_check(r, m, i), (r, m, i)
    for n in range(1, 9):
        for i in range(n + 1):
            for j in range(n - i + 1):
                assert tsu_ball_value(n, i, j) == tsu_ball_value_oracle(n, i, j), (n, i, j)
    for k in range(1, 41):
        assert check_fpq_relation(k), k
    for n in range(2, 16):
        module_recurrence(n)  # raises on closed-form mismatch
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(9, f"identity sweeps exact, {elapsed:.2f}s")


def test_criterion_10_delta_pairing():
    for n in range(2, 6):
        for idx in valid_indices(n, Family.DELTA):
            assert verify_delta_pairing(n, idx.k, idx.q), (n, idx)
    _report(10, "dual pairing two-route equality for n<=5")
