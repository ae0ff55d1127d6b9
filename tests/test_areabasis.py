"""Index ranges, census, and the exact basis conversions."""

from fractions import Fraction

import pytest

from ukin.areabasis import (
    AreaIndex,
    Family,
    InvalidIndexError,
    census,
    dual_bg_to_dn,
    dual_dn_to_bg,
    is_valid,
    parse_index,
    primal_bg_from_dn,
    primal_dn_from_bg,
    valid_indices,
)


def idx(family: str, k: int, q: int) -> AreaIndex:
    return AreaIndex(Family(family), k, q)


class TestRanges:
    def test_delta_n2(self):
        assert valid_indices(2, Family.DELTA) == [
            idx("Delta", 0, 0), idx("Delta", 1, 0),
            idx("Delta", 2, 0), idx("Delta", 2, 1), idx("Delta", 3, 1),
        ]

    def test_n_family_n2(self):
        assert valid_indices(2, Family.N) == [idx("N", 1, 0)]

    def test_n_family_n3(self):
        assert valid_indices(3, Family.N) == [idx("N", 1, 0), idx("N", 2, 0), idx("N", 3, 1)]

    def test_n_family_degree_window(self):
        # nonempty only for 1 <= k <= 2n-3
        for n in range(2, 7):
            ks = {i.k for i in valid_indices(n, Family.N)}
            assert ks <= set(range(1, 2 * n - 2))

    def test_degree_bound(self):
        for n in range(2, 7):
            for family in Family:
                for i in valid_indices(n, family):
                    assert i.degree <= 2 * n - 1

    def test_n_below_two_rejected(self):
        with pytest.raises(InvalidIndexError):
            valid_indices(1, Family.DELTA)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_docstring_ranges(self, n):
        # Delta: max(0, k-n) <= q <= floor(k/2);  N: max(0, k-n+1) <= q < k/2;
        # B: max(0, k-n) <= q < k/2;  Gamma: max(0, k-n+1) <= q <= floor(k/2).
        ranges = {
            Family.DELTA: lambda k, q: max(0, k - n) <= q <= k // 2,
            Family.N: lambda k, q: max(0, k - n + 1) <= q and 2 * q < k,
            Family.B: lambda k, q: max(0, k - n) <= q and 2 * q < k,
            Family.GAMMA: lambda k, q: max(0, k - n + 1) <= q and 2 * q <= k,
        }
        for family, in_range in ranges.items():
            expected = [AreaIndex(family, k, q) for k in range(2 * n) for q in range(k + 1)
                        if in_range(k, q)]
            assert valid_indices(n, family) == expected, family
            assert all(is_valid(n, i) for i in expected)
            assert not is_valid(n, AreaIndex(family, 2 * n, n))

    def test_parse_roundtrip(self):
        assert parse_index("Delta:2,1") == idx("Delta", 2, 1)
        assert parse_index("Gamma:4,2") == idx("Gamma", 4, 2)
        with pytest.raises(InvalidIndexError):
            parse_index("Delta:2")
        with pytest.raises(InvalidIndexError):
            parse_index("Sigma:1,0")

    def test_parse_reads_only_ascii_integers(self):
        assert parse_index("N:+3,-0") == idx("N", 3, 0)
        for text in ("Delta:1_0,0", "Delta:\u0661,0", "Delta: 2,1", "Delta:2,", "Delta:-,1", "Delta:+-2,1"):
            with pytest.raises(InvalidIndexError, match="malformed index"):
                parse_index(text)


class TestCensus:
    def test_n2_total(self):
        assert census(2).total == 6

    def test_n3_profile(self):
        counts = census(3)
        assert counts.per_degree == (1, 2, 3, 3, 2, 1)
        assert counts.total == 12

    def test_n2_degree2(self):
        assert census(2).per_degree[2] == 2

    def test_palindromic_profile(self):
        # observed symmetry under k -> (2n-1) - k; checked, not assumed
        for n in range(2, 7):
            profile = census(n).per_degree
            assert profile == profile[::-1], n

    def test_split_sums(self):
        for n in range(2, 7):
            counts = census(n)
            assert counts.total == sum(counts.per_degree_delta) + sum(counts.per_degree_n)


class TestDualConversions:
    def test_b10_n2(self):
        assert dual_bg_to_dn(2, idx("B", 1, 0)) == {
            idx("Delta", 1, 0): Fraction(1, 3),
            idx("N", 1, 0): Fraction(-2, 3),
        }

    def test_gamma_top_is_delta(self):
        assert dual_bg_to_dn(2, idx("Gamma", 2, 1)) == {idx("Delta", 2, 1): Fraction(1)}

    def test_b_edge_identifies_with_delta(self):
        # q = k-n: the N coefficient vanishes structurally
        assert dual_bg_to_dn(3, idx("B", 3, 0)) == {idx("Delta", 3, 0): Fraction(1)}
        assert dual_bg_to_dn(2, idx("B", 2, 0)) == {idx("Delta", 2, 0): Fraction(1)}

    def test_gamma_generic(self):
        assert dual_bg_to_dn(3, idx("Gamma", 2, 0)) == {
            idx("Delta", 2, 0): Fraction(1, 2),
            idx("N", 2, 0): Fraction(1, 2),
        }

    def test_invalid_source(self):
        with pytest.raises(InvalidIndexError):
            dual_bg_to_dn(2, idx("B", 2, 1))
        with pytest.raises(InvalidIndexError):
            dual_bg_to_dn(2, idx("Delta", 1, 0))

    def test_round_trip_all_indices(self):
        for n in range(2, 7):
            for family in (Family.B, Family.GAMMA):
                for source in valid_indices(n, family):
                    acc: dict[AreaIndex, Fraction] = {}
                    for mid, c1 in dual_bg_to_dn(n, source).items():
                        for back, c2 in dual_dn_to_bg(n, mid).items():
                            acc[back] = acc.get(back, Fraction(0)) + c1 * c2
                    acc = {k: v for k, v in acc.items() if v}
                    assert acc == {source: Fraction(1)}, (n, source)

    def test_round_trip_dn_side(self):
        for n in range(2, 7):
            for family in (Family.DELTA, Family.N):
                for source in valid_indices(n, family):
                    acc: dict[AreaIndex, Fraction] = {}
                    for mid, c1 in dual_dn_to_bg(n, source).items():
                        for back, c2 in dual_bg_to_dn(n, mid).items():
                            acc[back] = acc.get(back, Fraction(0)) + c1 * c2
                    acc = {k: v for k, v in acc.items() if v}
                    assert acc == {source: Fraction(1)}, (n, source)


class TestBlock:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_docstring_block(self, n):
        # B = Delta - N, Gamma = Delta + (k-2q)/(2(n-k+q)) N in a generic block;
        # B_{k,k-n} = Delta_{k,k-n} and Gamma_{k,k/2} = Delta_{k,k/2} at the edges.
        for source in valid_indices(n, Family.B) + valid_indices(n, Family.GAMMA):
            k, q = source.k, source.q
            if q == k - n or 2 * q == k:
                expected = {idx("Delta", k, q): Fraction(1)}
            elif source.family is Family.B:
                expected = {idx("Delta", k, q): Fraction(1), idx("N", k, q): Fraction(-1)}
            else:
                expected = {idx("Delta", k, q): Fraction(1),
                            idx("N", k, q): Fraction(k - 2 * q, 2 * (n - k + q))}
            assert primal_dn_from_bg(n, source) == expected, source

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dual_maps_are_transposes(self, n):
        bg = valid_indices(n, Family.B) + valid_indices(n, Family.GAMMA)
        dn = valid_indices(n, Family.DELTA) + valid_indices(n, Family.N)
        for x in bg:
            for y in dn:
                assert dual_bg_to_dn(n, x).get(y, 0) == primal_bg_from_dn(n, y).get(x, 0), (x, y)
                assert dual_dn_to_bg(n, y).get(x, 0) == primal_dn_from_bg(n, x).get(y, 0), (x, y)

    def test_family_checks(self):
        for convert, wrong in ((primal_dn_from_bg, "Delta"), (dual_bg_to_dn, "N"),
                               (primal_bg_from_dn, "B"), (dual_dn_to_bg, "Gamma")):
            with pytest.raises(InvalidIndexError, match="expected a"):
                convert(2, idx(wrong, 1, 0))


class TestPrimalConversions:
    def test_delta10_n2(self):
        assert primal_bg_from_dn(2, idx("Delta", 1, 0)) == {
            idx("B", 1, 0): Fraction(1, 3),
            idx("Gamma", 1, 0): Fraction(2, 3),
        }

    def test_n10_n2(self):
        assert primal_bg_from_dn(2, idx("N", 1, 0)) == {
            idx("Gamma", 1, 0): Fraction(2, 3),
            idx("B", 1, 0): Fraction(-2, 3),
        }

    def test_top_block_identification(self):
        for n in (2, 3, 4):
            for k in range(0, 2 * n, 2):
                if is_valid(n, idx("Delta", k, k // 2)):
                    assert primal_bg_from_dn(n, idx("Delta", k, k // 2)) == {
                        idx("Gamma", k, k // 2): Fraction(1)}

    def test_primal_pairing_duality(self):
        # <x*, y> computed through both conversion layers is diagonal
        for n in (2, 3, 4):
            bg = valid_indices(n, Family.B) + valid_indices(n, Family.GAMMA)
            for left in bg:
                dual = dual_bg_to_dn(n, left)
                for right in bg:
                    primal = primal_dn_from_bg(n, right)
                    pairing = sum(
                        (dual.get(i, Fraction(0)) * primal.get(i, Fraction(0))
                         for i in set(dual) | set(primal)),
                        Fraction(0),
                    )
                    assert pairing == (1 if left == right else 0), (n, left, right)

    def test_primal_round_trip(self):
        for n in range(2, 7):
            for family in (Family.DELTA, Family.N):
                for source in valid_indices(n, family):
                    acc: dict[AreaIndex, Fraction] = {}
                    for mid, c1 in primal_bg_from_dn(n, source).items():
                        for back, c2 in primal_dn_from_bg(n, mid).items():
                            acc[back] = acc.get(back, Fraction(0)) + c1 * c2
                    acc = {k: v for k, v in acc.items() if v}
                    assert acc == {source: Fraction(1)}, (n, source)


class TestRendering:
    def test_text_and_latex(self):
        index = idx("Delta", 2, 1)
        assert index.text() == "Delta:2,1"
        assert index.latex() == "\\Delta_{2,1}"
        assert str(index) == "Delta_{2,1}"
        assert idx("Gamma", 1, 0).latex() == "\\Gamma_{1,0}"
        assert index.to_json_dict() == {"family": "Delta", "k": 2, "q": 1}
