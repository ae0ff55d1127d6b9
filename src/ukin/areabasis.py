"""Index bookkeeping for the four bases of unitary area measures.

Measures come in two primal bases, B/Gamma and Delta/N, indexed by pairs
(k, q) with per-family validity ranges depending on the ambient complex
dimension n (always n >= 2):

    Delta: 0 <= k <= 2n-1,  max(0, k-n)   <= q <= floor(k/2)
    N:                      max(0, k-n+1) <= q <  k/2
    B:                      max(0, k-n)   <= q <  k/2
    Gamma:                  max(0, k-n+1) <= q <= floor(k/2)

The degree of an index is k.  This module also carries the exact change of
basis between the two bases and between their duals: one cached block of at
most 2x2 per (k, q), whose rows and columns give all four maps.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


class InvalidIndexError(ValueError):
    """An index outside its family's validity range for the given n."""


class Family(str, Enum):
    DELTA = "Delta"
    N = "N"
    B = "B"
    GAMMA = "Gamma"

    def __str__(self) -> str:
        return self.value


_FAMILY_RANK = {Family.DELTA: 0, Family.N: 1, Family.B: 2, Family.GAMMA: 3}

_LATEX_NAME = {Family.DELTA: "\\Delta", Family.N: "N", Family.B: "B", Family.GAMMA: "\\Gamma"}


class AreaIndex(NamedTuple):
    family: Family
    k: int
    q: int

    @property
    def degree(self) -> int:
        return self.k

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.k, _FAMILY_RANK[self.family], self.q)

    def text(self) -> str:
        """CLI syntax, e.g. 'Delta:2,1'."""
        return f"{self.family.value}:{self.k},{self.q}"

    def latex(self) -> str:
        return f"{_LATEX_NAME[self.family]}_{{{self.k},{self.q}}}"

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "k": self.k, "q": self.q}

    def __str__(self) -> str:
        return f"{self.family.value}_{{{self.k},{self.q}}}"


def _parse_integer(text: str) -> int:
    # ASCII digits with an optional sign; int() alone also reads '1_0',
    # surrounding whitespace and non-ASCII digits.
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_index(text: str) -> AreaIndex:
    """Parse the CLI index syntax 'Family:k,q'; k and q are ASCII integers."""
    try:
        name, coords = text.split(":")
        k_str, q_str = coords.split(",")
        return AreaIndex(Family(name), _parse_integer(k_str), _parse_integer(q_str))
    except (ValueError, KeyError) as exc:
        raise InvalidIndexError(
            f"malformed index {text!r}; expected e.g. 'Delta:2,1' with family "
            "one of Delta, N, B, Gamma"
        ) from exc


def _require_dimension(n: int) -> None:
    if n < 2:
        raise InvalidIndexError(f"ambient dimension must satisfy n >= 2, got {n}")


def _q_bounds(n: int, family: Family, k: int) -> tuple[int, int]:
    # Inclusive q-range of one family in degree 0 <= k <= 2n-1, as in the
    # module docstring (2q < k is q <= (k-1)//2); empty when lo > hi.
    if family is Family.DELTA:
        return max(0, k - n), k // 2
    if family is Family.N:
        return max(0, k - n + 1), (k - 1) // 2
    if family is Family.B:
        return max(0, k - n), (k - 1) // 2
    return max(0, k - n + 1), k // 2  # Gamma


def _family_indices(n: int, family: Family, k: int) -> list[AreaIndex]:
    lo, hi = _q_bounds(n, family, k)
    return [AreaIndex(family, k, q) for q in range(lo, hi + 1)]


def is_valid(n: int, index: AreaIndex) -> bool:
    _require_dimension(n)
    k = index.k
    if not 0 <= k <= 2 * n - 1:
        return False
    lo, hi = _q_bounds(n, index.family, k)
    return lo <= index.q <= hi


def require_valid(n: int, index: AreaIndex) -> AreaIndex:
    if not is_valid(n, index):
        raise InvalidIndexError(f"invalid index {index.text()} for n={n}")
    return index


def valid_indices(n: int, family: Family) -> list[AreaIndex]:
    """All valid indices of one family, ordered by (k, q) ascending."""
    _require_dimension(n)
    return [idx for k in range(2 * n) for idx in _family_indices(n, family, k)]


def dual_basis_indices(n: int) -> list[AreaIndex]:
    """The Delta and N indices, merged and ordered by (k, family, q)."""
    merged = valid_indices(n, Family.DELTA) + valid_indices(n, Family.N)
    return sorted(merged, key=lambda idx: idx.sort_key)


def indices_of_degree(n: int, degree: int, families: tuple[Family, ...] = (Family.DELTA, Family.N)) -> list[AreaIndex]:
    _require_dimension(n)
    if not 0 <= degree <= 2 * n - 1:
        return []
    merged = [idx for family in families for idx in _family_indices(n, family, degree)]
    return sorted(merged, key=lambda idx: idx.sort_key)


class Census(NamedTuple):
    n: int
    per_degree: tuple[int, ...]        # Delta + N counts, degrees 0 .. 2n-1
    per_degree_delta: tuple[int, ...]
    per_degree_n: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.per_degree)


def census(n: int) -> Census:
    """Per-degree dimension count of the Delta/N (equivalently B/Gamma) basis."""
    _require_dimension(n)

    def counts(family: Family) -> tuple[int, ...]:
        return tuple(max(0, hi - lo + 1) for lo, hi in (_q_bounds(n, family, k) for k in range(2 * n)))

    deltas, ns = counts(Family.DELTA), counts(Family.N)
    return Census(n, tuple(d + m for d, m in zip(deltas, ns)), deltas, ns)


# ---------------------------------------------------------------------------
# Basis conversions.  All coordinates are exact rationals.
# ---------------------------------------------------------------------------

Coordinates = dict[AreaIndex, Fraction]


@lru_cache(maxsize=None)
def _block(n: int, k: int, q: int) -> tuple[dict[AreaIndex, Coordinates], dict[AreaIndex, Coordinates]]:
    """The (k, q) block of the change of basis and its exact inverse.

    The first map sends each primal B/Gamma measure to its Delta/N
    coordinates, the second each Delta/N measure to its B/Gamma coordinates:

        B_{k,q}     = Delta_{k,q} - N_{k,q}
        Gamma_{k,q} = Delta_{k,q} + (k-2q)/(2(n-k+q)) N_{k,q}
        Delta_{k,q} = (k-2q)/(2n-k) B_{k,q} + 2(n-k+q)/(2n-k) Gamma_{k,q}
        N_{k,q}     = 2(n-k+q)/(2n-k) (Gamma_{k,q} - B_{k,q})

    At q = k-n only B and Delta exist, and at 2q = k only Gamma and Delta,
    so there the block is the 1x1 identity B_{k,k-n} = Delta_{k,k-n},
    resp. Gamma_{k,k/2} = Delta_{k,k/2}.  The dual bases pair diagonally
    with the primal ones, so the dual maps are the transposes: a B*/Gamma*
    element in Delta*/N* coordinates is a column of the inverse, and a
    Delta*/N* element in B*/Gamma* coordinates is a column of the first map.
    Read only, never mutated.
    """
    delta, normal = AreaIndex(Family.DELTA, k, q), AreaIndex(Family.N, k, q)
    b, gamma = AreaIndex(Family.B, k, q), AreaIndex(Family.GAMMA, k, q)
    if q == k - n or 2 * q == k:
        edge = b if q == k - n else gamma
        return {edge: {delta: Fraction(1)}}, {delta: {edge: Fraction(1)}}
    ratio = Fraction(k - 2 * q, 2 * (n - k + q))
    inverse_det = 1 / (1 + ratio)  # = 2(n-k+q)/(2n-k)
    primal = {b: {delta: Fraction(1), normal: Fraction(-1)}, gamma: {delta: Fraction(1), normal: ratio}}
    inverse = {delta: {b: ratio * inverse_det, gamma: inverse_det},
               normal: {gamma: inverse_det, b: -inverse_det}}
    return primal, inverse


def _read(n: int, index: AreaIndex, families: tuple[Family, Family], *, of_inverse: bool,
          column: bool) -> Coordinates:
    # One row, or for the dual maps one column, of _block or of its inverse.
    require_valid(n, index)
    if index.family not in families:
        raise InvalidIndexError(
            f"expected a {families[0].value} or {families[1].value} index, got {index.text()}")
    primal, inverse = _block(n, index.k, index.q)
    rows = inverse if of_inverse else primal
    if column:
        return {row: coeffs[index] for row, coeffs in rows.items()}
    return dict(rows[index])


def primal_dn_from_bg(n: int, index: AreaIndex) -> Coordinates:
    """Primal B/Gamma basis measure in Delta/N coordinates: a row of `_block`."""
    return _read(n, index, (Family.B, Family.GAMMA), of_inverse=False, column=False)


def primal_bg_from_dn(n: int, index: AreaIndex) -> Coordinates:
    """Primal Delta/N basis measure in B/Gamma coordinates: a row of the inverse block."""
    return _read(n, index, (Family.DELTA, Family.N), of_inverse=True, column=False)


def dual_bg_to_dn(n: int, index: AreaIndex) -> Coordinates:
    """Dual B*/Gamma* basis element in Delta*/N* coordinates: a column of the inverse block."""
    return _read(n, index, (Family.B, Family.GAMMA), of_inverse=True, column=True)


def dual_dn_to_bg(n: int, index: AreaIndex) -> Coordinates:
    """Dual Delta*/N* basis element in B*/Gamma* coordinates: a column of `_block`."""
    return _read(n, index, (Family.DELTA, Family.N), of_inverse=False, column=True)
