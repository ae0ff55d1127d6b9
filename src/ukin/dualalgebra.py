"""The dual algebra of unitary area measures.

Elements are finite linear combinations of the dual Delta*/N* basis with
PiScalar coefficients: AreaDualElement is the exactnum.Combination keyed by
Delta/N index, which adds its ambient dimension n (elements of different n
never add or compare equal), index validation and rendering.  The algebra is
generated by three distinguished elements

    tbar = 2 omega_{2n-2}/omega_{2n-1} * Delta*_{1,0}   (degree 1),
    sbar = n/pi * Delta*_{2,1}                          (degree 2),
    vbar = 2 omega_{2n-2}/omega_{2n-1} * B*_{1,0}       (degree 1),

subject to vbar^2 = 0 and the relations f_{n+1} = f_{n+2} = 0,
p_n - q_{n-1} vbar = 0, p_n vbar = 0 in sbar, tbar.  Multiplication by tbar
and sbar acts on basis elements through one-step raising rules; every other
product is reduced to those through the canonical form

    x = phi(sbar, tbar) + psi(sbar, tbar) * vbar.

pi never enters the degree systems.  In the rescaled basis
X'_{k,q} = pi^(-floor(k/2)) X*_{k,q} the raising rules have rational
coefficients; they are stated once, per (n, family, k, q), and read by one
cached function, _integer_image, which gives tbar^a sbar^b X'_source for a
Delta/N source as integer numerators over one denominator.  _rational_image
is its cached Fraction view.  Every generator step goes through them:
eval_poly (and mul_tbar, mul_sbar, which are eval_poly of t and s) attaches
pi^(floor(k/2) - floor(r/2)) to an image coefficient from X'_k to X'_r, and
the canonical forms and the degree systems read the two generator columns,
the unit (source Delta_{0,0}) and vbar (source B_{1,0}, whose chains start
from _edge_ratio(n) B*_{1,0} and so are cached already scaled).
Each degree r has one integer matrix A, whose columns are the X' images of
its generator monomials, each a primitive integer vector with its own
rational scale.  One fraction-free elimination (Bareiss) of A alone gives the
rank that census checks; one of [A | I] gives the integer solution for every
Delta'/N' basis element of the degree at once, cached per degree.  The
canonical form of X*_{k,q} is its cached view: the rational solution for
X'_{k,q} times pi^floor(k/2); canonicalize sums those forms for any element.
There is one product cache, the delta-n structure constants: each ordered
Delta*/N* pair multiplies its two cached forms once.  Every other product is
a bilinear read of that cache and runs no solve: product sums over the
Delta*/N* terms of both factors, and basis_product expands a B* or Gamma*
factor into at most two Delta*/N* terms by the 2x2 block maps of areabasis,
on every call.  A single target needs one coordinate of each product:
target_coefficients reads the target's row of its degree's image matrix once
and convolves two integer solutions against it per slot pair, so it forms no
product and solves no degree above the target's.  Emitted indices outside
their validity range denote zero and are silently dropped; in particular
products of total degree above 2n-1 vanish.

This module holds the presentation and what the tables need of it, and no
checks: the closed form of Delta*, the N* N* reduction, the relations and the
module recurrence that test it live in ukin.verify.

Elements are immutable and all public operations are pure given n; the
memoized image matrices and structure constants recompute idempotently, so
concurrent use needs no coordination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple

from .areabasis import (
    AreaIndex,
    Family,
    InvalidIndexError,
    dual_bg_to_dn,
    indices_of_degree,
    is_valid,
    require_valid,
)
from .exactnum import (
    ZERO,
    Combination,
    PiScalar,
    add_terms,
    as_piscalar,
    ball_volume,
    join_signed,
    scaled_term,
)
from .stpoly import ScalarLike, STPoly


class InconsistentSystemError(RuntimeError):
    """The canonical-form linear system had no exact solution.

    Every dual element is expressible as phi + psi*vbar, so this always
    indicates a bug rather than a legitimate input.
    """


class AreaDualElement(Combination):
    """Element of the dual algebra in Delta*/N* coordinates.

    A combination of valid Delta/N indices with PiScalar coefficients, in
    ambient dimension n.  Elements of different n never add (ValueError) and
    never compare equal.
    """

    __slots__ = ("n",)
    _checks_operands = True

    def __init__(self, n: int, coords: Mapping[AreaIndex, ScalarLike] | Iterable[tuple[AreaIndex, ScalarLike]] = ()):
        if isinstance(coords, Mapping):
            coords = coords.items()
        self.n = n
        self._terms = add_terms({}, ((_require_dual(n, idx), as_piscalar(coeff)) for idx, coeff in coords))

    def _operand(self, other: object) -> "AreaDualElement | None":
        if not isinstance(other, AreaDualElement):
            return None
        if self.n != other.n:
            raise ValueError(f"mixed ambient dimensions: {self.n} vs {other.n}")
        return other

    def _like(self, terms: dict[AreaIndex, PiScalar]) -> "AreaDualElement":
        return _wrap(self.n, terms)

    # -- inspection -----------------------------------------------------------

    def items(self) -> tuple[tuple[AreaIndex, PiScalar], ...]:
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key))

    def coefficient(self, index: AreaIndex) -> PiScalar:
        return self._terms.get(index, ZERO)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AreaDualElement):
            return self.n == other.n and self._terms == other._terms
        return NotImplemented

    def __mul__(self, scalar: ScalarLike) -> "AreaDualElement":
        return self._scaled(as_piscalar(scalar))

    __rmul__ = __mul__

    # -- rendering ------------------------------------------------------------

    def text(self) -> str:
        return join_signed(scaled_term(coeff, str(idx), " * ", False) for idx, coeff in self.items())

    def __repr__(self) -> str:
        return f"AreaDualElement(n={self.n}, {self.text()!r})"


def _wrap(n: int, terms: dict[AreaIndex, PiScalar]) -> AreaDualElement:
    # An element over coordinates that are already valid, PiScalar and nonzero.
    out = AreaDualElement.__new__(AreaDualElement)
    out.n = n
    out._terms = terms
    return out


_DN_FAMILIES = (Family.DELTA, Family.N)


def _require_dual(n: int, idx: AreaIndex) -> AreaIndex:
    if idx.family not in _DN_FAMILIES:
        raise InvalidIndexError(f"dual elements use Delta*/N* coordinates only, got {idx.text()}")
    return require_valid(n, idx)


def basis_element(n: int, index: AreaIndex) -> AreaDualElement:
    """The dual basis element of a single Delta or N index."""
    return AreaDualElement(n, {require_valid(n, index): PiScalar(1)})


def _dn_terms(n: int, index: AreaIndex) -> dict[AreaIndex, Fraction]:
    # A Delta/N index is its own single term; B/Gamma go through the block map.
    if index.family in _DN_FAMILIES:
        return {require_valid(n, index): Fraction(1)}
    return dual_bg_to_dn(n, index)


def dual_element(n: int, index: AreaIndex) -> AreaDualElement:
    """Dual basis element of any family, in Delta*/N* coordinates."""
    return AreaDualElement(n, _dn_terms(n, index))


@lru_cache(maxsize=None)
def unit(n: int) -> AreaDualElement:
    """Multiplicative identity Delta*_{0,0}."""
    return basis_element(n, AreaIndex(Family.DELTA, 0, 0))


def _volume_coefficient(m: int) -> Fraction:
    # omega_m is one pi-monomial, of exponent floor(m/2); its rational factor.
    return ball_volume(m).coefficient(m // 2)


@lru_cache(maxsize=None)
def _edge_ratio(n: int) -> Fraction:
    # 2 omega_{2n-2} / omega_{2n-1}; rational, since both carry pi^(n-1).
    return 2 * _volume_coefficient(2 * n - 2) / _volume_coefficient(2 * n - 1)


@lru_cache(maxsize=None)
def tbar(n: int) -> AreaDualElement:
    """The degree-1 generator 2 omega_{2n-2}/omega_{2n-1} * Delta*_{1,0}."""
    return _edge_ratio(n) * basis_element(n, AreaIndex(Family.DELTA, 1, 0))


@lru_cache(maxsize=None)
def sbar(n: int) -> AreaDualElement:
    """The degree-2 generator n/pi * Delta*_{2,1}."""
    return PiScalar(n, -1) * basis_element(n, AreaIndex(Family.DELTA, 2, 1))


@lru_cache(maxsize=None)
def vbar(n: int) -> AreaDualElement:
    """The square-zero generator 2 omega_{2n-2}/omega_{2n-1} * B*_{1,0}."""
    return _edge_ratio(n) * dual_element(n, AreaIndex(Family.B, 1, 0))


# ---------------------------------------------------------------------------
# Multiplication by the generators: one-step raising rules on basis elements.
# ---------------------------------------------------------------------------

Rule = tuple[tuple[AreaIndex, Fraction], ...]


def _rule(n: int, emitted: Iterable[tuple[Family, int, int, Fraction]]) -> Rule:
    # Out-of-range targets denote zero by convention and are dropped.
    rule = []
    for family, k, q, coeff in emitted:
        idx = AreaIndex(family, k, q)
        if coeff and is_valid(n, idx):
            rule.append((idx, coeff))
    return tuple(rule)


@lru_cache(maxsize=None)
def _tbar_rule(n: int, family: Family, k: int, q: int) -> Rule:
    """tbar * X'_{k,q} in the rescaled basis:

    tbar * Delta'_{k,q} = w_k ((k-2q) Delta'_{k+1,q+1} + 2(n-k+q) Delta'_{k+1,q})
    tbar * N'_{k,q}     = w_k (k-2q)/(2n-k-1) (Delta'_{k+1,q+1} - Delta'_{k+1,q}
                          + (2n-k) (N'_{k+1,q+1} + 2(n-k+q-1)/(k-2q+1) N'_{k+1,q}))

    with w_k = omega_{2n-k}/omega_{2n-k-1} without its pi-power: on X* the
    step is omega_{2n-k}/(pi omega_{2n-k-1}), whose pi^(-(k mod 2)) the
    rescaling absorbs.
    """
    if k + 1 > 2 * n - 1:
        return ()
    step = _volume_coefficient(2 * n - k) / _volume_coefficient(2 * n - k - 1)
    if family is Family.DELTA:
        return _rule(n, ((Family.DELTA, k + 1, q + 1, step * (k - 2 * q)),
                         (Family.DELTA, k + 1, q, step * (2 * (n - k + q)))))
    lead = step * Fraction(k - 2 * q, 2 * n - k - 1)
    return _rule(n, ((Family.DELTA, k + 1, q + 1, lead),
                     (Family.DELTA, k + 1, q, -lead),
                     (Family.N, k + 1, q + 1, lead * (2 * n - k)),
                     (Family.N, k + 1, q, lead * Fraction(2 * (2 * n - k) * (n - k + q - 1), k - 2 * q + 1))))


@lru_cache(maxsize=None)
def _sbar_rule(n: int, family: Family, k: int, q: int) -> Rule:
    """sbar * X'_{k,q} in the rescaled basis (the 1/pi of sbar cancels):

    sbar * Delta'_{k,q} = (k-2q)(k-2q-1)/(2 (2n-k)) Delta'_{k+2,q+2}
                          + 2(n-k+q)(n-q)/(2n-k) Delta'_{k+2,q+1}
    sbar * N'_{k,q}     = (k-2q)(k-2q-1)/(2 (2n-k-2)) (N'_{k+2,q+2} + 2/(2n-k) Delta'_{k+2,q+2})
                          + 2(n-q)/(2n-k-2) ((n-k+q-1) N'_{k+2,q+1}
                                             - (k-2q)/(2n-k) Delta'_{k+2,q+1})
    """
    if k + 2 > 2 * n - 1:
        return ()
    if family is Family.DELTA:
        return _rule(n, ((Family.DELTA, k + 2, q + 2, Fraction((k - 2 * q) * (k - 2 * q - 1), 2 * (2 * n - k))),
                         (Family.DELTA, k + 2, q + 1, Fraction(2 * (n - k + q) * (n - q), 2 * n - k))))
    top = Fraction((k - 2 * q) * (k - 2 * q - 1), 2 * (2 * n - k - 2))
    low = Fraction(2 * (n - q), 2 * n - k - 2)
    return _rule(n, ((Family.N, k + 2, q + 2, top),
                     (Family.DELTA, k + 2, q + 2, top * Fraction(2, 2 * n - k)),
                     (Family.N, k + 2, q + 1, low * (n - k + q - 1)),
                     (Family.DELTA, k + 2, q + 1, -low * Fraction(k - 2 * q, 2 * n - k))))


# ---------------------------------------------------------------------------
# Polynomial evaluation and canonical forms
# ---------------------------------------------------------------------------

# The sources of the canonical-form columns (s_exp, on_v): the unit is
# X'_{Delta 0,0}, and the source B_{1,0} stands for vbar, which is
# _edge_ratio(n) X'_{B 1,0} (X' = X* in degree 1).
_UNIT_SOURCE = AreaIndex(Family.DELTA, 0, 0)
_VBAR_SOURCE = AreaIndex(Family.B, 1, 0)


@lru_cache(maxsize=None)
def _integer_image(n: int, t_exp: int, s_exp: int, source: AreaIndex) -> tuple[dict[AreaIndex, int], int]:
    # tbar^a sbar^b X'_source in X' coordinates, for a Delta/N source or the
    # vbar source, whose chains start from _edge_ratio(n) X'_{B 1,0}: integer
    # numerators over one positive denominator, in lowest terms.  Each step
    # scales by the lcm of the rule denominators it reads.  The only reader of
    # the raising rules; read only, never mutated.
    if t_exp == 0 and s_exp == 0:
        ratio = _edge_ratio(n) if source == _VBAR_SOURCE else 1
        terms = {idx: ratio * c for idx, c in _dn_terms(n, source).items()}
        denominator = lcm(*(c.denominator for c in terms.values()))
        return _lowest_terms({idx: c.numerator * (denominator // c.denominator) for idx, c in terms.items()},
                             denominator)
    if s_exp > 0:
        (image, denominator), rule = _integer_image(n, t_exp, s_exp - 1, source), _sbar_rule
    else:
        (image, denominator), rule = _integer_image(n, t_exp - 1, s_exp, source), _tbar_rule
    steps = [(numerator, rule(n, idx.family, idx.k, idx.q)) for idx, numerator in image.items()]
    scale = lcm(*(c.denominator for _, step in steps for _, c in step))
    out: dict[AreaIndex, int] = {}
    for numerator, step in steps:
        add_terms(out, ((target, numerator * c.numerator * (scale // c.denominator)) for target, c in step))
    return _lowest_terms(out, denominator * scale)


def _lowest_terms(numerators: dict[AreaIndex, int], denominator: int) -> tuple[dict[AreaIndex, int], int]:
    divisor = gcd(denominator, *numerators.values())
    return {idx: c // divisor for idx, c in numerators.items()}, denominator // divisor


@lru_cache(maxsize=None)
def _rational_image(n: int, t_exp: int, s_exp: int, source: AreaIndex) -> dict[AreaIndex, Fraction]:
    # The Fraction view of _integer_image, which _apply reads.  Read only.
    image, denominator = _integer_image(n, t_exp, s_exp, source)
    return {idx: Fraction(c, denominator) for idx, c in image.items()}


def _apply(n: int, terms: Iterable[tuple[tuple[int, int], AreaIndex, PiScalar]]) -> AreaDualElement:
    # The sum of coeff * tbar^a sbar^b X*_source over ((a, b), source, coeff).
    # An image coefficient c from X'_k to X'_r acts on X* coordinates as
    # c * pi^(floor(k/2) - floor(r/2)).
    acc: dict[AreaIndex, PiScalar] = {}
    for (a, b), source, coeff in terms:
        shift = source.k // 2
        add_terms(acc, ((idx, coeff * PiScalar(c, shift - idx.k // 2))
                        for idx, c in _rational_image(n, a, b, source).items()))
    return _wrap(n, acc)


def eval_poly(p: STPoly, x: AreaDualElement) -> AreaDualElement:
    """Apply the operator polynomial p(sbar, tbar) to x."""
    return _apply(x.n, ((mono, idx, coeff * x_coeff)
                        for mono, coeff in p.terms() for idx, x_coeff in x._terms.items()))


def mul_tbar(x: AreaDualElement) -> AreaDualElement:
    """Multiply by tbar: the rules of _tbar_rule on X* coordinates, where the
    step w_k regains its pi-power, omega_{2n-k}/(pi omega_{2n-k-1})."""
    return eval_poly(STPoly.var_t(), x)


def mul_sbar(x: AreaDualElement) -> AreaDualElement:
    """Multiply by sbar: the rules of _sbar_rule on X* coordinates, where every
    coefficient regains the 1/pi of sbar = n/pi Delta*_{2,1}."""
    return eval_poly(STPoly.var_s(), x)


class CanonicalForm(NamedTuple):
    """Representation x = phi(sbar, tbar) + psi(sbar, tbar) * vbar.

    Representatives are unique only modulo the relation ideal; this engine
    returns the echelon-selected one.  Two representatives of the same element
    always evaluate back to identical elements.
    """

    n: int
    phi: STPoly
    psi: STPoly

    def evaluate(self) -> AreaDualElement:
        return _apply(self.n, [*((mono, _UNIT_SOURCE, coeff) for mono, coeff in self.phi.terms()),
                               *((mono, _VBAR_SOURCE, coeff) for mono, coeff in self.psi.terms())])


@lru_cache(maxsize=None)
def _degree_system(n: int, degree: int):
    """Rows (basis indices of the degree), column keys, the image matrix and
    its column scales.

    Column j of the matrix is the X' image of the generator monomial cols[j]
    as a primitive integer vector, and scales[j] is its positive rational
    scale: matrix[i][j] * scales[j] is the rational coefficient, so on X* the
    image is that times pi^(-floor(degree/2)).  Scaling a column keeps the
    zero pattern of every elimination step, so the pivots, the rank and the
    selected solution are those of the rational matrix.
    """
    rows = tuple(indices_of_degree(n, degree))
    # Column keys (s_exp, on_v), in ascending (s-exponent, v-flag) order; this
    # is also the deterministic pivot-search order.
    cols = tuple((b, on_v) for b in range(degree // 2 + 1) for on_v in (False, True)
                 if degree - on_v - 2 * b >= 0)
    columns, scales = [], []
    for b, on_v in cols:
        image, denominator = _integer_image(n, degree - on_v - 2 * b, b, _VBAR_SOURCE if on_v else _UNIT_SOURCE)
        content = gcd(*image.values())
        columns.append({idx: c // content for idx, c in image.items()})
        scales.append(Fraction(content, denominator))
    matrix = tuple(tuple(column.get(idx, 0) for column in columns) for idx in rows)
    return rows, cols, matrix, tuple(scales)


def _gauss_solve(matrix, augment=False):
    """Fraction-free Gauss-Jordan elimination over the integers (Bareiss 1968).

    Processes columns left to right, picking the first unused row with a
    nonzero entry as pivot.  Each step replaces the other rows from col on by
    (pivot * row - row[col] * pivot_row) / previous pivot, an exact division;
    left of col the pivot row is zero, so those entries, never read again, are
    left unscaled.  With augment it reduces every row of [matrix | I], so that
    column j of I over the last pivot, read at the pivot rows, solves the j-th
    unit right-hand side, which is consistent if zero at every unused row;
    without it only the unused rows, which is all the rank needs.  Returns
    (rows, pivots as (row, column) in column order, last pivot).
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows = [[*row, *(int(i == r) for i in range(nrows))] if augment else list(row)
            for r, row in enumerate(matrix)]
    used = [False] * nrows
    pivots: list[tuple[int, int]] = []
    previous = 1
    for col in range(ncols):
        pivot_row = next((r for r in range(nrows) if not used[r] and rows[r][col]), None)
        if pivot_row is None:
            continue
        used[pivot_row] = True
        pivots.append((pivot_row, col))
        top = rows[pivot_row]
        pivot = top[col]
        for r, row in enumerate(rows):
            if r != pivot_row and (augment or not used[r]):
                factor = row[col]
                for c in range(col, len(row)):
                    row[c] = (pivot * row[c] - factor * top[c]) // previous
        previous = pivot
    return rows, pivots, previous


def monomial_rank(n: int, degree: int) -> int:
    """Rank of the generator-monomial image matrix in one degree."""
    return len(_gauss_solve(_degree_system(n, degree)[2])[1])


IntegerForm = tuple[tuple[int, ...], tuple[int, ...], int]


@lru_cache(maxsize=None)
def _degree_solution(n: int, degree: int) -> dict[AreaIndex, IntegerForm | None]:
    """Read-only integer canonical form of every X'_{k,q} = pi^(-floor(k/2))
    X*_{k,q} basis element of one degree, from one elimination of [A | I];
    None outside the generator span.

    A form is (phi, psi, denominator), in lowest terms: phi[b] over the
    denominator is the coefficient of t^(degree-2b) s^b, psi[b] that of
    t^(degree-1-2b) s^b vbar.  Each coordinate is the solution entry of
    column j of I over the last pivot, divided by its column's scale.
    _gauss_solve picks its pivots from A alone, so the solution it selects is
    linear in the right-hand side; canonicalize relies on that to assemble the
    form of any element from these.
    """
    rows, cols, matrix, scales = _degree_system(n, degree)
    reduced, pivots, last = _gauss_solve(matrix, augment=True)
    pivot_rows = {r for r, _ in pivots}
    # A coordinate is reduced[r][j] / (last * scale) at its pivot row; with
    # scale = p/q and common the lcm of the p, that is reduced[r][j] times
    # q * (common // p), over last * common.
    common = lcm(*(scales[col].numerator for _, col in pivots))
    factors = [(r, cols[col], scales[col].denominator * (common // scales[col].numerator)) for r, col in pivots]
    forms: dict[AreaIndex, IntegerForm | None] = {}
    for j, index in enumerate(rows, start=len(cols)):
        if any(row[j] for r, row in enumerate(reduced) if r not in pivot_rows):
            forms[index] = None
            continue
        phi, psi = [0] * (degree // 2 + 1), [0] * ((degree + 1) // 2)
        for r, (b, on_v), factor in factors:
            (psi if on_v else phi)[b] = reduced[r][j] * factor
        divisor = gcd(last * common, *phi, *psi)
        forms[index] = (tuple(c // divisor for c in phi), tuple(c // divisor for c in psi),
                        last * common // divisor)
    return forms


def _integer_form(n: int, index: AreaIndex) -> IntegerForm:
    form = _degree_solution(n, index.k)[index]
    if form is None:
        raise InconsistentSystemError(f"inconsistent system: {index.text()} is outside the generator span")
    return form


def _form_poly(t_degree: int, numerators: tuple[int, ...], denominator: int, pi_exp: int) -> STPoly:
    # sum over b of numerators[b]/denominator pi^pi_exp t^(t_degree-2b) s^b.
    return STPoly({(t_degree - 2 * b, b): PiScalar(Fraction(c, denominator), pi_exp)
                   for b, c in enumerate(numerators) if c})


@lru_cache(maxsize=None)
def _degree_forms(n: int, degree: int) -> dict[AreaIndex, CanonicalForm | None]:
    """Read-only canonical form of every Delta*/N* basis element of one
    degree, a view of its integer form: the form of X*_k = pi^floor(k/2) X'_k
    is the integer form over its denominator, times pi^floor(k/2).
    """
    forms = {}
    for index, form in _degree_solution(n, degree).items():
        if form is not None:
            phi, psi, denominator = form
            form = CanonicalForm(n, _form_poly(degree, phi, denominator, degree // 2),
                                 _form_poly(degree - 1, psi, denominator, degree // 2))
        forms[index] = form
    return forms


def _basis_canonical(n: int, index: AreaIndex) -> CanonicalForm:
    """Canonical form of one Delta*/N* basis element, read off its degree's forms."""
    form = _degree_forms(n, index.k)[index]
    if form is None:
        raise InconsistentSystemError(f"inconsistent system: {index.text()} is outside the generator span")
    return form


def canonicalize(x: AreaDualElement) -> CanonicalForm:
    """Express x as phi(sbar, tbar) + psi(sbar, tbar) vbar, summing the basis forms."""
    n = x.n
    phi = STPoly()
    psi = STPoly()
    for idx, coeff in x.items():
        form = _basis_canonical(n, idx)
        phi = phi + form.phi * coeff
        psi = psi + form.psi * coeff
    return CanonicalForm(n, phi, psi)


@lru_cache(maxsize=None)
def _dn_product(n: int, left: AreaIndex, right: AreaIndex) -> AreaDualElement:
    # The delta-n structure constants by ordered Delta*/N* pair, the one product
    # cache; indices are checked on a miss only, and vbar^2 = 0 drops psi psi'.
    cx, cy = _basis_canonical(n, _require_dual(n, left)), _basis_canonical(n, _require_dual(n, right))
    return CanonicalForm(n, cx.phi * cy.phi, cx.phi * cy.psi + cy.phi * cx.psi).evaluate()


def _bilinear(n: int, left_terms: Mapping[AreaIndex, ScalarLike],
              right_terms: Mapping[AreaIndex, ScalarLike]) -> AreaDualElement:
    # The product of two Delta*/N* term maps: each pair of terms scales one
    # cached delta-n product.
    acc: dict[AreaIndex, PiScalar] = {}
    for left, left_coeff in left_terms.items():
        for right, right_coeff in right_terms.items():
            weight = left_coeff * right_coeff
            add_terms(acc, ((idx, c * weight) for idx, c in _dn_product(n, left, right)._terms.items()))
    return _wrap(n, acc)


def product(x: AreaDualElement, y: AreaDualElement) -> AreaDualElement:
    """Kinematic product, read bilinearly off the delta-n structure constants."""
    if x.n != y.n:
        raise ValueError(f"mixed ambient dimensions: {x.n} vs {y.n}")
    return _bilinear(x.n, x._terms, y._terms)


def basis_product(n: int, left: AreaIndex, right: AreaIndex) -> AreaDualElement:
    """Product of two dual basis elements (any families); an uncached view.

    A Delta*/N* pair is one lookup of the cached delta-n structure constants.
    A B* or Gamma* factor is first expanded by the 2x2 block map
    dual_bg_to_dn into at most two Delta*/N* terms, so a b-gamma product
    combines at most four cached delta-n products, runs no solve and is not
    cached itself.
    """
    if left.family in _DN_FAMILIES and right.family in _DN_FAMILIES:
        return _dn_product(n, left, right)
    return _bilinear(n, _dn_terms(n, left), _dn_terms(n, right))


def _target_row(n: int, degree: int, target_terms: Mapping[AreaIndex, Fraction]) -> tuple[list[int], list[int], int]:
    # The target's row of the degree's image matrix, weighted by its Delta/N
    # coordinates, over one denominator: one entry per generator monomial of
    # the degree, t^(degree-2b) s^b on the unit and t^(degree-1-2b) s^b on vbar.
    unit_images = [_integer_image(n, degree - 2 * b, b, _UNIT_SOURCE) for b in range(degree // 2 + 1)]
    vbar_images = [_integer_image(n, degree - 1 - 2 * b, b, _VBAR_SOURCE) for b in range((degree + 1) // 2)]
    image_common = lcm(*(denominator for _, denominator in unit_images + vbar_images))
    weight_common = lcm(*(weight.denominator for weight in target_terms.values()))
    weights = [(idx, weight.numerator * (weight_common // weight.denominator))
               for idx, weight in target_terms.items()]

    def row(images):
        return [(image_common // denominator) * sum(w * image.get(idx, 0) for idx, w in weights)
                for image, denominator in images]

    return row(unit_images), row(vbar_images), image_common * weight_common


def target_coefficients(n: int,
                        target_terms: Mapping[AreaIndex, Fraction]) -> Callable[[AreaIndex, AreaIndex], PiScalar]:
    """The coefficient of one target in b*_l b*_r, read without the product.

    target_terms are the Delta/N coordinates of the target, all of one degree
    r.  Returns coefficient(left, right) for dual basis elements of any
    families whose degrees k and l add up to r.  The target's row of the
    degree-r image matrix is read once; a Delta*/N* pair's coefficient is then
    one integer convolution of the two integer forms against that row (vbar^2
    = 0 drops psi psi'), over the product of their denominators, times
    pi^(floor(k/2) + floor(l/2) - floor(r/2)).  It is computed once per
    unordered pair.  A B* or Gamma* factor combines at most four of them
    through the block map dual_bg_to_dn, as in basis_product.  Only forms of
    degree at most r are solved, and no product is cached.
    """
    degree = next(iter(target_terms)).k
    unit_row, vbar_row, row_denominator = _target_row(n, degree, target_terms)
    convolved: dict[AreaIndex, tuple[list[int], list[int], int]] = {}
    values: dict[tuple[AreaIndex, AreaIndex], Fraction] = {}

    def convolve(index: AreaIndex) -> tuple[list[int], list[int], int]:
        # The form of one factor against the row: the vectors that the other
        # factor's phi and psi meet, indexed by the other factor's s-exponent.
        phi, psi, denominator = _integer_form(n, index)
        other = degree - index.k
        on_phi = [sum(c * unit_row[b + a] for a, c in enumerate(phi))
                  + sum(c * vbar_row[b + a] for a, c in enumerate(psi)) for b in range(other // 2 + 1)]
        on_psi = [sum(c * vbar_row[b + a] for a, c in enumerate(phi)) for b in range((other + 1) // 2)]
        return on_phi, on_psi, denominator * row_denominator

    def dn_value(left: AreaIndex, right: AreaIndex) -> Fraction:
        if right.sort_key < left.sort_key:
            left, right = right, left
        value = values.get((left, right))
        if value is None:
            if left not in convolved:
                convolved[left] = convolve(left)
            on_phi, on_psi, denominator = convolved[left]
            phi, psi, right_denominator = _integer_form(n, right)
            value = values[left, right] = Fraction(sum(map(mul, phi, on_phi)) + sum(map(mul, psi, on_psi)),
                                                   denominator * right_denominator)
        return value

    def coefficient(left: AreaIndex, right: AreaIndex) -> PiScalar:
        if left.family in _DN_FAMILIES and right.family in _DN_FAMILIES:
            value = dn_value(left, right)
        else:
            value = sum((left_coeff * right_coeff * dn_value(left_dn, right_dn)
                         for left_dn, left_coeff in _dn_terms(n, left).items()
                         for right_dn, right_coeff in _dn_terms(n, right).items()), Fraction(0))
        return PiScalar(value, left.k // 2 + right.k // 2 - degree // 2)

    return coefficient
