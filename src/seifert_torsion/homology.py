"""Integer Smith normal form and the homology it computes.

first_homology takes one of two routes on the relation matrix A.  When
D = |det A| != 0 (c1 != 0), D Z^n lies in the image of A and _factors_mod
eliminates mod D without U or V (H. Cohen, GTM 138, 2.4), unit pivots first;
D is the Bareiss IntegerMatrix.det, never the closed-form torsion order, which
|Tors H1| thus checks independently.  When D = 0, smith_normal_form runs on A.

smith_normal_form is a deterministic elimination over the integers: pick the
minimum-absolute-value nonzero entry of the working submatrix (ties broken by
lowest (row, col)), move it to the pivot position, reduce its row and column
Euclidean-style, and enforce the divisibility chain before moving on.  It
runs on one block matrix [[A, I_rows], [I_cols, 0]]: row operations on its
first `rows` rows carry U in the right block, column operations on its first
`cols` columns carry V in the bottom block, and A becomes D, so U * A * V = D
holds exactly with U, V unimodular.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product as _cartesian
from math import gcd, prod

from .errors import CapExceeded, ChernNumberZero, ChernZeroWarning, NumericWindowError, brief_int
from .seifert import (
    IntegerMatrix,
    SeifertData,
    chern_number,
    relation_matrix,
    validate_seifert,
)


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D in Smith normal form."""

    u: IntegerMatrix
    d: IntegerMatrix
    v: IntegerMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


@dataclass(frozen=True)
class AbelianGroupDecomposition:
    """Z^rank plus a product of cyclic groups of the given invariant factors.

    Factors are > 1 and each divides the next.
    """

    rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        factors = tuple(self.invariant_factors)
        for i, f in enumerate(factors):
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2")
            if i and factors[i] % factors[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", factors)

    def torsion_order(self) -> int:
        return prod(self.invariant_factors)


@dataclass(frozen=True)
class ModuliDescription:
    """Connected components and dimension of the flat-connection moduli space."""

    component_count: int
    component_dimension: int
    gauge_rank: int
    torsion_factors: tuple[int, ...]


def _place_pivot(b, rows, cols, t) -> bool:
    """Move the min-|entry| of the A-block b[t:rows][t:cols] to (t, t), made positive.

    Ties go to the smallest (row, col).  Returns False when that submatrix
    is all zero.
    """
    best = best_abs = None
    for i in range(t, rows):
        for j in range(t, cols):
            val = b[i][j]
            if val and (best is None or abs(val) < best_abs):
                best, best_abs = (i, j), abs(val)
    if best is None:
        return False
    i, j = best
    if i != t:
        b[i], b[t] = b[t], b[i]
    if j != t:
        for row in b:
            row[j], row[t] = row[t], row[j]
    if b[t][t] < 0:
        b[t] = [-e for e in b[t]]
    return True


def smith_normal_form(a: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form over Z, deterministic for a given input.

    The diagonal of D is nonnegative, zeros come last, and each nonzero
    entry divides the next.
    """
    rows, cols = a.rows, a.cols
    b = [r + [1 if k == i else 0 for k in range(rows)] for i, r in enumerate(a.to_rows())]
    b += [[1 if k == j else 0 for k in range(cols)] + [0] * rows for j in range(cols)]

    for t in range(min(rows, cols)):
        if not _place_pivot(b, rows, cols, t):
            break
        while True:
            pivot = b[t][t]
            clean = True
            for i in range(t + 1, rows):
                q = b[i][t] // pivot
                if q:
                    b[i] = [x - q * y for x, y in zip(b[i], b[t])]
                if b[i][t]:
                    clean = False  # remainder smaller than the pivot survives
            for j in range(t + 1, cols):
                q = b[t][j] // pivot
                if q:
                    for row in b:
                        row[j] -= q * row[t]
                if b[t][j]:
                    clean = False
            if not clean:
                _place_pivot(b, rows, cols, t)  # a strictly smaller pivot exists
                continue
            # row and column t are clear; force pivot | every remaining entry
            pivot, rest = b[t][t], range(t + 1, cols)
            bad = next((i for i in range(t + 1, rows) if any(b[i][j] % pivot for j in rest)), None)
            if bad is None:
                break
            b[t] = [x + y for x, y in zip(b[t], b[bad])]

    return SmithDecomposition(
        IntegerMatrix.from_rows(r[cols:] for r in b[:rows]),
        IntegerMatrix.from_rows(r[:cols] for r in b[:rows]),
        IntegerMatrix.from_rows(r[:cols] for r in b[rows:]),
    )


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, u) with s x + u y = g = gcd(x, y), for x >= 0, y > 0; (x, 1, 0) when x | y."""
    if x and not y % x:
        return x, 1, 0
    g = gcd(x, y)
    s = pow(x // g, -1, y // g)
    return g, s, (g - s * x) // y


def _factors_mod(a: IntegerMatrix, det: int, order: list[int]) -> tuple[int, ...]:
    """Invariant factors > 1 of coker A for a square A with |det A| = det > 0.

    Its one copy takes the rows and columns of A in `order` (a permutation, so
    coker A stays) and reduces them into [0, det).  Unimodular 2x2 extended-gcd
    row steps, then column steps, clear column t and row t until both stay
    clear.  A step whose pivot divides the entry, on a clear row t or a clean
    column t, only zeroes that entry: one % finds it before any _xgcd.  Each
    pivot gives gcd(pivot, det); a pairwise gcd/lcm pass makes the chain.
    """
    n, e = a.cols, a.entries
    b = [[e[i * n + k] % det for k in order] for i in order]
    pivots = []
    for t in range(n):
        clean = clear = False  # clear: row t is zero past its pivot (then its pivot is > 0)
        while not clean:
            for i in range(t + 1, n):
                y = b[i][t]
                if y and clear and not y % b[t][t]:  # the quotient row step changes column t only
                    b[i][t] = 0
                elif y:
                    bt, bi = b[t], b[i]
                    g, s, u = _xgcd(bt[t], y)
                    if u:  # else a plain quotient step: row t stays
                        b[t], clear = [(s * e + u * f) % det for e, f in zip(bt, bi)], False
                    p, r = bt[t] // g, y // g
                    b[i] = [(p * f - r * e) % det for e, f in zip(bt, bi)]
            clean = True  # column t is clear below the pivot
            for j in range(t + 1, n):
                x, y = b[t][t], b[t][j]
                if not y:
                    continue
                if clean and x and not y % x:  # the quotient column step changes row t only
                    b[t][j] = 0
                    continue
                g, s, u = _xgcd(x, y)
                p, r, clean = x // g, y // g, False
                for row in b[t:]:
                    e, f = row[t], row[j]
                    row[t], row[j] = (s * e + u * f) % det, (p * f - r * e) % det
            clear = True  # every column step left row t zero past its pivot
        pivots.append(gcd(b[t][t], det))
    f = [e for e in pivots if e > 1]
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = gcd(f[i], f[j])
            f[i], f[j] = g, f[i] // g * f[j]
    return tuple(e for e in f if e > 1)


def first_homology(data: SeifertData) -> AbelianGroupDecomposition:
    """H1 as Z^rank plus cyclic factors, from the abelianized relations.

    The genus generators contribute Z^{2g}; the cokernel of the relation
    matrix A contributes the rest.  When D = |det A| != 0 (c1 != 0), rank = 2g
    and the elimination mod D gives the factors, the fibers sorted by
    (gcd(alpha_j, D), -alpha_j), h last: pivots sharing a factor with D fill
    every row, so they come last.  When D = 0, smith_normal_form does, rank 2g + 1.
    """
    d = validate_seifert(data)
    a = relation_matrix(d)
    det = abs(a.det())
    if det:
        n, e = a.cols, a.entries
        order = sorted(range(n), key=lambda j: (j == n - 1, gcd(e[j * n + j], det), -e[j * n + j]))
        return AbelianGroupDecomposition(2 * d.genus, _factors_mod(a, det, order))
    factors = tuple(e for e in smith_normal_form(a).diagonal() if e > 1)
    return AbelianGroupDecomposition(2 * d.genus + 1, factors)  # rank A = n - 1 (rows alpha_j e_j)


_COUNT_LIMIT = 10**4300  # the smallest count past Python's default int/str digit limit


def class_count(order: int, gauge_rank: int) -> int:
    """order ** N, the number of flat-bundle classes, or NumericWindowError past 4300 digits.

    order**N >= 2**((bits(order) - 1) N) refuses a huge N before any power is taken.
    """
    if (order.bit_length() - 1) * gauge_rank < _COUNT_LIMIT.bit_length():
        count = order**gauge_rank
        if count < _COUNT_LIMIT:
            return count
    power = brief_int(gauge_rank)
    raise NumericWindowError(f"class count |Tors H1|^{power} has more than 4300 digits")


def torsion_h2_order(data: SeifertData, gauge_rank: int = 1) -> int:
    """Order of the torsion classes of rank-N flat bundles: |Tors H1| ** N.

    When c1 = 0 the identity behind this power law is not asserted; the
    value is still returned, with a ChernZeroWarning.  Raises
    NumericWindowError past 4300 digits (see class_count).
    """
    d = validate_seifert(data)
    if gauge_rank < 1:
        raise ValueError(f"gauge rank must be >= 1, got {gauge_rank}")
    count = class_count(first_homology(d).torsion_order(), gauge_rank)
    if chern_number(d) == 0:
        warnings.warn(ChernZeroWarning(), stacklevel=2)
    return count


def moduli_description(data: SeifertData, gauge_rank: int = 1) -> ModuliDescription:
    """Flat-moduli description for gauge rank N: requires c1 != 0.

    The moduli space is a disjoint union of |Tors H1|^N tori of dimension
    2 g N; torsion_factors lists the invariant factors of the full torsion
    label group (N copies of the H1 factors, re-sorted into a chain).
    """
    d = validate_seifert(data)
    if gauge_rank < 1:
        raise ValueError(f"gauge rank must be >= 1, got {gauge_rank}")
    if chern_number(d) == 0:
        raise ChernNumberZero()
    return moduli_from_homology(first_homology(d), d.genus, gauge_rank)


def moduli_from_homology(
    h1: AbelianGroupDecomposition, genus: int, gauge_rank: int
) -> ModuliDescription:
    """The moduli_description of a c1 != 0 datum of this genus, from its H1."""
    # The count first: past 4300 digits it stops N before N copies of the
    # factors are made.  A trivial torsion group stops no N and has nothing to copy.
    factors = h1.invariant_factors
    return ModuliDescription(
        component_count=class_count(h1.torsion_order(), gauge_rank),
        component_dimension=2 * genus * gauge_rank,
        gauge_rank=gauge_rank,
        torsion_factors=tuple(sorted(factors * gauge_rank)) if factors else (),
    )


def enumerate_torsion_characters(
    decomposition: AbelianGroupDecomposition, cap: int = 100_000
) -> list[tuple[int, ...]]:
    """All characters of the torsion part, in lexicographic order.

    A character of Z/f1 x ... x Z/fk is the exponent tuple (e1, ..., ek)
    with 0 <= ei < fi.  Raises CapExceeded if the group order exceeds cap.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    order = decomposition.torsion_order()
    if order > cap:
        raise CapExceeded(order, cap)
    return list(_cartesian(*(range(f) for f in decomposition.invariant_factors)))
