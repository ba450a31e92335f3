"""First homology in closed form, and the integer Smith normal form.

first_homology reads H1 off the fiber orders and the Bareiss |det A| of the
relation matrix A of the standard presentation (Orlik, Seifert Manifolds,
LNM 291, 1972; Jankins and Neumann, Lectures on Seifert Manifolds, 1983).

smith_normal_form is a deterministic elimination over the integers: pick the
minimum-absolute-value nonzero entry of the working submatrix (ties broken by
lowest (row, col)), move it to the pivot position, reduce its row and column
Euclidean-style, and enforce the divisibility chain before moving on.  It
runs on one block matrix [[A, I_rows], [I_cols, 0]]: row operations on its
first `rows` rows carry U in the right block, column operations on its first
`cols` columns carry V in the bottom block, and A becomes D, so U * A * V = D
holds exactly with U, V unimodular.  No package code calls it (it is public).
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


def first_homology(data: SeifertData) -> AbelianGroupDecomposition:
    """H1 = Z^rank + Tors H1 from the alpha_j and D = |det A|, the Bareiss det.

    With d_1 | ... | d_M the invariant factors of the sum of the Z/alpha_j,
    Tors H1 = Z/d_1 + ... + Z/d_{M-2} + Z/(D / (d_1 ... d_{M-2})), factors of
    1 dropped, rank 2g; when c1 = 0 (D = 0) the last factor goes, rank 2g + 1.
    D is never the closed form of torsion_order_integer, which |Tors H1| checks.

    Why, at a prime p with v_(1) >= v_(2) >= ... the sorted v_p(alpha_j): as
    gcd(alpha_j, beta_j) = 1, each relation alpha_j c_j + beta_j h = 0 leaves
    <c_j, h> = Z, and gluing these along h gives Z_(p) + Z/p^v_(2) + ... +
    Z/p^v_(M).  The surface relation has a unit coefficient on each summand
    with v_(j) >= 1 (p does not divide beta_j), so it absorbs Z/p^v_(2) and
    leaves Z/p^(v_(2) + v_p(x)) + Z/p^v_(3) + ..., x = c1 alpha_(1) a p-local
    integer, 0 exactly when c1 = 0.
    """
    d = validate_seifert(data)
    det = abs(relation_matrix(d).det())
    f = list(d.alphas)  # row i of the pairwise (gcd, lcm) pass leaves d_{i+1} in f[i]
    for i in range(len(f) - 2):
        for j in range(i + 1, len(f)):
            if f[i] == 1:  # gcd(1, x) = 1 and lcm(1, x) = x: the rest of the row stays
                break
            g = gcd(f[i], f[j])
            f[i], f[j] = g, f[i] // g * f[j]
    chain = f[:-2]
    if det:
        chain.append(det // prod(chain))
    return AbelianGroupDecomposition(2 * d.genus + (not det), tuple(e for e in chain if e > 1))


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
