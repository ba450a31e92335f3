"""Seifert data model and the closed-form fibration arithmetic built on it.

A Seifert datum [g, n; (a1, b1), ..., (aM, bM)] describes a closed oriented
three-manifold fibered in circles over a genus-g surface, with Euler term n
and M exceptional fibers of coprime type (a_j, b_j).  Everything downstream
(homology, eta invariant, torsion, partition magnitudes) is derived from
these integers alone.  One integer closed form carries c1 and the torsion
order: s = c1 * prod(alpha) = n prod(alpha) + sum_j beta_j prod_{i != j} alpha_i,
with chern_number = s / prod(alpha) and torsion_order_integer = |s|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import CoprimalityViolation, NegativeGenus, NonPositiveAlpha


@dataclass(frozen=True)
class SeifertData:
    """Immutable Seifert datum: genus, Euler term, exceptional pairs."""

    genus: int
    euler: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # normalize whatever iterable of pairs was supplied into tuples
        object.__setattr__(
            self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs)
        )

    @property
    def fiber_count(self) -> int:
        return len(self.pairs)

    @property
    def alphas(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def alpha_product(self) -> int:
        return prod(self.alphas)


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix stored row-major as a flat tuple."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        for e in entries:
            if not isinstance(e, int):
                raise ValueError(f"non-integer entry {e!r}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, tuple(e for r in rows for e in r))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination with a deferred rescale.

        Step k takes each row below pivot p to (row * p - f * pivot row) / prev, with f
        the row's pivot-column entry; for f = 0 that is the rescale row * p / prev, which
        waits.  Stored row i is its current one times seen[i] / prev, seen[i] the pivot it
        last caught up with: the quotients telescope and each current entry is a minor of
        A, so every division is exact.  A row catches up only when next touched: as pivot
        row, in an update (which divides by seen[i], not prev) and at the end (last entry).
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = self.to_rows()
        seen = [1] * n
        sign = prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                # swap in a nonzero pivot from below, or the determinant is 0
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i], seen[k], seen[i] = m[i], m[k], seen[i], seen[k]
                        sign = -sign
                        break
                else:
                    return 0
            top = m[k]
            if seen[k] != prev:
                top[k:] = [e * prev // seen[k] for e in top[k:]]
            p = top[k]
            for i in range(k + 1, n):
                row, f = m[i], m[i][k]
                if f:
                    s, seen[i] = seen[i], p
                    for j in range(k + 1, n):
                        row[j] = (row[j] * p - f * top[j]) // s
            prev = p
        return sign * m[n - 1][n - 1] * prev // seen[n - 1]


def validate_seifert(data: SeifertData) -> SeifertData:
    """Check the structural invariants of a Seifert datum.

    genus >= 0, every alpha >= 1, and gcd(alpha_j, beta_j) = 1 for each pair
    (so alpha = 1 admits any beta, including 0).  Returns the datum unchanged
    on success.
    """
    if data.genus < 0:
        raise NegativeGenus(data.genus)
    for j, (alpha, beta) in enumerate(data.pairs, start=1):
        if alpha < 1:
            raise NonPositiveAlpha(j, alpha)
        if gcd(alpha, beta) != 1:
            raise CoprimalityViolation(j, alpha, beta)
    return data


def _scaled_chern(d: SeifertData) -> tuple[int, int]:
    """(s, prod(alpha)) with s = c1 * prod(alpha), an integer."""
    p = d.alpha_product
    return d.euler * p + sum(beta * (p // alpha) for alpha, beta in d.pairs), p


def chern_number(data: SeifertData) -> Fraction:
    """Orbifold first Chern number c1 = n + sum_j beta_j / alpha_j."""
    s, p = _scaled_chern(validate_seifert(data))
    return Fraction(s, p)


def torsion_order_integer(data: SeifertData) -> int:
    """|n * prod(alpha) + sum_j beta_j * prod_{i != j} alpha_i|.

    Equals |c1| * prod(alpha), a nonnegative integer; it is the order of the
    torsion subgroup of H1 whenever c1 != 0 (and 0 exactly when c1 = 0).
    """
    return abs(_scaled_chern(validate_seifert(data))[0])


def relation_matrix(data: SeifertData) -> IntegerMatrix:
    """Abelianized relation matrix of the fundamental group.

    Columns are (c_1, ..., c_M, h); row j encodes c_j^{alpha_j} h^{beta_j} = 1
    and the last row encodes the surface relation prod c_j = h^n.  The genus
    generators abelianize to free summands and do not appear.  For M = 0 the
    matrix is the 1x1 block [[-n]].
    """
    d = validate_seifert(data)
    m = d.fiber_count
    entries = []  # row-major
    for j, (alpha, beta) in enumerate(d.pairs):
        row = [0] * (m + 1)
        row[j], row[m] = alpha, beta
        entries += row
    return IntegerMatrix(m + 1, m + 1, (*entries, *[1] * m, -d.euler))
