"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately use different algorithms from the library:
cofactor expansion instead of fraction-free elimination, Fraction sums
instead of one integer sum over prod(alpha), Fraction sawtooth summation
instead of integer summation, bracketed partial series instead of
Euler-Maclaurin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from seifert_torsion import IntegerMatrix, SeifertData, chern_number

# the three standing fixtures: trivial torsion, positive genus, torsion 24
DATA_UNIT = SeifertData(0, -1, ((2, 1), (3, 1), (5, 1)))
DATA_GENUS1 = SeifertData(1, 1, ())
DATA_T24 = SeifertData(0, 2, ((3, 1), (3, 1)))
FIXTURES = (DATA_UNIT, DATA_GENUS1, DATA_T24)

LONG = "<more than 50 digits>"  # how an error message quotes an integer past 50 digits


def random_seifert(rng, max_genus=3, max_fibers=5, max_alpha=50, nonzero_chern=False):
    """A random valid Seifert datum; optionally resampled until c1 != 0."""
    while True:
        genus = rng.randint(0, max_genus)
        euler = rng.randint(-5, 5)
        pairs = []
        for _ in range(rng.randint(0, max_fibers)):
            alpha = rng.randint(1, max_alpha)
            while True:
                beta = rng.randint(-2 * alpha, 2 * alpha)
                if gcd(alpha, beta) == 1:
                    break
            pairs.append((alpha, beta))
        d = SeifertData(genus, euler, tuple(pairs))
        if not nonzero_chern or chern_number(d) != 0:
            return d


def chern_oracle(d: SeifertData) -> Fraction:
    """c1 = n + sum_j beta_j / alpha_j, summed term by term in Fraction."""
    return sum((Fraction(b, a) for a, b in d.pairs), Fraction(d.euler))


def random_coprime_pair(rng, max_alpha, max_beta):
    alpha = rng.randint(1, max_alpha)
    while True:
        beta = rng.randint(1, max_beta)
        if gcd(alpha, beta) == 1:
            return alpha, beta


def identity(n: int) -> IntegerMatrix:
    """The n x n identity matrix."""
    return IntegerMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """The integer matrix product a b, by the row-column definition."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    x, y = a.to_rows(), b.to_rows()
    return IntegerMatrix.from_rows(
        [
            [sum(x[i][k] * y[k][j] for k in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def cofactor_det(rows) -> int:
    """Exact determinant by recursive cofactor expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def sawtooth(x: Fraction) -> Fraction:
    """((x)): 0 at integers, else x - floor(x) - 1/2."""
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_oracle(alpha: int, beta: int) -> Fraction:
    """Naive Fraction-arithmetic Dedekind sum, straight from the definition."""
    return sum(
        (
            sawtooth(Fraction(j, alpha)) * sawtooth(Fraction(j * beta, alpha))
            for j in range(1, alpha)
        ),
        Fraction(0),
    )


def zeta_series_bracket(s: float, terms: int) -> tuple[float, float]:
    """Rigorous bracket for zeta(s), s > 1, from a partial sum plus tail bounds.

    integral_{N+1}^inf x^-s dx <= tail <= integral_N^inf x^-s dx.
    """
    partial = math.fsum(n**-s for n in range(1, terms + 1))
    low = partial + (terms + 1) ** (1.0 - s) / (s - 1.0)
    high = partial + terms ** (1.0 - s) / (s - 1.0)
    return low, high


def zeta_neg1_oracle() -> float:
    """zeta(-1) via the functional equation, fed by a bracketed zeta(2).

    zeta(-1) = 2 (2 pi)^{-2} cos(pi) Gamma(2) zeta(2) in the reflected form
    zeta(1-s) = 2 (2 pi)^{-s} cos(pi s / 2) Gamma(s) zeta(s) at s = 2.
    """
    low, high = zeta_series_bracket(2.0, 20000)
    mid = 0.5 * (low + high)
    return 2.0 * (2.0 * math.pi) ** -2.0 * math.cos(math.pi) * math.gamma(2.0) * mid
