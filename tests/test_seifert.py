"""Data model, validation, Chern number, torsion order, relation matrix."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    DATA_GENUS1,
    DATA_T24,
    DATA_UNIT,
    chern_oracle,
    cofactor_det,
    identity,
    matmul,
    random_coprime_pair,
    random_seifert,
)

from seifert_torsion import (
    CoprimalityViolation,
    IntegerMatrix,
    NegativeGenus,
    NonPositiveAlpha,
    SeifertData,
    chern_number,
    relation_matrix,
    torsion_order_integer,
    validate_seifert,
)


class TestValidation:
    def test_fixtures_pass(self):
        for d in (DATA_UNIT, DATA_GENUS1, DATA_T24):
            assert validate_seifert(d) is d

    def test_empty_pair_list_is_valid(self):
        validate_seifert(SeifertData(0, 0, ()))

    def test_coprimality_violation_reports_pair_index(self):
        with pytest.raises(CoprimalityViolation) as info:
            validate_seifert(SeifertData(0, 2, ((4, 2),)))
        assert info.value.index == 1

    def test_second_pair_flagged(self):
        with pytest.raises(CoprimalityViolation) as info:
            validate_seifert(SeifertData(0, 0, ((3, 1), (6, 4))))
        assert info.value.index == 2

    def test_alpha_one_admits_any_beta(self):
        validate_seifert(SeifertData(0, 0, ((1, 0), (1, 7), (1, -3))))

    def test_alpha_positive_required(self):
        with pytest.raises(NonPositiveAlpha):
            validate_seifert(SeifertData(0, 0, ((0, 1),)))
        with pytest.raises(NonPositiveAlpha):
            validate_seifert(SeifertData(0, 0, ((-2, 1),)))

    def test_zero_beta_needs_alpha_one(self):
        with pytest.raises(CoprimalityViolation):
            validate_seifert(SeifertData(0, 0, ((2, 0),)))

    def test_negative_genus(self):
        with pytest.raises(NegativeGenus):
            validate_seifert(SeifertData(-1, 0, ()))


class TestChernNumber:
    def test_fixture_values(self):
        assert chern_number(DATA_UNIT) == Fraction(1, 30)
        assert chern_number(DATA_GENUS1) == Fraction(1)
        assert chern_number(DATA_T24) == Fraction(8, 3)

    def test_zero_cases(self):
        assert chern_number(SeifertData(1, 0, ())) == 0
        assert chern_number(SeifertData(0, 0, ((2, 1), (2, -1)))) == 0

    def test_against_fraction_sum_oracle(self):
        rng = random.Random(10)
        for _ in range(300):
            d = random_seifert(rng, max_fibers=8, max_alpha=rng.choice((3, 50, 10**6)))
            assert chern_number(d) == chern_oracle(d)

    def test_pair_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            d = random_seifert(rng)
            pairs = list(d.pairs)
            rng.shuffle(pairs)
            assert chern_number(SeifertData(d.genus, d.euler, tuple(pairs))) == chern_number(d)

    def test_twist_shift_invariance(self):
        # moving a full twist from a fiber into the euler term fixes c1
        rng = random.Random(12)
        for _ in range(50):
            d = random_seifert(rng)
            if not d.pairs:
                continue
            (a0, b0), rest = d.pairs[0], d.pairs[1:]
            shifted = SeifertData(d.genus, d.euler + 1, ((a0, b0 - a0),) + rest)
            assert chern_number(shifted) == chern_number(d)
            assert torsion_order_integer(shifted) == torsion_order_integer(d)


class TestTorsionOrder:
    def test_fixture_values(self):
        assert torsion_order_integer(DATA_UNIT) == 1
        assert torsion_order_integer(DATA_GENUS1) == 1
        assert torsion_order_integer(DATA_T24) == 24

    def test_zero_iff_chern_zero(self):
        assert torsion_order_integer(SeifertData(2, 0, ())) == 0
        assert torsion_order_integer(SeifertData(0, 0, ((2, 1), (2, -1)))) == 0

    def test_equals_chern_times_alpha_product(self):
        rng = random.Random(13)
        for _ in range(200):
            d = random_seifert(rng)
            expected = abs(chern_oracle(d) * d.alpha_product)
            assert expected.denominator == 1
            assert torsion_order_integer(d) == expected


class TestRelationMatrix:
    def test_unit_fixture_rows(self):
        m = relation_matrix(DATA_UNIT)
        assert m.to_rows() == [
            [2, 0, 0, 1],
            [0, 3, 0, 1],
            [0, 0, 5, 1],
            [1, 1, 1, 1],
        ]

    def test_t24_fixture_rows(self):
        m = relation_matrix(DATA_T24)
        assert m.to_rows() == [[3, 0, 1], [0, 3, 1], [1, 1, -2]]

    def test_no_fiber_case_is_single_entry(self):
        assert relation_matrix(SeifertData(1, 1, ())).to_rows() == [[-1]]
        assert relation_matrix(SeifertData(0, -3, ())).to_rows() == [[3]]

    def test_determinant_magnitude_is_torsion_order(self):
        rng = random.Random(14)
        for _ in range(200):
            d = random_seifert(rng)
            assert abs(relation_matrix(d).det()) == torsion_order_integer(d)

    def test_determinant_against_cofactor_oracle(self):
        rng = random.Random(15)
        for _ in range(50):
            d = random_seifert(rng)
            m = relation_matrix(d)
            assert m.det() == cofactor_det(m.to_rows())

    def test_determinant_of_three_hundred_fibers_within_budget(self):
        # the fiber rows have a zero pivot-column entry at every step but their
        # own; rescaling them at each step, not when next touched, is O(n^3):
        # on one 2-core box that took 0.62 s against 0.16 s for this matrix,
        # and 0.84 to 1.08 s against 0.28 s while the box ran slower
        rng = random.Random(300)
        d = SeifertData(0, 0, tuple(random_coprime_pair(rng, 1000, 1000) for _ in range(300)))
        m = relation_matrix(d)
        start = time.perf_counter()
        det = m.det()
        assert time.perf_counter() - start < 0.6
        assert abs(det) == torsion_order_integer(d)


def _sparse_square(n: int):
    """n x n matrices of small nonzero entries with 30% to 70% of them set to 0."""
    cells = n * n
    entries = st.lists(st.integers(-12, 12).filter(bool), min_size=cells, max_size=cells)
    low, high = round(0.3 * cells), round(0.7 * cells)
    zeros = st.sets(st.integers(0, cells - 1), min_size=low, max_size=high)

    def place(t):
        values, zero = t
        return [[0 if i * n + j in zero else values[i * n + j] for j in range(n)] for i in range(n)]

    return st.tuples(entries, zeros).map(place)


class TestIntegerMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntegerMatrix(0, 1, ())
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntegerMatrix(1, 2, (1, 2.5))

    def test_identity_and_product(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        eye = identity(2)
        assert matmul(eye, a) == a
        assert matmul(a, eye) == a

    def test_product_values(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert matmul(a, b).to_rows() == [[2, 1], [4, 3]]

    def test_det_small_cases(self):
        assert identity(3).det() == 1
        assert IntegerMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
        assert IntegerMatrix.from_rows([[2, 0], [0, 3]]).det() == 6
        assert IntegerMatrix.from_rows([[1, 2], [2, 4]]).det() == 0

    # A row whose pivot-column entry is 0 stays stale until it is next touched.
    @pytest.mark.parametrize(
        "rows,expected",
        [
            # after pivot 4, the stale row 3 is swapped in as the second pivot row
            ([[4, 0, -3, -2], [3, 0, 2, 0], [3, 0, 4, 0], [0, 1, 0, 0]], -12),
            # after pivot 2, the stale row 2 is swapped in and brought up to date
            ([[2, 1, 1, -1], [2, 1, 2, 0], [0, -1, 1, 0], [1, 0, 0, 2]], 7),
            # the last row is never touched before the end
            ([[2, 1, 1], [0, 3, 1], [0, 0, 5]], 30),
            # the second pivot equals the first, and the stale row 2 gets an update
            ([[2, 1, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 3]], -7),
        ],
        ids=["stale-row-swapped", "stale-pivot-row", "untouched-last-row", "pivot-is-previous"],
    )
    def test_det_deferred_rescale_cases(self, rows, expected):
        assert IntegerMatrix.from_rows(rows).det() == cofactor_det(rows) == expected

    def test_det_matches_cofactor_oracle_on_random_matrices(self):
        rng = random.Random(16)
        for _ in range(100):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert IntegerMatrix.from_rows(rows).det() == cofactor_det(rows)

    # small entries and many zeros reach row swaps, rows with a zero
    # pivot-column entry and steps whose pivot equals the previous one
    @settings(max_examples=200)
    @given(st.integers(1, 6).flatmap(_sparse_square))
    def test_det_matches_cofactor_oracle_on_sparse_matrices(self, rows):
        assert IntegerMatrix.from_rows(rows).det() == cofactor_det(rows)

    def test_det_needs_square(self):
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()
