"""Smith normal form and the homology quantities built on it."""

from __future__ import annotations

import random

import pytest
from support import DATA_GENUS1, DATA_T24, DATA_UNIT, cofactor_det, matmul, random_seifert

from seifert_torsion import (
    AbelianGroupDecomposition,
    CapExceeded,
    ChernNumberZero,
    ChernZeroWarning,
    IntegerMatrix,
    SeifertData,
    chern_number,
    enumerate_torsion_characters,
    first_homology,
    moduli_description,
    relation_matrix,
    smith_normal_form,
    torsion_h2_order,
    torsion_order_integer,
)


def random_matrix(rng, max_dim=6, max_entry=99):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)] for _ in range(rows)]
    )


def assert_smith_shape(diag):
    # nonnegative, zeros trailing, divisibility chain on the nonzero part
    nonzero = [e for e in diag if e]
    assert all(e >= 0 for e in diag)
    assert list(diag[: len(nonzero)]) == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


class TestSmithNormalForm:
    def test_identity_fixed(self):
        eye = IntegerMatrix.identity(3)
        snf = smith_normal_form(eye)
        assert snf.d == eye
        assert snf.diagonal() == (1, 1, 1)

    def test_diag_2_3_rechains_to_1_6(self):
        snf = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.diagonal() == (1, 6)

    def test_t24_relation_matrix(self):
        snf = smith_normal_form(relation_matrix(DATA_T24))
        assert snf.diagonal() == (1, 1, 24)

    def test_zero_matrix(self):
        z = IntegerMatrix.from_rows([[0, 0], [0, 0]])
        snf = smith_normal_form(z)
        assert snf.d == z
        assert snf.u == IntegerMatrix.identity(2)

    def test_rectangular(self):
        snf = smith_normal_form(IntegerMatrix.from_rows([[2, 4, 6]]))
        assert snf.d.rows == 1 and snf.d.cols == 3
        assert snf.diagonal() == (2,)
        assert snf.d.to_rows() == [[2, 0, 0]]

    def test_factorization_and_unimodularity_random(self):
        rng = random.Random(21)
        for trial in range(500):
            a = random_matrix(rng)
            snf = smith_normal_form(a)
            assert matmul(matmul(snf.u, a), snf.v) == snf.d
            assert abs(snf.u.det()) == 1
            assert abs(snf.v.det()) == 1
            assert_smith_shape(snf.diagonal())
            if trial < 50:
                # cross-check the unimodularity dets on an independent oracle
                assert snf.u.det() == cofactor_det(snf.u.to_rows())
                assert snf.v.det() == cofactor_det(snf.v.to_rows())

    def test_deterministic(self):
        rng = random.Random(22)
        for _ in range(20):
            a = random_matrix(rng)
            assert smith_normal_form(a) == smith_normal_form(a)

    def test_diagonal_product_matches_determinant(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = IntegerMatrix.from_rows(
                [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            )
            product = 1
            for e in smith_normal_form(a).diagonal():
                product *= e
            assert product == abs(a.det())


class TestFirstHomology:
    def test_unit_fixture_trivial(self):
        h = first_homology(DATA_UNIT)
        assert h.rank == 0 and h.invariant_factors == ()

    def test_genus_one_fixture(self):
        h = first_homology(DATA_GENUS1)
        assert h.rank == 2 and h.invariant_factors == ()

    def test_t24_fixture(self):
        h = first_homology(DATA_T24)
        assert h.rank == 0 and h.invariant_factors == (24,)

    def test_chern_zero_adds_free_rank(self):
        h = first_homology(SeifertData(1, 0, ()))
        assert h.rank == 3  # 2g + 1

    def test_rank_tracks_chern_vanishing(self):
        rng = random.Random(24)
        for _ in range(100):
            d = random_seifert(rng)
            h = first_homology(d)
            expected = 2 * d.genus + (1 if chern_number(d) == 0 else 0)
            assert h.rank == expected

    def test_torsion_order_cross_derivation(self):
        # product of SNF invariant factors vs the closed-form integer
        rng = random.Random(25)
        for _ in range(100):
            d = random_seifert(rng, nonzero_chern=True)
            assert first_homology(d).torsion_order() == torsion_order_integer(d)

    def test_decomposition_validates_chain(self):
        with pytest.raises(ValueError):
            AbelianGroupDecomposition(0, (2, 3))
        with pytest.raises(ValueError):
            AbelianGroupDecomposition(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroupDecomposition(-1, ())


class TestTorsionClasses:
    def test_power_law(self):
        assert torsion_h2_order(DATA_T24, 1) == 24
        assert torsion_h2_order(DATA_T24, 2) == 576
        assert torsion_h2_order(DATA_UNIT, 3) == 1

    def test_chern_zero_warns_but_returns(self):
        d = SeifertData(1, 0, ())
        with pytest.warns(ChernZeroWarning):
            assert torsion_h2_order(d, 2) == 1

    def test_no_warning_when_chern_nonzero(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            torsion_h2_order(DATA_T24, 1)

    def test_gauge_rank_validated(self):
        with pytest.raises(ValueError):
            torsion_h2_order(DATA_T24, 0)


class TestModuliDescription:
    def test_unit_fixture(self):
        m = moduli_description(DATA_UNIT, 1)
        assert m.component_count == 1
        assert m.component_dimension == 0
        assert m.torsion_factors == ()

    def test_genus_one_rank_two(self):
        m = moduli_description(DATA_GENUS1, 2)
        assert m.component_count == 1
        assert m.component_dimension == 4

    def test_t24_rank_two_torsion_factors_rechain(self):
        m = moduli_description(DATA_T24, 2)
        assert m.component_count == 576
        assert m.component_dimension == 0
        assert m.torsion_factors == (24, 24)

    def test_mixed_factors_rechain_sorted(self):
        # two copies of a chain sort back into a chain
        d = SeifertData(0, 1, ((2, 1), (2, 1), (4, 1)))
        h = first_homology(d)
        m = moduli_description(d, 3)
        assert m.torsion_factors == tuple(sorted(h.invariant_factors * 3))
        for a, b in zip(m.torsion_factors, m.torsion_factors[1:]):
            assert b % a == 0

    def test_chern_zero_rejected(self):
        with pytest.raises(ChernNumberZero):
            moduli_description(SeifertData(1, 0, ()), 1)

    def test_component_count_equals_torsion_power(self):
        rng = random.Random(26)
        for _ in range(50):
            d = random_seifert(rng, nonzero_chern=True)
            n = rng.randint(1, 3)
            m = moduli_description(d, n)
            assert m.component_count == torsion_order_integer(d) ** n
            assert m.component_dimension == 2 * d.genus * n


class TestCharacterEnumeration:
    def test_trivial_group_has_one_character(self):
        h = AbelianGroupDecomposition(0, ())
        assert enumerate_torsion_characters(h) == [()]

    def test_z2_z4(self):
        h = AbelianGroupDecomposition(0, (2, 4))
        chars = enumerate_torsion_characters(h)
        assert len(chars) == 8
        assert chars[0] == (0, 0)
        assert chars[1] == (0, 1)
        assert chars[-1] == (1, 3)
        assert chars == sorted(chars)  # lexicographic

    def test_cap(self):
        h = AbelianGroupDecomposition(0, (24,))
        assert len(enumerate_torsion_characters(h, cap=24)) == 24
        with pytest.raises(CapExceeded) as info:
            enumerate_torsion_characters(h, cap=23)
        assert info.value.order == 24

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            enumerate_torsion_characters(AbelianGroupDecomposition(0, ()), cap=0)

    def test_count_matches_group_order(self):
        rng = random.Random(27)
        for _ in range(20):
            d = random_seifert(rng, max_alpha=6, nonzero_chern=True)
            h = first_homology(d)
            if h.torsion_order() > 5000:
                continue
            chars = enumerate_torsion_characters(h, cap=5000)
            assert len(chars) == h.torsion_order()
