"""Partition magnitudes, phases, and the two-route magnitude equality."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from support import DATA_GENUS1, DATA_T24, DATA_UNIT, random_seifert

from seifert_torsion import (
    ChernNumberZero,
    CsLengthMismatch,
    NumericWindowError,
    PartitionInputs,
    SeifertData,
    adiabatic_eta,
    m_exponent,
    partition_magnitude,
    phase_factor,
    torsion_order_integer,
    z_partition_value,
    zbar_component_magnitude,
    zbar_partition_value,
)
from seifert_torsion.partition import _level_power


class TestMExponent:
    def test_fixture_values(self):
        assert m_exponent(DATA_UNIT, 1) == -1
        assert m_exponent(DATA_GENUS1, 1) == 0
        assert m_exponent(DATA_T24, 3) == -3

    def test_linear_in_gauge_rank(self):
        rng = random.Random(51)
        for _ in range(30):
            d = random_seifert(rng, nonzero_chern=True)
            n = rng.randint(2, 5)
            assert m_exponent(d, n) == n * m_exponent(d, 1)

    def test_chern_zero_rejected(self):
        with pytest.raises(ChernNumberZero):
            m_exponent(SeifertData(1, 0, ()), 1)


class TestPhaseFactor:
    def test_eta_half_gives_one(self):
        d = SeifertData(0, 3, ())  # c1 = 3, no fibers, eta0 = 1/2
        assert adiabatic_eta(d, 1) == Fraction(1, 2)
        assert phase_factor(d, 1) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_unit_fixture_phase(self):
        expected = cmath.exp(1j * math.pi * (0.25 + 91.0 / 360.0))
        assert phase_factor(DATA_UNIT, 1) == pytest.approx(expected, abs=1e-15)

    def test_genus_one_phase(self):
        expected = cmath.exp(1j * math.pi / 6.0)
        assert phase_factor(DATA_GENUS1, 1) == pytest.approx(expected, abs=1e-15)

    def test_unit_modulus(self):
        rng = random.Random(52)
        for _ in range(50):
            d = random_seifert(rng)
            n = rng.randint(1, 4)
            assert abs(abs(phase_factor(d, n)) - 1.0) < 1e-15


class TestComponentMagnitude:
    def test_genus_one_any_level(self):
        assert zbar_component_magnitude(DATA_GENUS1, 1, 5) == 1.0

    def test_t24_level_one(self):
        assert zbar_component_magnitude(DATA_T24, 1, 1) == pytest.approx(
            1.0 / math.sqrt(24.0), rel=1e-15
        )

    def test_t24_level_two(self):
        # m_x = -1 brings one inverse power of the level
        assert zbar_component_magnitude(DATA_T24, 1, 2) == pytest.approx(
            1.0 / (2.0 * math.sqrt(24.0)), rel=1e-15
        )

    def test_level_validated(self):
        with pytest.raises(ValueError):
            zbar_component_magnitude(DATA_T24, 1, 0)


class TestLevelPower:
    def test_overflow_boundary(self):
        assert _level_power(2, 1023) == 2.0**1023
        with pytest.raises(NumericWindowError):
            _level_power(2, 1024)
        with pytest.raises(NumericWindowError):
            _level_power(10**6, 2 * 10**6)  # refused from the bit length alone

    def test_underflow_boundary(self):
        assert _level_power(2, -1074) == 5e-324
        assert _level_power(2, -1075) == 0.0
        assert _level_power(10**6, -(2 * 10**6)) == 0.0

    def test_exact_below_the_bounds(self):
        assert _level_power(3, 5) == 243.0
        assert _level_power(3, -5) == 1 / 243
        assert _level_power(1, -(10**9)) == 1.0


def coherent_inputs(d, n=1, k=1, grav=None):
    count = torsion_order_integer(d) ** n
    return PartitionInputs(d, n, k, (0.0,) * count, grav)


class TestPartitionMagnitude:
    def test_trivial_torsion_single_class(self):
        for k in (1, 2, 7):
            inputs = PartitionInputs(DATA_UNIT, 1, k, (0.0,))
            # m_x = -1, one unit phase over sqrt(1)
            assert partition_magnitude(inputs) == pytest.approx(1.0 / k, rel=1e-15)

    def test_coherent_sum_saturates_bound(self):
        inputs = coherent_inputs(DATA_T24)
        assert partition_magnitude(inputs) == pytest.approx(
            math.sqrt(24.0), rel=1e-12
        )

    def test_roots_of_unity_cancel(self):
        cs = tuple(2.0 * math.pi * j / 24.0 for j in range(24))
        inputs = PartitionInputs(DATA_T24, 1, 1, cs)
        assert partition_magnitude(inputs) < 1e-12

    def test_bound_with_equality_only_when_coherent(self):
        rng = random.Random(53)
        t = torsion_order_integer(DATA_T24)
        bound = math.sqrt(t)  # k = 1, m_x = -1
        for _ in range(20):
            cs = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(t))
            value = partition_magnitude(PartitionInputs(DATA_T24, 1, 1, cs))
            assert value < bound - 1e-6

    def test_length_mismatch(self):
        with pytest.raises(CsLengthMismatch) as info:
            partition_magnitude(PartitionInputs(DATA_T24, 1, 1, (0.0,) * 23))
        assert info.value.expected == 24

    def test_gauge_rank_two_needs_square(self):
        count = 24**2
        inputs = PartitionInputs(DATA_T24, 2, 1, (0.0,) * count)
        assert partition_magnitude(inputs) == pytest.approx(
            math.sqrt(float(count)), rel=1e-12
        )
        with pytest.raises(CsLengthMismatch):
            partition_magnitude(PartitionInputs(DATA_T24, 2, 1, (0.0,) * 24))

    def test_chern_zero_rejected(self):
        with pytest.raises(ChernNumberZero):
            partition_magnitude(PartitionInputs(SeifertData(1, 0, ()), 1, 1, (0.0,)))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PartitionInputs(DATA_T24, 0, 1, ())
        with pytest.raises(ValueError):
            PartitionInputs(DATA_T24, 1, -2, ())


class TestMagnitudeEquality:
    def test_two_routes_agree_random_phases(self):
        rng = random.Random(54)
        for d in (DATA_UNIT, DATA_GENUS1, DATA_T24):
            t = torsion_order_integer(d)
            for _ in range(10):
                k = rng.randint(1, 9)
                cs = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(t))
                inputs = PartitionInputs(d, 1, k, cs)
                direct = partition_magnitude(inputs)
                assembled = abs(zbar_partition_value(inputs))
                if direct > 0:
                    assert abs(direct - assembled) / direct < 1e-12
                else:
                    assert assembled < 1e-12

    def test_zbar_value_structure(self):
        # coherent phases: zbar = k^m K_X phase_factor * count
        inputs = coherent_inputs(DATA_T24, k=3)
        t = 24
        expected = (
            (1.0 / 3.0)
            * t ** -0.5
            * phase_factor(DATA_T24, 1)
            * t
        )
        assert zbar_partition_value(inputs) == pytest.approx(expected, rel=1e-12)

    def test_zbar_phase_uses_gauge_rank(self):
        # one class, m_x = 0 and K_X = 1 at N = 2: zbar is the rank-2 phase factor
        rank_two = phase_factor(DATA_GENUS1, 2)
        assert zbar_partition_value(coherent_inputs(DATA_GENUS1, n=2)) == pytest.approx(
            rank_two, abs=1e-15
        )
        assert abs(rank_two - phase_factor(DATA_GENUS1, 1)) > 0.1

    def test_z_needs_grav_phase(self):
        inputs = coherent_inputs(DATA_T24)
        with pytest.raises(ValueError):
            z_partition_value(inputs)

    def test_z_and_zbar_magnitudes_agree(self):
        rng = random.Random(55)
        t = torsion_order_integer(DATA_T24)
        for _ in range(10):
            cs = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(t))
            grav = rng.uniform(-2.0, 2.0)
            inputs = PartitionInputs(DATA_T24, 1, 2, cs, grav)
            z = z_partition_value(inputs)
            zbar = zbar_partition_value(inputs)
            mag = partition_magnitude(inputs)
            assert abs(z) == pytest.approx(abs(zbar), rel=1e-12, abs=1e-15)
            assert abs(z) == pytest.approx(mag, rel=1e-12, abs=1e-15)

    def test_grav_phase_rotates_only(self):
        inputs_a = coherent_inputs(DATA_GENUS1, grav=0.0)
        inputs_b = coherent_inputs(DATA_GENUS1, grav=0.5)
        za = z_partition_value(inputs_a)
        zb = z_partition_value(inputs_b)
        assert abs(za) == pytest.approx(abs(zb), rel=1e-14)
        # grav = 0.5 with N = 1 multiplies by exp(i pi / 2) = i
        assert zb == pytest.approx(za * 1j, rel=1e-12)
