"""Spectral K functions, scalar torsion, prefactor bundle, volumes."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from support import DATA_GENUS1, DATA_T24, DATA_UNIT, FIXTURES, LONG, random_seifert

from seifert_torsion import (
    AngleOutOfRange,
    ChernNumberZero,
    K0Params,
    KThetaParams,
    NegativeChernWarning,
    NonPositiveChern,
    NumericWindowError,
    SeifertData,
    SingularPoint,
    UnsupportedWindow,
    chern_number,
    hurwitz_zeta,
    isotropy_volume,
    k0_deriv0,
    k0_function,
    k_theta_function,
    riemann_zeta,
    scalar_torsion_trivial,
    torsion_order_integer,
    torsion_prefactor,
    trivial_rep_k0_params,
    volume_coefficient,
)

TWO_PI = 2.0 * math.pi


def random_k0_params(rng):
    alphas = tuple(rng.randint(1, 20) for _ in range(rng.randint(0, 4)))
    dims = tuple((a, rng.randint(0, 3)) for a in alphas if rng.random() < 0.7)
    angles = tuple(
        (a, rng.uniform(0.05, 0.95)) for a in alphas if rng.random() < 0.5
    )
    return K0Params(rng.randint(-6, 6), dims, angles), alphas


class TestK0Function:
    def test_structural_zero_for_trivial_params(self):
        for d in FIXTURES:
            params = trivial_rep_k0_params(d)
            assert abs(k0_function(params, d.alphas, 0.0)) < 1e-9

    def test_structural_zero_random_params(self):
        rng = random.Random(41)
        for _ in range(20):
            params, alphas = random_k0_params(rng)
            assert abs(k0_function(params, alphas, 0.0)) < 1e-9

    def test_trivial_rep_at_one_direct_arithmetic(self):
        d = DATA_UNIT
        z2 = riemann_zeta(2.0)
        expected = 2.0 * (2.0 * z2 + 1.0) + 2.0 * z2 * (
            2.0**-2.0 + 3.0**-2.0 + 5.0**-2.0 - 3.0
        )
        value = k0_function(trivial_rep_k0_params(d), d.alphas, 1.0)
        assert abs(value - expected) < 1e-12

    def test_empty_params_vanish(self):
        empty = K0Params(0, (), ())
        for s in (-2.0, -0.3, 0.0, 1.0, 2.5):
            assert k0_function(empty, (), s) == 0.0

    def test_alphas_consistency_enforced(self):
        params = K0Params(1, ((3, 1),), ())
        with pytest.raises(ValueError):
            k0_function(params, (2, 5), 1.0)
        k0_function(params, (2, 3, 5), 1.0)

    def test_singular_band(self):
        params = trivial_rep_k0_params(DATA_UNIT)
        with pytest.raises(SingularPoint):
            k0_function(params, DATA_UNIT.alphas, 0.5)
        with pytest.raises(SingularPoint):
            k0_function(params, DATA_UNIT.alphas, 0.5 + 4e-10)
        k0_function(params, DATA_UNIT.alphas, 0.5 + 1e-8)

    def test_window(self):
        params = K0Params(1, (), ())
        with pytest.raises(UnsupportedWindow):
            k0_function(params, (), 3.1)  # 2s = 6.2
        k0_function(params, (), 3.0)
        k0_function(params, (), -3.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            K0Params(1, ((2, -1),), ())
        with pytest.raises(AngleOutOfRange):
            K0Params(1, (), ((2, 0.0),))
        with pytest.raises(AngleOutOfRange):
            K0Params(1, (), ((2, 1.0),))


class TestKThetaFunction:
    def test_zero_dim_empty_terms(self):
        params = KThetaParams(0, Fraction(1), 0.3, ())
        for s in (-1.0, 0.0, 2.0):
            assert k_theta_function(params, s) == 0.0

    def test_half_angle_at_one_is_pi_squared(self):
        params = KThetaParams(1, Fraction(1), 0.5, ())
        assert abs(k_theta_function(params, 1.0) - math.pi**2) < 1e-10

    def test_angle_reflection_symmetry(self):
        # dyadic angles make 1 - t exact, so mirroring swaps the two zeta
        # calls of each pair and the results must agree bitwise
        rng = random.Random(42)
        dyadic = lambda: rng.randint(26, 230) / 256.0
        for _ in range(20):
            theta = dyadic()
            terms = tuple(
                (rng.randint(1, 9), dyadic()) for _ in range(rng.randint(0, 3))
            )
            params = KThetaParams(rng.randint(0, 3), Fraction(rng.randint(-4, 4), 2), theta, terms)
            mirrored = KThetaParams(
                params.dim_e_theta,
                params.chi_sigma_star,
                1.0 - theta,
                tuple((a, 1.0 - t) for a, t in terms),
            )
            for s in (-1.5, 0.0, 1.0, 2.2):
                assert k_theta_function(params, s) == k_theta_function(mirrored, s)

    def test_matches_hand_built_sum(self):
        params = KThetaParams(2, Fraction(-1, 2), 0.25, ((3, 0.4),))
        s = 1.3
        expected = (
            2.0 * -0.5 * (hurwitz_zeta(2 * s, 0.25) + hurwitz_zeta(2 * s, 0.75))
            + 3.0 ** (-2 * s) * (hurwitz_zeta(2 * s, 0.4) + hurwitz_zeta(2 * s, 0.6))
        )
        assert k_theta_function(params, s) == pytest.approx(expected, abs=1e-12)

    def test_singular_band(self):
        params = KThetaParams(1, Fraction(1), 0.5, ())
        with pytest.raises(SingularPoint):
            k_theta_function(params, 0.5)

    def test_angle_validation(self):
        with pytest.raises(AngleOutOfRange):
            KThetaParams(1, Fraction(1), 0.0, ())
        with pytest.raises(AngleOutOfRange):
            KThetaParams(1, Fraction(1), 0.5, ((2, 1.0),))


class TestK0Derivative:
    def test_unit_fixture_closed_form(self):
        deriv = k0_deriv0(DATA_UNIT)
        assert deriv.closed_form == pytest.approx(
            -4.0 * math.log(TWO_PI) + 2.0 * math.log(30.0), abs=1e-12
        )

    def test_genus_one_zero(self):
        deriv = k0_deriv0(DATA_GENUS1)
        assert deriv.closed_form == 0.0
        assert abs(deriv.numeric) < 1e-6

    def test_genus_two_no_fibers(self):
        deriv = k0_deriv0(SeifertData(2, 1, ()))
        assert deriv.closed_form == pytest.approx(4.0 * math.log(TWO_PI), abs=1e-12)

    def test_numeric_agrees_with_closed_form(self):
        rng = random.Random(43)
        for d in FIXTURES:
            deriv = k0_deriv0(d)
            assert abs(deriv.numeric - deriv.closed_form) < 1e-6
        for _ in range(50):
            d = random_seifert(rng, max_alpha=30)
            deriv = k0_deriv0(d)
            assert abs(deriv.numeric - deriv.closed_form) < 1e-6


class TestScalarTorsion:
    def test_fixture_values(self):
        assert scalar_torsion_trivial(DATA_UNIT) == pytest.approx(
            TWO_PI**2 / 30.0, abs=0.0
        )
        assert scalar_torsion_trivial(DATA_GENUS1) == 1.0
        assert scalar_torsion_trivial(DATA_T24) == pytest.approx(
            TWO_PI**2 / 9.0, abs=0.0
        )

    def test_exponential_of_derivative(self):
        rng = random.Random(44)
        for _ in range(50):
            d = random_seifert(rng, max_alpha=30, nonzero_chern=True)
            deriv = k0_deriv0(d)
            torsion = scalar_torsion_trivial(d)
            assert abs(math.exp(-deriv.numeric / 2.0) - torsion) / torsion < 1e-6

    def test_chern_zero_rejected(self):
        with pytest.raises(ChernNumberZero):
            scalar_torsion_trivial(SeifertData(1, 0, ()))


class TestTorsionPrefactor:
    def test_unit_fixture(self):
        tr = torsion_prefactor(DATA_UNIT, 1)
        assert tr.prefactor == 1.0
        assert tr.volume_coefficient == 1.0
        assert tr.symplectic_volume == 1.0
        assert tr.radicand == 1

    def test_t24_fixture(self):
        tr = torsion_prefactor(DATA_T24, 1)
        assert tr.radicand == 24
        assert tr.symplectic_volume == pytest.approx(math.sqrt(24.0), rel=1e-15)
        assert tr.volume_coefficient == pytest.approx(1.0 / math.sqrt(24.0), rel=1e-15)

    def test_genus_one_fixture(self):
        tr = torsion_prefactor(DATA_GENUS1, 1)
        assert tr.prefactor == pytest.approx(1.0 / TWO_PI, rel=1e-15)
        assert tr.volume_coefficient == 1.0
        assert tr.symplectic_volume == 1.0

    def test_prefactor_product_structure(self):
        import warnings

        rng = random.Random(45)
        for _ in range(50):
            d = random_seifert(rng, nonzero_chern=True)
            n = rng.randint(1, 3)
            with warnings.catch_warnings():
                # random data may have c1 < 0; the orientation warning is
                # covered by its own test
                warnings.simplefilter("ignore", NegativeChernWarning)
                tr = torsion_prefactor(d, n)
            expected = TWO_PI ** (-n * d.genus) * tr.volume_coefficient
            assert tr.prefactor == pytest.approx(expected, rel=1e-14)
            # exact radicand relation, not a float comparison
            assert tr.radicand == torsion_order_integer(d)
            assert tr.gauge_rank == n

    def test_chern_zero_rejected(self):
        with pytest.raises(ChernNumberZero):
            torsion_prefactor(SeifertData(0, 0, ((2, 1), (2, -1))), 1)

    def test_negative_chern_warns(self):
        d = SeifertData(0, -1, ((2, 1),))
        assert chern_number(d) == Fraction(-1, 2)
        with pytest.warns(NegativeChernWarning):
            tr = torsion_prefactor(d, 1)
        assert tr.radicand == 1

    def test_volume_coefficient_matches_report(self):
        for d in FIXTURES:
            for n in (1, 2):
                assert volume_coefficient(d, n) == torsion_prefactor(d, n).volume_coefficient


class TestDoubleRange:
    BIG = SeifertData(0, 1, ((10**400 + 1, 1),))  # torsion order past the largest double

    @pytest.mark.parametrize(
        "func,args",
        [
            (torsion_prefactor, (DATA_T24, 500)),
            (torsion_prefactor, (BIG, 1)),
            (volume_coefficient, (BIG, 1)),
            (scalar_torsion_trivial, (SeifertData(0, 0, ((10**200, 1), (10**200 + 1, -1))),)),
        ],
        ids=["prefactor-rank", "prefactor-radicand", "volume-coefficient", "scalar-torsion"],
    )
    def test_overflow_is_numeric_window_error(self, func, args):
        with pytest.raises(NumericWindowError, match="outside the double range"):
            func(*args)

    @pytest.mark.parametrize(
        "rank,quoted",
        [(500, "500"), (int("9" * 4300), LONG), (10**5000, LONG)],
        ids=["short", "4300-digits", "past-str"],
    )
    def test_message_quotes_a_long_rank_briefly(self, rank, quoted):
        # 10**5000 has too many digits for str(), so the message must not call it
        with pytest.raises(NumericWindowError) as info:
            torsion_prefactor(DATA_T24, rank)
        rank_part = f"prefactor or symplectic volume at gauge rank {quoted}"
        assert str(info.value) == f"{rank_part} is outside the double range"


class TestIsotropyVolume:
    def test_unit_chern(self):
        iv = isotropy_volume(DATA_GENUS1)
        assert iv.value == 1.0
        assert iv.radicand == 1

    def test_small_chern(self):
        iv = isotropy_volume(DATA_UNIT)
        assert iv.radicand == Fraction(1, 30)
        assert iv.value == pytest.approx(math.sqrt(1.0 / 30.0), rel=1e-15)

    def test_negative_chern_rejected(self):
        with pytest.raises(NonPositiveChern):
            isotropy_volume(SeifertData(0, -1, ((2, 1),)))

    def test_zero_chern_rejected(self):
        with pytest.raises(NonPositiveChern):
            isotropy_volume(SeifertData(1, 0, ()))
