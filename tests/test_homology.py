"""Smith normal form and the homology quantities built on it."""

from __future__ import annotations

import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    DATA_GENUS1,
    DATA_T24,
    DATA_UNIT,
    LONG,
    cofactor_det,
    identity,
    matmul,
    random_seifert,
)

from seifert_torsion import (
    AbelianGroupDecomposition,
    CapExceeded,
    ChernNumberZero,
    ChernZeroWarning,
    IntegerMatrix,
    NumericWindowError,
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
from seifert_torsion.homology import class_count


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
        eye = identity(3)
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
        assert snf.u == identity(2)

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


# (A, U, D, V) with U A V = D, pinned entry for entry
PINNED_DECOMPOSITIONS = {
    "wide": (
        [[4, 6, -2, 9], [3, -5, 7, 1]],
        [[0, 1], [-1, 9]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, -5, 93, 23], [0, -1, 19, 4], [0, 1, -18, -5], [1, 3, -58, -14]],
    ),
    "tall": (
        [[6, 4], [-9, 2], [15, 7], [3, -8]],
        [[0, 1, 0, 0], [-2, 2, 1, 0], [31, -6, -16, 0], [13, -1, -6, 1]],
        [[1, 0], [0, 3], [0, 0], [0, 0]],
        [[1, -2], [5, -9]],
    ),
    "square": (
        [[6, 4, 7], [-3, 9, 2], [5, 8, -1]],
        [[0, 0, -1], [1, 16, 39], [4, 63, 154]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 605]],
        [[0, -3, 460], [0, 1, -153], [1, -7, 1076]],
    ),
    "zero-row": (
        [[0, 0, 0], [4, 6, 2], [1, -3, 5]],
        [[0, 0, 1], [0, 1, -4], [1, 0, 0]],
        [[1, 0, 0], [0, 18, 0], [0, 0, 0]],
        [[1, 3, -2], [0, 1, 1], [0, 0, 1]],
    ),
    "rechain": (
        [[2, 0], [0, 3]],
        [[1, 1], [3, 2]],
        [[1, 0], [0, 6]],
        [[-1, 3], [1, -2]],
    ),
    "chern-zero-relations": (  # relation_matrix of [0,0;(2,1),(2,-1)]
        [[2, 0, 1], [0, 2, -1], [1, 1, 0]],
        [[1, 0, 0], [0, 0, 1], [1, 1, -2]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 1, -1], [1, 0, -2]],
    ),
}


@pytest.mark.parametrize("name", PINNED_DECOMPOSITIONS)
def test_pinned_decomposition(name):
    a, u, d, v = PINNED_DECOMPOSITIONS[name]
    snf = smith_normal_form(IntegerMatrix.from_rows(a))
    assert (snf.u.to_rows(), snf.d.to_rows(), snf.v.to_rows()) == (u, d, v)


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

    def test_pinned_factors_past_mod_det_elimination(self):
        # H1 as the smith_normal_form route gives it: repeated 2-torsion, t24,
        # c1 = 0, no fibers, mixed chain factors and 3000-digit fibers
        a = 10**2999 + 1
        pinned = {
            (0, 1, ((2, 1),) * 9 + ((4, 1), (6, 1), (8, 3))): (0, (2,) * 10 + (604,)),
            (0, 2, ((3, 1), (3, 1))): (0, (24,)),
            (1, -1, ((2, 1), (4, 1), (4, 1))): (3, (2,)),  # c1 = 0
            (2, -6, ()): (4, (6,)),
            (1, 0, ((6, 1), (10, 1), (15, 1), (6, 5), (10, 3), (15, -2), (9, 2))): (
                2,
                (3, 30, 30, 4200),
            ),
            (0, 1, ((a, 1), (a, 1), (a, 1), (12, 5))): (0, (a, a * (17 * a + 36))),
        }
        for (genus, euler, pairs), expected in pinned.items():
            h = first_homology(SeifertData(genus, euler, pairs))
            assert (h.rank, h.invariant_factors) == expected

    def test_eighty_fibers_within_budget(self):
        rng = random.Random(80)
        data = []
        while len(data) < 3:
            pairs = []
            while len(pairs) < 80:
                alpha, beta = rng.randint(2, 1000), rng.randint(-1000, 1000)
                if gcd(alpha, beta) == 1:
                    pairs.append((alpha, beta))
            d = SeifertData(rng.randint(0, 3), rng.randint(-5, 5), tuple(pairs))
            if chern_number(d):
                data.append(d)
        start = time.perf_counter()
        orders = [first_homology(d).torsion_order() for d in data]
        assert time.perf_counter() - start < 5.0
        assert orders == [torsion_order_integer(d) for d in data]

    def test_hundred_fibers_within_budget(self):
        # pivots sharing a factor with |det A| fill the matrix unless they
        # come last; in the fiber order as given one such datum takes 2.4 s
        rng = random.Random(100)
        data = []
        while len(data) < 10:
            pairs = []
            while len(pairs) < 100:
                alpha, beta = rng.randint(2, 1000), rng.randint(-1000, 1000)
                if gcd(alpha, beta) == 1:
                    pairs.append((alpha, beta))
            d = SeifertData(0, rng.randint(-5, 5), tuple(pairs))
            if chern_number(d):
                data.append(d)
        start = time.perf_counter()
        orders = [first_homology(d).torsion_order() for d in data]
        assert time.perf_counter() - start < 2.0
        assert orders == [torsion_order_integer(d) for d in data]

    def test_decomposition_validates_chain(self):
        with pytest.raises(ValueError):
            AbelianGroupDecomposition(0, (2, 3))
        with pytest.raises(ValueError):
            AbelianGroupDecomposition(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroupDecomposition(-1, ())


def _coprime_pair(alpha: int, beta: int) -> tuple[int, int]:
    # the first beta' >= beta coprime to alpha: within alpha steps, beta' = 1 mod alpha
    while gcd(alpha, beta) != 1:
        beta += 1
    return alpha, beta


_PAIR = st.builds(
    _coprime_pair, st.one_of(st.integers(2, 6), st.integers(2, 1000)), st.integers(-1000, 1000)
)
_DATA = st.builds(
    SeifertData, st.integers(0, 3), st.integers(-5, 5), st.lists(_PAIR, max_size=8).map(tuple)
)
# alpha with few primes, so that many pivots share a factor with |det A|
_SHARED_PAIR = st.builds(
    _coprime_pair, st.sampled_from((2, 3, 4, 6, 8, 9, 12, 18)), st.integers(-1000, 1000)
)
_SHARED_DATA = st.builds(
    SeifertData,
    st.integers(0, 3),
    st.integers(-5, 5),
    st.lists(_SHARED_PAIR, max_size=10).map(tuple),
)


def _smith_route(d: SeifertData) -> tuple[int, tuple[int, ...]]:
    diag = smith_normal_form(relation_matrix(d)).diagonal()
    return 2 * d.genus + diag.count(0), tuple(e for e in diag if e > 1)


def _chern_zero(d: SeifertData) -> SeifertData:
    # one more fiber (q, -p) cancels the fractional part p/q of c1, the Euler term the rest
    whole, part = divmod(chern_number(d), 1)
    extra = ((part.denominator, -part.numerator),) if part else ()
    return SeifertData(d.genus, d.euler - whole, d.pairs + extra)


class TestEliminationModDeterminant:
    """first_homology against the Smith normal form of the relation matrix."""

    @settings(max_examples=150)
    @given(_DATA)
    def test_first_homology_equals_smith_route(self, d):
        h = first_homology(d)
        assert (h.rank, h.invariant_factors) == _smith_route(d)

    @settings(max_examples=150)
    @given(_SHARED_DATA)
    def test_first_homology_equals_smith_route_on_shared_factors(self, d):
        h = first_homology(d)
        assert (h.rank, h.invariant_factors) == _smith_route(d)

    @settings(max_examples=150)
    @given(_DATA.flatmap(lambda d: st.tuples(st.just(d), st.permutations(d.pairs))))
    def test_first_homology_ignores_the_order_of_the_pairs(self, case):
        d, pairs = case
        assert first_homology(SeifertData(d.genus, d.euler, tuple(pairs))) == first_homology(d)

    @settings(max_examples=150)
    @given(st.one_of(_DATA, _SHARED_DATA).map(_chern_zero))
    def test_first_homology_equals_smith_route_at_chern_zero(self, d):
        assert chern_number(d) == 0
        h = first_homology(d)
        assert (h.rank, h.invariant_factors) == _smith_route(d)

    def test_first_homology_equals_smith_route_on_prime_powers(self):
        # alpha sharing the primes 2 and 3 at valuations 0 to 3 fill the chain d_1 | ... | d_M
        rng = random.Random(36)
        alphas = (2, 4, 8, 3, 9, 6, 12, 18, 36, 72)
        for _ in range(2000):
            fibers = range(rng.randint(0, 7))
            pairs = tuple(_coprime_pair(rng.choice(alphas), rng.randint(-99, 99)) for _ in fibers)
            d = SeifertData(rng.randint(0, 2), rng.randint(-5, 5), pairs)
            h = first_homology(d)
            assert (h.rank, h.invariant_factors) == _smith_route(d)

    def test_torsion_order_follows_the_bareiss_determinant(self, monkeypatch):
        # D is IntegerMatrix.det of the relation matrix, not the closed form that
        # criterion 1 checks the torsion order against: a doubled det shows through
        det = IntegerMatrix.det
        monkeypatch.setattr(IntegerMatrix, "det", lambda a: 2 * det(a))
        for d in (DATA_UNIT, DATA_T24, SeifertData(0, 1, ((4, 1), (6, 1), (8, 3)))):
            assert first_homology(d).torsion_order() == 2 * torsion_order_integer(d)


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

    def test_count_past_4300_digits(self):
        with pytest.raises(NumericWindowError) as info:
            torsion_h2_order(DATA_T24, 4000)
        assert str(info.value) == "class count |Tors H1|^4000 has more than 4300 digits"
        with pytest.raises(NumericWindowError):
            moduli_description(DATA_T24, 10**9)


class TestClassCount:
    def test_power(self):
        assert class_count(24, 2) == 576
        assert class_count(1, 10**9) == 1

    def test_digit_boundary(self):
        assert class_count(10, 4299) == 10**4299  # 4300 digits
        with pytest.raises(NumericWindowError):
            class_count(10, 4300)
        with pytest.raises(NumericWindowError):
            class_count(10**4300, 1)

    def test_huge_rank_refused_before_the_power(self):
        with pytest.raises(NumericWindowError):
            class_count(2, 10**18)

    @pytest.mark.parametrize("rank", [int("9" * 4300), 10**5000], ids=["4300-digits", "past-str"])
    def test_long_rank_stays_out_of_the_message(self, rank):
        # 10**5000 has too many digits for str(), so the message must not call it
        with pytest.raises(NumericWindowError) as info:
            class_count(24, rank)
        assert str(info.value) == f"class count |Tors H1|^{LONG} has more than 4300 digits"


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

    def test_trivial_torsion_group_at_huge_rank(self):
        # no class count bounds N here, and no N copies of the factors are made
        m = moduli_description(DATA_GENUS1, 10**20)
        assert (m.component_count, m.component_dimension) == (1, 2 * 10**20)
        assert m.torsion_factors == ()

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
