import random
from fractions import Fraction

import pytest

from conftest import (
    random_consistent_tower,
    random_nested_tower,
    random_prime_tower,
)
from resavg.errors import DegenerateLevel, InconsistentTower, InsufficientData
from resavg.integers import tower_prime_powers, tower_primes
from resavg.tower import (
    GrowthClass,
    IndexTower,
    alpha,
    alphas,
    ave_partial,
    ave_partial_product_form,
    ave_terms,
    classify,
    decompose,
    degenerate_levels,
    first_power_gap_index,
    gap_check_linear,
    gap_check_power,
    is_nested,
    is_prime_system,
    levels,
    measure_telescope,
    measure_term,
    running_product,
    zeta_partial,
)

PZ3 = tower_primes(3)  # d=(2,3,5), l=(2,6,30)
NESTED = tower_prime_powers(2, 3)  # d=l=(2,4,8)


class TestConstruction:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            IndexTower("bad", (2, 3), (2,))
        with pytest.raises(ValueError):
            IndexTower("bad", (1, 2), (1, 2))
        with pytest.raises(ValueError):
            IndexTower("bad", (3, 2), (3, 6))
        with pytest.raises(ValueError):
            IndexTower("bad", (), ())

    def test_messages_past_the_int_str_limit(self):
        big = 10**5000
        cases = [
            ((big, 2), (big, 2), "d must be non-decreasing: d[1] = <int of 16610 bits> > d[2] = 2"),
            ((-big,), (2,), "d[1] = -<int of 16610 bits>: subgroup indices must be at least 2"),
            ((2,), (-big,), "l[1] = -<int of 16610 bits>: intersection indices must be positive"),
        ]
        for d, l, message in cases:
            with pytest.raises(ValueError) as info:
                IndexTower("big", d, l)
            assert str(info.value) == message

    def test_divisibility_is_lazy(self):
        # constructible on purpose; the inconsistency surfaces in decompose
        t = IndexTower("lazy", (2, 3, 4), (2, 6, 8))
        decompose(t, 2)
        with pytest.raises(InconsistentTower):
            decompose(t, 3)


class TestDecompose:
    def test_prime_tower_level_2(self):
        dec = decompose(PZ3, 2)
        assert (dec.r, dec.s, dec.t) == (1, 3, 2)

    def test_nested_level_3(self):
        # nesting forces t = 1; r carries the rest of d = r*s
        dec = decompose(NESTED, 3)
        assert (dec.r, dec.s, dec.t) == (4, 2, 1)
        assert dec.r * dec.s == NESTED.d_at(3)

    def test_coefficient_products(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_consistent_tower(rng)
            for j in range(1, len(t) + 1):
                dec = decompose(t, j)
                assert dec.r * dec.s == t.d_at(j)
                assert dec.r * dec.s * dec.t == t.l_at(j)

    def test_indices_past_the_int_str_limit(self):
        # CPython refuses str() on ints over 4300 digits; the messages must
        # still raise InconsistentTower, naming such indices by bit length
        big = 10**5000
        shown = "<int of 16610 bits>"
        cases = [
            ((2, 3), (2, big), f"d[2] = 3 does not divide l[2] = {shown}"),
            ((3, 4), (3, big), f"l[1] = 3 does not divide l[2] = {shown}"),
            (
                (2, big),
                (2, 6 * big),
                "d[2]*l[1] = <int of 16611 bits> is not a multiple of l[2] = <int of 16613 bits>",
            ),
        ]
        for d, l, message in cases:
            t = IndexTower("big", d, l)
            for call in (lambda: levels(t), lambda: decompose(t, 2)):
                with pytest.raises(InconsistentTower) as info:
                    call()
                assert str(info.value) == f"big: {message}"

    def test_messages_keep_decimal_indices(self):
        with pytest.raises(InconsistentTower) as info:
            levels(IndexTower("x", (2, 3), (2, 10**4000)))
        assert str(info.value) == f"x: d[2] = 3 does not divide l[2] = {10**4000}"


class TestMeasureTerm:
    def test_examples(self):
        assert measure_term(PZ3, 2) == Fraction(1, 3)
        assert measure_term(PZ3, 1) == Fraction(1, 2)
        assert measure_term(IndexTower("rep", (2, 2), (2, 2)), 2) == 0

    def test_telescoping_identity(self):
        rng = random.Random(23)
        for _ in range(300):
            t = random_consistent_tower(rng)
            for j in range(1, len(t) + 1):
                expected = Fraction(1, t.l_at(j - 1)) - Fraction(1, t.l_at(j))
                assert measure_term(t, j) == expected


class TestAvePartial:
    def test_examples(self):
        assert ave_partial(PZ3, 3) == Fraction(8, 3)
        assert ave_partial(NESTED, 3) == 3
        assert ave_partial(PZ3, 0) == 0

    def test_matches_d_times_measure(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_consistent_tower(rng)
            total = sum(
                (t.d_at(j) * measure_term(t, j) for j in range(1, len(t) + 1)),
                Fraction(0),
            )
            assert ave_partial(t, len(t)) == total

    def test_monotone_in_terms(self):
        rng = random.Random(37)
        for _ in range(100):
            t = random_consistent_tower(rng)
            values = [ave_partial(t, j) for j in range(len(t) + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestProductForm:
    def test_prime_tower(self):
        assert ave_partial_product_form(PZ3, 3) == Fraction(8, 3)

    def test_nested_by_substitution(self):
        # r = (1, 2), s = (2, 2): terms 1*1/1 and 2*1/2
        assert ave_partial_product_form(NESTED, 2) == 2
        assert ave_partial_product_form(NESTED, 0) == 0

    def test_agrees_with_sum_form_on_prime_systems(self):
        rng = random.Random(41)
        for _ in range(200):
            t = random_prime_tower(rng)
            assert is_prime_system(t)
            for j in range(len(t) + 1):
                assert ave_partial_product_form(t, j) == ave_partial(t, j)

    def test_agrees_on_arbitrary_consistent_towers(self):
        # the two published series coincide term by term once the
        # coefficients are read off (d, l); check it stays that way
        rng = random.Random(43)
        for _ in range(200):
            t = random_consistent_tower(rng)
            assert ave_partial_product_form(t, len(t)) == ave_partial(t, len(t))


class TestAlpha:
    def test_prime_tower(self):
        assert alpha(PZ3, 2) == Fraction(2, 3)

    def test_identical_levels(self):
        t = IndexTower("flat", (2, 2), (2, 4))  # r=s... s_1=2, s_2=2, r=1 both
        assert alpha(t, 1) == Fraction(1, 2)

    def test_degenerate_guard(self):
        t = IndexTower("deg", (2, 2, 4), (2, 2, 8))
        assert alpha(t, 1) == 0  # s_2 = 1 only zeroes the numerator
        with pytest.raises(DegenerateLevel):
            alpha(t, 2)

    def test_nested_constant_s_sits_on_the_boundary(self):
        # literal evaluation from (r, s, t): r doubles while s stays 2,
        # so every ratio is exactly 1 and no verdict is possible
        t = tower_prime_powers(2, 8)
        assert all(value == 1 for _, value in alphas(t))


class TestClassify:
    def test_prime_tower_subquadratic(self):
        assert classify(tower_primes(20), window=10) is GrowthClass.SUB_QUADRATIC

    def test_nested_constant_s_indeterminate(self):
        assert classify(tower_prime_powers(2, 8), window=7) is GrowthClass.INDETERMINATE

    def test_super_quadratic_synthetic(self):
        d = [2 ** (3**j) for j in range(1, 7)]
        t = IndexTower("steep", tuple(d), running_product(d))
        assert classify(t, window=5) is GrowthClass.SUPER_QUADRATIC

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            classify(PZ3, window=10)

    def test_inconsistency_is_reported_before_the_window(self):
        # every level is checked, including one that forms no ratio
        with pytest.raises(InconsistentTower):
            classify(IndexTower("x", (2,), (3,)), window=2)
        with pytest.raises(InconsistentTower):
            classify(IndexTower("tail", (2, 2, 3), (2, 2, 4)), window=1)

    def test_degenerate_levels_are_skipped(self):
        t = IndexTower("deg", (2, 2, 4, 8, 16), (2, 2, 8, 32, 128))
        assert degenerate_levels(t) == [2]
        assert len(alphas(t)) == 3


class TestStructurePredicates:
    def test_prime_system(self):
        assert is_prime_system(PZ3) is True
        assert is_prime_system(NESTED) is False

    def test_nested(self):
        assert is_nested(NESTED) is True
        assert is_nested(PZ3) is False
        assert is_nested(IndexTower("single", (5,), (5,))) is True

    def test_prime_system_equivalent_coefficients(self):
        rng = random.Random(53)
        for _ in range(100):
            t = random_prime_tower(rng)
            product = 1
            for j in range(1, len(t) + 1):
                dec = decompose(t, j)
                assert dec.r == 1
                assert dec.t == product
                product *= dec.s


class TestGapChecks:
    def test_linear_examples(self):
        assert gap_check_linear(tower_primes(100), 2) is True
        bad = IndexTower("wide", (2, 3, 7), (2, 6, 42))
        assert gap_check_linear(bad, 2) is False

    def test_power_boundary_is_strict(self):
        t = IndexTower("pow2", (4, 8, 16, 32), (4, 32, 512, 16384))
        assert gap_check_power(t, Fraction(1, 2)) is False  # 8 < 4**1.5 = 8 fails
        assert gap_check_power(t, Fraction(2, 3)) is True  # 8 < 4**(5/3) ~ 10.08

    def test_first_power_gap_index(self):
        t = IndexTower("pow2", (4, 8, 16, 32), (4, 32, 512, 16384))
        assert first_power_gap_index(t, Fraction(2, 3)) == 1
        # only the (4, 8) pair fails at delta = 1/2
        assert first_power_gap_index(t, Fraction(1, 2)) == 2
        assert gap_check_power(t, Fraction(1, 2), start=2) is True


class TestTelescope:
    def test_examples(self):
        assert measure_telescope(PZ3, 3) == Fraction(29, 30)
        assert measure_telescope(PZ3, 0) == 0
        assert measure_telescope(tower_prime_powers(2, 2), 2) == Fraction(3, 4)

    def test_equals_one_minus_tail(self):
        rng = random.Random(59)
        for _ in range(200):
            t = random_consistent_tower(rng)
            for j in range(len(t) + 1):
                value = measure_telescope(t, j)
                assert value == 1 - Fraction(1, t.l_at(j))
                assert 0 <= value < 1


class TestNestedDivergence:
    def test_partial_sums_dominate_level_count(self):
        rng = random.Random(61)
        for _ in range(200):
            t = random_nested_tower(rng)
            for j in range(1, len(t) + 1):
                dec = decompose(t, j)
                assert dec.t == 1
                assert ave_partial(t, j) >= j


class TestRatioTestSoundness:
    def test_geometric_tail_bound(self):
        t = tower_primes(25)
        ratios = [value for _, value in alphas(t)]
        # alpha_1 is exactly 1 for the prime tower; the tail is geometric
        # from j0 = 2 on
        j0 = 2
        q = max(ratios[j0 - 1 :])
        assert q < 1
        head = ave_partial(t, j0)
        tail_bound = ave_terms(t, j0)[-1] * q / (1 - q)
        for j in range(j0, len(t) + 1):
            assert ave_partial(t, j) <= head + tail_bound


class TestZetaPartial:
    def test_basel_tail(self):
        import math

        bound = 10**6
        value = zeta_partial(range(2, bound + 1), 2, bound)
        target = math.pi**2 / 6 - 1
        # tail of the squared-reciprocal series past `bound` is ~1/bound
        assert abs(value - target) < 2 / bound

    def test_single_index(self):
        assert zeta_partial([2], 1, 1) == 0.5

    def test_indices_past_the_float_range_underflow(self):
        assert zeta_partial([5**600], 2, 1) == 0.0
        assert zeta_partial([2, 5**600], 1, 2) == 0.5

    def test_matrix_group_orders(self):
        orders = [6, 24, 120, 336, 1320]
        value = zeta_partial(orders, 1, 5)
        exact = sum((Fraction(1, n) for n in orders), Fraction(0))
        assert abs(value - float(exact)) < 1e-15
        assert abs(value - 0.2204004329004329) < 1e-15
