import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from resavg.errors import ZeroInput
from resavg.integers import (
    ave_p_partial,
    ave_prime_partial,
    ave_z_partial,
    d_full,
    d_p,
    d_prime,
    divisibility_counts,
    empirical_average,
    empirical_density,
    level_set_measure,
    tower_all_subgroups,
    tower_prime_powers,
    tower_primes,
)
from resavg.primes import first_primes, lcm_upto, primes_upto
from resavg.tower import ave_partial, is_nested, is_prime_system


class TestDivisibilityFunctions:
    def test_d_full_examples(self):
        assert d_full(1) == 2
        assert d_full(6) == 4
        assert d_full(60) == 7

    def test_d_prime_examples(self):
        assert d_prime(1) == 2
        assert d_prime(30) == 7
        assert d_prime(210) == 11

    def test_d_p_examples(self):
        assert d_p(3, 2) == 2
        assert d_p(4, 2) == 8
        assert d_p(18, 3) == 27

    def test_zero_rejected(self):
        for fn in (d_full, d_prime):
            with pytest.raises(ZeroInput):
                fn(0)
        with pytest.raises(ZeroInput):
            d_p(0, 2)

    def test_sign_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 10**6)
            assert d_full(m) == d_full(-m)
            assert d_prime(m) == d_prime(-m)
            assert d_p(m, 3) == d_p(-m, 3)

    def test_brute_force_scans(self):
        primes = primes_upto(200)
        for m in range(1, 10**5 + 1):
            expected_full = next(n for n in range(2, m + 2) if m % n)
            assert d_full(m) == expected_full
            expected_prime = next(p for p in primes if m % p)
            assert d_prime(m) == expected_prime
            for p in (2, 3, 7):
                power = p
                while m % power == 0:
                    power *= p
                assert d_p(m, p) == power


class TestLevelSetMeasure:
    def test_examples(self):
        assert level_set_measure(2) == Fraction(1, 2)
        assert level_set_measure(4) == Fraction(1, 12)
        assert level_set_measure(6) == 0

    def test_positive_iff_prime_power(self):
        from test_primes import is_prime_power

        for n in range(2, 60):
            assert (level_set_measure(n) > 0) == is_prime_power(n)

    def test_telescopes_to_one(self):
        total = sum((level_set_measure(n) for n in range(2, 31)), Fraction(0))
        assert total == 1 - Fraction(1, lcm_upto(30))


def ave_z_per_term(terms):
    """The former per-term sum: j * (1 - lcm(1..j-1)/lcm(1..j)) / lcm(1..j-1) over j <= terms."""
    chain = list(accumulate(range(1, terms + 1), math.lcm, initial=1))
    total = Fraction(0)
    for j in range(1, terms + 1):
        prev, cur = chain[j - 1], chain[j]
        total += j * (1 - Fraction(prev, cur)) * Fraction(1, prev)
    return total


def ave_prime_per_term(terms):
    """The former per-term sum: (p_j - 1) / (p_1 ... p_{j-1}) over j <= terms."""
    total = Fraction(0)
    product = 1
    for p in first_primes(terms):
        total += Fraction(p - 1, product)
        product *= p
    return total


class TestAverages:
    def test_folds_match_per_term_sums(self):
        for terms in range(201):
            assert ave_z_partial(terms) == ave_z_per_term(terms)
            assert ave_prime_partial(terms) == ave_prime_per_term(terms)
        assert ave_z_partial(1000) == ave_z_per_term(1000)

    def test_negative_terms_rejected(self):
        for fn in (ave_z_partial, ave_prime_partial):
            with pytest.raises(ValueError, match="terms must be non-negative"):
                fn(-1)

    def test_ave_z_small(self):
        assert ave_z_partial(3) == 2
        assert ave_z_partial(5) == Fraction(8, 3)

    def test_ave_z_converges(self):
        v20 = ave_z_partial(20)
        assert abs(float(v20) - 2.787780357) < 1e-9
        assert abs(v20 - Fraction("2.787780456")) < Fraction(1, 10**6)

    def test_ave_z_equals_weighted_measures(self):
        for terms in (1, 2, 5, 13, 30):
            weighted = sum(
                (n * level_set_measure(n) for n in range(2, terms + 1)),
                Fraction(0),
            )
            assert ave_z_partial(terms) == weighted

    def test_ave_prime_small(self):
        assert ave_prime_partial(2) == 2
        assert ave_prime_partial(4) == Fraction(43, 15)

    def test_ave_prime_converges(self):
        assert abs(ave_prime_partial(9) - Fraction("2.920050977")) < Fraction(5, 10**7)

    def test_ave_p_examples(self):
        assert ave_p_partial(2, 10) == 10
        assert ave_p_partial(5, 3) == 12
        assert ave_p_partial(2, 0) == 0

    def test_ave_p_matches_tower_route(self):
        for p in (2, 3, 5):
            t = tower_prime_powers(p, 40)
            for terms in (0, 1, 7, 40):
                assert ave_p_partial(p, terms) == ave_partial(t, terms)


def scan_profiles(limit):
    """The old 1..N scan, one integer at a time: (N, counts, value sum) for N = 1..limit."""
    counts = {}
    total = 0
    for m in range(1, limit + 1):
        n = 2
        while m % n == 0:
            n += 1
        counts[n] = counts.get(n, 0) + 1
        total += n
        yield m, counts, total


def scan_profile(bound):
    for _, counts, total in scan_profiles(bound):
        pass
    return counts, total


class TestEmpiricalAgainstScan:
    """The lcm-chain closed forms against the 1..N scan they replaced."""

    def check(self, bound, counts, total):
        assert divisibility_counts(bound) == counts
        assert list(divisibility_counts(bound)) == sorted(counts)
        assert empirical_average(bound) == total / bound
        for n in range(2, 10):
            assert empirical_density(n, bound) == counts.get(n, 0) / bound

    def test_every_bound_to_3000(self):
        for bound, counts, total in scan_profiles(3000):
            self.check(bound, counts, total)

    def test_random_bounds_to_a_million(self):
        rng = random.Random(5)
        for bound in [10**6] + [rng.randrange(3000, 10**6) for _ in range(4)]:
            self.check(bound, *scan_profile(bound))

    def test_huge_bound_is_exact(self):
        bound = 10**18
        counts = divisibility_counts(bound)
        assert sum(counts.values()) == bound
        assert counts[5] == bound // 12 - bound // 60
        assert max(counts) == 43  # lcm(1..42) <= 10**18 < lcm(1..43)
        total = sum(n * count for n, count in counts.items())
        assert empirical_average(bound) == total / bound

    def test_bound_must_be_positive(self):
        for fn in (divisibility_counts, empirical_average):
            with pytest.raises(ValueError, match="bound must be positive"):
                fn(0)


class TestEmpirical:
    def test_density_n2_exact_at_even_bound(self):
        assert empirical_density(2, 10) == 0.5

    def test_density_within_period_bound(self):
        bound = 10**4
        for n in range(2, 10):
            observed = empirical_density(n, bound)
            exact = float(level_set_measure(n))
            assert abs(observed - exact) <= 2 * lcm_upto(n) / bound + 1e-9

    def test_no_mass_off_prime_powers(self):
        counts = divisibility_counts(10**4)
        assert 6 not in counts
        assert 10 not in counts
        assert 12 not in counts

    def test_average_tracks_exact_value(self):
        assert abs(empirical_average(10**4) - float(ave_z_partial(50))) < 1e-2


class TestTowers:
    def test_tower_primes(self):
        t = tower_primes(3)
        assert t.d == (2, 3, 5)
        assert t.l == (2, 6, 30)
        assert is_prime_system(t)

    def test_tower_all_subgroups(self):
        t = tower_all_subgroups(4)
        assert t.d == (2, 3, 4, 5)
        assert t.l == (2, 6, 12, 60)

    def test_tower_prime_powers(self):
        t = tower_prime_powers(2, 3)
        assert t.d == t.l == (2, 4, 8)
        assert is_nested(t)

    def test_tower_prime_powers_match_the_per_level_power(self):
        for p in (2, 3, 5, 7, 101):
            for levels in (1, 2, 60):
                t = tower_prime_powers(p, levels)
                assert t.d == t.l == tuple(p**k for k in range(1, levels + 1))
                assert t.name == f"Z-prime-powers({p},{levels})"

    def test_tower_prime_powers_argument_errors(self):
        for p, levels, match in ((4, 3, "prime"), (1, 3, "prime"), (4, 0, "prime"), (2, 0, "levels")):
            with pytest.raises(ValueError, match=match) as info:
                tower_prime_powers(p, levels)
            assert type(info.value) is ValueError

    def test_cross_module_average_identity(self):
        # the full-subgroup tower reproduces the closed-form partial sums,
        # with the J-th tower level carrying divisibility value J + 1
        for levels in (1, 4, 10, 29):
            t = tower_all_subgroups(levels)
            assert ave_partial(t, levels) == ave_z_per_term(levels + 1)

    def test_prime_tower_average_identity(self):
        for levels in (1, 3, 8):
            assert ave_partial(tower_primes(levels), levels) == ave_prime_per_term(levels)
