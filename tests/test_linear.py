import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

import resavg.integers
from resavg.errors import (
    BoundExceeded,
    CoprimalityViolation,
    IdentityInput,
    InvalidPrimePower,
    TableExhausted,
)
from resavg.integers import d_prime
from resavg.linear import (
    EllTable,
    _power_exceeds,
    _prime_power_base,
    IntMatrix,
    PowerSelectionParams,
    divisibility_matrix,
    gap_ratio_limit_check,
    gl_order,
    mult_order_ell_table,
    multiplicative_order,
    order_mod_pk,
    power_gap_start_index,
    power_tower,
    select_powers,
    sl_exact_ell_table,
    sl_order,
    sl_prime_tower,
    sl_ratio_scan,
    verify_power_windows,
    wieferich_test,
)
from resavg import primes
from resavg.primes import first_primes, is_prime, iter_primes
from resavg.tower import GrowthClass, classify, gap_check_power, is_prime_system
from oracles import (
    brute_force_order,
    brute_force_order_mod,
    divisibility_matrix_scan,
    ell_row_per_depth,
    gap_ratio_limit_pairwise,
    power_gap_start_loop,
    select_powers_scan,
    sl_ratio_scan_loop,
)
from test_primes import PSI_12, PSI_13


class TestOrders:
    def test_closed_forms(self):
        assert sl_order(2, 2) == 6
        assert sl_order(2, 5) == 120
        assert gl_order(2, 3) == 48

    def test_prime_power_fields(self):
        assert sl_order(2, 4) == gl_order(2, 4) // 3
        with pytest.raises(InvalidPrimePower):
            sl_order(2, 6)
        with pytest.raises(InvalidPrimePower):
            gl_order(3, 12)

    def test_brute_force_oracle_values(self):
        assert brute_force_order(2, 3, det_one=True) == 24
        assert brute_force_order(2, 2, det_one=False) == 6
        assert brute_force_order(3, 2, det_one=True) == 168

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2)])
    def test_formulas_match_enumeration(self, n, p):
        assert sl_order(n, p) == brute_force_order(n, p, det_one=True)
        assert gl_order(n, p) == brute_force_order(n, p, det_one=False)

    @pytest.mark.parametrize("n,p,k", [(2, 2, 2), (2, 2, 3), (2, 3, 2)])
    def test_prime_power_orders_match_enumeration(self, n, p, k):
        assert order_mod_pk(n, p, k, det_one=True) == brute_force_order_mod(n, p, k, det_one=True)
        assert order_mod_pk(n, p, k, det_one=False) == brute_force_order_mod(n, p, k, det_one=False)

    def test_non_prime_p_is_invalid_prime_power(self):
        # the same typed error as sl_order and gl_order on a non-prime-power q
        for p in (1, 4, 6):
            for det_one in (True, False):
                with pytest.raises(InvalidPrimePower, match=f"p must be prime, got {p}"):
                    order_mod_pk(2, p, 2, det_one=det_one)
        with pytest.raises(ValueError):
            order_mod_pk(2, 5, 0, det_one=True)

    def test_depth_one_reduces_to_field_case(self):
        assert order_mod_pk(2, 5, 1, det_one=True) == sl_order(2, 5)
        assert order_mod_pk(3, 3, 1, det_one=False) == gl_order(3, 3)

    def test_enumeration_budget_guard(self):
        with pytest.raises(ValueError):
            brute_force_order(3, 11, det_one=True)


def trial_division_base(q):
    """The old prime-power test: least factor by trial division to sqrt(q), then its power."""
    if q < 2:
        return None
    p = q
    for candidate in range(2, math.isqrt(q) + 1):
        if q % candidate == 0:
            p = candidate
            break
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


class TestPrimePowerBase:
    """The integer-root search against the trial division it replaced."""

    def test_every_q_below_200000(self):
        for q in range(-5, 2 * 10**5):
            try:
                order = gl_order(1, q)
            except InvalidPrimePower as exc:
                order = str(exc)
            expected = trial_division_base(q)
            if expected is None:
                assert order == f"{q} is not a prime power"
            else:
                assert order == q - 1
                assert _prime_power_base(q) == expected

    def test_high_powers_and_large_primes(self):
        for p in (2, 3, 1009, 2**61 - 1):
            for k in range(1, 200 // p.bit_length() + 1):
                assert _prime_power_base(p**k) == (p, k)
                with pytest.raises(InvalidPrimePower):
                    gl_order(1, p**k * 7)

    def test_composites_past_trial_division_reach(self):
        with pytest.raises(InvalidPrimePower):
            gl_order(1, PSI_12)
        with pytest.raises(InvalidPrimePower):
            sl_order(2, (2**61 - 1) * (2**31 - 1))
        with pytest.raises(InvalidPrimePower):
            sl_order(2, PSI_12**2)


class TestSlPrimeTower:
    def test_example(self):
        t = sl_prime_tower(2, 3)
        assert t.d == (6, 24, 120)
        assert t.l == (6, 144, 17280)
        assert is_prime_system(t)

    def test_classification(self):
        assert classify(sl_prime_tower(2, 20), window=5) is GrowthClass.SUB_QUADRATIC

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_d_is_sl_order_at_each_prime(self, n):
        # the tower takes d from the order formula without re-checking the sieve's primes
        t = sl_prime_tower(n, 300)
        assert t.d == tuple(sl_order(n, p) for p in first_primes(300))
        assert t.l == tuple(math.prod(t.d[: j + 1]) for j in range(300))

    def test_public_orders_keep_their_checks(self):
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            gl_order(0, 5)
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            sl_order(0, 5)
        with pytest.raises(InvalidPrimePower, match="^6 is not a prime power$"):
            gl_order(2, 6)
        with pytest.raises(InvalidPrimePower, match="^1 is not a prime power$"):
            sl_order(3, 1)
        with pytest.raises(InvalidPrimePower, match="^p must be prime, got 4$"):
            order_mod_pk(2, 4, 2, True)
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            order_mod_pk(2, 5, 0, False)
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            order_mod_pk(0, 5, 2, False)

    def test_gap_ratio_limit(self):
        assert gap_ratio_limit_check(2, 100, Fraction(5, 100)) is True
        assert gap_ratio_limit_check(3, 50, Fraction(5, 100)) is True
        # shrinking the bound below the mid-range ratios flips the verdict
        assert gap_ratio_limit_check(2, 10, Fraction(-4, 5)) is False
        with pytest.raises(ValueError):
            gap_ratio_limit_check(2, 9, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("levels", [10, 11, 17, 50, 101, 300])
    def test_gap_ratio_limit_matches_pairwise_loop(self, n, levels):
        for slack in (Fraction(-4, 5), Fraction(-1, 2), 0, Fraction(1, 100), Fraction(5, 100), 1):
            assert gap_ratio_limit_check(n, levels, slack) is gap_ratio_limit_pairwise(n, levels, slack)

    def test_ratio_scan_window(self):
        best, pair = sl_ratio_scan(2, 100, 10**4)
        assert 1 < best <= Fraction(42, 5)
        assert 100 <= pair[0] < pair[1] <= 10**4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "lo,hi",
        [
            (100, 10**4),
            (2, 50),
            (90, 100),
            (24, 28),
            (50, 10),
            # past 10^6: 6,000 wide, sieved; 1,000 wide, below isqrt(hi), probed
            (2 + 2**20 - 3000, 2 + 2**20 + 3000),
            (2 + 2 * 2**20 - 500, 2 + 2 * 2**20 + 500),
            # lo inside the prime gaps 1327..1361 and 2010733..2010881
            (1340, 2500),
            (2010800, 2012000),
            (97, 97),
            (100, 100),
            (10**6, 10),
            (1328, 1361),
            (1328, 1360),
            (2, 3),
        ],
    )
    def test_ratio_scan_matches_pairwise_fractions(self, n, lo, hi):
        # (90, 100) and (1328, 1361) hold one prime; (24, 28) and (1328, 1360)
        # none; (97, 97) and (100, 100) have lo == hi; (50, 10) is reversed
        assert sl_ratio_scan(n, lo, hi) == sl_ratio_scan_loop(n, lo, hi)
        assert sl_ratio_scan(n, lo, hi) == sl_ratio_scan_pairwise(n, lo, hi)

    def test_ratio_scan_without_a_pair(self):
        for lo, hi in [(90, 100), (24, 28), (50, 10)]:
            assert sl_ratio_scan(2, lo, hi) == (Fraction(0), (0, 0))

    def test_ratio_scan_to_a_million(self):
        assert sl_ratio_scan(2, 100, 10**6) == (Fraction(3048, 2147), (113, 127))

    @pytest.mark.parametrize("n", [1, 2])
    def test_ratio_scan_past_exact_primality_is_refused(self, n):
        with pytest.raises(ValueError, match=f"exact only below psi_13 = {PSI_13}, got {PSI_13}"):
            sl_ratio_scan(n, 100, PSI_13)
        # the largest exact bound: the walk probes from p ~ 1.7e4 (n = 2) or 103 (n = 1) on
        assert sl_ratio_scan(n, 100, PSI_13 - 1) == sl_ratio_scan(n, 100, 10**4)


class TestRatioScanGapSkips:
    """The gap-skipping scan against the per-prime loop it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seeded_windows(self, n):
        rng = random.Random(n)
        for _ in range(4):
            lo = rng.randint(2, 3 * 10**6 - 5000)
            hi = lo + rng.choice([60, 600, 5000])
            assert sl_ratio_scan(n, lo, hi) == sl_ratio_scan_loop(n, lo, hi), (lo, hi)

    @pytest.mark.parametrize("segment", [1, 3, 16, 100])
    def test_tiny_blocks(self, monkeypatch, segment):
        # gaps cross block edges, and most needles outgrow a block
        monkeypatch.setattr(primes, "_SEGMENT", segment)
        rng = random.Random(segment)
        for _ in range(12):
            n = rng.randint(1, 4)
            lo = rng.randint(-3, 3000)
            hi = lo + rng.randint(-10, 600)
            assert sl_ratio_scan(n, lo, hi) == sl_ratio_scan_loop(n, lo, hi), (n, lo, hi)

    def test_dimension_one_keeps_the_first_pair(self):
        # every |SL(1, F_q)| is 1: the gap needed is unreachable, and its
        # needle is capped at one block
        for lo, hi in [(2, 3 * 10**6), (2010800, 2010800 + 2**21)]:
            p = next(x for x in range(lo, hi) if is_prime(x))
            q = next(x for x in range(p + 1, hi) if is_prime(x))
            assert sl_ratio_scan(1, lo, hi) == (Fraction(1), (p, q))

    def test_needle_stays_within_one_block(self):
        # n = 1 asks for an unreachable gap: searching for it must not
        # allocate more than a block
        tracemalloc.start()
        try:
            assert sl_ratio_scan(1, 2, 8 * 2**20) == (Fraction(1), (2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_bad_dimension_still_raises(self):
        with pytest.raises(ValueError):
            sl_ratio_scan(0, 2, 100)
        assert sl_ratio_scan(0, 24, 28) == (Fraction(0), (0, 0))


class TestRatioScanNarrowWindows:
    """Windows narrower than isqrt(hi) are probed from their first prime, with no sieve."""

    WINDOWS = [
        (PSI_13 - 10**4, PSI_13 - 1),
        (10**18, 10**18 + 10**5),
        (10**12, 10**12 + 5000),
        (2, 3),
        (5, 5),
        (90, 100),
    ]

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_matches_sympy(self, lo, hi):
        sympy = pytest.importorskip("sympy")
        ps = list(sympy.primerange(lo, hi + 1))
        best, witness = Fraction(0), (0, 0)
        for p, q in zip(ps, ps[1:]):
            ratio = Fraction(sl_order(2, q), sl_order(2, p))
            if ratio > best:
                best, witness = ratio, (p, q)
        assert sl_ratio_scan(2, lo, hi) == (best, witness)

    @pytest.mark.parametrize("lo, hi", WINDOWS[:3])
    def test_sieves_nothing(self, monkeypatch, lo, hi):
        def segments(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr(primes, "_segments", segments)
        assert sl_ratio_scan(2, lo, hi)[1] != (0, 0)

    @pytest.mark.parametrize("lo, hi", [(-10, -2), (-3, 1), (7, 6), (10**12, 10**12 - 1)])
    def test_negative_and_reversed_windows_hold_no_pair(self, lo, hi):
        assert sl_ratio_scan(2, lo, hi) == (Fraction(0), (0, 0))


def sl_ratio_scan_pairwise(n, lo, hi):
    """The former scan: two orders and one Fraction per consecutive pair."""
    best = Fraction(0)
    witness = (0, 0)
    prev = None
    for p in iter_primes(hi):
        if p < lo:
            continue
        if prev is not None:
            ratio = Fraction(sl_order(n, p), sl_order(n, prev))
            if ratio > best:
                best, witness = ratio, (prev, p)
        prev = p
    return best, witness


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_elementary_product(rng, n, modulus):
    """A product of elementary matrices I + t E_ij (i != j), each t a nonzero multiple of modulus.

    So gamma is congruent to I mod modulus.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(n), 2)
        t = modulus * rng.choice((-3, -2, -1, 1, 2, 3))
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def is_unipotent(gamma):
    """True iff (gamma - I)**n == 0."""
    n = gamma.n
    nil = [[e - (i == j) for j, e in enumerate(row)] for i, row in enumerate(gamma.entries)]
    power = nil
    for _ in range(n - 1):
        power = [
            [sum(power[i][k] * nil[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]
    return not any(any(row) for row in power)


class TestDivisibilityMatrix:
    def test_examples(self):
        assert divisibility_matrix(IntMatrix(((1, 1), (0, 1))), 100) == (2, 6)
        assert divisibility_matrix(IntMatrix(((1, 2), (0, 1))), 100) == (3, 24)

    def test_identity_rejected(self):
        with pytest.raises(IdentityInput):
            divisibility_matrix(IntMatrix(((1, 0), (0, 1))), 100)

    def test_determinant_must_be_one(self):
        with pytest.raises(ValueError):
            divisibility_matrix(IntMatrix(((2, 0), (0, 1))), 100)

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceeded):
            divisibility_matrix(IntMatrix(((1, 6), (0, 1))), 2)

    def test_unipotent_matches_d_prime(self):
        rng = random.Random(13)
        for _ in range(300):
            m = rng.randint(1, 10**9)
            gamma = IntMatrix(((1, m), (0, 1)))
            p, index = divisibility_matrix(gamma, 1000)
            assert p == d_prime(m)
            assert index == sl_order(2, p)

    def test_matches_the_per_prime_scan(self):
        rng = random.Random(20261018)
        seen = {2: 0, 3: 0}
        while min(seen.values()) < 300:
            n = rng.choice((2, 3))
            modulus = math.prod(first_primes(rng.randrange(6))) * rng.choice((1, 1, 2, 3, 7))
            gamma = random_elementary_product(rng, n, modulus)
            if is_unipotent(gamma):
                continue
            seen[n] += 1
            pmax = rng.choice((1000, rng.randint(-3, 20)))
            assert outcome(divisibility_matrix, gamma, pmax) == outcome(
                divisibility_matrix_scan, gamma, pmax
            ), (gamma, pmax)

    def test_bound_edges(self):
        gamma = IntMatrix(((1, 6), (0, 1)))  # least prime missing 6 is 5
        assert divisibility_matrix(gamma, 5) == (5, sl_order(2, 5))
        assert divisibility_matrix(gamma, 6) == (5, sl_order(2, 5))
        for pmax in (4, 3, 2, 1, 0, -7):
            with pytest.raises(BoundExceeded) as exc:
                divisibility_matrix(gamma, pmax)
            assert str(exc.value) == f"gamma reduces to the identity mod every prime <= {pmax}"
        gamma = IntMatrix(((31, 30), (-30, -29)))  # gamma - I = 30 * (1, 1; -1, -1)
        assert divisibility_matrix(gamma, 7) == (7, sl_order(2, 7))
        with pytest.raises(BoundExceeded):
            divisibility_matrix(gamma, 6)
        # the determinant and identity checks still come before the bound
        for matrix, pmax in ((((2, 0), (0, 1)), 1), (((1, 0), (0, 1)), 1), (gamma.entries, 1)):
            assert outcome(divisibility_matrix, IntMatrix(matrix), pmax) == outcome(
                divisibility_matrix_scan, IntMatrix(matrix), pmax
            )

    def test_pmax_bounds_the_prime_walk(self, monkeypatch):
        k = math.prod(first_primes(4000))  # gamma - I = (k^2, k; k, 0): gcd k
        gamma = IntMatrix(((1 + k * k, k), (k, 1)))
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(resavg.integers, "is_prime", counting)
        for pmax in (2, 3, 10):
            calls.clear()
            with pytest.raises(BoundExceeded) as exc:
                divisibility_matrix(gamma, pmax)
            assert str(exc.value) == f"gamma reduces to the identity mod every prime <= {pmax}"
            assert len(calls) <= pmax  # the walk stops at the first prime past pmax
        calls.clear()
        small = IntMatrix(((1, 30), (0, 1)))  # least prime missing 30 is 7
        assert divisibility_matrix(small, 7) == (7, sl_order(2, 7))
        assert len(calls) == 5  # 3, 4, 5, 6, 7
        with pytest.raises(BoundExceeded):
            divisibility_matrix(small, 6)

    def test_determinant_exact(self):
        assert IntMatrix(((3, 1), (1, 1))).determinant() == 2
        assert IntMatrix(((2, 0, 1), (0, 1, 0), (1, 0, 1))).determinant() == 1
        assert IntMatrix(((1, 2), (2, 4))).determinant() == 0
        # no nonzero pivot left in a column
        assert IntMatrix(((0, 1), (0, 2))).determinant() == 0
        assert IntMatrix(((1, 2, 3), (2, 4, 5), (0, 0, 1))).determinant() == 0


class TestMultiplicativeOrders:
    def test_orders(self):
        assert multiplicative_order(2, 9) == 6
        assert multiplicative_order(2, 7) == 3
        with pytest.raises(CoprimalityViolation):
            multiplicative_order(6, 9)

    def test_ell_rows(self):
        table = mult_order_ell_table(2, (3,), 3)
        assert table.rows[0] == (0, 1, 2)
        assert table.orders == (2,)
        table7 = mult_order_ell_table(2, (7,), 2)
        assert table7.rows[0] == (0, 1)
        assert table7.orders == (3,)

    def test_ell_rows_at_two(self):
        # a = 5 (1 mod 4) and a = 3 (3 mod 4) climb at different depths
        assert mult_order_ell_table(5, (2,), 6).rows[0] == (0, 0, 1, 2, 3, 4)
        assert mult_order_ell_table(3, (2,), 6).rows[0] == (0, 1, 1, 2, 3, 4)
        assert mult_order_ell_table(-3, (2,), 6).rows[0] == (0, 0, 1, 2, 3, 4)

    @pytest.mark.parametrize("a", [a for a in range(-30, 31) if abs(a) >= 2])
    def test_ell_rows_match_per_depth_orders(self, a):
        # depth 6 over the first 25 primes, depth 3 at the Wieferich primes 1093, 3511
        for primes, depth in ((first_primes(25), 6), ((1093, 3511), 3)):
            ps = tuple(p for p in primes if a % p)
            table = mult_order_ell_table(a, ps, depth)
            assert table.rows == tuple(ell_row_per_depth(a, p, depth) for p in ps)
            assert table.orders == tuple(multiplicative_order(a, p) for p in ps)

    @pytest.mark.parametrize("a", [-2, 2, 3, 10])
    def test_ell_rows_at_a_six_digit_prime(self, a):
        p = 1006003
        table = mult_order_ell_table(a, (p,), 3)
        assert table.rows == (ell_row_per_depth(a, p, 3),)
        assert table.orders == (multiplicative_order(a, p),)

    def test_coprimality_guard(self):
        with pytest.raises(CoprimalityViolation):
            mult_order_ell_table(3, (3, 5), 2)

    def test_real_table_invariants(self):
        table = mult_order_ell_table(2, first_primes(12)[1:], 6)
        n2 = table.n * table.n
        for j in range(1, len(table) + 1):
            row = table.rows[j - 1]
            assert row[0] == 0
            assert all(b - a in range(0, n2 + 1) for a, b in zip(row, row[1:]))
            # exponents do grow within the computed depth
            assert row[-1] >= 1
            assert 1 <= table.orders[j - 1] < table.primes[j - 1] ** n2

    def test_wieferich(self):
        assert wieferich_test(1093, 2) is True
        assert wieferich_test(3, 2) is False
        assert wieferich_test(11, 3) is True

    def test_wieferich_needs_a_base_prime_to_p(self):
        for p, a in ((1093, 1093), (3, 6), (5, -10)):
            with pytest.raises(CoprimalityViolation):
                wieferich_test(p, a)

    def test_gap_constant_on_an_epsilon_with_a_large_numerator(self):
        # p**(33333333/100000001) > 2 first holds at p = 11; 2**100000001 is never built
        params = PowerSelectionParams(
            n=1, N=10**6, C=5, delta=Fraction(49, 100), epsilon=Fraction(33333333, 100000001)
        )
        start = time.perf_counter()
        assert power_gap_start_index(params, primes=first_primes(16)) == 5
        assert time.perf_counter() - start < 1

    def test_wieferich_prime_stalls_the_table(self):
        table = mult_order_ell_table(2, (1093,), 2)
        assert table.rows[0] == (0, 0)


class TestPowerExceeds:
    """_power_exceeds(p, a, b) decides p**a > 2**b without building either power."""

    def test_matches_the_powers_on_small_exponents(self):
        rng = random.Random(25)
        ps = first_primes(200)
        for _ in range(20000):
            b = rng.randint(2, 300)
            a, p = rng.randint(1, b - 1), rng.choice(ps)
            assert _power_exceeds(p, a, b) == (p**a > 2**b), (p, a, b)

    @pytest.mark.parametrize("p", (5, 7, 11, 13, 101, 1009))
    def test_close_to_log_p_of_2(self, p):
        # best rational approximations of log_p(2) put a*log2(p) within 1/b of b
        for bound in (10, 1000, 10**5):
            eps = Fraction(math.log(2) / math.log(p)).limit_denominator(bound)
            for a, b in ((eps.numerator, eps.denominator), (eps.numerator + 1, eps.denominator),
                         (eps.numerator, eps.denominator + 1)):
                if a < b:
                    assert _power_exceeds(p, a, b) == (p**a > 2**b), (p, a, b)

    @pytest.mark.parametrize("p", (5, 7, 11, 13))
    def test_needs_more_than_the_first_precision(self, p):
        # denominators near 10**30: the gap is ~10**-30 of b, past 30 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 200
        target = 1 / mpmath.log(p, 2)
        eps = Fraction(int(target * 10**80), 10**80).limit_denominator(10**30)
        a, b = eps.numerator, eps.denominator
        assert b > 10**20
        want = a * mpmath.log(p, 2) > b
        assert _power_exceeds(p, a, b) is bool(want)


class TestEllTableValidation:
    def test_step_bound_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EllTable(
                n=1,
                primes=(3, 5),
                rows=((0, 2, 4), (0, 2, 4)),
                orders=(1, 1),
            )

    def test_monotonicity_required(self):
        with pytest.raises(ValueError):
            EllTable(n=2, primes=(3,), rows=((3, 1),), orders=(2,))

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            EllTable(n=1, primes=(3,), rows=((0, 1),), orders=(3,))

    def test_order_bound_matches_the_power(self):
        # orders at and around p**(n^2) and the powers of 2 that bracket it
        rng = random.Random(25)
        for n in (1, 2, 3, 4):
            step = n * n
            for p in first_primes(12):
                bound = p**step
                bits = p.bit_length()
                near = {2**k + e for k in range((bits - 1) * step - 1, bits * step + 2) for e in (-1, 0, 1)}
                near |= {bound + e for e in (-1, 0, 1)} | {-1, 0, 1, 2, rng.randint(1, 2 * bound)}
                for o in sorted(near):
                    if 1 <= o < bound:
                        table = EllTable(n=n, primes=(p,), rows=((0,),), orders=(o,))
                        assert (table.n, table.primes, table.rows, table.orders) == (n, (p,), ((0,),), (o,))
                    else:
                        with pytest.raises(ValueError) as exc:
                            EllTable(n=n, primes=(p,), rows=((0,),), orders=(o,))
                        assert str(exc.value) == f"order {o} at prime {p} outside [1, {p}^{step})"

    @pytest.mark.parametrize("n", (1000, 3000))
    def test_large_dimension_builds_no_power(self, n):
        # p**(n^2) has millions of bits; an order of one bit needs none of them
        start = time.perf_counter()
        table = EllTable(n=n, primes=first_primes(16), orders=[1] * 16, rows=[(0,)] * 16)
        assert time.perf_counter() - start < 1
        assert table.orders == (1,) * 16


def synthetic_table(prime_count=20, depth=130):
    ps = first_primes(prime_count)
    row = tuple(k - 1 for k in range(1, depth + 1))
    return EllTable(n=1, primes=ps, rows=tuple(row for _ in ps), orders=tuple(1 for _ in ps))


class TestPowerSelection:
    def test_params_guards(self):
        with pytest.raises(ValueError):
            PowerSelectionParams(n=1, N=1, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        with pytest.raises(ValueError):
            PowerSelectionParams(n=1, N=2, C=4, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        with pytest.raises(ValueError):
            PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(1, 2), epsilon=Fraction(1, 5))
        with pytest.raises(ValueError):
            PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(2, 5))

    def test_hand_traced_selection(self):
        table = synthetic_table()
        params = PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        ks = select_powers(table, params, 4)
        assert ks == (9, 15, 21, 27)
        assert [table.ell(j, ks[j - 1]) for j in range(1, 5)] == [8, 14, 20, 26]
        assert verify_power_windows(table, ks, params)

    def test_shallow_table_exhausts(self):
        table = synthetic_table(depth=3)
        params = PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        with pytest.raises(TableExhausted):
            select_powers(table, params, 2)

    def test_verifier_rejects_tampered_selection(self):
        table = synthetic_table()
        params = PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        ks = list(select_powers(table, params, 5))
        ks[2] += 3
        assert verify_power_windows(table, tuple(ks), params) is False
        # ell(1, 1) = 0 does not clear N + C n^2 = 7
        assert verify_power_windows(table, (1, *ks[1:]), params) is False

    def test_power_tower_and_gap(self):
        table = synthetic_table()
        params = PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        ks = select_powers(table, params, 16)
        t = power_tower(table, ks)
        assert is_prime_system(t)
        assert all(a < b for a, b in zip(t.d, t.d[1:]))
        j0 = power_gap_start_index(params, primes=table.primes)
        assert j0 == 12
        assert gap_check_power(t, params.delta, start=j0)

    def test_sl_exact_table_pipeline(self):
        table = sl_exact_ell_table(2, 16, 200)
        assert table.rows[0][:3] == (0, 3, 6)
        params = PowerSelectionParams(n=2, N=25, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        ks = select_powers(table, params, 16)
        assert ks[:2] == (17, 24)
        assert verify_power_windows(table, ks, params)
        t = power_tower(table, ks)
        j0 = power_gap_start_index(params, primes=table.primes)
        assert gap_check_power(t, params.delta, start=j0)
        assert all(a < b for a, b in zip(t.d[j0 - 1 :], t.d[j0:]))

    def test_single_level_tower(self):
        table = synthetic_table()
        params = PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        ks = select_powers(table, params, 1)
        t = power_tower(table, ks)
        assert len(t) == 1
        assert is_prime_system(t)

    def test_bisection_matches_the_depth_scan(self):
        # Random small tables, sized so that selections and all three
        # TableExhausted messages each occur many times.
        rng = random.Random(14)
        ps = first_primes(6)
        params = {
            n: [
                PowerSelectionParams(
                    n=n, N=math.factorial(n * n) + extra, C=c,
                    delta=Fraction(2, 5), epsilon=Fraction(1, 5),
                )
                for extra in range(1, 8 * n * n + 1)
                for c in (5, 6, 7)
            ]
            for n in (1, 2)
        }
        outcomes = {}
        for _ in range(6000):
            n = rng.choice((1, 2))
            size, depth = rng.randint(1, 6), rng.randint(1, 24)
            steps = range(n * n + 1)
            rows = [
                accumulate(rng.choices(steps, k=depth - 1), initial=rng.randint(0, 24 * n * n))
                for _ in range(size)
            ]
            table = EllTable(n=n, primes=ps[:size], rows=rows, orders=[1] * size)
            chosen, count = rng.choice(params[n]), rng.randint(1, size)
            try:
                want = select_powers_scan(table, chosen, count)
            except TableExhausted as exc:
                with pytest.raises(TableExhausted) as got:
                    select_powers(table, chosen, count)
                assert str(got.value) == str(exc)
                kind = str(exc).split(" ")[2]
            else:
                assert select_powers(table, chosen, count) == want
                kind = "selected"
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert set(outcomes) == {"selected", "never", "starts", "too"}
        assert min(outcomes.values()) > 100, outcomes

    def test_gap_start_needs_a_prime_past_the_gap_constant(self):
        params = PowerSelectionParams(n=1, N=2, C=5, delta=Fraction(2, 5), epsilon=Fraction(1, 5))
        # p**(1/5) > 2 first holds at p = 37, the 12th prime
        assert power_gap_start_index(params, primes=first_primes(12)) == 12
        with pytest.raises(TableExhausted, match="too short"):
            power_gap_start_index(params, primes=first_primes(11))

    def test_gap_start_matches_the_loop(self):
        rng = random.Random(24)
        ps = first_primes(400)
        for _ in range(3000):
            n = rng.choice((1, 2))
            den = rng.randint(3, 40)
            delta = Fraction(rng.randint(1, (den - 1) // 2), den)
            epsilon = delta * Fraction(rng.randint(1, 29), 30)
            params = PowerSelectionParams(
                n=n, N=math.factorial(n * n) + rng.randint(1, 300), C=rng.randint(5, 12),
                delta=delta, epsilon=epsilon,
            )
            primes_given = ps[: rng.choice((rng.randint(1, 40), 400))]
            try:
                want = power_gap_start_loop(params, primes_given)
            except TableExhausted:
                with pytest.raises(TableExhausted, match="too short"):
                    power_gap_start_index(params, primes=primes_given)
            else:
                assert power_gap_start_index(params, primes=primes_given) == want, params
