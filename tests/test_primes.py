import importlib.util
import math
import random
import sys
import threading
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bertrand_loop, wide_gaps_sieve
from resavg import primes
from resavg.primes import (
    bertrand_verify,
    first_primes,
    is_prime,
    iter_primes,
    lcm_upto,
    primes_upto,
)


# psi_k: the least odd composite that is a strong probable prime to each
# of the first k prime bases (Jaeschke 1993; Sorenson and Webster 2017).
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
PSI_12 = PSI[11]
PSI_13 = PSI[12]
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """One Miller-Rabin round: n odd, n > a >= 2."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_all_witnesses(n):
    """The former is_prime: trial division by, then Miller-Rabin with, all 13 witnesses."""
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in WITNESSES)


def trial_division_primes(bound):
    out = []
    for n in range(2, bound + 1):
        for d in range(2, int(n**0.5) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def is_prime_power(n):
    if n < 2:
        return False
    for p in trial_division_primes(n):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


class TestPrimesUpto:
    def test_examples(self):
        assert primes_upto(10) == (2, 3, 5, 7)
        assert primes_upto(2) == (2,)
        assert primes_upto(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

    def test_agrees_with_trial_division(self):
        rng = random.Random(7)
        bounds = [2, 3, 4, 100, 1000] + [rng.randint(2, 10**5) for _ in range(5)] + [10**5]
        for bound in bounds:
            assert list(primes_upto(bound)) == trial_division_primes(bound)

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            primes_upto(1)

    def test_every_small_bound_matches_trial_division(self):
        # bounds 0 and 1 give nothing; each larger bound is one short segment
        ps = trial_division_primes(3000)
        for bound in range(3001):
            assert list(iter_primes(bound)) == [p for p in ps if p <= bound], bound

    @pytest.mark.parametrize("edge", [4098, 995814, 2044390])
    def test_windows_around_segment_edges(self, edge):
        # iter_primes' blocks end at 4,098, then at three times their start
        # up to 995,814, then 2**20 apart: the first, last tripled and first
        # full-length edges
        lo, hi = edge - 2000, edge + 2000
        got = [p for p in iter_primes(hi) if p >= lo]
        assert got == [n for n in range(lo, hi + 1) if is_prime(n)]

    def test_prime_count_to_ten_million(self):
        # pi(10^7) = 664,579, the published value
        assert sum(1 for _ in iter_primes(10**7)) == 664579

    def test_segmented_path_matches_miller_rabin(self):
        # inside the fifteenth 2**20 block, from 2,044,390 on
        limit = 1 << 24
        bound = limit + 2000
        got = [p for p in iter_primes(bound) if p > limit]
        assert got == [n for n in range(limit + 1, bound + 1) if is_prime(n)]


class TestSegments:
    def test_blocks(self):
        # the block from lo ends at 3 * lo, at least 4096 and at most 2**20 long
        hi = 3 << 20
        for lo in (2, 3, 1000, 5000, 400000):
            s, want = lo, []
            while s <= hi:
                top = min(max(3 * s, s + 4096), s + (1 << 20), hi + 1)
                want.append((s, top - s))
                s = top
            assert [(s, len(f)) for s, f in primes._segments(lo, hi)] == want

    def test_base_primes_go_only_as_far_as_the_blocks_taken(self, monkeypatch):
        calls = []
        real = primes._segments

        def spy(lo, hi):
            calls.append((lo, hi))
            return real(lo, hi)

        monkeypatch.setattr(primes, "_segments", spy)
        blocks = real(10**5, 10**20)
        start, flags = next(blocks)
        top = start + len(flags)
        assert (start, top) == (10**5, 3 * 10**5)
        # the base primes reach isqrt(4 * top), not isqrt(10**20)
        assert max(hi for lo, hi in calls) == math.isqrt(4 * top)
        blocks.close()

    @pytest.mark.parametrize("lo", [2, 3, 1000, 4097, 4098, 50000])
    def test_windows_match_miller_rabin(self, lo):
        # across the first block's edge at 3 * lo, and the next one
        rng = random.Random(lo)
        ends = (lo + 4095, lo + 4096, 3 * lo - 1, 3 * lo, 3 * lo + 4096, 9 * lo, lo + rng.randrange(40000))
        for hi in (lo - 1, lo, *(end for end in ends if end <= 200000)):
            got = [n for start, flags in primes._segments(lo, hi)
                   for n, f in enumerate(flags, start) if f]
            assert got == [n for n in range(lo, hi + 1) if is_prime(n)], hi


def constant(g):
    return lambda: (lambda p: g, None)


def proportional(a, b):
    return lambda: (lambda p: p * a // b + 1, None)


def drops_after_a_yield(step):
    """One more every `step` past the anchor; the anchor moves to q on each yield."""

    def make():
        anchor = [None]

        def min_gap(p):
            if anchor[0] is None:
                anchor[0] = p
            return (p - anchor[0]) // step + 2

        def seen(p, q):
            anchor[0] = q

        return min_gap, seen

    return make


GAP_SHAPES = {
    "constant-2": constant(2),
    "constant-10": constant(10),
    "constant-1000": constant(10**3),
    "constant-10000": constant(10**4),
    "p/50": proportional(1, 50),
    "p/7": proportional(1, 7),
    "2p/3": proportional(2, 3),
    "drops-after-a-yield-40": drops_after_a_yield(40),
    "drops-after-a-yield-3": drops_after_a_yield(3),
}


def gap_pairs(walk, lo, hi, shape):
    min_gap, seen = shape()
    out = []
    for p, q in walk(lo, hi, min_gap):
        out.append((p, q))
        if seen:
            seen(p, q)
    return out


def gap_windows(seed, count, spans, *fixed):
    rng = random.Random(seed)
    windows = [(2, 5000), (2**20 + 2 - 3000, 2**20 + 2 + 3000), *fixed]
    for _ in range(count):
        lo = rng.choice((rng.randrange(-5, 3000), rng.randrange(2 * 10**6)))
        windows.append((lo, lo + rng.choice(spans) + rng.randrange(-20, 20)))
    return windows


class TestWideGaps:
    """The two-regime gap walk against the sieve-only walk it replaced."""

    @pytest.mark.parametrize("shape", GAP_SHAPES)
    def test_seeded_windows_match_the_sieve_walk(self, shape):
        # spans cross the walk's first block edges (near 3 * lo or lo + 4096,
        # then 9 * lo) and, from some lo, the switch to probing
        for lo, hi in gap_windows(shape, 12, (100, 4096, 12288, 60000, 300000), (2, 2**20 + 3000)):
            want = gap_pairs(wide_gaps_sieve, lo, hi, GAP_SHAPES[shape])
            assert gap_pairs(primes._wide_gaps, lo, hi, GAP_SHAPES[shape]) == want, (lo, hi)

    @pytest.mark.parametrize("shape", GAP_SHAPES)
    def test_probing_from_the_first_prime_matches_the_sieve_walk(self, monkeypatch, shape):
        # with the factor at 0 every step probes, also where pairs are yielded
        monkeypatch.setattr(primes, "_PROBE_GAP", 0)
        for lo, hi in gap_windows(shape, 12, (10, 100, 4096, 12288)):
            want = gap_pairs(wide_gaps_sieve, lo, hi, GAP_SHAPES[shape])
            assert gap_pairs(primes._wide_gaps, lo, hi, GAP_SHAPES[shape]) == want, (lo, hi)

    @pytest.mark.parametrize("probe_gap, gap", [(128, 6000), (0, 2), (0, 30), (0, 100)])
    def test_probe_window_at_10_to_the_12_matches_sympy(self, monkeypatch, probe_gap, gap):
        sympy = pytest.importorskip("sympy")
        monkeypatch.setattr(primes, "_PROBE_GAP", probe_gap)
        lo, hi = 10**12, 10**12 + 20000
        ps = list(sympy.primerange(lo, hi + 1))
        want = [(p, q) for p, q in zip(ps, ps[1:]) if q - p >= gap]
        assert list(primes._wide_gaps(lo, hi, lambda p: gap)) == want

    def test_bertrand_to_ten_million_sieves_one_block(self, monkeypatch):
        tops, probes = [], []
        real_segments, real_is_prime = primes._segments, primes.is_prime

        def segments(lo, hi):
            for start, flags in real_segments(lo, hi):
                tops.append(start + len(flags) - 1)
                yield start, flags

        def is_prime(n):
            probes.append(n)
            return real_is_prime(n)

        monkeypatch.setattr(primes, "_segments", segments)
        monkeypatch.setattr(primes, "is_prime", is_prime)
        assert bertrand_verify(10**7) == (Fraction(5, 3), (3, 5))
        assert max(tops) <= 10**4
        assert len(probes) < 2000

    @pytest.mark.parametrize("hi", [PSI_13, PSI_13 + 1, 10**30])
    def test_bounds_past_exact_primality_are_refused(self, hi):
        with pytest.raises(ValueError, match="exact only below psi_13"):
            next(primes._wide_gaps(2, hi, lambda p: 1))
        with pytest.raises(ValueError, match="exact only below psi_13"):
            bertrand_verify(hi)

    def test_largest_exact_bound(self):
        assert primes._PSI_13 == PSI_13
        assert bertrand_verify(PSI_13 - 1) == (Fraction(5, 3), (3, 5))


class TestFirstPrimes:
    def test_small(self):
        assert first_primes(5) == (2, 3, 5, 7, 11)
        assert first_primes(0) == ()

    def test_thousandth_prime(self):
        ps = first_primes(1000)
        assert len(ps) == 1000
        assert ps[-1] == 7919

    def test_sieves_only_the_blocks_taken(self, monkeypatch):
        tops = []
        real = primes._segments

        def segments(lo, hi):
            for start, flags in real(lo, hi):
                tops.append(start + len(flags) - 1)
                yield start, flags

        monkeypatch.setattr(primes, "_segments", segments)
        assert first_primes(600)[-1] == 4409
        # the blocks [2, 4097] and [4098, 12293], not the bound 600**2 + 2
        assert max(tops) <= 12293

    def test_every_count_to_3000_matches_is_prime(self):
        ps = tuple(n for n in range(27450) if is_prime(n))  # p_3000 = 27449
        assert len(ps) == 3000
        for count in range(3001):
            assert first_primes(count) == ps[:count], count


class TestBertrand:
    def test_examples(self):
        assert bertrand_verify(10) == (Fraction(5, 3), (3, 5))
        assert bertrand_verify(3) == (Fraction(3, 2), (2, 3))
        # (3, 5) stays the global maximum once 5 enters the range
        assert bertrand_verify(130) == (Fraction(5, 3), (3, 5))

    def test_direct_scan_oracle(self):
        ps = trial_division_primes(500)
        best = max(
            (Fraction(q, p) for p, q in zip(ps, ps[1:])),
        )
        ratio, pair = bertrand_verify(500)
        assert ratio == best
        assert Fraction(pair[1], pair[0]) == best

    def test_gap_bound_holds(self):
        ratio, _ = bertrand_verify(10**5)
        assert ratio <= 2

    def test_every_bound_matches_the_per_prime_loop(self):
        # The loop's best only grows with the bound and keeps its first
        # maximal pair, so equal answers at 5 and 20000 pin every bound between.
        loop = {bound: bertrand_loop(bound) for bound in (3, 4, 5, 20000)}
        assert loop[5] == loop[20000]
        for bound in range(3, 20001):
            assert bertrand_verify(bound) == loop[min(bound, 5)], bound

    def test_ten_million_matches_the_per_prime_loop(self):
        # from p ~ 1.6e6 on the gap needed (> 2p/3) is longer than a block
        assert bertrand_verify(10**7) == bertrand_loop(10**7)

    @pytest.mark.parametrize("segment", [1, 2, 5, 64])
    def test_tiny_blocks_match_the_per_prime_loop(self, monkeypatch, segment):
        # most gaps then cross a block edge, and most needles outgrow a block
        monkeypatch.setattr(primes, "_SEGMENT", segment)
        for bound in (*range(3, 200), 1000, 4327, 5000):
            assert bertrand_verify(bound) == bertrand_loop(bound), bound


class TestLcm:
    def test_examples(self):
        assert lcm_upto(1) == 1
        assert lcm_upto(0) == 1
        assert lcm_upto(6) == 60
        assert lcm_upto(10) == 2520

    def test_divisibility_chain_and_prime_power_jumps(self):
        chain = list(accumulate(range(1, 201), math.lcm, initial=1))
        assert [lcm_upto(j) for j in range(201)] == chain
        for j in range(1, 201):
            assert chain[j] % chain[j - 1] == 0
            jumps = chain[j] // chain[j - 1] > 1
            assert jumps == is_prime_power(j)

    def test_exceeds_machine_words(self):
        # no longer representable as a signed 64-bit integer
        assert lcm_upto(43) > 2**63 - 1
        assert lcm_upto(47).bit_length() > 64

    def test_matches_a_fold_of_math_lcm(self):
        chain = list(accumulate(range(1, 20001), math.lcm, initial=1))  # chain[j] = lcm(1..j)
        for j in (*range(2001), 20000):
            assert lcm_upto(j) == chain[j], j

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lcm_upto(-1)

    def test_concurrent_calls_agree(self):
        # A fresh copy of the module, so that no earlier call in this
        # process has left state behind; threads switch every microsecond.
        spec = importlib.util.find_spec("resavg.primes")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        chain = list(accumulate(range(1, 3001), math.lcm, initial=1))
        results = []

        def work():
            results.append(fresh.lcm_upto(3000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert results == [chain[3000]] * 4
        assert [fresh.lcm_upto(j) for j in range(3001)] == chain


class TestIsPrime:
    def test_against_trial_division(self):
        ps = set(trial_division_primes(2000))
        for n in range(2000):
            assert is_prime(n) == (n in ps)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)

    def test_strong_pseudoprime_bounds(self):
        # psi_12 passes the bases 2..37 and is caught by 41
        assert 399165290221 * 798330580441 == PSI_12
        assert not is_prime(PSI_12)
        # psi_13 passes every base 2..41: the documented end of exactness
        assert is_prime(PSI_13)

    def test_matches_sympy_below_200000(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2 * 10**5):
            assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("k", range(1, 13))
    def test_each_psi_is_rejected(self, k):
        psi = PSI[k - 1]
        # psi_k fools the first k witnesses, so the prefix for psi_k must be longer
        assert all(strong_probable_prime(psi, a) for a in WITNESSES[:k])
        assert not is_prime(psi)
        assert not is_prime_all_witnesses(psi)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(PSI[:12]),
        st.one_of(
            st.integers(min_value=-(10**4), max_value=10**4).map(lambda off: (off, None)),
            st.tuples(st.integers(min_value=-(10**4), max_value=10**4), st.integers(0, 10**4)),
        ),
    )
    def test_matches_all_witnesses_near_each_psi(self, psi, near):
        # n within 10^4 of psi_k, or a product of two primes close to psi_k
        offset, spread = near
        if spread is None:
            n = psi + offset
        else:
            sympy = pytest.importorskip("sympy")
            p = sympy.nextprime(math.isqrt(psi) + offset)
            n = p * sympy.nextprime(psi // p + spread)
        assert is_prime(n) == is_prime_all_witnesses(n)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.integers(min_value=-5, max_value=PSI_13 - 1),
            st.integers(min_value=0, max_value=10**6),
            st.tuples(st.integers(2**39, 2**40), st.integers(2**39, 2**40)),
        )
    )
    def test_matches_sympy_below_psi_13(self, n):
        sympy = pytest.importorskip("sympy")
        if isinstance(n, tuple):
            n = sympy.nextprime(n[0]) * sympy.nextprime(n[1])
        assert is_prime(n) == sympy.isprime(n)
