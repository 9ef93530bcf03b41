"""Divisibility functions and residual averages over the integers.

Three divisibility functions are computed for a nonzero integer m:

    d_full(m)   -- least n >= 2 that does not divide m,
    d_prime(m)  -- least prime that does not divide m,
    d_p(m, p)   -- least power of a fixed prime p that does not divide m.

The "does not divide" reading is used throughout: it is the index of the
cheapest subgroup nZ missing m, and it stays well defined at m = 1 and
when p divides m, where a literal gcd-based phrasing has no solution.

The level-set measures and the empirical counts below are read from the
lcm chain lcm(1..n); the counts are exact closed forms, and the 1..N
scan they replace is the test oracle.  The exact partial averages are
ave_partial folds over the towers at the end of the module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .errors import ZeroInput
from .primes import first_primes, is_prime, lcm_upto
from .tower import IndexTower, ave_partial, nested_tower, prime_system_tower


def _abs_nonzero(m: int) -> int:
    if m == 0:
        raise ZeroInput("divisibility functions are undefined at 0")
    return abs(m)


def d_full(m: int) -> int:
    """Smallest n >= 2 with n not dividing |m|."""
    m = _abs_nonzero(m)
    n = 2
    while m % n == 0:
        n += 1
    return n


def d_prime(m: int) -> int:
    """Smallest prime not dividing |m|."""
    return _prime_walk(_abs_nonzero(m))


def _prime_walk(m: int, bound: float = math.inf) -> int:
    """Smallest prime not dividing m (m > 0), or the first prime past
    `bound` once every prime up to it divides m: the walk stops there."""
    p = 2
    while p <= bound and m % p == 0:
        p += 1
        while not is_prime(p):
            p += 1
    return p


def d_p(m: int, p: int) -> int:
    """p**(v+1) where v is the p-adic valuation of m.

    This is the least power of p not dividing m, hence the index of the
    cheapest subgroup p^k Z missing m.
    """
    m = _abs_nonzero(m)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    power = p
    while m % power == 0:
        power *= p
    return power


def level_set_measure(n: int) -> Fraction:
    """Measure 1/lcm(1..n-1) - 1/lcm(1..n) of the level set {x : d_full(x) = n}.

    Positive exactly when n is a prime power >= 2; every other n leaves
    the lcm chain unchanged and the set is empty.
    """
    if n < 2:
        raise ValueError(f"level sets start at n = 2, got {n}")
    prev = lcm_upto(n - 1)
    return Fraction(1, prev) - Fraction(1, math.lcm(prev, n))


def ave_z_partial(terms: int) -> Fraction:
    """Exact partial sum of the full-system average over the integers.

    Sum over j <= terms of j * (1 - lcm(1..j-1)/lcm(1..j)) / lcm(1..j-1),
    folded by ave_partial over tower_all_subgroups: its level i carries
    d = i + 1, and the j = 1 term is 0.  Converges extremely fast; fifty
    terms pin the limit far beyond ten digits (reference value
    2.787780456).
    """
    if terms < 0:
        raise ValueError("terms must be non-negative")
    return ave_partial(tower_all_subgroups(max(terms - 1, 1)), max(terms - 1, 0))


def ave_prime_partial(terms: int) -> Fraction:
    """Exact partial sum of the prime-system average over the integers.

    Sum over j <= terms of (p_j - 1) / (p_1 ... p_{j-1}), folded by
    ave_partial over tower_primes; fifteen terms pin the limit beyond
    ten digits (reference value 2.920050977).
    """
    if terms < 0:
        raise ValueError("terms must be non-negative")
    return ave_partial(tower_primes(max(terms, 1)), terms)


def ave_p_partial(p: int, terms: int) -> Fraction:
    """Partial sum J*(p-1) of the fixed-prime average.

    Every term of the series equals p - 1, so the partial sums grow
    linearly without bound; the function exists to exhibit exactly that.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if terms < 0:
        raise ValueError("terms must be non-negative")
    return Fraction(terms * (p - 1))


def _level_counts(bound: int) -> Iterator[tuple[int, int]]:
    """(n, #{1 <= m <= bound : d_full(m) = n}) for each n with lcm(1..n-1) <= bound.

    d_full(m) = n exactly when lcm(1..n-1) | m and lcm(1..n) does not;
    O(log bound) terms, and every n past them has count 0.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    n, prev = 2, 1  # prev = lcm(1..n-1)
    while prev <= bound:
        cur = math.lcm(prev, n)
        yield n, bound // prev - bound // cur
        n, prev = n + 1, cur


def divisibility_counts(bound: int) -> dict[int, int]:
    """How often each d_full value occurs on 1..bound (exact, zero counts omitted)."""
    return {n: count for n, count in _level_counts(bound) if count}


def empirical_density(n: int, bound: int) -> float:
    """Fraction of 1 <= m <= bound with d_full(m) = n.

    d_full is periodic with period lcm(1..n), so this converges to
    level_set_measure(n) with error at most lcm(1..n)/bound.
    """
    if n < 2:
        raise ValueError(f"level sets start at n = 2, got {n}")
    return divisibility_counts(bound).get(n, 0) / bound


def empirical_average(bound: int) -> float:
    """Mean of d_full over 1..bound (exact integer sum of n * count, one division)."""
    return sum(n * count for n, count in _level_counts(bound)) / bound


def tower_all_subgroups(levels: int) -> IndexTower:
    """Tower of every proper subgroup nZ, n = 2..levels+1, by index.

    l[j] is the lcm chain, since the intersection of 2Z..(j+1)Z is
    lcm(2..j+1)Z.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    d = tuple(range(2, levels + 2))
    return IndexTower(
        name=f"Z-all-subgroups({levels})", d=d, l=tuple(accumulate(d, math.lcm))
    )


def tower_primes(levels: int) -> IndexTower:
    """Tower of the subgroups pZ over the first `levels` primes.

    Pairwise coprime indices make the intersections multiply, so l is
    the running product and the tower is a prime system.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    ps = first_primes(levels)
    return prime_system_tower(f"Z-primes({levels})", ps)


def tower_prime_powers(p: int, levels: int) -> IndexTower:
    """Nested tower p Z > p^2 Z > ... > p^levels Z (d = l)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if levels < 1:
        raise ValueError("levels must be positive")
    return nested_tower(f"Z-prime-powers({p},{levels})", (p,) * levels)
