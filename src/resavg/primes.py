"""Prime generation, consecutive-gap verification, and lcm chains.

Deterministic throughout: one segmented sieve for every bound (memory
bounded by the segment, workable to about 1e8), and Miller-Rabin for
spot checks.  psi_k, the least odd composite that is a strong
probable prime to each of the first k prime bases, is published for
k <= 13 (Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math.
Comp. 86, 2017), so the first k primes are exact witnesses below psi_k.
is_prime runs the shortest such prefix for n: two bases below
1,373,653, all 13 at or above psi_12, exact below
psi_13 = 3317044064679887385961981, a strong probable-prime test above.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from typing import Iterator

_SEGMENT = 1 << 20

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_1..psi_12: the first k witnesses are exact for every n < psi_k.
_PSI = (
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
)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first k witnesses, k least with n < psi_k.

    All 13 witnesses run from psi_12 on: exact below psi_13 (~3.3e24), a
    strong probable-prime test above.  The psi_k are the published least
    strong pseudoprimes to the first k prime bases (module docstring).
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iter_primes(bound: int) -> Iterator[int]:
    """Yield the primes <= bound in increasing order.

    Sieves fixed-size segments from 2 upward with the base primes up to
    isqrt(bound), which this routine yields for itself first, so memory
    stays bounded by one segment for any bound.
    """
    if bound < 2:
        return
    base = list(iter_primes(math.isqrt(bound)))
    lo = 2
    while lo <= bound:
        hi = min(lo + _SEGMENT, bound + 1)
        seg = bytearray([1]) * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            seg[start - lo :: p] = bytes(len(range(start, hi, p)))
        yield from compress(range(lo, hi), seg)
        lo = hi


def primes_upto(bound: int) -> tuple[int, ...]:
    """All primes <= bound, bound >= 2."""
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    return tuple(iter_primes(bound))


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return ()
    bound = 15
    if count > 5:
        x = float(count)
        bound = int(x * (math.log(x) + math.log(math.log(x))) * 1.2) + 10
    while True:
        out = []
        for p in iter_primes(bound):
            out.append(p)
            if len(out) == count:
                return tuple(out)
        bound *= 2


def bertrand_verify(bound: int) -> tuple[Fraction, tuple[int, int]]:
    """Largest ratio between consecutive primes up to `bound`.

    Returns (max_ratio, (p, q)) where q/p attains the maximum over all
    consecutive prime pairs p < q <= bound.  The classical gap bound
    says this never exceeds 2; callers assert that rather than assume it.
    """
    if bound < 3:
        raise ValueError(f"bound must be at least 3, got {bound}")
    best_num, best_den = 0, 1
    best_pair = (0, 0)
    prev = 0
    for p in iter_primes(bound):
        if prev and p * best_den > best_num * prev:
            best_num, best_den = p, prev
            best_pair = (prev, p)
        prev = p
    return Fraction(best_num, best_den), best_pair


_LCM_CHAIN = [1, 1]


def lcm_upto(j: int) -> int:
    """lcm(1, ..., j), with lcm of the empty range defined as 1."""
    if j < 0:
        raise ValueError("j must be non-negative")
    while len(_LCM_CHAIN) <= j:
        _LCM_CHAIN.append(math.lcm(_LCM_CHAIN[-1], len(_LCM_CHAIN)))
    return _LCM_CHAIN[j]


def lcm_sequence(j: int) -> list[int]:
    """[lcm(1..0), lcm(1..1), ..., lcm(1..j)] as a fresh list."""
    lcm_upto(j)
    return _LCM_CHAIN[: j + 1]
