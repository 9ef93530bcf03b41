"""Prime generation, consecutive-gap verification, and lcm(1..j).

Deterministic throughout: one segmented sieve, in blocks taken only as
far as a caller reads, and Miller-Rabin.  psi_k, the least odd composite
that is a strong probable prime to each of the first k prime bases, is
published for k <= 13 (Jaeschke, Math. Comp. 61, 1993; Sorenson and
Webster, Math. Comp. 86, 2017), so the first k primes are exact
witnesses below psi_k, and is_prime below psi_13 = 3317044064679887385961981.

Maximum-ratio scans over consecutive primes visit only the gaps wide
enough to beat the running best num/den.  A pair (p, q) can win only if
q - p >= min_gap(p), a bound fixed by p and the best so far: for q/p it
is floor(p(num - den)/den) + 1.  Runs of composites that long are found
on the sieve flags or, once wide or in a window narrower than sqrt(hi),
by is_prime probes (below psi_13 only).

lcm_upto takes one sieve pass per call; the module keeps no state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, islice
from typing import Callable, Iterator

_SEGMENT = 1 << 20
_PROBE_GAP = 128  # about where probing overtakes the sieve walk (_wide_gaps)

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
_PSI_13 = 3317044064679887385961981


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


def _segments(lo: int, hi: int, grow: bool = False) -> Iterator[tuple[int, bytearray]]:
    """Sieve [max(lo, 2), hi] in blocks of _SEGMENT numbers.

    Yields (start, flags) with flags[i] == 1 iff start + i is prime.  With
    grow, for walks that may stop early, the block from lo ends at 3 * lo
    and is 4,096 numbers or more, as each block pays a pass over its base
    primes.  Those are sieved to isqrt(min(hi, 4 * top)) when a block below
    top needs more, so nothing past the last block taken is sieved.
    """
    lo = max(lo, 2)
    have, base = 1, []  # base: the primes <= have
    while lo <= hi:
        size = min(max(1 << 12, 2 * lo), _SEGMENT) if grow else _SEGMENT
        top = min(lo + size, hi + 1)
        if math.isqrt(top - 1) > have:
            have = math.isqrt(min(hi, 4 * top))
            base = list(iter_primes(have))
        flags = bytearray([1]) * (top - lo)
        for p in base:
            if p * p >= top:
                break
            start = max(p * p, -(-lo // p) * p)
            flags[start - lo :: p] = bytes(len(range(start, top, p)))
        yield lo, flags
        lo = top


def iter_primes(bound: int) -> Iterator[int]:
    """Yield the primes <= bound in increasing order."""
    for lo, flags in _segments(2, bound):
        yield from compress(range(lo, lo + len(flags)), flags)


def _wide_gaps(lo: int, hi: int, min_gap: Callable[[int], int]) -> Iterator[tuple[int, int]]:
    """Consecutive primes p < q in [lo, hi] with q - p >= min_gap(p) >= 1.

    p runs from the first prime >= lo.  min_gap is read again after every
    pair yielded, and between yields it must not decrease along the
    primes, so the walk may jump to the last prime below p + min_gap(p):
    while g = min_gap(p) < _PROBE_GAP * p.bit_length(), by bytearray.find
    for a run of g - 1 composites in the sieve flags (the needle capped at
    the block length, a longer run paired across the block edge), then by
    _probe_gaps, which sieves nothing more.  A window narrower than
    isqrt(hi) is probed from its first prime, with no sieve at all.
    hi >= psi_13 is refused.
    """
    if hi >= _PSI_13:
        raise ValueError(f"prime gap scans are exact only below psi_13 = {_PSI_13}, got {hi}")
    if hi < max(lo, 2):
        return
    if math.isqrt(hi) > hi - lo:
        p = next(filter(is_prime, range(lo, hi + 1)), 0)
        if p:
            yield from _probe_gaps(p, min_gap(p), hi, min_gap)
        return
    p = 0
    for start, flags in _segments(lo, hi, grow=True):
        i = 0
        if not p:
            i = flags.find(1)
            if i < 0:
                continue
            p, g = start + i, min_gap(start + i)
            i += 1
        while (j := flags.find(1, i)) >= 0:
            if start + j - p >= g:
                yield p, start + j
            p, i = start + j, j + 1
            k = flags.find(bytes(min(min_gap(p) - 1, len(flags))), i)
            # the last prime before that run, or in the block if it has none
            r = flags.rfind(1, i, len(flags) if k < 0 else k)
            if r >= 0:
                p = start + r
            g = min_gap(p)
            if g >= _PROBE_GAP * p.bit_length():
                yield from _probe_gaps(p, g, hi, min_gap)
                return
            if k < 0:
                break
            i = k


def _probe_gaps(p: int, g: int, hi: int, min_gap: Callable[[int], int]) -> Iterator[tuple[int, int]]:
    """_wide_gaps from the prime p, g = min_gap(p), by is_prime on odd numbers:
    down from min(p + g - 1, hi) to the last prime > p, jumping there, or
    with none, up from p + g to the next prime <= hi, paired with p."""
    while True:
        r = next(filter(is_prime, range((min(p + g - 1, hi) - 1) | 1, p, -2)), 0)
        if not r:
            r = next(filter(is_prime, range((p + g) | 1, hi + 1, 2)), 0)
            if not r:
                return
            yield p, r
        p, g = r, min_gap(r)


def primes_upto(bound: int) -> tuple[int, ...]:
    """All primes <= bound, bound >= 2."""
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    return tuple(iter_primes(bound))


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes."""
    if count < 0:
        raise ValueError("count must be non-negative")
    # > p_count: 15 > p_5, and p_n < n(ln n + ln ln n) for n >= 6 (Rosser-Schoenfeld 1962)
    bound = 15
    if count > 5:
        x = float(count)
        bound = int(x * (math.log(x) + math.log(math.log(x))) * 1.2) + 10
    return tuple(islice(iter_primes(bound), count))


def bertrand_verify(bound: int) -> tuple[Fraction, tuple[int, int]]:
    """Largest ratio between consecutive primes up to `bound`.

    Returns (max_ratio, (p, q)) where q/p attains the maximum over all
    consecutive prime pairs p < q <= bound, the first such pair as the
    witness.  The classical gap bound says this never exceeds 2; callers
    assert that rather than assume it.

    A pair beats the running best num/den iff q - p > p(num - den)/den, so
    only gaps of at least floor(p(num - den)/den) + 1 are visited
    (_wide_gaps), each a new best.  A bound >= psi_13 is a ValueError.
    """
    if bound < 3:
        raise ValueError(f"bound must be at least 3, got {bound}")
    # 1/1 is below every q/p, so (2, 3) always replaces it.
    num, den = 1, 1
    pair = (0, 0)
    for p, q in _wide_gaps(2, bound, lambda p: p * (num - den) // den + 1):
        num, den, pair = q, p, (p, q)
    return Fraction(num, den), pair


def lcm_upto(j: int) -> int:
    """lcm(1, ..., j) = product over primes p <= j of the largest p**k <= j; 1 at j = 0."""
    if j < 0:
        raise ValueError("j must be non-negative")
    out = 1
    for p in iter_primes(j):
        power = p
        while power * p <= j:
            power *= p
        out *= power
    return out
