"""Reference values computed without calling resavg.

Closed forms where the paper or the group theory gives one, and direct
stdlib computations otherwise.  Every reference that the benchmark's
checks rest on is here, so none of them reuses the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

AVE_Z = 2.787780456
AVE_PRIME = 2.920050977
SL2_SCAN = (Fraction(3048, 2147), (113, 127))


def primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def first_primes(count: int) -> list[int]:
    bound = 32
    while len(found := primes_upto(bound)) < count:
        bound *= 2
    return found[:count]


def sl_order(n: int, q: int) -> int:
    """|SL(n, F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    return q ** (n * (n - 1) // 2) * math.prod(q**i - 1 for i in range(2, n + 1))


def gl_order(n: int, q: int) -> int:
    return sl_order(n, q) * (q - 1)


def sl_prime_tower(n: int, levels: int) -> tuple[list[int], list[int]]:
    d = [sl_order(n, p) for p in first_primes(levels)]
    return d, list(accumulate(d, mul))


def slzp_tower(p: int, levels: int) -> list[int]:
    """|SL(2, Z/p^j)| = p^(3(j-1)) |SL(2, F_p)|; the tower is nested, d = l."""
    return [p ** (3 * (j - 1)) * sl_order(2, p) for j in range(1, levels + 1)]


def grig_orders(levels: int) -> list[int]:
    """|G/St(n)| of the first Grigorchuk group: 2, 8, then 2^(5*2^(n-3)+2)."""
    return [(2, 8)[n - 1] if n < 3 else 2 ** (5 * 2 ** (n - 3) + 2) for n in range(1, levels + 1)]


def is_nested(d: list[int], l: list[int]) -> bool:
    return d == l


def is_prime_system(d: list[int], l: list[int]) -> bool:
    product = 1
    for dj, lj in zip(d, l):
        product *= dj
        if lj != product:
            return False
    return True


def coefficients(d: list[int], l: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(r, s, t) per level.

    A prime system has (1, d_j, l_(j-1)); a nested tower has
    (l_(j-1), l_j/l_(j-1), 1).
    """
    prev = [1] + l[:-1]
    if is_nested(d, l):
        return prev, [lj // lp for lj, lp in zip(l, prev)], [1] * len(l)
    if not is_prime_system(d, l):
        raise ValueError("reference towers are nested or prime systems")
    return [1] * len(l), list(d), prev


def average(d: list[int], l: list[int]) -> Fraction:
    """Residual average over all levels.

    Nested: sum of (s_j - 1), which for SL(2, Z_5) is 119 + 124 (J - 1).
    Prime system: sum of (d_j - 1)/l_(j-1), folded backwards so that the
    only gcd is the final one.
    """
    if is_nested(d, l):
        return Fraction(sum(s - 1 for s in coefficients(d, l)[1]))
    return _prime_average(d)


def _prime_average(d: list[int]) -> Fraction:
    num, den = 0, 1
    for dj in reversed(d):
        # x_j = (d_j - 1) + x_(j+1) / d_j, with x = num/den
        num, den = (dj - 1) * den * dj + num, den * dj
    return Fraction(num, den)


def telescope(l: list[int]) -> Fraction:
    return 1 - Fraction(1, l[-1])


def verdict(d: list[int], l: list[int], window: int) -> str:
    """Ratio-test class from the last `window` defined growth ratios."""
    r, s, _ = coefficients(d, l)
    ratios = [
        (r[j + 1] * (s[j + 1] - 1), r[j] * s[j] * (s[j] - 1))
        for j in range(len(s) - 1)
        if s[j] != 1
    ][-window:]
    if len(ratios) < window:
        raise ValueError("too few defined ratios")
    if all(num < den for num, den in ratios):
        return "SubQuadratic"
    if all(num > den for num, den in ratios):
        return "SuperQuadratic"
    return "Indeterminate"


def degenerate_levels(d: list[int], l: list[int]) -> list[int]:
    return [j for j, s in enumerate(coefficients(d, l)[1], start=1) if s == 1]


def zeta(indices: list[int], s: int, terms: int) -> float:
    """Sum of i^-s over the smallest distinct indices; huge ones underflow to 0."""
    return math.fsum(math.exp(-s * math.log(i)) for i in sorted(set(indices))[:terms])


def sl_ratio_scan(n: int, lo: int, hi: int) -> tuple[Fraction, tuple[int, int]]:
    ps = [p for p in primes_upto(hi) if p >= lo]
    best = max(range(1, len(ps)), key=lambda i: Fraction(sl_order(n, ps[i]), sl_order(n, ps[i - 1])))
    return Fraction(sl_order(n, ps[best]), sl_order(n, ps[best - 1])), (ps[best - 1], ps[best])


def lcm_chain(j: int) -> list[int]:
    return list(accumulate(range(1, j + 1), math.lcm, initial=1))


def ave_z(terms: int) -> Fraction:
    """Sum of n * (1/lcm(1..n-1) - 1/lcm(1..n)) over n <= terms."""
    chain = lcm_chain(terms)
    parts = (n * (Fraction(1, chain[n - 1]) - Fraction(1, chain[n])) for n in range(1, terms + 1))
    return sum(parts, Fraction(0))


def ave_prime(terms: int) -> Fraction:
    return _prime_average(first_primes(terms))


def d_full(m: int) -> int:
    return next(n for n in range(2, abs(m) + 3) if m % n)


def d_prime(m: int) -> int:
    return next(p for p in primes_upto(4 * abs(m).bit_length() + 64) if m % p)


def d_p(m: int, p: int) -> int:
    power = p
    while m % power == 0:
        power *= p
    return power


def density_count(n: int, bound: int) -> int:
    """#{m <= bound : least non-divisor of m is n} = floor(N/lcm(1..n-1)) - floor(N/lcm(1..n))."""
    chain = lcm_chain(n)
    return bound // chain[n - 1] - bound // chain[n]


def level_measure(n: int) -> Fraction:
    chain = lcm_chain(n)
    return Fraction(1, chain[n - 1]) - Fraction(1, chain[n])


def first_prime_not_dividing(values: list[int]) -> int:
    g = math.gcd(*values)
    return next(p for p in primes_upto(4 * g.bit_length() + 64) if g % p)


def decimal_int(text: str) -> int:
    """Parse a decimal string of any length without lifting the int-str limit."""
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value
