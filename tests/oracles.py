"""Independent oracles for resavg.linear and the tower coefficient pass.

Brute-force enumeration counts matrices over Z/m one by one, so every
closed form is checked against a direct count at desk scale.  The
per-depth exponent rows, the pairwise gap-ratio loop and the per-prime
ratio loops are the former production paths, kept as oracles for the
one-order-per-prime table, the verdict read off sl_ratio_scan, and the
gap-skipping scans.  The per-call coefficient loop and the single-level
decomposition are the former levels() and decompose(), kept as oracles
for the pass an IndexTower computes once and keeps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product

from resavg.linear import multiplicative_order, sl_order
from resavg.primes import first_primes, is_prime, iter_primes
from resavg.tower import IndexTower, LevelDecomposition, _coefficients, as_fraction

ENUMERATION_LIMIT = 10**8


def _det_mod(rows: tuple[int, ...], n: int, modulus: int) -> int:
    """Determinant of a flat row-major matrix, reduced mod `modulus`.

    Cofactor-free formulas for n <= 3, full permutation expansion above
    (valid over any Z/m, unlike elimination).
    """
    if n == 1:
        return rows[0] % modulus
    if n == 2:
        return (rows[0] * rows[3] - rows[1] * rows[2]) % modulus
    if n == 3:
        a, b, c, d, e, f, g, h, i = rows
        return (a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h) % modulus
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            cursor = start
            while not seen[cursor]:
                seen[cursor] = True
                cursor = perm[cursor]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for row_idx in range(n):
            term *= rows[row_idx * n + perm[row_idx]]
        total += term
    return total % modulus


def _enumerate_order(n: int, modulus: int, det_one: bool) -> int:
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if modulus ** (n * n) > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of {modulus}^{n * n} matrices exceeds the {ENUMERATION_LIMIT} budget"
        )
    count = 0
    for rows in product(range(modulus), repeat=n * n):
        det = _det_mod(rows, n, modulus)
        if det_one:
            count += det == 1
        else:
            count += math.gcd(det, modulus) == 1
    return count


def brute_force_order(n: int, p: int, det_one: bool) -> int:
    """Count n x n matrices over F_p with det = 1 (or just invertible).

    Pure enumeration; this is the oracle the closed-form orders are
    tested against.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _enumerate_order(n, p, det_one)


def brute_force_order_mod(n: int, p: int, k: int, det_one: bool) -> int:
    """Same enumeration over Z/p^k (det must be a unit, or exactly 1)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("k must be at least 1")
    return _enumerate_order(n, p**k, det_one)


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ell_row_per_depth(a: int, p: int, depth: int) -> tuple[int, ...]:
    """p-adic valuation of the order of a mod p^k, one full order per depth."""
    return tuple(valuation(multiplicative_order(a, p**k), p) for k in range(1, depth + 1))


def gap_ratio_limit_pairwise(n: int, levels: int, slack) -> bool:
    """The former gap_ratio_limit_check: every order, one cross-product per pair."""
    bound = (Fraction(2) ** (n * n - 1)) * (1 + as_fraction(slack))
    orders = [sl_order(n, p) for p in first_primes(levels)]
    for j in range(max(1, levels // 2), levels):
        # pair (p_j, p_{j+1}), 1-indexed
        if orders[j] * bound.denominator > orders[j - 1] * bound.numerator:
            return False
    return True


def bertrand_loop(bound: int) -> tuple[Fraction, tuple[int, int]]:
    """The former bertrand_verify: one cross-product per consecutive pair."""
    best_num, best_den = 0, 1
    best_pair = (0, 0)
    prev = 0
    for p in iter_primes(bound):
        if prev and p * best_den > best_num * prev:
            best_num, best_den = p, prev
            best_pair = (prev, p)
        prev = p
    return Fraction(best_num, best_den), best_pair


def sl_ratio_scan_loop(n: int, lo: int, hi: int) -> tuple[Fraction, tuple[int, int]]:
    """The former sl_ratio_scan: one order per prime, one cross-product per pair."""
    num, den = 0, 1
    witness = (0, 0)
    prev = prev_order = 0
    for p in iter_primes(hi):
        if p < lo:
            continue
        order = sl_order(n, p)
        if prev and order * den > num * prev_order:
            num, den, witness = order, prev_order, (prev, p)
        prev, prev_order = p, order
    return Fraction(num, den), witness


def levels_loop(t: IndexTower, count: int) -> list[LevelDecomposition]:
    """(r, s, t) at levels 1..count, computed afresh on every call."""
    out = []
    lprev = 1
    for j, (dj, lj) in enumerate(zip(t.d[:count], t.l[:count]), start=1):
        out.append(_coefficients(t.name, j, dj, lprev, lj))
        lprev = lj
    return out


def decompose_alone(t: IndexTower, j: int) -> LevelDecomposition:
    """(r, s, t) at level j from d[j], l[j-1] and l[j] only."""
    return _coefficients(t.name, j, t.d_at(j), t.l_at(j - 1), t.l_at(j))
