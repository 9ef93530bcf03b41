"""Independent oracles for resavg.linear, the tower pass and the Grigorchuk orders.

Brute-force enumeration counts matrices over Z/m one by one, so every
closed form is checked against a direct count at desk scale.  The
per-depth exponent rows, the pairwise gap-ratio loop and the per-prime
ratio loops are the former production paths, kept as oracles for the
one-order-per-prime table, the verdict read off sl_ratio_scan, and the
gap-skipping scans; so is the per-prime matrix scan, for the gcd route
of divisibility_matrix, and the sieve-only gap walk, for the walk that
probes with is_prime once the gap it needs is wide, or from the first
prime of a window narrower than isqrt(hi).  The three-division
coefficients are the former _coefficients, kept as the oracle for the
one-big-division pass; the per-call coefficient loop and the
single-level decomposition over them are the former levels() and
decompose(), kept as oracles for the pass an IndexTower computes once
and keeps, and the first level at which that decomposition fails is
the oracle for first_inconsistent_level, which reads that pass.  The
running-product loop is the
former is_prime_system, kept for the version that reads that pass.  The
three Horner folds are the former ave_partial, ave_partial_product_form
and measure_telescope, which carried every term, integer or not, through
one big numerator: they are kept for the versions that read the pass's
int columns and sum the integer terms (t_j = 1) as ints, and for the
telescope's closed form 1 - 1/l[terms].  The level-by-level loop is the
former is_nested, kept for the tuple comparison, and the set-based pool
is the former zeta_partial, kept for the version that sorts and drops
adjacent duplicates.  The per-depth selection scan is the former
select_powers, kept as the oracle for the version that bisects the
non-decreasing exponent rows, and the j-by-j loop is the former
power_gap_start_index, kept for its closed form.

The Grigorchuk generator permutations and the deterministic
Schreier-Sims chain over them are the former production path of
grigorchuk.level_quotient_order, kept as an oracle for its closed form
beside the breadth-first closure and sympy; the tree words and their
leaf actions check the generators directly.

The frozen dataclasses at the end are twins of the library's record
classes as they were before those became __slots__ records: the records
must match them in ==, hash, repr, immutability, construction and
validation messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Iterator

from resavg import grigorchuk, linear, primes, tower
from resavg.errors import BoundExceeded, IdentityInput, InconsistentTower, TableExhausted
from resavg.linear import multiplicative_order, sl_order
from resavg.primes import first_primes, is_prime, iter_primes
from resavg.tower import _show, as_fraction

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


def wide_gaps_sieve(lo: int, hi: int, min_gap: Callable[[int], int]) -> Iterator[tuple[int, int]]:
    """The former primes._wide_gaps: the sieve walk alone, over every block to hi."""
    p = 0
    for start, flags in primes._segments(lo, hi):
        i = 0
        if not p:
            i = flags.find(1)
            if i < 0:
                continue
            p = start + i
            i += 1
        while (j := flags.find(1, i)) >= 0:
            if start + j - p >= min_gap(p):
                yield p, start + j
            p, i = start + j, j + 1
            k = flags.find(bytes(min(min_gap(p) - 1, len(flags))), i)
            r = flags.rfind(1, i, len(flags) if k < 0 else k)
            if r >= 0:
                p = start + r
            if k < 0:
                break
            i = k


def divisibility_matrix_scan(gamma: linear.IntMatrix, pmax: int) -> tuple[int, int]:
    """The former divisibility_matrix: every prime <= pmax against every entry of gamma - I."""
    if gamma.determinant() != 1:
        raise ValueError("matrix must have determinant 1")
    if gamma.is_identity():
        raise IdentityInput("the divisibility function is infinite at the identity")
    n = gamma.n
    diff = [
        gamma.entries[i][j] - (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    ]
    for p in iter_primes(pmax):
        if any(e % p for e in diff):
            return p, sl_order(n, p)
    raise BoundExceeded(f"gamma reduces to the identity mod every prime <= {pmax}")


def coefficients_three_divisions(
    name: str, j: int, dj: int, lprev: int, lj: int
) -> tower.LevelDecomposition:
    """(r, s, t) at level j by s = l[j]/l[j-1], t = l[j]/d[j] and r = d[j]/s,
    each checked exact in that order; the first that is not names the error."""
    s, rem = divmod(lj, lprev)
    if rem:
        raise InconsistentTower(
            f"{name}: l[{j - 1}] = {_show(lprev)} does not divide l[{j}] = {_show(lj)}"
        )
    t, rem = divmod(lj, dj)
    if rem:
        raise InconsistentTower(
            f"{name}: d[{j}] = {_show(dj)} does not divide l[{j}] = {_show(lj)}"
        )
    r, rem = divmod(dj, s)
    if rem:
        raise InconsistentTower(
            f"{name}: d[{j}]*l[{j - 1}] = {_show(dj * lprev)} "
            f"is not a multiple of l[{j}] = {_show(lj)}"
        )
    return tower.LevelDecomposition(r, s, t)


def is_prime_system_loop(t: tower.IndexTower) -> bool:
    """l[j] == d[1]...d[j] at every level, by a running product."""
    product = 1
    for j in range(1, len(t) + 1):
        product *= t.d_at(j)
        if t.l_at(j) != product:
            return False
    return True


def levels_loop(t: tower.IndexTower, count: int) -> list[tower.LevelDecomposition]:
    """(r, s, t) at levels 1..count, computed afresh on every call."""
    out = []
    lprev = 1
    for j, (dj, lj) in enumerate(zip(t.d[:count], t.l[:count]), start=1):
        out.append(coefficients_three_divisions(t.name, j, dj, lprev, lj))
        lprev = lj
    return out


def decompose_alone(t: tower.IndexTower, j: int) -> tower.LevelDecomposition:
    """(r, s, t) at level j from d[j], l[j-1] and l[j] only."""
    return coefficients_three_divisions(t.name, j, t.d_at(j), t.l_at(j - 1), t.l_at(j))


def first_inconsistent_level_loop(t: tower.IndexTower) -> int | None:
    """The first level j at which decompose_alone raises, or None."""
    for j in range(1, len(t) + 1):
        try:
            decompose_alone(t, j)
        except InconsistentTower:
            return j
    return None


def ave_partial_fold(t: tower.IndexTower, terms: int) -> Fraction:
    """The former ave_partial: every term (s_j - 1) r_j s_j over l[j], folded
    Horner-wise over l[terms] whether or not it is an integer."""
    num = 0
    for dec in tower.levels(t, terms):
        num = (num + (dec.s - 1) * dec.r) * dec.s
    return Fraction(num, t.l_at(terms))


def ave_partial_product_form_fold(t: tower.IndexTower, terms: int) -> Fraction:
    """The former ave_partial_product_form: r_j (s_j - 1) folded Horner-wise
    over s_1 ... s_{terms-1} = l[terms-1]."""
    num, s_prev = 0, 1
    for dec in tower.levels(t, terms):
        num = num * s_prev + dec.r * (dec.s - 1)
        s_prev = dec.s
    return Fraction(num, t.l_at(max(terms - 1, 0)))


def measure_telescope_fold(t: tower.IndexTower, terms: int) -> Fraction:
    """The former measure_telescope: the terms (s_j - 1)/l[j] folded over l[terms]."""
    num = 0
    for dec in tower.levels(t, terms):
        num = num * dec.s + (dec.s - 1)
    return Fraction(num, t.l_at(terms))


def is_nested_loop(t: tower.IndexTower) -> bool:
    """l[j] == d[j], compared level by level."""
    return all(t.l_at(j) == t.d_at(j) for j in range(1, len(t) + 1))


def zeta_partial_set(indices, s, terms: int) -> float:
    """The former zeta_partial: a set of the indices, sorted, the `terms` smallest summed."""
    try:
        exponent = float(s) if isinstance(s, float) else float(as_fraction(s))
    except OverflowError:
        raise ValueError(f"exponent {s} is past the float range") from None
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {s}")
    if terms < 0:
        raise ValueError("terms must be non-negative")
    pool = sorted({int(i) for i in indices})
    if pool and pool[0] < 1:
        raise ValueError("indices must be positive")
    return math.fsum(math.exp(-exponent * math.log(i)) for i in pool[:terms])


def select_powers_scan(
    table: linear.EllTable, params: linear.PowerSelectionParams, count: int
) -> tuple[int, ...]:
    """Depths by a linear scan of each exponent row, depth by depth."""
    n2 = params.n * params.n
    target = params.N + params.C * n2
    first_row = table.rows[0]
    k1 = None
    for k in range(1, table.depth + 1):
        if first_row[k - 1] > target:
            k1 = k
            break
    if k1 is None:
        raise TableExhausted(
            f"depth {table.depth} never clears the opening target {target} at prime {table.primes[0]}"
        )
    ks = [k1]
    for j in range(2, count + 1):
        bound = table.ell(j - 1, ks[-1]) + params.C * n2
        row = table.rows[j - 1]
        if row[0] > bound:
            raise TableExhausted(
                f"prime {table.primes[j - 1]} starts above the window bound {bound}"
            )
        largest = 0
        for k in range(1, table.depth + 1):
            if row[k - 1] <= bound:
                largest = k
            else:
                break
        if largest >= table.depth:
            raise TableExhausted(
                f"depth {table.depth} too shallow past the window bound {bound} "
                f"at prime {table.primes[j - 1]}"
            )
        ks.append(largest + 1)
    return tuple(ks)


def power_gap_start_loop(params: linear.PowerSelectionParams, primes: tuple[int, ...]) -> int:
    """The start index by counting j up one Fraction step at a time."""
    n2 = params.n * params.n
    margin = (1 + params.epsilon) * (params.C + 2) * n2
    j = 1
    while (params.delta - params.epsilon) * (params.N + params.C * j * n2) - margin <= 1:
        j += 1
    a, b = params.epsilon.numerator, params.epsilon.denominator
    jp = next((idx for idx, p in enumerate(primes, start=1) if p**a > 2**b), None)
    if jp is None:
        raise TableExhausted("prime sequence too short to clear the gap constant")
    return max(j, jp)


GENERATORS = "abcd"
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": (None, "b")}


def _generator_perm(gen: str, level: int) -> tuple[int, ...]:
    """A Grigorchuk generator on the 2^level leaves of the binary tree.

    a swaps the two subtrees, and b = (a, c), c = (a, d), d = (1, b) act
    trivially at the root while recursing into the halves.  Leaves are
    indexed with the first branching as the most significant bit, so a
    is XOR with 2^(level-1).
    """
    size = 1 << level
    half = size >> 1
    if gen == "a":
        return tuple(i ^ half for i in range(size))
    if level == 1:
        return tuple(range(size))
    left, right = _SECTIONS[gen]
    lperm = _generator_perm(left, level - 1) if left else tuple(range(half))
    rperm = _generator_perm(right, level - 1)
    return tuple(lperm) + tuple(half + x for x in rperm)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(map(q.__getitem__, p))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def _chain_order(perms: list[tuple[int, ...]]) -> int:
    """Order of the permutation group generated by `perms`.

    Deterministic Schreier-Sims: a base and strong generating set are
    grown until every Schreier generator sifts to the identity, and the
    order is the product of the basic orbit lengths.  Level i keeps its
    strong generators, its basic orbit as point -> (u, u^-1) with
    base[i]^u = point, and the (point, generator) pairs already sifted.
    Transversal entries are never replaced, so a pair that sifted once
    still sifts after the chain grows and is not tested again.
    """
    if not perms:
        return 1
    identity = tuple(range(len(perms[0])))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    orbits: list[dict[int, tuple[tuple[int, ...], tuple[int, ...]]]] = []
    tested: list[set[tuple[int, int]]] = []

    def sift(h: tuple[int, ...], level: int) -> tuple[tuple[int, ...], int]:
        """Residue of h and the level where it dropped out of the chain."""
        while level < len(base):
            entry = orbits[level].get(h[base[level]])
            if entry is None:
                break
            h = _compose(h, entry[1])
            level += 1
        return h, level

    def add(h: tuple[int, ...], top: int, bottom: int) -> None:
        """Make h a strong generator on levels top..bottom, growing their orbits."""
        if bottom == len(base):
            point = next(x for x, y in enumerate(h) if x != y)
            base.append(point)
            strong.append([])
            orbits.append({point: (identity, identity)})
            tested.append(set())
        for level in range(top, bottom + 1):
            strong[level].append(h)
            orbit = orbits[level]
            queue = list(orbit)
            for beta in queue:
                u = orbit[beta][0]
                for s in strong[level]:
                    gamma = s[beta]
                    if gamma not in orbit:
                        v = _compose(u, s)
                        orbit[gamma] = (v, _inverse(v))
                        queue.append(gamma)

    def schreier_residue(level: int) -> tuple[tuple[int, ...], int] | None:
        """First untested Schreier generator of `level` that does not sift."""
        orbit, done = orbits[level], tested[level]
        for beta, (u, _) in orbit.items():
            for k, s in enumerate(strong[level]):
                if (beta, k) in done:
                    continue
                done.add((beta, k))
                h, drop = sift(_compose(_compose(u, s), orbit[s[beta]][1]), level + 1)
                if h != identity:
                    return h, drop
        return None

    for g in perms:
        h, drop = sift(g, 0)
        if h != identity:
            add(h, 0, drop)
    level = len(base) - 1
    while level >= 0:
        found = schreier_residue(level)
        if found is None:
            level -= 1
        else:
            add(found[0], level + 1, found[1])
            level = found[1]
    order = 1
    for orbit in orbits:
        order *= len(orbit)
    return order


@dataclass(frozen=True)
class TreeAutomorphism:
    """A word in the generators a, b, c, d."""

    word: str

    def __post_init__(self) -> None:
        bad = set(self.word) - set(GENERATORS)
        if bad:
            raise ValueError(f"unknown generators {sorted(bad)}; expected letters from 'abcd'")


def level_action(word: TreeAutomorphism | str, level: int) -> tuple[int, ...]:
    """Permutation induced on the 2^level leaves, letters applied left to right."""
    if level < 1:
        raise ValueError("level must be at least 1")
    text = word.word if isinstance(word, TreeAutomorphism) else TreeAutomorphism(word).word
    perm = tuple(range(1 << level))
    for letter in text:
        perm = _compose(perm, _generator_perm(letter, level))
    return perm


@dataclass(frozen=True)
class IndexTower:
    name: str
    d: tuple[int, ...]
    l: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "l", tuple(int(x) for x in self.l))
        if len(self.d) != len(self.l):
            raise ValueError(
                f"d and l must have equal length, got {len(self.d)} and {len(self.l)}"
            )
        if not self.d:
            raise ValueError("a tower needs at least one level")
        for j, dj in enumerate(self.d, start=1):
            if dj < 2:
                raise ValueError(f"d[{j}] = {_show(dj)}: subgroup indices must be at least 2")
        for j, lj in enumerate(self.l, start=1):
            if lj < 1:
                raise ValueError(f"l[{j}] = {_show(lj)}: intersection indices must be positive")
        for j in range(1, len(self.d)):
            if self.d[j] < self.d[j - 1]:
                raise ValueError(
                    f"d must be non-decreasing: "
                    f"d[{j}] = {_show(self.d[j - 1])} > d[{j + 1}] = {_show(self.d[j])}"
                )


@dataclass(frozen=True)
class LevelDecomposition:
    r: int
    s: int
    t: int


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")


@dataclass(frozen=True)
class EllTable:
    n: int
    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(self, "rows", tuple(tuple(int(e) for e in row) for row in self.rows))
        object.__setattr__(self, "orders", tuple(int(o) for o in self.orders))
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not (len(self.primes) == len(self.rows) == len(self.orders)):
            raise ValueError("primes, rows, and orders must have equal length")
        if not self.primes:
            raise ValueError("table needs at least one prime")
        depth = len(self.rows[0])
        if depth < 1 or any(len(row) != depth for row in self.rows):
            raise ValueError("all rows must share one positive depth")
        step = self.n * self.n
        for j, p in enumerate(self.primes):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if j and p <= self.primes[j - 1]:
                raise ValueError("primes must be strictly increasing")
            if not 1 <= self.orders[j] < p**step:
                raise ValueError(
                    f"order {self.orders[j]} at prime {p} outside [1, {p}^{step})"
                )
            row = self.rows[j]
            if row[0] < 0:
                raise ValueError("exponents must be non-negative")
            for k in range(1, depth):
                if row[k] < row[k - 1]:
                    raise ValueError(f"exponents must be non-decreasing (prime {p}, depth {k + 1})")
                if row[k] > row[k - 1] + step:
                    raise ValueError(
                        f"exponent step exceeds n^2 = {step} (prime {p}, depth {k + 1})"
                    )


@dataclass(frozen=True)
class PowerSelectionParams:
    n: int
    N: int
    C: int
    delta: Fraction
    epsilon: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", as_fraction(self.delta))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.N <= math.factorial(self.n * self.n):
            raise ValueError(f"N must exceed (n^2)! = {math.factorial(self.n * self.n)}")
        if self.C <= 4:
            raise ValueError("C must exceed 4")
        if not Fraction(0) < self.delta < Fraction(1, 2):
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not Fraction(0) < self.epsilon < self.delta:
            raise ValueError(f"epsilon must lie in (0, delta), got {self.epsilon}")


@dataclass(frozen=True)
class LevelQuotient:
    level: int
    order: int


# Each library record class and its frozen-dataclass twin.
TWINS = {
    tower.IndexTower: IndexTower,
    tower.LevelDecomposition: LevelDecomposition,
    linear.IntMatrix: IntMatrix,
    linear.EllTable: EllTable,
    linear.PowerSelectionParams: PowerSelectionParams,
    grigorchuk.LevelQuotient: LevelQuotient,
}
