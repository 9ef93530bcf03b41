"""Matrix-group towers: orders over finite rings, divisibility of integer
matrices, multiplicative-order exponent tables, and power selection.

Group orders are closed forms; the tests check them against brute-force
enumeration of small matrix rings.  The exponent tables record, for each
prime p and depth k, how many extra factors of p the image of a group
picks up when reduction mod p is refined to reduction mod p^k; the
power-selection routine walks such a table and chooses one depth per
prime so that consecutive indices land in a controlled growth window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from decimal import Context
from fractions import Fraction
from typing import Iterable

from .errors import (
    BoundExceeded,
    CoprimalityViolation,
    IdentityInput,
    InvalidPrimePower,
    TableExhausted,
)
from .integers import _prime_walk
from .primes import _MR_WITNESSES, _wide_gaps, first_primes, is_prime
from .tower import IndexTower, RationalLike, Record, as_fraction, prime_system_tower


class IntMatrix(Record):
    """Square integer matrix with exact arithmetic helpers."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self._fill(rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_identity(self) -> bool:
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )

    def determinant(self) -> int:
        """Exact determinant by fraction-free elimination."""
        n = self.n
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q, k >= 1, by Newton's iteration from above."""
    x = 1 << -(-q.bit_length() // k)
    while (y := ((k - 1) * x + q // x ** (k - 1)) // k) < x:
        x = y
    return x


def _prime_power_base(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k, or InvalidPrimePower naming q.

    A q with a factor p among the Miller-Rabin witness primes (up to 41)
    is a prime power iff dividing out p leaves 1.  Any other q needs a
    root for prime k <= log2 q only, since an r**k with k composite is
    also an r**(k/m)-th power for a prime m | k; an exact root settles
    the question, as q is a prime power iff that root is.
    """
    if is_prime(q):
        return q, 1
    for p in _MR_WITNESSES if q > 1 else ():
        if q % p == 0:
            rest, k = q // p, 1
            while rest % p == 0:
                rest, k = rest // p, k + 1
            if rest == 1:
                return p, k
            raise InvalidPrimePower(f"{q} is not a prime power")
    for k in filter(is_prime, range(2, max(q, 1).bit_length())):
        r = _iroot(q, k)
        if r**k == q:
            try:
                p, e = _prime_power_base(r)
            except InvalidPrimePower:
                break
            return p, e * k
    raise InvalidPrimePower(f"{q} is not a prime power")


def _sl_product(n: int, q: int) -> int:
    """(q^n - 1)(q^n - q)...(q^n - q^(n-1)) / (q - 1), for n and q already checked."""
    qn = q**n
    return math.prod(qn - q**exp for exp in range(n)) // (q - 1)


def gl_order(n: int, q: int) -> int:
    """|GL(n, F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1))."""
    return sl_order(n, q) * (q - 1)


def sl_order(n: int, q: int) -> int:
    """|SL(n, F_q)| = |GL(n, F_q)| / (q - 1)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    _prime_power_base(q)
    return _sl_product(n, q)


def order_mod_pk(n: int, p: int, k: int, det_one: bool) -> int:
    """Order of SL or GL over Z/p^k.

    Each refinement step mod p^k -> mod p^(k-1) has kernel a vector
    group of dimension n^2 (GL) or n^2 - 1 (SL), giving
    p^(n^2 (k-1)) |GL(n, F_p)| and p^((n^2-1)(k-1)) |SL(n, F_p)|.
    """
    if not is_prime(p):
        raise InvalidPrimePower(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if det_one:
        return p ** ((n * n - 1) * (k - 1)) * sl_order(n, p)
    return p ** (n * n * (k - 1)) * gl_order(n, p)


def sl_prime_tower(n: int, levels: int) -> IndexTower:
    """Tower of mod-p kernels of SL(n, Z) over the first `levels` primes.

    Reduction mod p is onto SL(n, F_p), so d[j] = |SL(n, F_p_j)|, and
    distinct primes make the system prime: l is the running product.
    d is read off the order formula: sieved primes need no primality check.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if levels < 1:
        raise ValueError("levels must be positive")
    d = tuple(_sl_product(n, p) for p in first_primes(levels))
    return prime_system_tower(f"SL({n},Z)-mod-p({levels})", d)


def gap_ratio_limit_check(n: int, levels: int, slack: RationalLike) -> bool:
    """Check the asymptotic bound on consecutive SL index ratios.

    Over the second half of the first `levels` primes, from p_(levels//2)
    on, every ratio |SL(n, F_q)| / |SL(n, F_p)| for consecutive p < q
    must stay at or below 2^(n^2 - 1) * (1 + slack): the maximum that
    sl_ratio_scan finds there decides.  The early primes are excluded on
    purpose: the bound is a limit statement and the first few ratios
    overshoot it.
    """
    if levels < 10:
        raise ValueError("need at least 10 primes for a meaningful ratio scan")
    bound = (Fraction(2) ** (n * n - 1)) * (1 + as_fraction(slack))
    ps = first_primes(levels)
    return sl_ratio_scan(n, ps[levels // 2 - 1], ps[-1])[0] <= bound


def sl_ratio_scan(n: int, lo: int, hi: int) -> tuple[Fraction, tuple[int, int]]:
    """Max |SL(n,F_q)|/|SL(n,F_p)| over consecutive primes in [lo, hi].

    Pairs are compared to the running best num/den by integer
    cross-products, and the first maximal pair is the witness; a window
    with fewer than two primes gives (0, (0, 0)).  With e = n^2 - 1,
    |SL(n,F_q)| < q^e and |SL(n,F_p)| >= p^e (1 - p^-2)^(n-1), so a pair
    can win only if q^e * den * p^(2(n-1)) > num * p^e * (p^2 - 1)^(n-1).
    The least such q is an integer root plus one, and only gaps reaching
    it are visited (primes._wide_gaps, which refuses hi >= psi_13).
    """
    num, den = 0, 1
    witness = (0, 0)
    e = n * n - 1

    def min_gap(p: int) -> int:
        if not num:
            return 1
        if e == 0:  # every |SL(1, F_q)| is 1: nothing beats the first pair
            return hi
        # the least q with q^e * b > a is iroot(a // b, e) + 1
        m = num * p**e * (p * p - 1) ** (n - 1) // (den * p ** (2 * (n - 1)))
        return max((_iroot(m, e) if m else 0) + 1 - p, 1)

    for p, q in _wide_gaps(lo, hi, min_gap):
        order_p, order_q = sl_order(n, p), sl_order(n, q)
        if order_q * den > num * order_p:
            num, den, witness = order_q, order_p, (p, q)
    return Fraction(num, den), witness


def divisibility_matrix(gamma: IntMatrix, pmax: int) -> tuple[int, int]:
    """Cheapest mod-p kernel of SL(n, Z) missing gamma.

    Returns (p, |SL(n, F_p)|) for the smallest prime p <= pmax with
    gamma not congruent to the identity mod p; since the orders grow
    with p, that kernel also has the least index.  gamma is the identity
    mod p iff p divides every entry of gamma - I, so p is the least prime
    not dividing their gcd, and the walk over the primes stops once it
    passes pmax.
    """
    if gamma.determinant() != 1:
        raise ValueError("matrix must have determinant 1")
    if gamma.is_identity():
        raise IdentityInput("the divisibility function is infinite at the identity")
    n = gamma.n
    p = _prime_walk(
        math.gcd(*(gamma.entries[i][j] - (i == j) for i in range(n) for j in range(n))), pmax
    )
    if p > pmax:
        raise BoundExceeded(f"gamma reduces to the identity mod every prime <= {pmax}")
    return p, sl_order(n, p)


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)*."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if math.gcd(a, modulus) != 1:
        raise CoprimalityViolation(f"{a} is not a unit mod {modulus}")
    group = _euler_phi(modulus)
    order = group
    for q in _prime_factors(group):
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _euler_phi(n: int) -> int:
    phi = n
    for q in _prime_factors(n):
        phi -= phi // q
    return phi


class EllTable(Record):
    """Exponent table of image orders over prime-power reductions.

    orders[j] is the image order at depth 1 (mod p_j); rows[j][k-1] is
    the number of extra factors of p_j gained at depth k, so the image
    order mod p_j^k is orders[j] * p_j**rows[j][k-1].  For dimension 1
    (cyclic groups of units) the depth-1 order divides p - 1 and is
    automatically prime to p.
    """

    __slots__ = _fields = ("n", "primes", "rows", "orders")

    def __init__(
        self, n: int, primes: Iterable[int], rows: Iterable[Iterable[int]], orders: Iterable[int]
    ) -> None:
        primes = tuple(int(p) for p in primes)
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        orders = tuple(int(o) for o in orders)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if not (len(primes) == len(rows) == len(orders)):
            raise ValueError("primes, rows, and orders must have equal length")
        if not primes:
            raise ValueError("table needs at least one prime")
        depth = len(rows[0])
        if depth < 1 or any(len(row) != depth for row in rows):
            raise ValueError("all rows must share one positive depth")
        step = n * n
        for j, p in enumerate(primes):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if j and p <= primes[j - 1]:
                raise ValueError("primes must be strictly increasing")
            # p**step has low + 1 to low + step bits: built only when orders[j] is that long
            bits, low = orders[j].bit_length(), (p.bit_length() - 1) * step
            if orders[j] < 1 or (bits > low and (bits > low + step or orders[j] >= p**step)):
                raise ValueError(f"order {orders[j]} at prime {p} outside [1, {p}^{step})")
            row = rows[j]
            if row[0] < 0:
                raise ValueError("exponents must be non-negative")
            for k in range(1, depth):
                if row[k] < row[k - 1]:
                    raise ValueError(f"exponents must be non-decreasing (prime {p}, depth {k + 1})")
                if row[k] > row[k - 1] + step:
                    raise ValueError(
                        f"exponent step exceeds n^2 = {step} (prime {p}, depth {k + 1})"
                    )
        self._fill(n, primes, rows, orders)

    @property
    def depth(self) -> int:
        return len(self.rows[0])

    def __len__(self) -> int:
        return len(self.primes)

    def ell(self, j: int, k: int) -> int:
        """Exponent at prime j (1-indexed) and depth k (1-indexed)."""
        return self.rows[j - 1][k - 1]

    def index_at(self, j: int, k: int) -> int:
        """Image order mod p_j^k: orders[j] * p_j**ell(j, k)."""
        return self.orders[j - 1] * self.primes[j - 1] ** self.ell(j, k)


def mult_order_ell_table(a: int, primes: tuple[int, ...] | list[int], depth: int) -> EllTable:
    """Exponent table of the cyclic group <a> inside the unit groups.

    rows[j][k-1] is the p_j-adic valuation of the multiplicative order
    of a mod p_j^k; orders[j] is the order o of a mod p_j.  The kernel
    of (Z/p^k)* -> (Z/p)* is a p-group (p = 2 included) and o is prime
    to p, so the order mod p^k is o * p^e with e the number of p-th
    powerings x -> x^p that take x = a^o to 1 mod p^k.  One order per
    prime and one pass of powerings mod p^depth give the whole row.
    """
    if abs(a) < 2:
        raise ValueError(f"need |a| >= 2, got {a}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    ps = tuple(sorted(int(p) for p in primes))
    for p in ps:
        if math.gcd(a, p) != 1:
            raise CoprimalityViolation(f"base {a} shares a factor with prime {p}")
    rows = []
    orders = []
    for p in ps:
        o = multiplicative_order(a, p)
        top = p**depth
        x = pow(a, o, top)
        e = 0
        row = []
        for k in range(1, depth + 1):
            while (x - 1) % p**k:
                x = pow(x, p, top)
                e += 1
            row.append(e)
        rows.append(tuple(row))
        orders.append(o)
    return EllTable(n=1, primes=ps, rows=tuple(rows), orders=tuple(orders))


def sl_exact_ell_table(n: int, count: int, depth: int) -> EllTable:
    """Exponent table of SL(n, Z) under full mod-p^k surjectivity.

    Reduction is onto SL(n, Z/p^k), so the exponent grows by exactly
    n^2 - 1 per depth: ell(j, k) = (n^2 - 1)(k - 1), with depth-1 order
    |SL(n, F_p_j)|.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    ps = first_primes(count)
    step = n * n - 1
    row = tuple(step * (k - 1) for k in range(1, depth + 1))
    return EllTable(
        n=n,
        primes=ps,
        rows=tuple(row for _ in ps),
        orders=tuple(sl_order(n, p) for p in ps),
    )


def wieferich_test(p: int, a: int = 2) -> bool:
    """True iff a**(p-1) is 1 mod p^2, for a base a prime to p.

    Such primes are exactly where the exponent table of <a> stalls at
    depth 2 (the order mod p^2 equals the order mod p).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if a % p == 0:
        raise CoprimalityViolation(f"base {a} shares a factor with prime {p}")
    return pow(a, p - 1, p * p) == 1


class PowerSelectionParams(Record):
    """Constants steering the depth selection.

    The bounds (N past (n^2)!, C past 4, 0 < epsilon < delta < 1/2) are
    the sufficient conditions under which the selected depths provably
    give strictly increasing indices inside the power-gap window.
    """

    __slots__ = _fields = ("n", "N", "C", "delta", "epsilon")

    def __init__(self, n: int, N: int, C: int, delta: RationalLike, epsilon: RationalLike) -> None:
        delta = as_fraction(delta)
        epsilon = as_fraction(epsilon)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if N <= math.factorial(n * n):
            raise ValueError(f"N must exceed (n^2)! = {math.factorial(n * n)}")
        if C <= 4:
            raise ValueError("C must exceed 4")
        if not Fraction(0) < delta < Fraction(1, 2):
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
        if not Fraction(0) < epsilon < delta:
            raise ValueError(f"epsilon must lie in (0, delta), got {epsilon}")
        self._fill(n, N, C, delta, epsilon)


def select_powers(table: EllTable, params: PowerSelectionParams, count: int) -> tuple[int, ...]:
    """Pick one depth per prime so exponents climb in controlled windows.

    Start with the least depth whose exponent clears N + C n^2; then,
    for each next prime, find the largest depth i whose exponent still
    fits under the previous exponent plus C n^2 and take i + 1.  The
    per-depth step bound of n^2 wedges the chosen exponent into
    (prev + C n^2, prev + (C+1) n^2].  Raises TableExhausted when the
    table is too shallow to continue.
    """
    if params.n != table.n:
        raise ValueError(f"parameter dimension {params.n} != table dimension {table.n}")
    if not 1 <= count <= len(table):
        raise ValueError(f"count {count} out of range 1..{len(table)}")
    # Rows are non-decreasing (EllTable checks it), so depths bisect.
    n2 = params.n * params.n
    target = params.N + params.C * n2
    k1 = bisect_right(table.rows[0], target) + 1
    if k1 > table.depth:
        raise TableExhausted(
            f"depth {table.depth} never clears the opening target {target} at prime {table.primes[0]}"
        )
    ks = [k1]
    for j in range(2, count + 1):
        bound = table.ell(j - 1, ks[-1]) + params.C * n2
        largest = bisect_right(table.rows[j - 1], bound)
        if largest == 0:
            raise TableExhausted(
                f"prime {table.primes[j - 1]} starts above the window bound {bound}"
            )
        if largest == table.depth:
            raise TableExhausted(
                f"depth {table.depth} too shallow past the window bound {bound} "
                f"at prime {table.primes[j - 1]}"
            )
        ks.append(largest + 1)
    return tuple(ks)


def verify_power_windows(table: EllTable, ks: tuple[int, ...], params: PowerSelectionParams) -> bool:
    """Independent re-check of the two selection window conditions.

    Confirms ell(j, k_j) > N + C j n^2 for every j, and
    ell(j, k_j) + C n^2 < ell(j+1, k_(j+1)) <= ell(j, k_j) + (C+1) n^2
    for every consecutive pair.
    """
    n2 = params.n * params.n
    for j in range(1, len(ks) + 1):
        if table.ell(j, ks[j - 1]) <= params.N + params.C * j * n2:
            return False
    for j in range(1, len(ks)):
        here = table.ell(j, ks[j - 1])
        there = table.ell(j + 1, ks[j])
        if not (here + params.C * n2 < there <= here + (params.C + 1) * n2):
            return False
    return True


def _power_exceeds(p: int, a: int, b: int) -> bool:
    """p**a > 2**b for a prime p and 0 < a < b, without building either power.

    2**(bl-1) <= p < 2**bl for bl = p.bit_length(), so a*(bl-1) >= b means
    yes (a < b rules out p = 2 there) and a*bl <= b means no.  Between,
    a*ln(p) and b*ln(2) are compared in Decimal at a precision raised until
    their gap exceeds the rounding error; log2(p) is irrational for odd p,
    so the gap is never 0 and the loop ends.
    """
    bl = p.bit_length()
    if a * (bl - 1) >= b:
        return True
    if a * bl <= b:
        return False
    prec = 30
    while True:
        ctx = Context(prec=prec)
        left, right = ctx.multiply(a, ctx.ln(p)), ctx.multiply(b, ctx.ln(2))
        gap = ctx.subtract(left, right)
        # five roundings, each within 10**(1 - prec)/2 relative, stay far below this bound
        if abs(gap) > ctx.scaleb(ctx.add(left, right), 2 - prec):
            return gap > 0
        prec *= 2


def power_gap_start_index(params: PowerSelectionParams, primes: tuple[int, ...]) -> int:
    """First level from which the power-gap condition is guaranteed.

    Smallest j with (delta - eps)(N + C j n^2) - (1 + eps)(C + 2) n^2 > 1
    and p_j**eps > 2, the consecutive-prime gap constant of the
    classical bound.  Raises TableExhausted when no supplied prime
    clears the gap constant.
    """
    n2 = params.n * params.n
    margin = (1 + params.epsilon) * (params.C + 2) * n2
    # the first inequality is N + C j n^2 > (1 + margin)/(delta - eps)
    j = max(1, ((1 + margin) / (params.delta - params.epsilon) - params.N) // (params.C * n2) + 1)
    a, b = params.epsilon.numerator, params.epsilon.denominator
    jp = next((idx for idx, p in enumerate(primes, start=1) if _power_exceeds(p, a, b)), None)
    if jp is None:
        raise TableExhausted("prime sequence too short to clear the gap constant")
    return max(j, jp)


def power_tower(table: EllTable, ks: tuple[int, ...]) -> IndexTower:
    """Tower with d[j] = orders[j] * p_j**ell(j, k_j) for selected depths.

    The supports are distinct primes, so l is taken as the running
    product of d.  With that l the index data is a prime system by
    construction, and is_prime_system says so; whether the groups'
    intersections really have those indices is a property of the
    depth-1 orders, which this tower does not check.
    """
    d = tuple(table.index_at(j, k) for j, k in enumerate(ks, start=1))
    return prime_system_tower(f"power-selected(sl,n={table.n})", d)
