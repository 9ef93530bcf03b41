"""Index towers: exact lattice data for residual systems.

A residual system on a group is summarized by two integer sequences,

    d[j] = index of the j-th subgroup,
    l[j] = index of the intersection of the first j subgroups,

with the convention l[0] = 1 (the empty intersection is the whole
group).  Everything this module computes -- level coefficients (r, s, t),
measure terms, partial averages, growth ratios, gap conditions -- is
derived from those two sequences in exact rational arithmetic.  That
keeps the core group-agnostic: the integer, matrix-group and tree-group
constructions elsewhere in the package all reduce to index sequences.

Levels are 1-indexed in every public signature.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from itertools import accumulate, groupby, islice
from typing import Callable, Iterable, Sequence, Union

from .errors import InconsistentTower, InsufficientData

RationalLike = Union[int, str, float, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce a parameter to an exact Fraction.

    Floats go through their shortest decimal repr, so as_fraction(0.4)
    is 2/5 rather than the 53-bit binary artifact.  Strings accept both
    "2/5" and "0.4"; a zero denominator ("1/0") is a ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc


def _show(n: int) -> str:
    """n in decimal, or its bit length where CPython's int->str limit refuses it."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<int of {n.bit_length()} bits>"


class Record:
    """Immutable record with the ==, hash and repr of a frozen dataclass.

    A subclass lists its fields in `_fields` and `__slots__` and sets them
    in its own __init__ by _fill; copies and pickles rebuild through it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._key(self)

    def _fill(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


class IndexTower(Record):
    """Immutable index data of a residual system.

    Construction validates shape only (equal lengths, entries positive,
    d non-decreasing, d >= 2).  The divisibility relations that a real
    subgroup lattice would force are checked lazily by decompose() and
    levels(), which raise InconsistentTower on data that cannot arise
    from one; this allows deliberately broken towers to be built and
    diagnosed.  The coefficient pass runs once, on first use (the library's
    builders set it at construction), and is kept in a slot outside the
    fields, so ==, hash, repr and copies ignore it.
    """

    __slots__ = ("name", "d", "l", "_pass")
    _fields = ("name", "d", "l")

    def __init__(self, name: str, d: Iterable[int], l: Iterable[int]) -> None:
        d = tuple(map(int, d))
        l = tuple(map(int, l))
        if len(d) != len(l):
            raise ValueError(f"d and l must have equal length, got {len(d)} and {len(l)}")
        if not d:
            raise ValueError("a tower needs at least one level")
        for j, dj in enumerate(d, start=1):
            if dj < 2:
                raise ValueError(f"d[{j}] = {_show(dj)}: subgroup indices must be at least 2")
        for j, lj in enumerate(l, start=1):
            if lj < 1:
                raise ValueError(f"l[{j}] = {_show(lj)}: intersection indices must be positive")
        for j in range(1, len(d)):
            if d[j] < d[j - 1]:
                raise ValueError(
                    f"d must be non-decreasing: "
                    f"d[{j}] = {_show(d[j - 1])} > d[{j + 1}] = {_show(d[j])}"
                )
        self._fill(name, d, l)

    def __len__(self) -> int:
        return len(self.d)

    def d_at(self, j: int) -> int:
        """d[j], 1-indexed."""
        return self.d[j - 1]

    def l_at(self, j: int) -> int:
        """l[j], 1-indexed, with l[0] = 1."""
        return 1 if j == 0 else self.l[j - 1]


class LevelDecomposition(Record):
    """Coefficients of the lattice diamond at one level.

    r = [G : G_j], s = [L_{j-1} : L_j], t = [G_j : L_{j-1}], where G_j
    is the join of the j-th subgroup with the previous intersection.
    They satisfy r*s = d[j] and r*s*t = l[j].
    """

    __slots__ = _fields = ("r", "s", "t")

    def __init__(self, r: int, s: int, t: int) -> None:  # one per level returned: slot setters
        _SET_R(self, r)
        _SET_S(self, s)
        _SET_T(self, t)


_SET_R, _SET_S, _SET_T = (getattr(LevelDecomposition, k).__set__ for k in ("r", "s", "t"))


class GrowthClass(Enum):
    SUB_QUADRATIC = "SubQuadratic"
    SUPER_QUADRATIC = "SuperQuadratic"
    INDETERMINATE = "Indeterminate"


def _exact_quotient(a: int, b: int) -> int | None:
    """a/b if b divides a, else None (a >= 0, b >= 1).

    The quotient is read off the leading bits and confirmed by one
    multiply-back, q*b == a, which is the divisibility check itself.
    With k = 2*len(b) - len(a) - 64 > 0 (len is bit_length), B = b >> k
    and b = B*2^k + beta, 0 <= beta < 2^k: if a = q*b, then
    a >> k = floor(q*B + q*beta/2^k) lies in [q*B, q*B + q), so
    (a >> k) // B = q as soon as q <= B.  q < 2^(len(a) - len(b) + 1),
    while B >= 2^(len(b) - k - 1) = 2^(len(a) - len(b) + 63): the
    shifted divisor keeps 63 bits more than the quotient needs.  When
    b does not divide a, no q passes the multiply-back.  Where k <= 0
    (or B would be 0, i.e. a < b by 64 bits or more) the floor is a // b.
    """
    k = 2 * b.bit_length() - a.bit_length() - 64
    top = b >> k if k > 0 else 0
    q = (a >> k) // top if top else a // b
    return q if q * b == a else None


def _coefficients(name: str, j: int, dj: int, lprev: int, lj: int) -> tuple[int, int, int]:
    """(r, s, t) at level j from d[j], l[j-1] and l[j].

    Every division goes through _exact_quotient, which confirms its
    quotient by one multiply-back; a quotient much shorter than its
    divisor, as s is on a tall tower, costs a small division of the
    leading bits, not a big-by-big divmod.  s = l[j]/l[j-1] comes first.
    A prime-system level (s = d[j]) has r = 1, t = l[j-1]; a nested one
    (l[j] = d[j]) has r = l[j-1], t = 1.  Otherwise r = d[j]/s, and
    since l[j] = s*l[j-1], d[j] | l[j] iff r | l[j-1], with
    t = l[j-1]/r.  Only a failing level is divided again, to name the
    first condition that fails.
    """
    s = _exact_quotient(lj, lprev)
    if s is None:
        raise InconsistentTower(
            f"{name}: l[{j - 1}] = {_show(lprev)} does not divide l[{j}] = {_show(lj)}"
        )
    if s == dj:
        return 1, s, lprev
    if lj == dj:
        return lprev, s, 1
    r = _exact_quotient(dj, s)
    if r is not None:
        t = _exact_quotient(lprev, r)
        if t is not None:
            return r, s, t
    if _exact_quotient(lj, dj) is None:
        why = f"d[{j}] = {_show(dj)} does not divide"
    else:
        why = f"d[{j}]*l[{j - 1}] = {_show(dj * lprev)} is not a multiple of"
    raise InconsistentTower(f"{name}: {why} l[{j}] = {_show(lj)}")


def _pass(tower: IndexTower) -> tuple:
    """The int columns r, s and t of the levels up to the first inconsistent
    one, and its InconsistentTower message (or None), computed on first use
    and kept on the instance, or set at construction by the library's builders.
    The pass is pure, so threads that race here store equal values."""
    try:
        return tower._pass
    except AttributeError:
        pass
    out, error, lprev = [], None, 1
    try:
        for j, (dj, lj) in enumerate(zip(tower.d, tower.l), start=1):
            out.append(_coefficients(tower.name, j, dj, lprev, lj))
            lprev = lj
    except InconsistentTower as exc:
        error = str(exc)
    r, s, t = zip(*out) if out else ((), (), ())
    kept = (r, s, t, error)
    object.__setattr__(tower, "_pass", kept)
    return kept


def coefficients(tower: IndexTower, count: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The r, s and t columns of levels 1..count (all levels by default): the
    column view of levels(tower, count), with its ValueError and InconsistentTower."""
    count = len(tower) if count is None else count
    if not 0 <= count <= len(tower):
        raise ValueError(f"prefix length {count} out of range 0..{len(tower)}")
    r, s, t, error = _pass(tower)
    if count > len(s):
        raise InconsistentTower(error)
    return r[:count], s[:count], t[:count]


def first_inconsistent_level(tower: IndexTower) -> int | None:
    """The first level whose (r, s, t) are not integral, or None if there is
    none.  Read off the kept pass, so it never raises."""
    _, s, _, error = _pass(tower)
    return None if error is None else len(s) + 1


def decompose(tower: IndexTower, j: int) -> LevelDecomposition:
    """Exact (r, s, t) at level j.

    s = l[j]/l[j-1], t = l[j]/d[j], r = d[j]*l[j-1]/l[j].  Raises
    InconsistentTower when any of the three quotients is non-integral,
    which is the signal that (d, l) cannot come from a subgroup lattice.
    A level past the first inconsistent one is decomposed on its own.
    """
    r, s, t, _ = _pass(tower)
    if 0 < j <= len(s):
        return LevelDecomposition(r[j - 1], s[j - 1], t[j - 1])
    if not 1 <= j <= len(tower):
        raise ValueError(f"level {j} out of range 1..{len(tower)}")
    dj, lprev, lj = tower.d_at(j), tower.l_at(j - 1), tower.l_at(j)
    return LevelDecomposition(*_coefficients(tower.name, j, dj, lprev, lj))


def levels(tower: IndexTower, count: int | None = None) -> list[LevelDecomposition]:
    """(r, s, t) at levels 1..count (all levels by default), from the one pass.

    Equal to [decompose(tower, j) for j in 1..count], and raises the same
    InconsistentTower at the first inconsistent level.
    """
    return list(map(LevelDecomposition, *coefficients(tower, count)))


def ave_terms(tower: IndexTower, terms: int | None = None) -> list[Fraction]:
    """The series terms (s_j - 1)/t_j of the residual average."""
    return [Fraction(sj - 1, tj) for _, sj, tj in zip(*coefficients(tower, terms))]


def ave_partial(tower: IndexTower, terms: int) -> Fraction:
    """Partial residual average: sum of d[j] (1/l[j-1] - 1/l[j]) over j <= terms.

    One fold over the pass's columns.  A term (s_j - 1)/t_j with t_j = 1
    (every term of a nested tower) is summed as the int s_j - 1; the others,
    (s_j - 1) r_j s_j over l[j], go Horner-wise into one numerator over
    l[terms], which an integer level only scales by s_j.
    """
    whole, num = 0, 0
    for rj, sj, tj in zip(*coefficients(tower, terms)):
        if tj == 1:
            whole, num = whole + sj - 1, num * sj
        else:
            num = (num + (sj - 1) * rj) * sj
    return whole + Fraction(num, tower.l_at(terms))


def ave_partial_product_form(tower: IndexTower, terms: int) -> Fraction:
    """Partial residual average via the product-form series.

    Sums r_j (s_j - 1) / (s_1 ... s_{j-1}) in one fold over the pass's
    columns: a term with t_j = 1 is summed as the int s_j - 1, the others
    go Horner-wise into one numerator over s_1 ... s_{terms-1} = l[terms-1].
    The numerator fold is a separate code path from ave_partial, so the two
    published series can be compared on any tower; with coefficients
    derived from (d, l) they agree term by term, which the test suite
    checks, not assumes.
    """
    whole, num, s_prev = 0, 0, 1
    for rj, sj, tj in zip(*coefficients(tower, terms)):
        if tj == 1:
            whole, num = whole + sj - 1, num * s_prev
        else:
            num = num * s_prev + rj * (sj - 1)
        s_prev = sj
    return whole + Fraction(num, tower.l_at(max(terms - 1, 0)))


def measure_telescope(tower: IndexTower, terms: int) -> Fraction:
    """Sum of the first `terms` measure terms (s_j - 1)/l[j].

    The sum telescopes to 1 - 1/l[terms], returned in that closed form
    after the consistency check of levels(tower, terms); the term-by-term
    fold is the oracle in the tests.
    """
    coefficients(tower, terms)
    return 1 - Fraction(1, tower.l_at(terms))


def _ratio(r: Sequence[int], s: Sequence[int], j: int) -> tuple[int, int]:
    """Numerator and denominator of alpha_j, the ratio of the terms at levels j + 1 and j."""
    return r[j] * (s[j] - 1), r[j - 1] * s[j - 1] * (s[j - 1] - 1)


def degenerate_levels(tower: IndexTower) -> list[int]:
    """Levels with s_j = 1 (they add nothing and have no growth ratio)."""
    return [j for j, sj in enumerate(coefficients(tower)[1], start=1) if sj == 1]


def alphas(tower: IndexTower) -> list[tuple[int, Fraction]]:
    """All defined (j, alpha_j) pairs, skipping degenerate levels.

    alpha_j = r_{j+1}(s_{j+1}-1) / (r_j s_j (s_j-1)) is the ratio of
    consecutive series terms, defined for j < levels with s_j >= 2.
    """
    r, s, _ = coefficients(tower)
    return [(j, Fraction(*_ratio(r, s, j))) for j in range(1, len(s)) if s[j - 1] != 1]


def classify(tower: IndexTower, window: int = 10) -> GrowthClass:
    """Ratio-test verdict from the trailing `window` defined ratios.

    SubQuadratic if every ratio in the window is < 1, SuperQuadratic if
    every one is > 1, Indeterminate otherwise (including ratios equal to
    1).  A finite window stands in for the eventual behaviour of the
    sequence, so the verdict is a heuristic and is reported as such.
    Only the window's ratios are formed, and each is compared with 1 as
    an integer cross-product.
    """
    if window < 1:
        raise ValueError("window must be positive")
    r, s, _ = coefficients(tower)
    defined = [j for j in range(1, len(s)) if s[j - 1] != 1]  # where alpha_j is defined
    if len(defined) < window:
        raise InsufficientData(
            f"{tower.name}: {len(defined)} defined ratio(s), window of {window} requested"
        )
    signs = set()
    for j in defined[-window:]:
        num, den = _ratio(r, s, j)
        signs.add((num > den) - (num < den))
    if signs == {-1}:
        return GrowthClass.SUB_QUADRATIC
    if signs == {1}:
        return GrowthClass.SUPER_QUADRATIC
    return GrowthClass.INDETERMINATE


def is_prime_system(tower: IndexTower) -> bool:
    """True iff l[j] is the full product d[1]...d[j] at every level, i.e.
    iff the kept pass is consistent with r_j = 1 (s_j = d[j]) throughout.
    An inconsistent tower is never a prime system, so this never raises."""
    r, _, _, error = _pass(tower)
    return error is None and all(rj == 1 for rj in r)


def is_nested(tower: IndexTower) -> bool:
    """True iff l[j] = d[j] at every level (each subgroup inside the last)."""
    return tower.l == tower.d


def _power_pair(delta: Fraction) -> Callable[[int, int], bool]:
    """The power gap condition a < b < a**(1 + p/q), as b**q < a**(p+q)."""
    if delta <= 0:
        raise ValueError(f"power gap exponent must be positive, got {delta}")
    p, q = delta.numerator, delta.denominator
    return lambda a, b: a < b and b**q < a ** (p + q)


def _all_pairs(tower: IndexTower, pair: Callable[[int, int], bool], start: int) -> bool:
    """pair(d[j], d[j+1]) for every j from `start` on."""
    if len(tower) < 2:
        raise ValueError("gap checks need at least two levels")
    if start < 1:
        raise ValueError(f"levels are numbered from 1, got start = {start}")
    return all(pair(tower.d_at(j), tower.d_at(j + 1)) for j in range(start, len(tower)))


def gap_check_linear(tower: IndexTower, c: RationalLike, start: int = 1) -> bool:
    """Check d[j] < d[j+1] <= c * d[j] for every pair from `start` on."""
    c = as_fraction(c)
    if c <= 1:
        raise ValueError(f"linear gap constant must exceed 1, got {c}")
    return _all_pairs(tower, lambda a, b: a < b and b * c.denominator <= a * c.numerator, start)


def gap_check_power(tower: IndexTower, delta: RationalLike, start: int = 1) -> bool:
    """Check d[j] < d[j+1] < d[j]**(1+delta) for every pair from `start` on.

    delta must be rational; the comparison b < a**(1 + p/q) is done as
    b**q < a**(p+q) in exact integer arithmetic.
    """
    return _all_pairs(tower, _power_pair(as_fraction(delta)), start)


def first_power_gap_index(tower: IndexTower, delta: RationalLike) -> int:
    """Smallest j* such that the power gap condition holds for all j >= j*.

    Returns len(tower) when even the last pair fails (the condition is
    then vacuous).  delta must be positive, as in gap_check_power.
    """
    pair = _power_pair(as_fraction(delta))
    start = len(tower)
    while start > 1 and pair(tower.d_at(start - 1), tower.d_at(start)):
        start -= 1
    return start


def zeta_partial(indices: Iterable[int], s: RationalLike, terms: int) -> float:
    """Float partial sum of the index zeta series: sum of i**(-s).

    Sums over the `terms` smallest distinct indices with math.fsum.  Each
    term is exp(-s*log(i)), good to about s*ln(i) units in the last
    place, so for the exponents and index sizes used here the sum is
    good to ~1e-14 relative.  Indices past the float range (math.log
    takes ints of any size) give terms that underflow to 0; an exponent
    past it is a ValueError.  `terms` is capped at the number of
    distinct indices.
    """
    try:
        exponent = float(s) if isinstance(s, float) else float(as_fraction(s))
    except OverflowError:
        raise ValueError(f"exponent {s} is past the float range") from None
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {s}")
    if terms < 0:
        raise ValueError("terms must be non-negative")
    pool = sorted(map(int, indices))
    if pool and pool[0] < 1:
        raise ValueError("indices must be positive")
    distinct = (i for i, _ in groupby(pool))
    return math.fsum(math.exp(-exponent * math.log(i)) for i in islice(distinct, terms))


def running_product(values: Sequence[int]) -> tuple[int, ...]:
    """Partial products, used to build prime-system towers."""
    return tuple(accumulate(values, operator.mul))


def prime_system_tower(name: str, d: Sequence[int]) -> IndexTower:
    """The prime system on indices d, l = running_product(d), with its kept
    pass set at construction: r_j = 1, s_j = d[j], t_j = l[j-1]."""
    t = IndexTower(name, d, running_product(d))
    object.__setattr__(t, "_pass", ((1,) * len(t), t.d, (1,) + t.l[:-1], None))
    return t


def nested_tower(name: str, steps: Sequence[int]) -> IndexTower:
    """The nested tower d = l = running_product(steps), with its kept pass
    set at construction: r_j = l[j-1], s_j = steps[j], t_j = 1."""
    s = tuple(map(int, steps))
    orders = running_product(s)
    t = IndexTower(name, orders, orders)
    object.__setattr__(t, "_pass", ((1,) + t.l[:-1], s, (1,) * len(t), None))
    return t
