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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import DegenerateLevel, InconsistentTower, InsufficientData

RationalLike = Union[int, str, float, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce a parameter to an exact Fraction.

    Floats go through their shortest decimal repr, so as_fraction(0.4)
    is 2/5 rather than the 53-bit binary artifact.  Strings accept both
    "2/5" and "0.4".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def _show(n: int) -> str:
    """n in decimal, or its bit length where CPython's int->str limit refuses it."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<int of {n.bit_length()} bits>"


@dataclass(frozen=True)
class IndexTower:
    """Immutable index data of a residual system.

    Construction validates shape only (equal lengths, entries positive,
    d non-decreasing, d >= 2).  The divisibility relations that a real
    subgroup lattice would force are checked lazily by decompose() and
    levels(), which raise InconsistentTower on data that cannot arise
    from one; this allows deliberately broken towers to be built and
    diagnosed.
    """

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

    def __len__(self) -> int:
        return len(self.d)

    def d_at(self, j: int) -> int:
        """d[j], 1-indexed."""
        return self.d[j - 1]

    def l_at(self, j: int) -> int:
        """l[j], 1-indexed, with l[0] = 1."""
        return 1 if j == 0 else self.l[j - 1]


@dataclass(frozen=True)
class LevelDecomposition:
    """Coefficients of the lattice diamond at one level.

    r = [G : G_j], s = [L_{j-1} : L_j], t = [G_j : L_{j-1}], where G_j
    is the join of the j-th subgroup with the previous intersection.
    They satisfy r*s = d[j] and r*s*t = l[j].
    """

    r: int
    s: int
    t: int


class GrowthClass(Enum):
    SUB_QUADRATIC = "SubQuadratic"
    SUPER_QUADRATIC = "SuperQuadratic"
    INDETERMINATE = "Indeterminate"


def _check_level(tower: IndexTower, j: int) -> None:
    if not 1 <= j <= len(tower):
        raise ValueError(f"level {j} out of range 1..{len(tower)}")


def _check_prefix(tower: IndexTower, j: int) -> None:
    if not 0 <= j <= len(tower):
        raise ValueError(f"prefix length {j} out of range 0..{len(tower)}")


def _coefficients(name: str, j: int, dj: int, lprev: int, lj: int) -> LevelDecomposition:
    """(r, s, t) at level j from d[j], l[j-1] and l[j].

    Every division has a small quotient or a small divisor: once
    l[j] = s*l[j-1] is known, d[j]*l[j-1]/l[j] = d[j]/s, so the third
    integrality condition is s | d[j] and the product d[j]*l[j-1] is
    only formed for the error message.
    """
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
    return LevelDecomposition(r=r, s=s, t=t)


def decompose(tower: IndexTower, j: int) -> LevelDecomposition:
    """Exact (r, s, t) at level j.

    s = l[j]/l[j-1], t = l[j]/d[j], r = d[j]*l[j-1]/l[j].  Raises
    InconsistentTower when any of the three quotients is non-integral,
    which is the signal that (d, l) cannot come from a subgroup lattice.
    """
    _check_level(tower, j)
    return _coefficients(tower.name, j, tower.d_at(j), tower.l_at(j - 1), tower.l_at(j))


def levels(tower: IndexTower, count: int | None = None) -> list[LevelDecomposition]:
    """(r, s, t) at levels 1..count (all levels by default), in one pass.

    Equal to [decompose(tower, j) for j in 1..count], and raises the same
    InconsistentTower at the first inconsistent level.
    """
    count = len(tower) if count is None else count
    _check_prefix(tower, count)
    out = []
    lprev = 1
    for j, (dj, lj) in enumerate(zip(tower.d[:count], tower.l[:count]), start=1):
        out.append(_coefficients(tower.name, j, dj, lprev, lj))
        lprev = lj
    return out


def measure_term(tower: IndexTower, j: int) -> Fraction:
    """Haar measure of the level-j coset shell, (s-1)/(r*s*t).

    Equals 1/l[j-1] - 1/l[j] exactly; the telescoping form is kept as an
    independent test oracle rather than used here.
    """
    dec = decompose(tower, j)
    return Fraction(dec.s - 1, dec.r * dec.s * dec.t)


def ave_terms(tower: IndexTower, terms: int | None = None) -> list[Fraction]:
    """The series terms (s_j - 1)/t_j of the residual average."""
    return [Fraction(dec.s - 1, dec.t) for dec in levels(tower, terms)]


def ave_partial(tower: IndexTower, terms: int) -> Fraction:
    """Partial residual average: sum of d[j] * measure_term over j <= terms.

    Each term (s_j - 1)/t_j is (s_j - 1) r_j s_j over l[j], so the sum is
    folded Horner-wise over the single denominator l[terms] and
    normalized once.
    """
    num = 0
    for dec in levels(tower, terms):
        num = num * dec.s + (dec.s - 1) * dec.r * dec.s
    return Fraction(num, tower.l_at(terms))


def ave_partial_product_form(tower: IndexTower, terms: int) -> Fraction:
    """Partial residual average via the product-form series.

    Sums r_j (s_j - 1) / (s_1 ... s_{j-1}), folded Horner-wise over the
    denominator s_1 ... s_{terms-1}.  Kept as a separate code path from
    ave_partial so the two published series can be compared on any
    tower; with coefficients derived from (d, l) they agree term by
    term, which the test suite checks rather than assumes.
    """
    num, den, s_prev = 0, 1, 1
    for dec in levels(tower, terms):
        num = num * s_prev + dec.r * (dec.s - 1)
        den *= s_prev
        s_prev = dec.s
    return Fraction(num, den)


def measure_telescope(tower: IndexTower, terms: int) -> Fraction:
    """Sum of the first `terms` measure terms (telescopes to 1 - 1/l[J]).

    Each measure term is (s_j - 1)/l[j]; folded over the denominator
    l[terms] like ave_partial.
    """
    num = 0
    for dec in levels(tower, terms):
        num = num * dec.s + dec.s - 1
    return Fraction(num, tower.l_at(terms))


def _ratio(low: LevelDecomposition, high: LevelDecomposition) -> tuple[int, int]:
    """Numerator and denominator of the growth ratio between two levels."""
    return high.r * (high.s - 1), low.r * low.s * (low.s - 1)


def _defined_ratios(decs: list[LevelDecomposition]) -> list[int]:
    """Levels j < J with s_j >= 2, where alpha_j is defined."""
    return [j for j in range(1, len(decs)) if decs[j - 1].s != 1]


def alpha(tower: IndexTower, j: int) -> Fraction:
    """Consecutive-term ratio r_{j+1}(s_{j+1}-1) / (r_j s_j (s_j-1)).

    Defined for j+1 <= levels and s_j >= 2; a level with s_j = 1
    contributes no measure and the ratio degenerates there.
    """
    if not 1 <= j <= len(tower) - 1:
        raise ValueError(f"alpha needs levels j and j+1; got j = {j} of {len(tower)}")
    low = decompose(tower, j)
    high = decompose(tower, j + 1)
    if low.s == 1:
        raise DegenerateLevel(f"{tower.name}: s_{j} = 1, ratio undefined at level {j}")
    return Fraction(*_ratio(low, high))


def degenerate_levels(tower: IndexTower) -> list[int]:
    """Levels with s_j = 1 (they add nothing and have no growth ratio)."""
    return [j for j, dec in enumerate(levels(tower), start=1) if dec.s == 1]


def alphas(tower: IndexTower) -> list[tuple[int, Fraction]]:
    """All defined (j, alpha_j) pairs, skipping degenerate levels."""
    decs = levels(tower)
    return [(j, Fraction(*_ratio(decs[j - 1], decs[j]))) for j in _defined_ratios(decs)]


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
    decs = levels(tower)
    defined = _defined_ratios(decs)
    if len(defined) < window:
        raise InsufficientData(
            f"{tower.name}: {len(defined)} defined ratio(s), window of {window} requested"
        )
    signs = set()
    for j in defined[-window:]:
        num, den = _ratio(decs[j - 1], decs[j])
        signs.add((num > den) - (num < den))
    if signs == {-1}:
        return GrowthClass.SUB_QUADRATIC
    if signs == {1}:
        return GrowthClass.SUPER_QUADRATIC
    return GrowthClass.INDETERMINATE


def is_prime_system(tower: IndexTower) -> bool:
    """True iff l[j] is the full product d[1]...d[j] at every level."""
    product = 1
    for j in range(1, len(tower) + 1):
        product *= tower.d_at(j)
        if tower.l_at(j) != product:
            return False
    return True


def is_nested(tower: IndexTower) -> bool:
    """True iff l[j] = d[j] at every level (each subgroup inside the last)."""
    return all(tower.l_at(j) == tower.d_at(j) for j in range(1, len(tower) + 1))


def _power_pair(delta: Fraction) -> Callable[[int, int], bool]:
    """The power gap condition a < b < a**(1 + p/q), as b**q < a**(p+q)."""
    p, q = delta.numerator, delta.denominator
    return lambda a, b: a < b and b**q < a ** (p + q)


def _all_pairs(tower: IndexTower, pair: Callable[[int, int], bool], start: int) -> bool:
    """pair(d[j], d[j+1]) for every j from `start` on."""
    if len(tower) < 2:
        raise ValueError("gap checks need at least two levels")
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
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError(f"power gap exponent must be positive, got {delta}")
    return _all_pairs(tower, _power_pair(delta), start)


def first_power_gap_index(tower: IndexTower, delta: RationalLike) -> int:
    """Smallest j* such that the power gap condition holds for all j >= j*.

    Returns len(tower) when even the last pair fails (the condition is
    then vacuous).
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
    takes ints of any size) give terms that underflow to 0.  `terms` is
    capped at the number of distinct indices.
    """
    exponent = float(s) if isinstance(s, float) else float(as_fraction(s))
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {s}")
    if terms < 0:
        raise ValueError("terms must be non-negative")
    pool = sorted({int(i) for i in indices})
    if pool and pool[0] < 1:
        raise ValueError("indices must be positive")
    return math.fsum(math.exp(-exponent * math.log(i)) for i in pool[:terms])


def running_product(values: Sequence[int]) -> tuple[int, ...]:
    """Partial products, used to build prime-system towers."""
    out = []
    acc = 1
    for v in values:
        acc *= v
        out.append(acc)
    return tuple(out)
