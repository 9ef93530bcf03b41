"""Tree automorphisms for the first Grigorchuk group and its level towers.

The four generators act on the rooted binary tree by the standard
self-similar recursion: a swaps the two subtrees, and

    b = (a, c),   c = (a, d),   d = (1, b)

act trivially at the root while recursing into the halves.  Leaves at
depth n are indexed 0..2^n-1 with the first branching as the most
significant bit, so a at depth n is XOR with 2^(n-1).

Level-quotient orders come from a deterministic Schreier-Sims
stabilizer chain of the generated permutation group, so no group element
is enumerated; nothing is imported from the literature.  Depth 6 (order
2^42 on 64 points) takes well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InsufficientLevels, LevelTooDeep
from .linear import order_mod_pk
from .tower import IndexTower

GENERATORS = "abcd"
_SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": (None, "b")}

MAX_LEVEL = 6


@dataclass(frozen=True)
class TreeAutomorphism:
    """A word in the generators a, b, c, d."""

    word: str

    def __post_init__(self) -> None:
        bad = set(self.word) - set(GENERATORS)
        if bad:
            raise ValueError(f"unknown generators {sorted(bad)}; expected letters from 'abcd'")

    def action(self, level: int) -> tuple[int, ...]:
        return level_action(self, level)


@lru_cache(maxsize=None)
def _generator_perm(gen: str, level: int) -> tuple[int, ...]:
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
class LevelQuotient:
    """Order of the image of the group on one tree level."""

    level: int
    order: int


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


@lru_cache(maxsize=None)
def _level_order(level: int) -> int:
    return _chain_order([_generator_perm(g, level) for g in GENERATORS])


def level_quotient_order(level: int) -> LevelQuotient:
    """Order of the level quotient, from a stabilizer chain.

    Every level up to MAX_LEVEL takes well under a second; level 6 is
    2^42 on 64 points.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if level > MAX_LEVEL:
        raise LevelTooDeep(f"level {level} beyond the level bound {MAX_LEVEL}")
    return LevelQuotient(level=level, order=_level_order(level))


def grig_tower(levels: int) -> IndexTower:
    """Nested tower of level-kernel indices (d = l by construction)."""
    if levels < 1:
        raise ValueError("levels must be positive")
    orders = tuple(level_quotient_order(j).order for j in range(1, levels + 1))
    return IndexTower(name=f"grigorchuk({levels})", d=orders, l=orders)


def d1_series_terms(orders: list[int] | tuple[int, ...], terms: int) -> list[Fraction]:
    """Exact terms of the lower-bound series built from level orders.

    Element 0 is (o3 - 1)/o3; element j >= 1 is
    (o_j / o_(j+2)) * (o_(j+3)/o_(j+2) - 1) / (o_(j+3)/o_(j+2)),
    which needs orders through level terms + 3.  The values are reported
    as-is; whether they tend to zero is for the caller to inspect, and
    with doubly exponential level orders they visibly shrink.
    """
    if terms < 0:
        raise ValueError("terms must be non-negative")
    needed = terms + 3
    if len(orders) < 3:
        raise InsufficientLevels("need level orders through level 3 for the leading term")
    if len(orders) < needed:
        raise InsufficientLevels(
            f"need level orders through level {needed}, have {len(orders)}"
        )
    o = [None] + [int(x) for x in orders]  # 1-indexed
    out = [Fraction(o[3] - 1, o[3])]
    for j in range(1, terms + 1):
        step = Fraction(o[j + 3], o[j + 2])
        out.append(Fraction(o[j], o[j + 2]) * (step - 1) / step)
    return out


def slnzp_tower(n: int, p: int, levels: int) -> IndexTower:
    """Nested congruence tower of the p-adic special linear group.

    The finite-index normal subgroups are the mod-p^j kernels, so
    d[j] = l[j] = |SL(n, Z/p^j)|.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if levels < 1:
        raise ValueError("levels must be positive")
    orders = tuple(order_mod_pk(n, p, j, det_one=True) for j in range(1, levels + 1))
    return IndexTower(name=f"SL({n},Z_{p})({levels})", d=orders, l=orders)
