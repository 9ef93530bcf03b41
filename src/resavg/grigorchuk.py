"""Level quotients of the first Grigorchuk group and its level towers.

The group acts on the rooted binary tree, and the order of its image on
level n, the index |G : St_G(n)| of the level stabilizer, is 2, 8 and
then 2^(5*2^(n-3)+2) for n >= 3 (de la Harpe, Topics in Geometric Group
Theory, ch. VIII).  level_quotient_order reads that closed form; the
tests check it against a stabilizer chain, a breadth-first closure and
sympy on the generator permutations.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InsufficientLevels, LevelTooDeep
from .linear import order_mod_pk
from .tower import IndexTower, Record, nested_tower

# the independent oracles confirm the formula through level 6; lifting the
# bound needs an output budget
MAX_LEVEL = 6


class LevelQuotient(Record):
    """Order of the image of the group on one tree level."""

    __slots__ = _fields = ("level", "order")

    def __init__(self, level: int, order: int) -> None:
        self._fill(level, order)


def level_quotient_order(level: int) -> LevelQuotient:
    """|G : St_G(level)|, from the closed form in the module docstring."""
    if level < 1:
        raise ValueError("level must be at least 1")
    if level > MAX_LEVEL:
        raise LevelTooDeep(f"level {level} beyond the level bound {MAX_LEVEL}")
    order = (2, 8)[level - 1] if level < 3 else 2 ** (5 * 2 ** (level - 3) + 2)
    return LevelQuotient(level=level, order=order)


def grig_tower(levels: int) -> IndexTower:
    """Nested tower of level-kernel indices: d = l = the level orders."""
    if levels < 1:
        raise ValueError("levels must be positive")
    orders = [level_quotient_order(j).order for j in range(1, levels + 1)]
    return nested_tower(f"grigorchuk({levels})", [o // q for o, q in zip(orders, [1] + orders)])


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
    d[j] = l[j] = |SL(n, Z/p^j)|, each p^(n^2 - 1) times the one before.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if levels < 1:
        raise ValueError("levels must be positive")
    first = order_mod_pk(n, p, 1, det_one=True)
    return nested_tower(f"SL({n},Z_{p})({levels})", (first,) + (p ** (n * n - 1),) * (levels - 1))
