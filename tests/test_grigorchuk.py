import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import GENERATORS, TreeAutomorphism, _chain_order, level_action
from resavg.errors import InsufficientLevels, InvalidPrimePower, LevelTooDeep
from resavg.grigorchuk import (
    MAX_LEVEL,
    d1_series_terms,
    grig_tower,
    level_quotient_order,
    slnzp_tower,
)
from resavg.linear import order_mod_pk
from resavg.tower import ave_partial, decompose, is_nested

# orders produced once by the closure enumeration and frozen here
GOLDEN_ORDERS = (2, 8, 128, 4096)
LEVEL5_ORDER = 4194304

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def identity(level):
    return tuple(range(1 << level))


def closure_order(perms):
    """Size of the group generated by `perms`, by storing every element.

    The breadth-first closure the stabilizer chain once replaced, kept as
    an oracle for the chain and the closed form.  Permutations are stored as bytes; composing through
    bytes.translate keeps the inner loop in C.
    """
    size = len(perms[0])
    pad = bytes(range(256))
    tables = [bytes(p) + pad[size:] for p in perms]
    identity = pad[:size]
    seen = {identity}
    queue = [identity]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for table in tables:
            image = current.translate(table)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen)


def closed_form_order(level):
    """|G/St(n)| = 2^(5*2^(n-3)+2) for n >= 3 (de la Harpe, ch. VIII)."""
    return (2, 8)[level - 1] if level < 3 else 2 ** (5 * 2 ** (level - 3) + 2)


def level_generators(level):
    return [level_action(g, level) for g in GENERATORS]


def perm(degree, *cycles):
    """The permutation of range(degree) with the given disjoint cycles."""
    images = list(range(degree))
    for points in map(list, cycles):
        for x, y in zip(points, points[1:] + points[:1]):
            images[x] = y
    return tuple(images)


class TestLevelAction:
    def test_root_swap(self):
        assert level_action("a", 1) == (1, 0)

    def test_d_fixes_level_one(self):
        assert level_action("d", 1) == (0, 1)

    def test_involutions(self):
        for g in GENERATORS:
            for level in range(1, 6):
                assert level_action(g + g, level) == identity(level)

    def test_bcd_is_identity(self):
        for level in range(1, 6):
            assert level_action("bcd", level) == identity(level)

    def test_defining_relations(self):
        for level in range(1, 5):
            assert level_action("ad" * 4, level) == identity(level)
            assert level_action("adacac" * 4, level) == identity(level)

    def test_word_validation(self):
        with pytest.raises(ValueError):
            TreeAutomorphism("abq")

    def test_actions_are_permutations(self):
        for word in ("ab", "cad", "bbadc"):
            for level in (1, 3, 5):
                perm = level_action(word, level)
                assert sorted(perm) == list(range(1 << level))


class TestLevelQuotients:
    def test_golden_orders(self):
        for level, order in enumerate(GOLDEN_ORDERS, start=1):
            assert level_quotient_order(level).order == order

    def test_orders_are_powers_of_two_and_divide_upward(self):
        orders = [level_quotient_order(n).order for n in range(1, 5)]
        for a, b in zip(orders, orders[1:]):
            assert b % a == 0
        for o in orders:
            assert o & (o - 1) == 0

    def test_depth_guard(self):
        with pytest.raises(LevelTooDeep):
            level_quotient_order(MAX_LEVEL + 1)

    def test_level_five_order(self):
        assert level_quotient_order(5).order == LEVEL5_ORDER


class TestChainOracles:
    """The closed-form orders against the stabilizer chain, the closure and sympy."""

    @pytest.mark.parametrize("level", range(1, 5))
    def test_matches_closure(self, level):
        perms = level_generators(level)
        assert (
            level_quotient_order(level).order
            == _chain_order(perms)
            == closure_order(perms)
            == GOLDEN_ORDERS[level - 1]
        )

    @pytest.mark.parametrize("level", range(1, MAX_LEVEL + 1))
    def test_matches_closed_form(self, level):
        # the chain oracle reaches the published formula on its own
        order = _chain_order(level_generators(level))
        assert level_quotient_order(level).order == order == closed_form_order(level)

    @pytest.mark.parametrize("level", range(1, MAX_LEVEL + 1))
    def test_matches_sympy(self, level):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        perms = level_generators(level)
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in perms])
        assert level_quotient_order(level).order == _chain_order(perms) == group.order()


class TestChainOnKnownGroups:
    """The stabilizer-chain oracle on groups of known order."""

    @pytest.mark.parametrize("n, order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
    def test_symmetric(self, n, order):
        # an n-cycle and the transposition (0 1); both are the identity at n = 1
        perms = [perm(n, range(n)), perm(n, range(min(n, 2)))]
        assert _chain_order(perms) == closure_order(perms) == order

    def test_symmetric_from_all_transpositions(self):
        perms = [perm(6, pair) for pair in itertools.combinations(range(6), 2)]
        assert _chain_order(perms) == 720

    def test_cyclic(self):
        assert _chain_order([perm(12, range(12))]) == 12
        # disjoint 4- and 6-cycles generate a cyclic group of order lcm(4, 6)
        assert _chain_order([perm(10, range(4), range(4, 10))]) == 12

    def test_dihedral(self):
        for n in range(3, 9):
            rotation = perm(n, range(n))
            reflection = tuple((-x) % n for x in range(n))
            assert _chain_order([rotation, reflection]) == 2 * n

    def test_trivial(self):
        assert _chain_order([]) == 1
        assert _chain_order([perm(4)]) == 1
        assert _chain_order([perm(3), perm(3)]) == 1

    def test_generator_order_and_duplicates_do_not_matter(self):
        perms = level_generators(4)
        assert _chain_order(perms[::-1] + perms) == GOLDEN_ORDERS[3]

    @PROPERTY
    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
        )
    )
    def test_random_groups_match_closure(self, perms):
        perms = [tuple(p) for p in perms]
        assert _chain_order(perms) == closure_order(perms)


class TestGrigTower:
    def test_tower_matches_orders(self):
        t = grig_tower(2)
        assert t.d == t.l == (2, 8)

    def test_nested_with_unit_t(self):
        t = grig_tower(4)
        assert is_nested(t)
        assert all(decompose(t, j).t == 1 for j in range(1, 5))

    def test_partial_average_from_orders(self):
        t = grig_tower(4)
        expected = sum(
            Fraction(GOLDEN_ORDERS[j], GOLDEN_ORDERS[j - 1]) - 1 for j in range(1, 4)
        ) + (GOLDEN_ORDERS[0] - 1)
        assert ave_partial(t, 4) == expected == 50


class TestD1Series:
    def test_leading_term(self):
        orders = (2, 8, 128, 4096)
        terms = d1_series_terms(orders, 1)
        assert terms[0] == Fraction(127, 128)

    def test_term_rewrite_identity(self):
        orders = (2, 8, 128, 4096)
        terms = d1_series_terms(orders, 1)
        o1, o3, o4 = Fraction(2), Fraction(128), Fraction(4096)
        assert terms[1] == (o1 / o3) * (1 - o3 / o4)

    def test_full_list_through_level_five(self):
        orders = GOLDEN_ORDERS + (LEVEL5_ORDER,)
        terms = d1_series_terms(orders, 2)
        assert terms == [
            Fraction(127, 128),
            Fraction(31, 2048),
            Fraction(1023, 524288),
        ]
        # with doubly exponential orders the terms visibly shrink
        assert terms[2] < terms[1] < terms[0]

    def test_insufficient_levels(self):
        with pytest.raises(InsufficientLevels):
            d1_series_terms((2, 8), 0)
        with pytest.raises(InsufficientLevels):
            d1_series_terms((2, 8, 128), 1)


class TestSlnzpTower:
    def test_orders_chain(self):
        t = slnzp_tower(2, 2, 3)
        assert t.d == t.l == (6, 48, 384)

    def test_nested(self):
        assert is_nested(slnzp_tower(2, 2, 5))

    def test_matches_order_formula(self):
        t = slnzp_tower(2, 3, 4)
        assert t.d == tuple(order_mod_pk(2, 3, k, det_one=True) for k in range(1, 5))

    def test_unbounded_average(self):
        t = slnzp_tower(2, 2, 20)
        assert ave_partial(t, 20) == 5 + 19 * 7
        s_values = [decompose(t, j).s for j in range(1, 21)]
        assert s_values[0] == 6
        assert all(s == 8 for s in s_values[1:])

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            slnzp_tower(1, 2, 3)

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_running_product_matches_the_per_level_formula(self, n, p):
        for levels in (1, 2, 9, 60):
            t = slnzp_tower(n, p, levels)
            orders = tuple(order_mod_pk(n, p, j, det_one=True) for j in range(1, levels + 1))
            assert t.d == t.l == orders
            assert t.name == f"SL({n},Z_{p})({levels})"

    def test_argument_errors_keep_their_types_and_order(self):
        for args, error in (
            ((1, 4, 0), ValueError),
            ((2, 4, 0), ValueError),
            ((2, 2, 0), ValueError),
            ((2, 2, -3), ValueError),
            ((2, 4, 3), InvalidPrimePower),
            ((3, 1, 1), InvalidPrimePower),
            ((2, -5, 2), InvalidPrimePower),
        ):
            with pytest.raises(error) as info:
                slnzp_tower(*args)
            assert type(info.value) is error
