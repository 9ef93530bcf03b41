"""The one-pass coefficient core against the formulas it replaced.

levels() and the single-denominator folds over it are fast paths.  The
oracles here are the earlier per-level code: decompose with the
big-by-big remainder (d*l[j-1]) % l[j], and series summed one Fraction
term at a time; the series are also checked against the Horner folds
they replaced (tests/oracles.py), on towers that mix integer and
fractional terms.  The pass a tower keeps after first use is checked
against the per-call loop it replaced (tests/oracles.py), and the pass's
coefficients against the three-division ones they replaced, on random
levels of every branch and every failure.  The exact-quotient kernel
behind every division of the pass is checked against floor division.
The pass that the library's tower builders set at construction is
checked against the general pass that a copy of the tower runs.  The
pass's public column view, coefficients(), is checked against the
records of levels(), and first_inconsistent_level() against a per-level
decomposition loop.
"""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resavg.tower
from oracles import (
    ave_partial_fold,
    ave_partial_product_form_fold,
    coefficients_three_divisions,
    decompose_alone,
    first_inconsistent_level_loop,
    is_prime_system_loop,
    levels_loop,
    measure_telescope_fold,
)
from resavg.errors import InconsistentTower, InsufficientData
from resavg.grigorchuk import grig_tower, slnzp_tower
from resavg.integers import tower_prime_powers, tower_primes
from resavg.linear import mult_order_ell_table, power_tower, sl_exact_ell_table, sl_prime_tower
from resavg.primes import first_primes
from resavg.tower import (
    GrowthClass,
    IndexTower,
    LevelDecomposition,
    alphas,
    ave_partial,
    ave_partial_product_form,
    ave_terms,
    classify,
    coefficients,
    decompose,
    degenerate_levels,
    first_inconsistent_level,
    is_prime_system,
    levels,
    measure_telescope,
    running_product,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def oracle_decompose(t: IndexTower, j: int) -> LevelDecomposition:
    dj, lj, lprev = t.d_at(j), t.l_at(j), t.l_at(j - 1)
    if lj % lprev:
        raise InconsistentTower(f"{t.name}: l[{j - 1}] = {lprev} does not divide l[{j}] = {lj}")
    if lj % dj:
        raise InconsistentTower(f"{t.name}: d[{j}] = {dj} does not divide l[{j}] = {lj}")
    if (dj * lprev) % lj:
        raise InconsistentTower(
            f"{t.name}: d[{j}]*l[{j - 1}] = {dj * lprev} is not a multiple of l[{j}] = {lj}"
        )
    return LevelDecomposition(r=dj * lprev // lj, s=lj // lprev, t=lj // dj)


def oracle_levels(t: IndexTower, count: int) -> list[LevelDecomposition]:
    return [oracle_decompose(t, j) for j in range(1, count + 1)]


def oracle_ave_partial(decs) -> Fraction:
    return sum((Fraction(dec.s - 1, dec.t) for dec in decs), Fraction(0))


def oracle_product_form(decs) -> Fraction:
    total, s_product = Fraction(0), 1
    for dec in decs:
        total += Fraction(dec.r * (dec.s - 1), s_product)
        s_product *= dec.s
    return total


def oracle_alphas(decs) -> list[tuple[int, Fraction]]:
    return [
        (j, Fraction(high.r * (high.s - 1), low.r * low.s * (low.s - 1)))
        for j, (low, high) in enumerate(zip(decs, decs[1:]), start=1)
        if low.s != 1
    ]


def verdict(ratios: list[Fraction], window: int) -> GrowthClass:
    if len(ratios) < window:
        raise InsufficientData
    tail = ratios[-window:]
    if all(value < 1 for value in tail):
        return GrowthClass.SUB_QUADRATIC
    if all(value > 1 for value in tail):
        return GrowthClass.SUPER_QUADRATIC
    return GrowthClass.INDETERMINATE


def outcome(thunk):
    """The value of thunk(), or the type and message of what it raised."""
    try:
        return thunk()
    except (InconsistentTower, InsufficientData) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def consistent_towers(draw) -> IndexTower:
    """Level by level: s_j, then r_j a sub-product of s_1 ... s_{j-1}."""
    top = draw(st.sampled_from((12, 2**70)))
    steps = draw(st.lists(st.integers(1, top), min_size=1, max_size=10))
    steps[0] = max(steps[0], 2)
    d: list[int] = []
    l: list[int] = []
    for j, s in enumerate(steps):
        keep = draw(st.lists(st.booleans(), min_size=j, max_size=j))
        r = math.prod(f for f, k in zip(steps, keep) if k)
        lprev = l[-1] if l else 1
        # r = l[j-1] makes d[j] = l[j] >= l[j-1] >= d[j-1], so d stays sorted
        d.append(r * s if r * s >= max(2, d[-1] if d else 2) else lprev * s)
        l.append(lprev * s)
    return IndexTower("consistent", tuple(d), tuple(l))


@st.composite
def broken_towers(draw) -> IndexTower:
    """A consistent tower with one l entry moved, or unrelated random data."""
    if draw(st.booleans()):
        t = draw(consistent_towers())
        i = draw(st.integers(0, len(t) - 1))
        l = list(t.l)
        l[i] += draw(st.integers(1, 3))
        return IndexTower("moved", t.d, tuple(l))
    d = sorted(draw(st.lists(st.integers(2, 400), min_size=1, max_size=8)))
    l = draw(st.lists(st.integers(1, 10**4), min_size=len(d), max_size=len(d)))
    return IndexTower("random", tuple(d), tuple(l))


any_tower = st.one_of(consistent_towers(), broken_towers())


@PROPERTY
@given(any_tower)
def test_levels_match_the_remainder_formula(t):
    for count in range(len(t) + 1):
        assert outcome(lambda: levels(t, count)) == outcome(lambda: oracle_levels(t, count))
    for j in range(1, len(t) + 1):
        assert outcome(lambda: decompose(t, j)) == outcome(lambda: oracle_decompose(t, j))


@PROPERTY
@given(any_tower)
def test_broken_towers_fail_alike_in_every_fold(t):
    expected = outcome(lambda: oracle_levels(t, len(t)))
    if isinstance(expected, list):
        return
    folds = (
        lambda: ave_partial(t, len(t)),
        lambda: ave_partial_product_form(t, len(t)),
        lambda: measure_telescope(t, len(t)),
        lambda: ave_terms(t),
        lambda: alphas(t),
        lambda: degenerate_levels(t),
        lambda: classify(t, window=1),
    )
    for fold in folds:
        assert outcome(fold) == expected


@PROPERTY
@given(consistent_towers())
def test_series_match_per_term_sums(t):
    for terms in range(len(t) + 1):
        decs = oracle_levels(t, terms)
        assert ave_partial(t, terms) == oracle_ave_partial(decs)
        assert ave_partial_product_form(t, terms) == oracle_product_form(decs)
        assert measure_telescope(t, terms) == 1 - Fraction(1, t.l_at(terms))
        assert ave_terms(t, terms) == [Fraction(dec.s - 1, dec.t) for dec in decs]


@st.composite
def mixed_towers(draw) -> IndexTower:
    """A consistent tower whose levels are each nested (t_j = 1), prime-system
    (r_j = 1), generic or degenerate (s_j = 1), in any order."""
    d: list[int] = []
    l: list[int] = []
    steps: list[int] = []
    for j in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("nested", "prime", "generic", "degenerate")))
        lprev, floor = (l[-1], d[-1]) if l else (1, 2)
        top = draw(st.sampled_from((12, 2**70)))
        s = 1 if kind == "degenerate" and j else draw(st.integers(2, top))
        if kind == "prime":
            s = max(s, floor)
            r = 1
        elif kind in ("generic", "degenerate"):
            keep = draw(st.lists(st.booleans(), min_size=j, max_size=j))
            r = math.prod(f for f, k in zip(steps, keep) if k)
            s = max(s, -(-floor // r)) if kind == "generic" else s
        else:
            r = lprev
        # r = l[j-1] keeps d sorted: d[j] = l[j] >= l[j-1] >= d[j-1]
        d.append(r * s if r * s >= floor else lprev * s)
        l.append(lprev * s)
        steps.append(s)
    return IndexTower("mixed", tuple(d), tuple(l))


def assert_former_folds(t: IndexTower, terms: int) -> None:
    """The three series equal the Horner folds they replaced, as Fractions."""
    for got, want in (
        (ave_partial(t, terms), ave_partial_fold(t, terms)),
        (ave_partial_product_form(t, terms), ave_partial_product_form_fold(t, terms)),
        (measure_telescope(t, terms), measure_telescope_fold(t, terms)),
    ):
        assert type(got) is Fraction
        assert got == want


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mixed_towers())
def test_series_match_their_former_folds(t):
    for terms in range(len(t) + 1):
        assert_former_folds(t, terms)


def test_series_match_their_former_folds_on_tall_towers():
    nested = slnzp_tower(2, 5, 2000)
    assert ave_partial(nested, 2000) == 119 + 124 * 1999
    for t in (nested, sl_prime_tower(3, 600)):
        for terms in (0, 1, 2, len(t) - 1, len(t)):
            assert_former_folds(t, terms)


@PROPERTY
@given(consistent_towers())
def test_classify_is_the_verdict_of_alphas(t):
    decs = oracle_levels(t, len(t))
    assert alphas(t) == oracle_alphas(decs)
    assert degenerate_levels(t) == [j for j, dec in enumerate(decs, start=1) if dec.s == 1]
    ratios = [value for _, value in alphas(t)]
    for window in range(1, len(t) + 1):
        got = outcome(lambda: classify(t, window=window))
        want = outcome(lambda: verdict(ratios, window))
        if isinstance(want, tuple):
            assert got[0] == want[0]
        else:
            assert got is want


# ---------------------------------------------------------------------------
# the coefficient pass a tower keeps


@st.composite
def perturbed_towers(draw) -> IndexTower:
    """A consistent tower with one l[j] shifted or scaled, so that later
    levels may be consistent again after the broken one."""
    t = draw(consistent_towers())
    i = draw(st.integers(0, len(t) - 1))
    l = list(t.l)
    if draw(st.booleans()):
        l[i] += draw(st.integers(1, 3))
    else:
        l[i] *= draw(st.integers(2, 6))
    return IndexTower("perturbed", t.d, tuple(l))


memo_towers = st.one_of(consistent_towers(), broken_towers(), perturbed_towers())


def fresh(t: IndexTower) -> IndexTower:
    """An equal tower that has not run its pass yet."""
    return IndexTower(t.name, t.d, t.l)


FILLERS = {
    "none": lambda t, j: None,
    "decompose": lambda t, j: decompose(t, j),
    "levels": lambda t, j: levels(t, j - 1),
    "fold": lambda t, j: ave_partial(t, j),
}


@PROPERTY
@given(memo_towers, st.sampled_from(sorted(FILLERS)), st.data())
def test_kept_pass_matches_the_per_call_loop(t, filler, data):
    t = fresh(t)
    outcome(lambda: FILLERS[filler](t, data.draw(st.integers(1, len(t)))))
    for _ in range(2):
        for count in range(len(t) + 1):
            assert outcome(lambda: levels(t, count)) == outcome(lambda: levels_loop(t, count))
        for j in range(1, len(t) + 1):
            assert outcome(lambda: decompose(t, j)) == outcome(lambda: decompose_alone(t, j))


@PROPERTY
@given(memo_towers)
def test_kept_pass_leaves_equality_hash_and_repr_alone(t):
    filled = fresh(t)
    outcome(lambda: levels(filled))
    outcome(lambda: decompose(filled, len(filled)))
    other = fresh(t)
    assert filled == other
    assert hash(filled) == hash(other)
    assert repr(filled) == repr(other)
    assert {filled: 1}[other] == 1


@PROPERTY
@given(consistent_towers())
def test_mutating_a_returned_list_changes_nothing(t):
    want = levels_loop(t, len(t))
    got = levels(t)
    got.reverse()
    got.append(None)
    got[0] = LevelDecomposition(r=0, s=0, t=0)
    assert levels(t) == want
    assert [decompose(t, j) for j in range(1, len(t) + 1)] == want
    assert ave_partial(t, len(t)) == oracle_ave_partial(want)


def test_levels_past_a_broken_level_still_decompose():
    t = IndexTower("gap", (2, 2, 4), (2, 3, 12))
    assert decompose(t, 1) == LevelDecomposition(r=1, s=2, t=1)
    with pytest.raises(InconsistentTower, match="l\\[1\\] = 2 does not divide l\\[2\\] = 3"):
        decompose(t, 2)
    assert decompose(t, 3) == LevelDecomposition(r=1, s=4, t=3)
    assert levels(t, 1) == [LevelDecomposition(r=1, s=2, t=1)]
    for count in (2, 3):
        with pytest.raises(InconsistentTower, match="l\\[1\\] = 2 does not divide l\\[2\\] = 3"):
            levels(t, count)


def test_every_fold_shares_one_pass(monkeypatch):
    calls = []
    real = resavg.tower._coefficients

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(resavg.tower, "_coefficients", counting)
    t = IndexTower("steps", tuple(2**j for j in range(1, 41)), tuple(2**j for j in range(1, 41)))
    for j in range(1, len(t) + 1):
        decompose(t, j)
    for terms in (0, 1, 20, 40):
        ave_partial(t, terms)
        ave_partial_product_form(t, terms)
        measure_telescope(t, terms)
        ave_terms(t, terms)
    alphas(t)
    degenerate_levels(t)
    classify(t, window=10)
    assert calls == list(range(1, 41))


# ---------------------------------------------------------------------------
# one big division per level


def level_kind(dj: int, lprev: int, lj: int) -> str:
    """Which of the pass's branches a level takes, or which conditions fail."""
    if lj % lprev:
        return "l[j-1] fails"
    second, third = lj % dj != 0, (dj * lprev) % lj != 0
    if second or third:
        return {(True, False): "d[j] fails", (False, True): "product fails"}.get(
            (second, third), "both fail"
        )
    s = lj // lprev
    if s == dj:
        return "prime"
    if lj == dj:
        return "nested"
    return "degenerate" if s == 1 else "generic"


def random_level(rng: random.Random) -> tuple[int, int, int]:
    """(d[j], l[j-1], l[j]) drawn to reach every branch and every failure."""
    factors = [rng.randrange(2, 60) for _ in range(rng.randrange(1, 12))]
    lprev = math.prod(factors) * rng.choice((1, 1, rng.getrandbits(rng.randrange(1, 400)) | 1))
    r = math.prod(f for f in factors if rng.random() < 0.5)  # r | l[j-1]
    s = rng.choice((1, rng.randrange(2, 40), rng.getrandbits(rng.randrange(2, 120)) | 2))
    lj = lprev * s
    case = rng.randrange(8)
    if case == 0:  # prime-system level
        return max(s, 2), lprev, lprev * max(s, 2)
    if case == 1:  # nested level
        return max(lj, 2), lprev, lj
    if case == 2:  # generic or degenerate: r | l[j-1], d = r*s
        return max(r * s, 2), lprev, lj
    if case == 3:  # l[j-1] does not divide l[j]
        return max(r * s, 2), lprev + 1, lj
    if case == 4:  # s | d[j] but r does not divide l[j-1]
        return s * (lprev + 1), lprev, lj
    if case == 5:  # d[j] | l[j] but s does not divide d[j]: s has a prime q not in l[j-1]
        q, m = rng.choice((1000003, 998244353, 2**61 - 1)), rng.randrange(1, 40)
        return max(lprev * m, 2), lprev, lprev * q * m
    if case == 6:  # unrelated small numbers
        return rng.randrange(2, 500), rng.randrange(1, 200), rng.randrange(1, 10**4)
    return rng.randrange(2, 10**6) | 1, lprev, lj  # mostly both fail


def pass_level(name: str, j: int, dj: int, lprev: int, lj: int) -> LevelDecomposition:
    """The pass's (r, s, t) columns at one level, as a record to compare with the oracle's."""
    return LevelDecomposition(*resavg.tower._coefficients(name, j, dj, lprev, lj))


def test_pass_matches_three_divisions_on_random_levels():
    rng = random.Random(20240613)
    seen: dict[str, int] = {}
    for _ in range(24000):
        dj, lprev, lj = random_level(rng)
        j = rng.randrange(1, 50)
        got = outcome(lambda: pass_level("lvl", j, dj, lprev, lj))
        want = outcome(lambda: coefficients_three_divisions("lvl", j, dj, lprev, lj))
        assert got == want, (dj, lprev, lj)
        kind = level_kind(dj, lprev, lj)
        seen[kind] = seen.get(kind, 0) + 1
    kinds = ("prime", "nested", "generic", "degenerate", "l[j-1] fails", "d[j] fails",
             "product fails", "both fail")
    assert all(seen.get(kind, 0) >= 300 for kind in kinds), seen


def test_pass_on_big_tower_levels():
    rng = random.Random(7)
    lprev = 2**10 * math.prod(rng.getrandbits(100) | 1 for _ in range(120))  # ~12k bits
    q = 2**61 - 1  # prime, and no factor of lprev for this seed
    odd = rng.getrandbits(100) | 1
    cases = {
        "prime": (odd, lprev * odd),
        "nested": (lprev * 625, lprev * 625),
        "generic": (2 * 5, lprev * 5),
        "l[j-1] fails": (14, lprev * 7 + 1),
        "d[j] fails": (q * 5, lprev * 5),
        "product fails": (lprev, lprev * q),
        "both fail": (3 * q, lprev * 2),
    }
    for kind, (dj, lj) in cases.items():
        assert level_kind(dj, lprev, lj) == kind
        got = outcome(lambda: pass_level("big", 9, dj, lprev, lj))
        assert got == outcome(lambda: coefficients_three_divisions("big", 9, dj, lprev, lj))


# ---------------------------------------------------------------------------
# the exact-quotient kernel behind every division of the pass


def bits(n: int) -> st.SearchStrategy[int]:
    """Integers of exactly n bits."""
    return st.integers(2 ** (n - 1), 2**n - 1)


@st.composite
def dividends(draw) -> tuple[int, int]:
    """(a, b) with a = q*b, or q*b plus a nonzero remainder, over quotients of
    0 to ~12k bits (1, 63, 64, 65 and ~100 among them) and divisors of 1 to ~10k bits."""
    b = draw(st.one_of(st.just(1), bits(2), bits(64), bits(97), bits(700), bits(10050)))
    q = draw(st.one_of(st.integers(0, 3), bits(1), bits(63), bits(64), bits(65), bits(100),
                       bits(12000), st.integers(0, 2**300)))
    rem = draw(st.one_of(st.just(0), st.integers(1, b - 1))) if b > 1 else 0
    return q * b + rem, b


@given(dividends())
@settings(max_examples=400)
def test_exact_quotient_is_floor_division_when_exact(case):
    a, b = case
    assert resavg.tower._exact_quotient(a, b) == (a // b if a % b == 0 else None)


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param(1, 2**200 + 1, id="a below b by 64 bits and more: shifted divisor 0"),
        pytest.param(3, 7, id="a below b, k <= 0"),
        pytest.param(3**6000, 2**9 * 3**6000 + 1, id="a below b by 9 bits, k > 0"),
        pytest.param(3**9000 * 5, 1, id="b = 1"),
        pytest.param(3**9000 * 5, 5, id="a far above b: k <= 0, plain floor"),
        pytest.param((2**63 - 1) * 3**9000, 3**9000, id="quotient of 63 bits"),
        pytest.param((2**64 - 1) * 3**9000, 3**9000, id="quotient of 64 bits"),
        pytest.param(2**64 * 3**9000, 3**9000, id="quotient of 65 bits"),
        pytest.param((2**100 + 7) * (3**9000 + 1), 3**9000 + 1, id="quotient of 101 bits"),
        pytest.param((2**100 + 7) * (3**9000 + 1) + 1, 3**9000 + 1, id="one above a multiple"),
        pytest.param((2**100 + 7) * (3**9000 + 1) - 1, 3**9000 + 1, id="one below a multiple"),
        pytest.param(3**9000, 3**9000, id="quotient 1"),
        pytest.param(3**9000 - 1, 3**9000, id="one below the divisor"),
        pytest.param(2**20000 * 3, 2**20000 + 1, id="20k bits, no quotient"),
    ],
)
def test_exact_quotient_edge_cases(a, b):
    assert resavg.tower._exact_quotient(a, b) == (a // b if a % b == 0 else None)


def test_pass_divides_only_through_the_kernel(monkeypatch):
    """Every quotient of a level comes from _exact_quotient: s on a
    consistent prime-system or nested level, s, r and t on a generic one,
    and one more call on a failing level to name the condition."""
    calls = []
    real = resavg.tower._exact_quotient

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(resavg.tower, "_exact_quotient", counting)
    expected = {
        (3, 2, 6): [(6, 2)],  # prime-system
        (12, 2, 12): [(12, 2)],  # nested
        (6, 4, 12): [(12, 4), (6, 3), (4, 2)],  # generic: r = 2, t = 2
        (6, 4, 13): [(13, 4)],  # l[j-1] fails
        (9, 4, 12): [(12, 4), (9, 3), (4, 3), (12, 9)],  # d[j] fails, named by one more
    }
    for (dj, lprev, lj), want in expected.items():
        calls.clear()
        outcome(lambda: resavg.tower._coefficients("k", 2, dj, lprev, lj))
        assert calls == want, (dj, lprev, lj)


def prime_system(d) -> IndexTower:
    d = sorted(d)
    return IndexTower("prime", tuple(d), running_product(d))


@st.composite
def broken_prime_systems(draw) -> IndexTower:
    """A prime system, then one l entry (first, middle, last or any) or d entry changed."""
    t = prime_system(draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=8)))
    where = draw(st.sampled_from(("first", "middle", "last", "any")))
    i = {"first": 0, "middle": len(t) // 2, "last": len(t) - 1}.get(
        where, draw(st.integers(0, len(t) - 1))
    )
    l, d = list(t.l), list(t.d)
    how = draw(st.sampled_from(("add", "scale", "divide", "d")))
    if how == "add":
        l[i] += draw(st.integers(1, 3))
    elif how == "scale":
        l[i] *= draw(st.integers(2, 6))
    elif how == "divide":
        l[i] //= d[i]
    else:
        d[i] += 1
        d.sort()
    return IndexTower("broken-prime", tuple(d), tuple(l))


@PROPERTY
@given(st.one_of(memo_towers, broken_prime_systems()))
def test_is_prime_system_matches_the_running_product(t):
    want = is_prime_system_loop(t)
    cold = fresh(t)
    assert is_prime_system(cold) is want
    outcome(lambda: levels(cold))
    assert is_prime_system(cold) is want


def test_product_form_at_the_ends_of_the_paper_towers():
    # test_series_match_per_term_sums covers every prefix of the drawn towers
    from resavg.grigorchuk import slnzp_tower
    from resavg.linear import sl_prime_tower

    for t in (sl_prime_tower(3, 80), slnzp_tower(2, 5, 80)):
        decs = oracle_levels(t, len(t))
        for terms in (0, 1, 2, len(t)):
            assert ave_partial_product_form(fresh(t), terms) == oracle_product_form(decs[:terms])


SMALL_PRIMES = st.sampled_from((2, 3, 5, 7, 11))


@st.composite
def power_towers(draw) -> IndexTower:
    """power_tower on a small table and drawn non-decreasing depths.  A d
    that the constructor refuses is refused with the plain constructor's
    message, and the example is dropped."""
    depth, count = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        table = sl_exact_ell_table(draw(st.integers(2, 3)), count, depth)
    else:
        a = draw(st.sampled_from((2, 3, 5, 10)))
        table = mult_order_ell_table(a, [p for p in first_primes(count + 3) if a % p], depth)
    ks = sorted(draw(st.lists(st.integers(1, depth), min_size=1, max_size=len(table))))
    d = [table.index_at(j, k) for j, k in enumerate(ks, start=1)]
    try:
        return power_tower(table, tuple(ks))
    except ValueError as exc:
        with pytest.raises(ValueError) as plain:
            IndexTower("plain", d, running_product(d))
        assert str(exc) == str(plain.value)
        assume(False)


builder_towers = st.one_of(
    st.builds(sl_prime_tower, st.integers(2, 4), st.integers(1, 30)),
    st.builds(tower_primes, st.integers(1, 40)),
    st.builds(tower_prime_powers, SMALL_PRIMES, st.integers(1, 40)),
    st.builds(slnzp_tower, st.integers(2, 3), SMALL_PRIMES, st.integers(1, 40)),
    st.builds(grig_tower, st.integers(1, 6)),
    power_towers(),
)


@PROPERTY
@given(builder_towers)
def test_builder_pass_matches_the_general_pass(t):
    rebuilt = copy.copy(t)
    assert not hasattr(rebuilt, "_pass")
    assert resavg.tower._pass(t) == resavg.tower._pass(rebuilt)
    assert levels(t) == levels(rebuilt)
    for terms in {0, 1, len(t) // 2, len(t)}:
        assert ave_partial(t, terms) == ave_partial(rebuilt, terms)
        assert ave_partial_product_form(t, terms) == ave_partial_product_form(rebuilt, terms)
    for window in (1, 10):
        assert outcome(lambda: classify(t, window)) == outcome(lambda: classify(rebuilt, window))
    assert is_prime_system(t) is is_prime_system(rebuilt)
    assert first_inconsistent_level(t) is first_inconsistent_level(rebuilt) is None


@pytest.mark.parametrize(
    "build, data",
    [
        (resavg.tower.prime_system_tower, [2, 3, 5, 7]),
        (resavg.tower.nested_tower, [120, 125, 125]),
        (resavg.tower.nested_tower, (5, True, 5)),
    ],
)
def test_builder_columns_are_tuples_of_ints_from_any_sequence(build, data):
    t = build("any-sequence", data)
    columns = resavg.tower._pass(t)
    assert columns == resavg.tower._pass(copy.copy(t))
    for column in columns[:3]:
        assert type(column) is tuple and all(type(x) is int for x in column)


def test_builder_towers_run_no_coefficient_pass(monkeypatch):
    calls = []
    real = resavg.tower._coefficients

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(resavg.tower, "_coefficients", counting)
    table = sl_exact_ell_table(2, 12, 3)
    for t in (
        sl_prime_tower(3, 40),
        power_tower(table, (1,) * 6 + (2,) * 6),
        tower_primes(40),
        tower_prime_powers(3, 40),
        grig_tower(6),
        slnzp_tower(2, 5, 40),
    ):
        for j in range(1, len(t) + 1):
            decompose(t, j)
        levels(t)
        for terms in (0, 1, len(t)):
            ave_partial(t, terms)
            ave_partial_product_form(t, terms)
            measure_telescope(t, terms)
            ave_terms(t, terms)
        alphas(t)
        degenerate_levels(t)
        classify(t, window=min(10, len(t) - 1))
        is_prime_system(t)
        assert calls == [], t.name
    decompose(copy.copy(t), 2)  # a copy runs the general pass
    assert calls == list(range(1, 41))


# ---------------------------------------------------------------------------
# the pass's public column view


@PROPERTY
@given(st.one_of(memo_towers, builder_towers), st.booleans())
def test_coefficients_are_the_columns_of_levels(t, cold):
    t = fresh(t) if cold else t
    for count in (-1, len(t) + 1):
        with pytest.raises(ValueError) as want:
            levels(t, count)
        with pytest.raises(ValueError) as got:
            coefficients(t, count)
        assert str(got.value) == str(want.value)
    for count in (None, *range(len(t) + 1)):
        want = outcome(lambda: levels(t, count))
        got = outcome(lambda: coefficients(t, count))
        if isinstance(want, list):
            assert got == tuple(tuple(getattr(dec, k) for dec in want) for k in ("r", "s", "t"))
            assert all(type(x) is int for column in got for x in column)
        else:
            assert got == want


@PROPERTY
@given(memo_towers, st.sampled_from(sorted(FILLERS)), st.data())
def test_first_inconsistent_level_matches_the_per_level_loop(t, filler, data):
    t = fresh(t)
    outcome(lambda: FILLERS[filler](t, data.draw(st.integers(1, len(t)))))
    want = first_inconsistent_level_loop(t)
    for _ in range(2):
        assert first_inconsistent_level(t) == want
    assert (want is None) is isinstance(outcome(lambda: levels(t)), list)
