"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to see the explicit PASS prints).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import random_consistent_tower, random_prime_tower
from resavg import cli
from resavg.grigorchuk import grig_tower, level_action, level_quotient_order, slnzp_tower
from resavg.integers import (
    ave_p_partial,
    ave_z_partial,
    d_prime,
    divisibility_counts,
    empirical_average,
    empirical_density,
    level_set_measure,
    tower_prime_powers,
    tower_primes,
)
from resavg.linear import (
    IntMatrix,
    PowerSelectionParams,
    brute_force_order,
    brute_force_order_mod,
    divisibility_matrix,
    gl_order,
    order_mod_pk,
    power_gap_start_index,
    power_tower,
    select_powers,
    sl_exact_ell_table,
    sl_order,
    sl_prime_tower,
    verify_power_windows,
)
from resavg.linear import EllTable
from resavg.primes import bertrand_verify, first_primes, iter_primes, lcm_upto
from resavg.tower import (
    ave_partial,
    ave_partial_product_form,
    ave_terms,
    decompose,
    gap_check_power,
    is_prime_system,
    measure_telescope,
)


def ok(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


def test_c01_ave_z_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["ave-z", "--terms", "50"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    num, den = out["results"]["value"]["exact"].split("/")
    value = Fraction(int(num), int(den))
    assert abs(value - Fraction("2.787780456")) <= Fraction(1, 10**8)
    assert elapsed < 1.0
    ok("criterion 01, full-system average 2.787780456 within 1e-8 in <1s")


def test_c02_ave_prime_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["ave-prime", "--terms", "15"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    num, den = out["results"]["value"]["exact"].split("/")
    value = Fraction(int(num), int(den))
    assert abs(value - Fraction("2.920050977")) <= Fraction(1, 10**8)
    assert elapsed < 1.0
    ok("criterion 02, prime-system average 2.920050977 within 1e-8 in <1s")


def test_c03_ave_p_divergence_exact():
    terms = 10**4
    for p in (2, 3, 5):
        t = tower_prime_powers(p, terms)
        running = Fraction(0)
        for j, term in enumerate(ave_terms(t), start=1):
            running += term
            assert running == j * (p - 1)
        assert ave_p_partial(p, terms) == terms * (p - 1)
    ok("criterion 03, fixed-prime partial sums equal J(p-1) exactly to J=1e4")


def test_c04_bertrand_to_ten_million():
    start = time.perf_counter()
    ratio, pair = bertrand_verify(10**7)
    elapsed = time.perf_counter() - start
    assert ratio <= 2
    assert ratio == Fraction(5, 3) and pair == (3, 5)
    assert elapsed < 30.0
    ok("criterion 04, consecutive-prime ratio <= 2 up to 1e7 in <30s")


def test_c05_order_oracles():
    for n, p in ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2)):
        assert sl_order(n, p) == brute_force_order(n, p, det_one=True)
        assert gl_order(n, p) == brute_force_order(n, p, det_one=False)
    for k in (2, 3):  # mod 4 and mod 8
        assert order_mod_pk(2, 2, k, True) == brute_force_order_mod(2, 2, k, True)
        assert order_mod_pk(2, 2, k, False) == brute_force_order_mod(2, 2, k, False)
    ok("criterion 05, closed-form orders equal enumeration")


def test_c06_gap_ratio_bounds():
    lo, hi, decade = 100, 10**6, 10**5
    prev = None
    running_max_num, running_max_den = 0, 1
    for p in iter_primes(hi):
        if p < lo:
            continue
        if prev is not None:
            num, den = sl_order(2, p), sl_order(2, prev)
            # every ratio <= 8 * 1.05 = 42/5
            assert 5 * num <= 42 * den, (prev, p)
            if prev >= decade and num * running_max_den > running_max_num * den:
                running_max_num, running_max_den = num, den
        prev = p
    # top decade tightens to <= 8 * 1.01 = 202/25
    assert 25 * running_max_num <= 202 * running_max_den
    ok("criterion 06, ratio bound 8*1.05 on [100,1e6] and 8*1.01 on the top decade")


def test_c07_prime_system_identity():
    for t in (tower_primes(1000), sl_prime_tower(2, 1000)):
        product = 1
        for j in range(1, len(t) + 1):
            product *= t.d_at(j)
            assert t.l_at(j) == product
        assert is_prime_system(t)
    ok("criterion 07, product identity holds on both 1000-level prime towers")


def test_c08_nested_divergence():
    grig4 = grig_tower(4)
    slzp = slnzp_tower(2, 2, 20)
    for t in (grig4, slzp):
        for j in range(1, len(t) + 1):
            assert decompose(t, j).t == 1
    assert ave_partial(slzp, 20) == 138 > 100
    # nested growth: every level adds at least 1
    for j in range(1, 5):
        assert ave_partial(grig4, j) >= j
    assert ave_partial(grig4, 4) == 50
    # one more level pushes the tree-group partial sum itself past 100
    assert level_quotient_order(5).order == 4194304
    grig5 = grig_tower(5)
    assert all(decompose(grig5, j).t == 1 for j in range(1, 6))
    assert ave_partial(grig5, 5) == 1073 > 100
    ok("criterion 08, nested towers have t=1 and partial sums pass 100")


def _power_selection_case(table: EllTable, params: PowerSelectionParams, count: int) -> None:
    ks = select_powers(table, params, count)
    assert verify_power_windows(table, ks, params)
    j0 = power_gap_start_index(params, primes=table.primes)
    assert j0 < count
    t = power_tower(table, ks)
    assert gap_check_power(t, params.delta, start=j0)
    assert all(t.d_at(j) < t.d_at(j + 1) for j in range(j0, count))


def test_c09_power_selection():
    synth_row = tuple(range(400))
    cases = [
        (Fraction(2, 5), Fraction(1, 5), 16),
        (Fraction(1, 4), Fraction(1, 8), 60),
    ]
    for delta, epsilon, count in cases:
        primes = first_primes(count)
        synthetic = EllTable(
            n=1,
            primes=primes,
            rows=tuple(synth_row for _ in primes),
            orders=tuple(1 for _ in primes),
        )
        _power_selection_case(
            synthetic,
            PowerSelectionParams(n=1, N=2, C=5, delta=delta, epsilon=epsilon),
            count,
        )
        exact = sl_exact_ell_table(2, count, 450)
        _power_selection_case(
            exact,
            PowerSelectionParams(n=2, N=25, C=5, delta=delta, epsilon=epsilon),
            count,
        )
    ok("criterion 09, window verifier and power-gap checks pass for both tables")


def test_c10_density_theorem():
    bound = 10**6
    for n in (2, 3, 4, 5, 7, 8, 9):
        observed = empirical_density(n, bound)
        exact = float(level_set_measure(n).measure)
        assert abs(observed - exact) <= 2 * lcm_upto(n) / bound
    assert abs(empirical_average(bound) - float(ave_z_partial(50))) <= 1e-2
    ok("criterion 10, empirical densities and average match the exact values")


def test_c11_property_suites():
    rng = random.Random(20260808)
    # telescoping identity on 1e3 random consistent towers
    for _ in range(1000):
        t = random_consistent_tower(rng)
        levels = len(t)
        assert measure_telescope(t, levels) == 1 - Fraction(1, t.l_at(levels))
    # dual-formula equality on prime-system towers
    for _ in range(1000):
        t = random_prime_tower(rng)
        assert is_prime_system(t)
        assert ave_partial(t, len(t)) == ave_partial_product_form(t, len(t))
    # unipotent matrices against the integer divisibility function
    for _ in range(1000):
        m = rng.randint(1, 10**12)
        gamma = IntMatrix(((1, m), (0, 1)))
        p, index = divisibility_matrix(gamma, 10**4)
        assert p == d_prime(m)
        assert index == sl_order(2, p)
    # tree-group relation checks at levels <= 4
    for level in range(1, 5):
        size = 1 << level
        assert level_action("ad" * 4, level) == tuple(range(size))
        assert level_action("bcd", level) == tuple(range(size))
        for g in "abcd":
            assert level_action(g + g, level) == tuple(range(size))
    ok("criterion 11, property suites (telescope, dual form, matrices, relations)")
