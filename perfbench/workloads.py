"""The four workloads: their operations, seeded inputs and reference checks.

tower-prime and tower-nested are library sessions: one fresh interpreter
runs the whole operation list (session.py), and every encoded result is
compared with the value reference.py computes.  grig-tree and cli-mix
are lists of CLI calls, one fresh interpreter each; a check receives the
call's parsed "results" object and raises Mismatch on a wrong value.
Checks read values, not report layout, so a change that only reshapes a
report is not counted as failing.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from pathlib import Path
from typing import Callable

import reference as ref
from session import NESTED_ZETA_TERMS, digest, frac, random_towers

LIBRARY = ("tower-prime", "tower-nested")
CLI = ("grig-tree", "cli-mix")
WINDOW = 10


class Mismatch(Exception):
    """A result differs from its reference."""


class Approx:
    """A float reference, equal to results within a relative 1e-12."""

    def __init__(self, value: float) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, float) and math.isclose(other, self.value, rel_tol=1e-12)

    def __repr__(self) -> str:
        return f"Approx({self.value!r})"


def expect(what: str, got, want) -> None:
    if not got == want:
        raise Mismatch(f"{what}: got {str(got)[:120]}, want {str(want)[:120]}")


# ---------------------------------------------------------------------------
# library sessions


def _analysis_expected(prefix: str, d: list[int], l: list[int], nested: bool) -> dict:
    r, s, t = ref.coefficients(d, l)
    ave = frac(ref.average(d, l))
    out = {
        "decompose": {"r": digest(r), "s": digest(s), "t": digest(t)},
        "ave_partial": ave,
        "ave_partial_product_form": ave,
        "measure_telescope": frac(ref.telescope(l)),
        "classify": ref.verdict(d, l, WINDOW),
        "is_prime_system": ref.is_prime_system(d, l),
        "zeta_partial": Approx(ref.zeta(d, 2, NESTED_ZETA_TERMS if nested else len(d))),
    }
    if nested:
        out["degenerate_levels"] = ref.degenerate_levels(d, l)
        out["is_nested"] = True
    return {f"{prefix}/{name}": value for name, value in out.items()}


def library_expected(workload: str, seed: int) -> dict:
    """Encoded reference result of every operation of a library session."""
    nested = workload == "tower-nested"
    if nested:
        d = l = ref.slzp_tower(5, 2000)
        if ref.average(d, l) != 119 + 124 * (len(d) - 1):
            raise RuntimeError("nested reference average disagrees with 119 + 124 (J - 1)")
    else:
        d, l = ref.sl_prime_tower(3, 600)
    expected = {"main/build": {"d": digest(d), "l": digest(l)}}
    expected.update(_analysis_expected("main", d, l, nested))
    if not nested:
        scan = ref.sl_ratio_scan(2, 100, 10**6)
        if scan != ref.SL2_SCAN:
            raise RuntimeError(f"reference SL(2) ratio scan {scan} != {ref.SL2_SCAN}")
        expected["main/sl_ratio_scan"] = [frac(scan[0]), list(scan[1])]
    for label, d, l in random_towers(workload, seed):
        expected.update(_analysis_expected(label, d, l, nested))
    return expected


def check_library(results: dict, expected: dict) -> list[str]:
    """One message per operation whose result is missing, raised or wrong."""
    failures = []
    for name, want in expected.items():
        got = results.get(name, {"error": "not run"})
        if isinstance(got, dict) and "error" in got:
            failures.append(f"{name}: {got['error']}")
        elif not got == want:
            failures.append(f"{name}: got {str(got)[:120]}, want {str(want)[:120]}")
    return failures


# ---------------------------------------------------------------------------
# CLI calls


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[dict], None]
    # A probe reproduces a known defect: its failing exit is reported as a
    # probe result, while a wrong answer from it still fails the run.
    probe: bool = False


def rational(field: dict) -> Fraction:
    num, den = field["exact"].split("/")
    return Fraction(ref.decimal_int(num), ref.decimal_int(den))


def ints(values: list[str]) -> list[int]:
    return [ref.decimal_int(v) for v in values]


def check_tower(res: dict, d: list[int], l: list[int]) -> None:
    expect("tower.d", ints(res["tower"]["d"]) == d, True)
    expect("tower.l", ints(res["tower"]["l"]) == l, True)


def check_sl_tower(primes: int) -> Callable[[dict], None]:
    def check(res):
        d, l = ref.sl_prime_tower(3, primes)
        check_tower(res, d, l)
        expect("prime_system", res["prime_system"], True)
        expect("classification", res["classification"], ref.verdict(d, l, WINDOW))
    return check


def check_slzp(levels: int) -> Callable[[dict], None]:
    def check(res):
        d = ref.slzp_tower(5, levels)
        check_tower(res, d, d)
        expect("nested", res["nested"], True)
        expect("ave_partial", rational(res["ave_partial"]), 119 + 124 * (levels - 1))
    return check


def check_ave(d: list[int], l: list[int]) -> Callable[[dict], None]:
    def check(res):
        ave = ref.average(d, l)
        expect("terms", res["terms"], len(d))
        expect("ave_partial", rational(res["ave_partial"]), ave)
        expect("ave_partial_product_form", rational(res["ave_partial_product_form"]), ave)
        expect("measure_telescope", rational(res["measure_telescope"]), ref.telescope(l))
    return check


def check_tower_check(d: list[int], l: list[int]) -> Callable[[dict], None]:
    def check(res):
        expect("consistent", res["consistent"], True)
        expect("first_inconsistent_level", res["first_inconsistent_level"], None)
        expect("levels", res["levels"], len(d))
        expect("prime_system", res["prime_system"], ref.is_prime_system(d, l))
        expect("nested", res["nested"], ref.is_nested(d, l))
        expect("measure_telescope", rational(res["measure_telescope"]), ref.telescope(l))
    return check


def check_classify(d: list[int], l: list[int]) -> Callable[[dict], None]:
    return lambda res: expect("classification", res["classification"], ref.verdict(d, l, WINDOW))


def check_zeta(d: list[int]) -> Callable[[dict], None]:
    def check(res):
        expect("terms", res["terms"], len(set(d)))
        expect("value", res["value"], Approx(ref.zeta(d, 2, len(d))))
    return check


def check_grig(levels: int) -> Callable[[dict], None]:
    def check(res):
        o = ref.grig_orders(levels)
        check_tower(res, o, o)
        expect("nested", res["nested"], True)
        expect("ave_partial", rational(res["ave_partial"]), ref.average(o, o))
        # d1 series: (o3 - 1)/o3, then (o_j/o_(j+2)) (1 - o_(j+2)/o_(j+3)).
        o = [None] + o
        terms = [Fraction(o[3] - 1, o[3])] + [
            Fraction(o[j], o[j + 2]) * (1 - Fraction(o[j + 2], o[j + 3]))
            for j in range(1, levels - 2)
        ]
        expect("d1_series", [rational(x) for x in res["d1_series"]], terms)
    return check


# select-powers input: every prime's exponent row is ell(k) = k - 1.
TABLE = {"primes": ref.first_primes(16), "ell": [list(range(130))] * 16, "O": [1] * 16}
SELECT = {"n": 1, "N0": 2, "C": 5, "delta": Fraction(2, 5), "epsilon": Fraction(1, 5)}
TABLE_ARGS = [arg for key, value in SELECT.items() for arg in (f"--{key}", str(value))]


def check_select_powers(res: dict) -> None:
    n2, big_n, c = SELECT["n"] ** 2, SELECT["N0"], SELECT["C"]
    delta, eps = SELECT["delta"], SELECT["epsilon"]
    rows, ps = TABLE["ell"], TABLE["primes"]
    # First depth clears N + C n^2; each next one is one past the deepest
    # exponent still under the previous exponent plus C n^2.
    ks = [next(k for k in range(1, 131) if rows[0][k - 1] > big_n + c * n2)]
    for j in range(1, len(ps)):
        bound = rows[j - 1][ks[-1] - 1] + c * n2
        ks.append(max(k for k in range(1, 131) if rows[j][k - 1] <= bound) + 1)
    ell = [rows[j][k - 1] for j, k in enumerate(ks)]
    j0 = next(
        j for j in range(1, 100)
        if (delta - eps) * (big_n + c * j * n2) - (1 + eps) * (c + 2) * n2 > 1
    )
    j0 = max(j0, next(j for j, p in enumerate(ps, 1) if p**eps.numerator > 2**eps.denominator))
    d = [p**e for p, e in zip(ps, ell)]
    pairs = list(zip(d[j0 - 1 :], d[j0:]))
    expect("ks", res["ks"], ks)
    expect("ell", res["ell"], ell)
    expect("windows_verified", res["windows_verified"], True)
    expect("gap_start_index", res["gap_start_index"], j0)
    p, q = delta.numerator, delta.denominator
    # d[j] < d[j+1] < d[j]^(1 + p/q), compared as b^q < a^(p+q).
    gaps = all(a < b and b**q < a ** (p + q) for a, b in pairs)
    expect("gap_check_power", res["gap_check_power"], gaps)
    check_tower(res, d, list(accumulate(d, mul)))


def seeded_ops(rng: random.Random) -> list[Op]:
    """div, matdiv and wieferich calls with arguments drawn from the seed."""
    mode = rng.choice(("full", "prime", "p"))
    p = rng.choice((2, 3, 5, 7))
    m = rng.choice((-1, 1)) * rng.randrange(1, 10**9) * math.lcm(*range(1, rng.randrange(2, 24)))
    m *= p ** rng.randrange(0, 12)
    if mode == "full":
        want = ref.d_full(m)
    elif mode == "prime":
        want = ref.d_prime(m)
    else:
        want = ref.d_p(m, p)
    div_argv = ["div", "--m", str(m), "--mode", mode] + (["--prime", str(p)] if mode == "p" else [])

    k = math.prod(ref.first_primes(rng.randrange(0, 5)))
    a, b = rng.randrange(1, 1000), rng.randrange(1, 1000)
    gamma = [[1 + k * k * a * b, k * a], [k * b, 1]]
    q = ref.first_prime_not_dividing([k * k * a * b, k * a, k * b])

    wp = rng.choice(ref.primes_upto(5000)[4:])
    base = rng.choice((2, 3, 5))

    def check_matdiv(res):
        expect("p", res["p"], q)
        expect("index", ref.decimal_int(res["index"]), ref.sl_order(2, q))

    return [
        Op("div", div_argv, lambda res: expect("value", res["value"], want)),
        Op("matdiv", ["matdiv", "--matrix", ";".join(",".join(map(str, row)) for row in gamma)],
           check_matdiv),
        Op("wieferich", ["wieferich", "--p", str(wp), "--a", str(base)],
           lambda res: expect("wieferich", res["wieferich"], pow(base, wp - 1, wp * wp) == 1)),
    ]


def cli_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The CLI calls of a workload, in order; later calls read earlier --out files."""
    if workload == "grig-tree":
        return [Op("grig-5", ["grig", "--levels", "5", "--d1-series"], check_grig(5))]
    (workdir / "table.json").write_text(json.dumps(TABLE), encoding="utf-8")
    d_a, l_a = ref.sl_prime_tower(3, 150)
    d_b = ref.slzp_tower(5, 600)
    d_c = ref.slzp_tower(5, 200)
    big_n = 10**7

    def check_density(res):
        measure = ref.level_measure(5)
        empirical = ref.density_count(5, big_n) / big_n
        expect("exact", rational(res["exact"]), Fraction(1, 15))
        expect("reference level measure", measure, Fraction(1, 15))
        expect("empirical", res["empirical"], empirical)
        expect("abs_error", res["abs_error"], Approx(abs(empirical - float(measure))))
        expect("error_bound", rational(res["error_bound"]), Fraction(2 * ref.lcm_chain(5)[5], big_n))

    def check_ave_z(res):
        value = rational(res["value"])
        expect("value", value, ref.ave_z(50))
        expect("reference 2.787780456", abs(float(value) - ref.AVE_Z) < 1e-8, True)

    def check_ave_prime(res):
        value = rational(res["value"])
        expect("value", value, ref.ave_prime(15))
        expect("reference 2.920050977", abs(float(value) - ref.AVE_PRIME) < 1e-8, True)

    def check_bertrand(res):
        expect("max_ratio", rational(res["max_ratio"]), Fraction(5, 3))
        expect("witness", res["witness"], {"p": 3, "q": 5})
        expect("holds", res["holds"], True)

    return [
        Op("ave-z", ["ave-z", "--terms", "50"], check_ave_z),
        Op("ave-prime", ["ave-prime", "--terms", "15"], check_ave_prime),
        Op("ave-p", ["ave-p", "--prime", "3", "--terms", "10000"],
           lambda res: expect("value", rational(res["value"]), 10000 * (3 - 1))),
        Op("bertrand", ["bertrand", "--upto", str(big_n)], check_bertrand),
        Op("density", ["density", "--n", "5", "--upto", str(big_n)], check_density),
        Op("sl-tower-A", ["sl-tower", "--n", "3", "--primes", "150", "--classify", "--out", "A.json"],
           check_sl_tower(150)),
        Op("ave-A", ["ave", "--tower", "A.json"], check_ave(d_a, l_a)),
        Op("tower-check-A", ["tower-check", "--tower", "A.json"], check_tower_check(d_a, l_a)),
        Op("classify-A", ["classify", "--tower", "A.json"], check_classify(d_a, l_a)),
        Op("zeta-A", ["zeta", "--tower", "A.json", "--s", "2"], check_zeta(d_a)),
        Op("slzp-B", ["slzp", "--n", "2", "--p", "5", "--levels", "600", "--out", "B.json"],
           check_slzp(600)),
        Op("ave-B", ["ave", "--tower", "B.json"], check_ave(d_b, d_b)),
        Op("tower-check-B", ["tower-check", "--tower", "B.json"], check_tower_check(d_b, d_b)),
        Op("classify-B", ["classify", "--tower", "B.json"], check_classify(d_b, d_b)),
        Op("grig-4", ["grig", "--levels", "4", "--d1-series"], check_grig(4)),
        Op("order", ["order", "--group", "gl", "--n", "3", "--q", "8"],
           lambda res: expect("order", ref.decimal_int(res["order"]), ref.gl_order(3, 8))),
        Op("select-powers", ["select-powers", "--table", "table.json", *TABLE_ARGS, "--emit-tower"],
           check_select_powers),
        *seeded_ops(random.Random(f"cli-mix:{seed}")),
        Op("slzp-C", ["slzp", "--n", "2", "--p", "5", "--levels", "200", "--out", "C.json"],
           check_slzp(200)),
        # l[300] has 22,125 bits: the report's decimal str() exceeds 4300 digits.
        Op("probe-sl-tower-300", ["sl-tower", "--n", "3", "--primes", "300", "--classify"],
           check_sl_tower(300), probe=True),
        # d[j] passes the float range at level 147: int ** -float overflows.
        Op("probe-zeta-C", ["zeta", "--tower", "C.json", "--s", "2"], check_zeta(d_c), probe=True),
    ]
