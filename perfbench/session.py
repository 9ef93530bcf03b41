"""Child process of the benchmark: one library session or one traced CLI call.

    python3 perfbench/session.py lib WORKLOAD SEED [TRACE_FILE]
    python3 perfbench/session.py cli TRACE_FILE RESAVG_ARG...

A library session runs a tower workload's operation list in this fresh
interpreter and prints one JSON object: the wall time and the encoded
result (or exception) of every operation.  Big integers are
encoded in hex and long integer lists as a digest of their hex, because
decimal str() of an int over 4300 digits raises, and the benchmark must
not lift that limit.  A traced CLI call runs resavg.cli.main under the
tracer, so stdout is exactly what the CLI prints.  With a TRACE_FILE
the per-layer trace summary is written there.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from itertools import accumulate
from operator import mul

RANDOM_TOWERS = 3
RANDOM_LEVELS = 40
# SL(2, Z_5) orders pass the float range from level 147 on; zeta_partial
# raises OverflowError past it (probed on its own in cli-mix).
NESTED_ZETA_TERMS = 100


def digest(values) -> str:
    return hashlib.sha256(",".join(hex(v) for v in values).encode()).hexdigest()


def frac(value) -> list[str]:
    return [hex(value.numerator), hex(value.denominator)]


def random_towers(workload: str, seed: int) -> list[tuple[str, list[int], list[int]]]:
    """The seeded batch of small towers: prime systems or nested chains."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i in range(RANDOM_TOWERS):
        if workload == "tower-prime":
            d = sorted(rng.randrange(2, 10**6) for _ in range(RANDOM_LEVELS))
            l = list(accumulate(d, mul))
        else:
            # Index steps k_j >= 2, except four degenerate levels (k_j = 1).
            flat = set(rng.sample(range(1, RANDOM_LEVELS), 4))
            steps = [1 if j in flat else rng.randrange(2, 61) for j in range(RANDOM_LEVELS)]
            d = l = list(accumulate(steps, mul))
        out.append((f"random-{i}", d, l))
    return out


def _coefficients(decs) -> dict:
    return {k: digest(getattr(x, k) for x in decs) for k in "rst"}


def _tower(t) -> dict:
    return {"d": digest(t.d), "l": digest(t.l)}


def _scan(result) -> list:
    return [frac(result[0]), list(result[1])]


def _same(value):
    return value


def analysis(tower, t, nested: bool) -> list[tuple]:
    """(name, thunk, encoder) for the per-tower analysis of both tower workloads."""
    levels = len(t)
    zeta_terms = min(levels, NESTED_ZETA_TERMS) if nested else levels
    ops = [
        ("decompose", lambda: [tower.decompose(t, j) for j in range(1, levels + 1)], _coefficients),
        ("ave_partial", lambda: tower.ave_partial(t, levels), frac),
        ("ave_partial_product_form", lambda: tower.ave_partial_product_form(t, levels), frac),
        ("measure_telescope", lambda: tower.measure_telescope(t, levels), frac),
        ("classify", lambda: tower.classify(t, window=10).value, _same),
        ("is_prime_system", lambda: tower.is_prime_system(t), _same),
        ("zeta_partial", lambda: tower.zeta_partial(t.d, 2, zeta_terms), _same),
    ]
    if nested:
        ops += [
            ("degenerate_levels", lambda: tower.degenerate_levels(t), _same),
            ("is_nested", lambda: tower.is_nested(t), _same),
        ]
    return ops


def run_library(workload: str, seed: int) -> dict:
    """Run the operation list, timing each operation but not its encoding."""
    from resavg import grigorchuk, linear, tower

    nested = workload == "tower-nested"
    raw: dict[str, tuple] = {}
    op_s: dict[str, float] = {}

    def run(name, thunk, encode):
        start = time.perf_counter()
        try:
            raw[name] = (thunk(), encode)
        except Exception as exc:  # reported to the parent as a failed operation
            raw[name] = ({"error": f"{type(exc).__name__}: {exc}"}, _same)
            return None
        finally:
            op_s[name] = time.perf_counter() - start
        return raw[name][0]

    if nested:
        t = run("main/build", lambda: grigorchuk.slnzp_tower(2, 5, 2000), _tower)
    else:
        t = run("main/build", lambda: linear.sl_prime_tower(3, 600), _tower)
    if t is not None:
        for name, thunk, encode in analysis(tower, t, nested):
            run(f"main/{name}", thunk, encode)
    if not nested:
        run("main/sl_ratio_scan", lambda: linear.sl_ratio_scan(2, 100, 10**6), _scan)
    for label, d, l in random_towers(workload, seed):
        small = tower.IndexTower(name=label, d=tuple(d), l=tuple(l))
        for name, thunk, encode in analysis(tower, small, nested):
            run(f"{label}/{name}", thunk, encode)
    results = {name: encode(value) for name, (value, encode) in raw.items()}
    return {"op_s": op_s, "results": results}


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "lib":
        trace_file = args[2] if len(args) > 2 else None
    else:
        trace_file, args = args[0], args[1:]
    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "lib":
            print(json.dumps(run_library(args[0], int(args[1]))))
            return 0
        from resavg import cli

        return cli.main(args)
    finally:
        if tracer:
            tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
