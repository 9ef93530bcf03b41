"""Command-line entry point.

One subcommand per library operation, deterministic JSON on stdout
(sorted keys, no timestamps), an optional CSV projection for commands
that carry a tower table, and a small JSON interchange format for
towers and exponent tables.  Exit codes: 0 success; 1 domain error, a
machine-readable error object on stdout (SchemaError only for tower and
table files); 2 usage error, including any library ValueError: argparse's
usage line and message on stderr, nothing on stdout.

Exact rationals are emitted as {"exact": "num/den", "approx": "..."}
with the approximation rendered to --digits significant digits under
round-half-even.  Integers that can outgrow 64 bits (indices, orders,
lcm values, numerators) are emitted as decimal strings of any length:
main lifts CPython's int<->str digit limit while it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable

from . import grigorchuk, integers, linear, primes, tower
from .errors import ResavgError, SchemaError
from .tower import IndexTower, as_fraction

SCHEMA = "resavg.report/1"

# Output flags: accepted before and after the subcommand, never report parameters.
OUTPUT_DEFAULTS = {"digits": 10, "json": False, "csv": False, "quiet": False}
# Budget of --digits: a rendering costs memory linear in its digits.
MAX_DIGITS = 10**6


def _check_digits(digits: int, what: str = "digits") -> None:
    if digits < 1:
        raise ValueError(f"{what} must be positive")
    if digits > MAX_DIGITS:
        raise ValueError(f"{what} must be at most {MAX_DIGITS}, got {digits}")


def decimal_str(value: Fraction | int, digits: int = 10) -> str:
    """Render an exact rational to `digits` significant digits.

    Correctly rounded (half-even), so the result differs from the exact
    value by well under one unit in the last rendered digit.  digits
    runs from 1 to MAX_DIGITS; any other value is a ValueError.
    """
    _check_digits(digits)
    fr = Fraction(value)
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    return str(ctx.divide(Decimal(fr.numerator), Decimal(fr.denominator)))


def rational_json(value: Fraction | int, digits: int) -> dict[str, str]:
    fr = Fraction(value)
    return {
        "exact": f"{fr.numerator}/{fr.denominator}",
        "approx": decimal_str(fr, digits),
    }


def tower_to_json(t: IndexTower) -> dict[str, Any]:
    """The tower interchange object; a nested tower's d and l share one list."""
    l = [str(x) for x in t.l]
    return {"name": t.name, "d": l if tower.is_nested(t) else [str(x) for x in t.d], "l": l}


def _parse_big_int(raw: Any, where: str) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        text = raw.strip()
        if text.isascii() and text.isdigit():
            return int(text)
    raise SchemaError(f"{where}: expected a decimal integer string, got {raw!r}")


def _parse_int_list(raw: Any, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise SchemaError(f"field '{where}': expected a list")
    return tuple(_parse_big_int(x, f"field '{where}[{i}]'") for i, x in enumerate(raw, start=1))


def tower_from_json(obj: Any) -> IndexTower:
    """Parse the tower interchange object, with field-level diagnostics."""
    if not isinstance(obj, dict):
        raise SchemaError("tower file must contain a JSON object")
    missing = {"name", "d", "l"} - set(obj)
    if missing:
        raise SchemaError(f"tower object missing field(s): {sorted(missing)}")
    name = obj["name"]
    if not isinstance(name, str):
        raise SchemaError("field 'name': expected a string")
    d = _parse_int_list(obj["d"], "d")
    # a nested tower's l repeats d's strings; only strings, as 1 == 1.0 == True
    same = obj["l"] == obj["d"] and all(isinstance(x, str) for x in obj["d"])
    l = d if same else _parse_int_list(obj["l"], "l")
    if len(d) != len(l):
        raise SchemaError(f"field 'l': length {len(l)} does not match 'd' length {len(d)}")
    try:
        return IndexTower(name=name, d=d, l=l)
    except ValueError as exc:
        raise SchemaError(f"tower violates an index invariant: {exc}") from exc


def _read_json(path: str | Path, what: str) -> Any:
    try:
        payload = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nesting too deep, or an unreadable value
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def read_tower(path: str | Path) -> IndexTower:
    return tower_from_json(_read_json(path, "tower"))


def write_tower(obj: dict[str, Any], path: str | Path) -> None:
    """Write a rendered tower object (tower_to_json's, as a report carries it)."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def ell_table_from_json(obj: Any, n: int) -> linear.EllTable:
    if not isinstance(obj, dict):
        raise SchemaError("table file must contain a JSON object")
    missing = {"primes", "ell", "O"} - set(obj)
    if missing:
        raise SchemaError(f"table object missing field(s): {sorted(missing)}")
    rows = obj["ell"]
    if not isinstance(rows, list):
        raise SchemaError("field 'ell': expected a list")
    try:
        return linear.EllTable(
            n=n,
            primes=_parse_int_list(obj["primes"], "primes"),
            rows=tuple(_parse_int_list(row, f"ell[{i}]") for i, row in enumerate(rows, start=1)),
            orders=_parse_int_list(obj["O"], "O"),
        )
    except ValueError as exc:
        raise SchemaError(f"table violates the exponent-table schema: {exc}") from exc


def tower_table_rows(t: IndexTower) -> list[tuple[int, ...]]:
    """Per-level table in CSV_COLUMNS order: coefficients, measure term, running average."""
    columns = zip(t.d, t.l, *tower.coefficients(t), accumulate(tower.ave_terms(t)))
    return [
        (j, dj, lj, rj, sj, tj, *Fraction(sj - 1, lj).as_integer_ratio(),
         *partial.as_integer_ratio())
        for j, (dj, lj, rj, sj, tj, partial) in enumerate(columns, start=1)
    ]


CSV_COLUMNS = ("j", "d", "l", "r", "s", "t", "term_num", "term_den", "partial_num", "partial_den")


def _degenerate_warnings(t: IndexTower) -> list[str]:
    levels = tower.degenerate_levels(t)
    if not levels:
        return []
    return [f"levels {levels} have s = 1: they contribute no measure and no growth ratio"]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, warnings, tower for --csv); a report's own
# tower is an IndexTower in results["tower"], which _run renders if it prints or writes it

Handler = Callable[[argparse.Namespace], tuple[dict[str, Any], list[str], IndexTower | None]]


def _cmd_primes(args) -> tuple[dict, list, None]:
    ps = primes.primes_upto(args.upto)
    return {"bound": args.upto, "count": len(ps), "primes": list(ps)}, [], None


def _cmd_bertrand(args) -> tuple[dict, list, None]:
    ratio, pair = primes.bertrand_verify(args.upto)
    return (
        {
            "bound": args.upto,
            "max_ratio": rational_json(ratio, args.digits),
            "witness": {"p": pair[0], "q": pair[1]},
            "holds": bool(ratio <= 2),
        },
        [],
        None,
    )


def _cmd_ave_z(args) -> tuple[dict, list, None]:
    value = integers.ave_z_partial(args.terms)
    return {"terms": args.terms, "value": rational_json(value, args.digits)}, [], None


def _cmd_ave_prime(args) -> tuple[dict, list, None]:
    value = integers.ave_prime_partial(args.terms)
    return {"terms": args.terms, "value": rational_json(value, args.digits)}, [], None


def _cmd_ave_p(args) -> tuple[dict, list, None]:
    value = integers.ave_p_partial(args.prime, args.terms)
    return (
        {"prime": args.prime, "terms": args.terms, "value": rational_json(value, args.digits)},
        [f"partial sums grow linearly: every term equals {args.prime - 1}"],
        None,
    )


def _cmd_density(args) -> tuple[dict, list, None]:
    exact = integers.level_set_measure(args.n)
    observed = integers.empirical_density(args.n, args.upto)
    bound = Fraction(2 * primes.lcm_upto(args.n), args.upto)
    return (
        {
            "n": args.n,
            "bound": args.upto,
            "empirical": observed,
            "exact": rational_json(exact, args.digits),
            "abs_error": abs(observed - float(exact)),
            "error_bound": rational_json(bound, args.digits),
        },
        [],
        None,
    )


def _cmd_div(args) -> tuple[dict, list, None]:
    if args.mode == "full":
        value = integers.d_full(args.m)
    elif args.mode == "prime":
        value = integers.d_prime(args.m)
    else:
        if args.prime is None:
            raise ValueError("--mode p requires --prime")
        value = integers.d_p(args.m, args.prime)
    out: dict[str, Any] = {"m": args.m, "mode": args.mode, "value": value}
    if args.mode == "p":
        out["prime"] = args.prime
    return out, [], None


def _cmd_sl_tower(args) -> tuple[dict, list, IndexTower]:
    t = linear.sl_prime_tower(args.n, args.primes)
    results: dict[str, Any] = {
        "tower": t,
        "prime_system": tower.is_prime_system(t),
    }
    warnings = _degenerate_warnings(t)
    if args.classify:
        verdict = tower.classify(t, window=args.window)
        results["classification"] = verdict.value
        results["window"] = args.window
    return results, warnings, t


def _cmd_order(args) -> tuple[dict, list, None]:
    det_one = args.group == "sl"
    if args.mod_power is not None:
        value = linear.order_mod_pk(args.n, args.q, args.mod_power, det_one=det_one)
        extra = {"mod_power": args.mod_power}
    else:
        value = linear.sl_order(args.n, args.q) if det_one else linear.gl_order(args.n, args.q)
        extra = {}
    return {"group": args.group, "n": args.n, "q": args.q, "order": str(value), **extra}, [], None


def _parse_matrix(text: str) -> linear.IntMatrix:
    try:
        rows = tuple(
            tuple(int(cell) for cell in row.split(",")) for row in text.split(";")
        )
        return linear.IntMatrix(rows)
    except ValueError as exc:
        raise ValueError(f"cannot parse matrix {text!r}: {exc}") from exc


def _cmd_matdiv(args) -> tuple[dict, list, None]:
    gamma = _parse_matrix(args.matrix)
    p, index = linear.divisibility_matrix(gamma, args.pmax)
    return {"matrix": args.matrix, "p": p, "index": str(index)}, [], None


def _cmd_select_powers(args) -> tuple[dict, list, IndexTower | None]:
    table = ell_table_from_json(_read_json(args.table, "table"), args.n)
    epsilon = args.epsilon if args.epsilon is not None else args.delta / 2
    params = linear.PowerSelectionParams(
        n=args.n, N=args.N0, C=args.C, delta=args.delta, epsilon=epsilon
    )
    count = args.terms if args.terms is not None else len(table)
    ks = linear.select_powers(table, params, count)
    verified = linear.verify_power_windows(table, ks, params)
    j0 = linear.power_gap_start_index(params, primes=table.primes)
    results: dict[str, Any] = {
        "ks": list(ks),
        "ell": [table.ell(j, ks[j - 1]) for j in range(1, len(ks) + 1)],
        "windows_verified": verified,
        "gap_start_index": j0,
        "delta": str(params.delta),
        "epsilon": str(params.epsilon),
    }
    t: IndexTower | None = None
    warnings = []
    if args.emit_tower:
        t = linear.power_tower(table, ks)
        results["tower"] = t
        if j0 < len(t):
            results["gap_check_power"] = tower.gap_check_power(t, params.delta, start=j0)
        else:
            warnings.append("tower too short to test the power gap from the computed start index")
    return results, warnings, t


def _cmd_wieferich(args) -> tuple[dict, list, None]:
    return (
        {"p": args.p, "a": args.a, "wieferich": linear.wieferich_test(args.p, args.a)},
        [],
        None,
    )


def _nested_results(t: IndexTower, digits: int) -> dict[str, Any]:
    return {
        "tower": t,
        "nested": tower.is_nested(t),
        "ave_partial": rational_json(tower.ave_partial(t, len(t)), digits),
    }


def _cmd_grig(args) -> tuple[dict, list, IndexTower]:
    t = grigorchuk.grig_tower(args.levels)
    results = _nested_results(t, args.digits)
    warnings: list[str] = []
    if args.d1_series:
        terms = grigorchuk.d1_series_terms(t.d, max(0, args.levels - 3))
        results["d1_series"] = [rational_json(x, args.digits) for x in terms]
        trend = [terms[j] <= terms[j - 1] for j in range(1, len(terms))]
        if trend and all(trend):
            warnings.append(
                "d1 series terms are non-increasing over the computed range; "
                "no claim is made about their limit"
            )
    return results, warnings, t


def _cmd_slzp(args) -> tuple[dict, list, IndexTower]:
    t = grigorchuk.slnzp_tower(args.n, args.p, args.levels)
    return _nested_results(t, args.digits), [], t


def _cmd_classify(args) -> tuple[dict, list, IndexTower]:
    t = read_tower(args.tower)
    verdict = tower.classify(t, window=args.window)
    return (
        {"tower": t.name, "window": args.window, "classification": verdict.value},
        _degenerate_warnings(t),
        t,
    )


def _cmd_ave(args) -> tuple[dict, list, IndexTower]:
    t = read_tower(args.tower)
    terms = args.terms if args.terms is not None else len(t)
    value = tower.ave_partial(t, terms)
    product_form = tower.ave_partial_product_form(t, terms)
    results = {
        "tower": t.name,
        "terms": terms,
        "ave_partial": rational_json(value, args.digits),
        "ave_partial_product_form": rational_json(product_form, args.digits),
        "forms_agree": value == product_form,
        "measure_telescope": rational_json(tower.measure_telescope(t, terms), args.digits),
    }
    warnings = _degenerate_warnings(t)
    if value != product_form:
        warnings.append("the two series forms disagree on this tower")
    return results, warnings, t


def _index_values(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _index_list(text: str) -> str:
    """argparse type of --indices: a bad list is a usage error at parse time.

    The text itself is kept, so the report echoes it as given.
    """
    try:
        _index_values(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    return text


def _cmd_zeta(args) -> tuple[dict, list, None]:
    if args.tower is not None:
        t = read_tower(args.tower)
        pool = sorted(set(t.d))
        source = t.name
    else:
        parts = _index_values(args.indices)
        if len(parts) != len(set(parts)):
            raise ValueError("indices must be distinct")
        pool = sorted(parts)
        source = "explicit"
    terms = args.terms if args.terms is not None else len(pool)
    value = tower.zeta_partial(pool, args.s, terms)
    return (
        {
            "source": source,
            "s": str(as_fraction(args.s)),
            "terms": min(terms, len(pool)),
            "value": value,
        },
        [],
        None,
    )


def _cmd_tower_check(args) -> tuple[dict, list, IndexTower]:
    t = read_tower(args.tower)
    first_bad = tower.first_inconsistent_level(t)
    results: dict[str, Any] = {
        "tower": t.name,
        "levels": len(t),
        "consistent": first_bad is None,
        "first_inconsistent_level": first_bad,
    }
    warnings: list[str] = []
    if first_bad is None:
        results["prime_system"] = tower.is_prime_system(t)
        results["nested"] = tower.is_nested(t)
        results["measure_telescope"] = rational_json(
            tower.measure_telescope(t, len(t)), args.digits
        )
        warnings = _degenerate_warnings(t)
    return results, warnings, t


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # The output flags are accepted both before and after the subcommand;
    # SUPPRESS keeps a later subparser from resetting a value parsed earlier.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--digits", type=int, default=argparse.SUPPRESS,
        help="significant digits for decimal fields (default 10)",
    )
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="JSON output (the default)")
    common.add_argument("--csv", action="store_true", default=argparse.SUPPRESS,
                        help="CSV tower table instead of JSON")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="print only the results object")

    parser = argparse.ArgumentParser(
        prog="resavg",
        description="Exact residual averages and index-gap statistics for residual systems.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p = add("primes", _cmd_primes, "primes up to a bound")
    p.add_argument("--upto", type=int, required=True)

    p = add("bertrand", _cmd_bertrand, "max consecutive-prime ratio up to a bound")
    p.add_argument("--upto", type=int, required=True)

    p = add("ave-z", _cmd_ave_z, "partial average over all integer subgroups")
    p.add_argument("--terms", type=int, required=True)

    p = add("ave-prime", _cmd_ave_prime, "partial average over the prime subgroups")
    p.add_argument("--terms", type=int, required=True)

    p = add("ave-p", _cmd_ave_p, "partial average over powers of one prime (diverges)")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    p = add("density", _cmd_density, "empirical density of a divisibility level set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--upto", type=int, required=True)

    p = add("div", _cmd_div, "divisibility function of one integer")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=("full", "prime", "p"), default="full")
    p.add_argument("--prime", type=int)

    p = add("sl-tower", _cmd_sl_tower, "mod-p tower of the integral special linear group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--primes", type=int, required=True)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--out", help="also write the tower JSON to this file")

    p = add("order", _cmd_order, "group order over a finite field or a prime power ring")
    p.add_argument("--group", choices=("sl", "gl"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mod-power", type=int, dest="mod_power")

    p = add("matdiv", _cmd_matdiv, "divisibility of an integer matrix via mod-p reduction")
    p.add_argument("--matrix", required=True, help='rows separated by ";", entries by ","')
    p.add_argument("--pmax", type=int, default=10**6)

    p = add("select-powers", _cmd_select_powers, "depth selection over an exponent table")
    p.add_argument("--table", required=True, help="JSON file with primes/ell/O")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N0", type=int, required=True, dest="N0")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--delta", type=as_fraction, required=True)
    p.add_argument("--epsilon", type=as_fraction)
    p.add_argument("--terms", type=int)
    p.add_argument("--emit-tower", action="store_true", dest="emit_tower")

    p = add("wieferich", _cmd_wieferich, "does a**(p-1) = 1 hold mod p^2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, default=2)

    p = add("grig", _cmd_grig, "level tower of the first Grigorchuk group")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--d1-series", action="store_true", dest="d1_series")
    p.add_argument("--out", help="also write the tower JSON to this file")

    p = add("slzp", _cmd_slzp, "congruence tower of the p-adic special linear group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", help="also write the tower JSON to this file")

    p = add("classify", _cmd_classify, "ratio-test growth class of a tower file")
    p.add_argument("--tower", required=True)
    p.add_argument("--window", type=int, default=10)

    p = add("ave", _cmd_ave, "partial averages of a tower file (both series forms)")
    p.add_argument("--tower", required=True)
    p.add_argument("--terms", type=int)

    p = add("zeta", _cmd_zeta, "partial index zeta sum of a tower or explicit index set")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--tower")
    source.add_argument("--indices", type=_index_list, help="comma-separated distinct indices")
    p.add_argument("--s", type=as_fraction, required=True)
    p.add_argument("--terms", type=int)

    p = add("tower-check", _cmd_tower_check, "consistency and structure report for a tower file")
    p.add_argument("--tower", required=True)

    return parser


def _parameters(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"handler", "command", *OUTPUT_DEFAULTS}
    out = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        out[key] = str(value) if isinstance(value, Fraction) else value
    return out


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    # Reports print exact integers of any size: lift CPython's int<->str
    # digit limit for this call only, so library callers keep it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left: stdout goes to devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The output flags live in a shared parent with SUPPRESS defaults so a
    # subcommand parse cannot reset values given before it; fill them here.
    for key, fallback in OUTPUT_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, fallback)
    try:
        _check_digits(args.digits, "--digits")
        results, warnings, table_tower = args.handler(args)
        out = getattr(args, "out", None)
        if isinstance(results.get("tower"), IndexTower) and (out or not args.csv):
            results["tower"] = tower_to_json(results["tower"])
        if out:
            try:
                write_tower(results["tower"], out)
            except OSError as exc:
                raise SchemaError(f"cannot write tower file {out}: {exc}") from exc
            results["written"] = str(out)
        if args.csv:
            if table_tower is None:
                raise ValueError("--csv applies only to commands that carry a tower table")
            # Rows first: an inconsistent tower then prints only the error object.
            rows = tower_table_rows(table_tower)
            print(",".join(CSV_COLUMNS))
            for row in rows:
                print(",".join(map(str, row)))
        elif args.quiet:
            _print_json(results)
        else:
            _print_json(
                {
                    "schema": SCHEMA,
                    "command": args.command,
                    "parameters": _parameters(args),
                    "results": results,
                    "warnings": warnings,
                }
            )
    except ResavgError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        _print_json({"schema": SCHEMA, "command": args.command, "error": error})
        return 1
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print(f"resavg: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
