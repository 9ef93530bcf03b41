import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import resavg.cli
import resavg.tower
from conftest import random_consistent_tower, random_moduli_tower
from resavg.cli import (
    CSV_COLUMNS,
    MAX_DIGITS,
    build_parser,
    decimal_str,
    main,
    read_tower,
    tower_from_json,
    tower_to_json,
    write_tower,
)
from resavg.errors import SchemaError
from resavg.grigorchuk import grig_tower, slnzp_tower
from resavg.integers import level_set_measure, tower_all_subgroups, tower_primes
from resavg.linear import sl_prime_tower
from resavg.primes import first_primes, lcm_upto
from resavg.tower import IndexTower, _show, ave_partial, classify, is_nested, levels


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestDecimalRendering:
    def test_examples(self):
        assert decimal_str(Fraction(8, 3), 10) == "2.666666667"
        # exact values render without padding; digits is an upper bound
        assert decimal_str(Fraction(1, 2), 3) == "0.5"
        assert decimal_str(Fraction(0), 5) == "0"

    def test_digits_budget(self):
        assert decimal_str(Fraction(1, 2), MAX_DIGITS) == "0.5"
        for digits in (MAX_DIGITS + 1, 99999999999999999999):
            with pytest.raises(ValueError, match=f"digits must be at most 1000000, got {digits}"):
                decimal_str(Fraction(1, 3), digits)
        with pytest.raises(ValueError, match="digits must be positive"):
            decimal_str(Fraction(1, 3), 0)

    def test_half_even(self):
        assert decimal_str(Fraction(25, 10), 1) == "2"
        assert decimal_str(Fraction(35, 10), 1) == "4"

    def test_relative_error_bound(self):
        import random
        from decimal import Decimal

        rng = random.Random(17)
        for _ in range(200):
            fr = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
            for digits in (3, 10, 25):
                rendered = Fraction(Decimal(decimal_str(fr, digits)))
                assert abs(rendered - fr) < abs(fr) * Fraction(1, 10 ** (digits - 1))


class TestTowerFiles:
    def test_round_trip(self, tmp_path):
        t = tower_primes(5)
        path = tmp_path / "tower.json"
        write_tower(tower_to_json(t), path)
        assert read_tower(path) == t

    def test_malformed_integer(self):
        with pytest.raises(SchemaError, match="d\\[2\\]"):
            tower_from_json({"name": "x", "d": ["2", "12a"], "l": ["2", "24"]})

    def test_length_mismatch(self):
        with pytest.raises(SchemaError, match="length"):
            tower_from_json({"name": "x", "d": ["2", "3"], "l": ["2"]})

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing"):
            tower_from_json({"name": "x", "d": ["2"]})

    def test_invariant_violation_is_schema_error(self):
        with pytest.raises(SchemaError, match="invariant"):
            tower_from_json({"name": "x", "d": ["1"], "l": ["1"]})

    def test_bad_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid JSON"):
            read_tower(path)


class TestSubcommands:
    def test_ave_z(self, capsys):
        code, report = run_json(capsys, "ave-z", "--terms", "5")
        assert code == 0
        assert report["schema"] == "resavg.report/1"
        assert report["results"]["value"]["exact"] == "8/3"
        assert report["results"]["value"]["approx"] == "2.666666667"

    def test_ave_z_twenty_terms(self, capsys):
        code, report = run_json(capsys, "ave-z", "--terms", "20", "--digits", "10")
        assert code == 0
        assert report["results"]["value"]["approx"] == "2.787780357"

    def test_ave_prime(self, capsys):
        code, report = run_json(capsys, "ave-prime", "--terms", "4", "--quiet")
        assert code == 0
        assert report["value"]["exact"] == "43/15"

    def test_ave_p_warns_about_divergence(self, capsys):
        code, report = run_json(capsys, "ave-p", "--prime", "3", "--terms", "7")
        assert code == 0
        assert report["results"]["value"]["exact"] == "14/1"
        assert report["warnings"]

    def test_primes(self, capsys):
        code, report = run_json(capsys, "primes", "--upto", "10", "--quiet")
        assert code == 0
        assert report["primes"] == [2, 3, 5, 7]

    def test_bertrand(self, capsys):
        code, report = run_json(capsys, "bertrand", "--upto", "10", "--quiet")
        assert code == 0
        assert report["max_ratio"]["exact"] == "5/3"
        assert report["witness"] == {"p": 3, "q": 5}
        assert report["holds"] is True

    def test_div_modes(self, capsys):
        assert run_json(capsys, "div", "--m", "60", "--quiet")[1]["value"] == 7
        assert run_json(capsys, "div", "--m", "30", "--mode", "prime", "--quiet")[1]["value"] == 7
        code, report = run_json(
            capsys, "div", "--m", "18", "--mode", "p", "--prime", "3", "--quiet"
        )
        assert report["value"] == 27

    def test_density(self, capsys):
        code, report = run_json(capsys, "density", "--n", "2", "--upto", "10", "--quiet")
        assert code == 0
        assert report["empirical"] == 0.5
        assert report["exact"]["exact"] == "1/2"

    def test_density_at_a_bound_no_scan_reaches(self, capsys):
        bound = 10**18
        code, report = run_json(capsys, "density", "--n", "5", "--upto", str(bound), "--quiet")
        assert code == 0
        assert report["empirical"] == (bound // 12 - bound // 60) / bound
        assert report["exact"]["exact"] == "1/15"
        assert report["error_bound"]["exact"] == "3/25000000000000000"

    def test_grig_tower_json(self, capsys):
        code, report = run_json(capsys, "grig", "--levels", "2")
        assert code == 0
        assert report["results"]["tower"] == {
            "name": "grigorchuk(2)",
            "d": ["2", "8"],
            "l": ["2", "8"],
        }

    def test_grig_d1_series_flags_trend(self, capsys):
        code, report = run_json(capsys, "grig", "--levels", "4", "--d1-series")
        assert code == 0
        assert report["results"]["d1_series"][0]["exact"] == "127/128"
        assert any("non-increasing" in w for w in report["warnings"])

    def test_grig_level_six(self, capsys):
        code, report = run_json(capsys, "grig", "--levels", "6", "--d1-series")
        assert code == 0
        orders = [2, 8, 2**7, 2**12, 2**22, 2**42]
        assert report["results"]["tower"]["d"] == [str(o) for o in orders]
        assert [term["exact"] for term in report["results"]["d1_series"]] == [
            "127/128",
            "31/2048",
            "1023/524288",
            "1048575/34359738368",
        ]

    def test_grig_past_the_level_bound(self, capsys):
        code, report = run_json(capsys, "grig", "--levels", "7")
        assert code == 1
        assert report["error"]["type"] == "LevelTooDeep"

    def test_slzp(self, capsys):
        code, report = run_json(capsys, "slzp", "--n", "2", "--p", "2", "--levels", "3", "--quiet")
        assert code == 0
        assert report["tower"]["d"] == ["6", "48", "384"]
        assert report["nested"] is True

    def test_sl_tower_with_classification(self, capsys):
        code, report = run_json(
            capsys, "sl-tower", "--n", "2", "--primes", "12", "--classify", "--window", "5"
        )
        assert code == 0
        assert report["results"]["classification"] == "SubQuadratic"
        assert report["results"]["prime_system"] is True

    def test_order(self, capsys):
        code, report = run_json(capsys, "order", "--group", "sl", "--n", "2", "--q", "5", "--quiet")
        assert report["order"] == "120"
        code, report = run_json(
            capsys, "order", "--group", "gl", "--n", "2", "--q", "2", "--mod-power", "2", "--quiet"
        )
        assert report["order"] == "96"

    @pytest.mark.parametrize(
        "p,argv",
        [
            (6, ("order", "--group", "sl", "--n", "2", "--q", "6", "--mod-power", "2")),
            (4, ("order", "--group", "sl", "--n", "2", "--q", "4", "--mod-power", "2")),
            (4, ("slzp", "--n", "2", "--p", "4", "--levels", "3")),
        ],
    )
    def test_non_prime_p_over_a_prime_power_ring_is_domain_error(self, capsys, p, argv):
        code, report = run_json(capsys, *argv)
        assert code == 1
        assert report["error"] == {"type": "InvalidPrimePower", "message": f"p must be prime, got {p}"}

    def test_order_over_a_large_prime_field(self, capsys):
        q = 1000000000000000003
        code, report = run_json(capsys, "order", "--group", "sl", "--n", "2", "--q", str(q), "--quiet")
        assert code == 0
        assert report["order"] == str(q * (q * q - 1))

    def test_matdiv(self, capsys):
        code, report = run_json(capsys, "matdiv", "--matrix", "1,2;0,1", "--quiet")
        assert code == 0
        assert (report["p"], report["index"]) == (3, "24")

    def test_wieferich(self, capsys):
        code, report = run_json(capsys, "wieferich", "--p", "1093", "--quiet")
        assert report["wieferich"] is True

    def test_wieferich_base_divisible_by_p_is_domain_error(self, capsys):
        code, out = run(capsys, "wieferich", "--p", "1093", "--a", "1093")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "CoprimalityViolation"

    def test_zeta_indices(self, capsys):
        code, report = run_json(capsys, "zeta", "--indices", "2", "--s", "1", "--quiet")
        assert report["value"] == 0.5

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta", "--s", "2"),
            ("zeta", "--indices", "2", "--tower", "t.json", "--s", "2"),
        ],
    )
    def test_zeta_needs_exactly_one_source(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--tower" in captured.err and "--indices" in captured.err

    @pytest.mark.parametrize("indices", ["1,x", "2,1.5"])
    def test_zeta_bad_index_is_usage_error(self, capsys, indices):
        code = main(["zeta", "--indices", indices, "--s", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "argument --indices" in captured.err and "invalid literal" not in captured.err

    def test_zeta_rejects_duplicates(self, capsys):
        code, out = run(capsys, "zeta", "--indices", "2,2", "--s", "1")
        assert code == 2
        assert out == ""


class TestTowerFileCommands:
    @pytest.fixture
    def tower_file(self, tmp_path):
        path = tmp_path / "primes.json"
        write_tower(tower_to_json(tower_primes(20)), path)
        return str(path)

    def test_classify(self, capsys, tower_file):
        code, report = run_json(capsys, "classify", "--tower", tower_file, "--window", "10")
        assert code == 0
        assert report["results"]["classification"] == "SubQuadratic"

    def test_ave_both_forms(self, capsys, tower_file):
        code, report = run_json(capsys, "ave", "--tower", tower_file, "--terms", "3", "--quiet")
        assert report["ave_partial"]["exact"] == "8/3"
        assert report["forms_agree"] is True

    def test_zeta_from_tower(self, capsys, tower_file):
        code, report = run_json(capsys, "zeta", "--tower", tower_file, "--s", "2", "--terms", "2", "--quiet")
        assert abs(report["value"] - (1 / 4 + 1 / 9)) < 1e-15

    def test_zeta_on_indices_past_the_float_range(self, capsys, tmp_path):
        # d[j] = 120 * 125**(j-1) passes the float range at level 147
        path = str(tmp_path / "slzp.json")
        code, _ = run(capsys, "slzp", "--n", "2", "--p", "5", "--levels", "200", "--out", path)
        assert code == 0
        code, report = run_json(capsys, "zeta", "--tower", path, "--s", "2", "--quiet")
        assert code == 0
        expected = math.fsum(float(Fraction(1, 120 * 125 ** (j - 1)) ** 2) for j in range(1, 201))
        assert math.isclose(report["value"], expected, rel_tol=1e-12)

    def test_tower_check_consistent(self, capsys, tower_file):
        code, report = run_json(capsys, "tower-check", "--tower", tower_file, "--quiet")
        assert code == 0
        assert report["consistent"] is True
        assert report["prime_system"] is True
        assert report["first_inconsistent_level"] is None
        assert "recursion_check" not in report

    def test_tower_check_reports_inconsistency(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps({"name": "broken", "d": ["2", "3", "4"], "l": ["2", "6", "8"]}),
            encoding="utf-8",
        )
        code, report = run_json(capsys, "tower-check", "--tower", str(path), "--quiet")
        assert code == 0
        assert report["consistent"] is False
        assert report["first_inconsistent_level"] == 3

    def test_classify_inconsistent_tower_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            json.dumps({"name": "broken", "d": ["2", "3", "4"], "l": ["2", "6", "8"]}),
            encoding="utf-8",
        )
        code, out = run(capsys, "classify", "--tower", str(path))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InconsistentTower"

    def test_inconsistent_tower_csv_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "d": ["2", "3"], "l": ["2", "5"]}), encoding="utf-8")
        for command in ("tower-check", "ave", "classify"):
            code, out = run(capsys, command, "--tower", str(path), "--csv")
            assert code == 1
            assert json.loads(out)["error"]["type"] == "InconsistentTower"
        code, report = run_json(capsys, "tower-check", "--tower", str(path), "--quiet")
        assert code == 0
        assert report["consistent"] is False

    def test_csv_projection(self, capsys, tower_file):
        code, out = run(capsys, "ave", "--tower", tower_file, "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,d,l,r,s,t,term_num,term_den,partial_num,partial_den"
        assert lines[1] == "1,2,2,1,2,1,1,2,1,1"
        assert len(lines) == 21

    def test_csv_rejected_without_tower(self, capsys):
        code, out = run(capsys, "ave-z", "--terms", "5", "--csv")
        assert code == 2

    def test_sl_tower_out_flag_round_trips(self, capsys, tmp_path):
        path = tmp_path / "sl.json"
        code, report = run_json(
            capsys, "sl-tower", "--n", "2", "--primes", "3", "--out", str(path), "--quiet"
        )
        assert code == 0
        assert read_tower(path).d == (6, 24, 120)


class TestOneCoefficientPass:
    """A command reads its tower once and runs the coefficient pass once."""

    @pytest.fixture
    def slzp_600(self, capsys, tmp_path):
        path = str(tmp_path / "slzp600.json")
        code, _ = run(capsys, "slzp", "--n", "2", "--p", "2", "--levels", "600", "--out", path)
        assert code == 0
        return path

    @pytest.mark.parametrize(
        "argv", (("ave",), ("ave", "--csv"), ("ave", "--terms", "17"), ("tower-check",), ("classify",))
    )
    def test_600_levels_600_calls(self, capsys, monkeypatch, slzp_600, argv):
        calls = []
        real = resavg.tower._coefficients

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(resavg.tower, "_coefficients", counting)
        code, _ = run(capsys, argv[0], "--tower", slzp_600, *argv[1:])
        assert code == 0
        assert calls == list(range(1, 601))


def out_commands():
    """The subcommands whose parser has an `out` destination."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(name for name, p in sub.choices.items() if any(a.dest == "out" for a in p._actions))


# small arguments for every subcommand in out_commands()
OUT_ARGV = {
    "grig": ("--levels", "5", "--d1-series"),
    "sl-tower": ("--n", "3", "--primes", "40", "--classify"),
    "slzp": ("--n", "2", "--p", "5", "--levels", "60"),
}


class TestOneConversion:
    """A call renders each tower integer once and parses each once from a file."""

    @pytest.mark.parametrize("command", out_commands())
    def test_out_renders_the_tower_once(self, capsys, monkeypatch, tmp_path, command):
        calls = []
        real = resavg.cli.tower_to_json

        def counting(t):
            calls.append(t.name)
            return real(t)

        monkeypatch.setattr(resavg.cli, "tower_to_json", counting)
        code, _ = run(capsys, command, *OUT_ARGV[command], "--out", str(tmp_path / "t.json"))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", out_commands())
    def test_out_writes_the_reported_tower(self, capsys, tmp_path, command):
        path = tmp_path / "t.json"
        code, results = run_json(capsys, command, *OUT_ARGV[command], "--out", str(path), "--quiet")
        assert code == 0
        assert results["written"] == str(path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(results["tower"], indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("t", (slnzp_tower(2, 5, 30), grig_tower(6)), ids=("slzp", "grig"))
    def test_nested_tower_renders_one_list(self, t):
        assert is_nested(t)
        obj = tower_to_json(t)
        assert obj["d"] is obj["l"]
        assert obj["l"] == [str(x) for x in t.l]

    def test_other_towers_render_both_lists(self):
        t = sl_prime_tower(2, 5)
        obj = tower_to_json(t)
        assert obj["d"] == [str(x) for x in t.d] and obj["l"] == [str(x) for x in t.l]
        assert obj["d"] != obj["l"]

    def test_nested_file_parses_each_level_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "slzp.json"
        code, _ = run(capsys, "slzp", "--n", "2", "--p", "5", "--levels", "50", "--out", str(path))
        assert code == 0
        calls = []
        real = resavg.cli._parse_big_int

        def counting(raw, where):
            calls.append(where)
            return real(raw, where)

        monkeypatch.setattr(resavg.cli, "_parse_big_int", counting)
        assert read_tower(path) == slnzp_tower(2, 5, 50)
        assert calls == [f"field 'd[{j}]'" for j in range(1, 51)]

    @pytest.mark.parametrize("bad", (2.0, True))
    def test_equal_lists_with_a_non_string_entry_are_parsed_apart(self, bad):
        # 2 == 2.0 and 1 == True: the raw lists compare equal, but l is still malformed
        good = 1 if bad is True else 2
        with pytest.raises(SchemaError) as exc:
            tower_from_json({"name": "x", "d": [good], "l": [bad]})
        assert str(exc.value) == f"field 'l[1]': expected a decimal integer string, got {bad!r}"


def csv_towers():
    rng = random.Random(25)
    return {
        "prime": [tower_primes(30), sl_prime_tower(3, 20)],
        "nested": [slnzp_tower(2, 5, 40), grig_tower(6)],
        "lcm-chain": [tower_all_subgroups(40)],
        "random-consistent": [random_consistent_tower(rng) for _ in range(40)],
    }


class TestCsvTable:
    """Every row of the CSV table against the library."""

    @pytest.mark.parametrize("kind", sorted(csv_towers()))
    def test_every_row(self, capsys, tmp_path, kind):
        path = tmp_path / "t.json"
        for t in csv_towers()[kind]:
            write_tower(tower_to_json(t), path)
            code, out = run(capsys, "ave", "--tower", str(path), "--csv")
            assert code == 0
            header, *lines = out.splitlines()
            assert header == ",".join(CSV_COLUMNS)
            assert len(lines) == len(t)
            for j, (line, dec) in enumerate(zip(lines, levels(t)), start=1):
                row = dict(zip(CSV_COLUMNS, map(int, line.split(",")), strict=True))
                assert (row["j"], row["d"], row["l"]) == (j, t.d_at(j), t.l_at(j))
                assert (row["r"], row["s"], row["t"]) == (dec.r, dec.s, dec.t)
                term = Fraction(dec.s - 1, t.l_at(j))
                assert (row["term_num"], row["term_den"]) == term.as_integer_ratio()
                partial = ave_partial(t, j)
                assert (row["partial_num"], row["partial_den"]) == partial.as_integer_ratio()


class TestTowerCheckConsistency:
    """tower-check's consistent / first_inconsistent_level on lattice data."""

    def check(self, capsys, tmp_path, t):
        path = tmp_path / "tower.json"
        write_tower(tower_to_json(t), path)
        code, report = run_json(capsys, "tower-check", "--tower", str(path), "--quiet")
        assert code == 0
        assert report["consistent"] is (report["first_inconsistent_level"] is None)
        return report["first_inconsistent_level"]

    def test_examples(self, capsys, tmp_path):
        assert self.check(capsys, tmp_path, tower_primes(3)) is None
        assert self.check(capsys, tmp_path, IndexTower("rep", (2, 2), (2, 2))) is None
        # l[1] = 2 does not divide l[2] = 3
        assert self.check(capsys, tmp_path, IndexTower("overlap", (2, 3), (2, 3))) == 2

    def test_non_lattice_data_fails(self, capsys, tmp_path):
        assert self.check(capsys, tmp_path, IndexTower("broken", (2, 3), (2, 4))) == 2
        # d[1] = 2 does not divide l[1] = 3
        assert self.check(capsys, tmp_path, IndexTower("x", (2,), (3,))) == 1

    def test_genuine_intersection_lattices_are_consistent(self, capsys, tmp_path):
        rng = random.Random(47)
        for _ in range(300):
            assert self.check(capsys, tmp_path, random_moduli_tower(rng)) is None


def table_json(prime_count=16):
    return {
        "primes": list(first_primes(prime_count)),
        "ell": [list(range(130)) for _ in range(prime_count)],
        "O": [1] * prime_count,
    }


SELECT_ARGS = ("--n", "1", "--N0", "2", "--C", "5", "--delta", "2/5", "--epsilon", "1/5")


class TestSelectPowersCommand:
    def select(self, capsys, tmp_path, table, *extra):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        return run_json(capsys, "select-powers", "--table", str(path), *SELECT_ARGS, *extra)

    def test_end_to_end(self, capsys, tmp_path):
        code, report = self.select(capsys, tmp_path, table_json(), "--emit-tower", "--quiet")
        assert code == 0
        assert report["ks"][:2] == [9, 15]
        assert report["windows_verified"] is True
        assert report["gap_start_index"] == 12
        assert report["gap_check_power"] is True

    @pytest.mark.parametrize(
        "key, row, col, value, field",
        [
            ("primes", 0, None, 2.9, "primes[1]"),
            ("O", 0, None, True, "O[1]"),
            ("ell", 0, 1, 1.0, "ell[1][2]"),
            ("ell", 2, None, 7, "ell[3]"),
            ("primes", 0, None, "\u00b2", "primes[1]"),
        ],
    )
    def test_malformed_entry_is_schema_error(self, capsys, tmp_path, key, row, col, value, field):
        table = table_json()
        if col is None:
            table[key][row] = value
        else:
            table[key][row][col] = value
        code, report = self.select(capsys, tmp_path, table)
        assert code == 1
        assert report["error"]["type"] == "SchemaError"
        assert report["error"]["message"].startswith(f"field '{field}': ")

    @pytest.mark.parametrize(
        "table, message",
        [
            ([table_json()], "table file must contain a JSON object"),
            ({"primes": [2]}, "table object missing field(s): ['O', 'ell']"),
            ({**table_json(), "ell": "0,1,2"}, "field 'ell': expected a list"),
            (
                {**table_json(), "primes": [2, 4, *first_primes(16)[2:]]},
                "table violates the exponent-table schema: 4 is not prime",
            ),
        ],
    )
    def test_malformed_table_is_schema_error(self, capsys, tmp_path, table, message):
        code, report = self.select(capsys, tmp_path, table)
        assert code == 1
        assert report["error"] == {"type": "SchemaError", "message": message}

    def test_narrow_delta_minus_epsilon(self, capsys, tmp_path):
        # delta - epsilon = 1/30000000: the start index is far past the tower
        code, report = self.select(
            capsys, tmp_path, table_json(), "--delta", "10000001/30000000", "--epsilon", "1/3",
            "--emit-tower",
        )
        assert code == 0
        assert report["results"]["gap_start_index"] == 62_000_000
        assert "gap_check_power" not in report["results"]
        assert report["warnings"] == [
            "tower too short to test the power gap from the computed start index"
        ]

    @pytest.mark.parametrize(
        "delta, epsilon, start",
        (("1/3", "33333333/100000001", 310_000_002), ("10000001/30000000", "9999999/30000000", 30_999_999)),
    )
    def test_epsilon_with_a_large_numerator(self, capsys, tmp_path, delta, epsilon, start):
        # the gap constant p**epsilon > 2 is decided without building 2**denominator
        begin = time.perf_counter()
        code, report = self.select(
            capsys, tmp_path, table_json(), "--delta", delta, "--epsilon", epsilon, "--quiet"
        )
        assert time.perf_counter() - begin < 1
        assert code == 0
        assert report["gap_start_index"] == start

    def test_short_table_is_table_exhausted(self, capsys, tmp_path):
        # depths are selected, but neither 2 nor 3 passes p**(1/5) > 2, the gap constant
        code, report = self.select(capsys, tmp_path, table_json(2))
        assert code == 1
        assert report["error"]["type"] == "TableExhausted"


# small arguments for every subcommand whose report carries a tower
TOWER_ARGV = {**OUT_ARGV, "select-powers": ("--table", "table.json", *SELECT_ARGS, "--emit-tower")}


class TestRenderOnce:
    """A report's tower is rendered once where it is printed or written,
    and not at all under --csv without --out."""

    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.json").write_text(json.dumps(table_json()), encoding="utf-8")

    def renders(self, capsys, monkeypatch, command, *flags):
        calls = []
        real = resavg.cli.tower_to_json

        def counting(t):
            calls.append(t.name)
            return real(t)

        monkeypatch.setattr(resavg.cli, "tower_to_json", counting)
        code, _ = run(capsys, command, *TOWER_ARGV[command], *flags)
        assert code == 0
        return len(calls)

    @pytest.mark.parametrize("flags", ((), ("--quiet",), ("--csv",), ("--csv", "--quiet")))
    @pytest.mark.parametrize("command", sorted(TOWER_ARGV))
    def test_report_renders_once_and_csv_never(self, capsys, monkeypatch, command, flags):
        assert self.renders(capsys, monkeypatch, command, *flags) == (0 if "--csv" in flags else 1)

    # --out alone: TestOneConversion.test_out_renders_the_tower_once
    @pytest.mark.parametrize("flags", (("--quiet",), ("--csv",)))
    @pytest.mark.parametrize("command", out_commands())
    def test_out_renders_once(self, capsys, monkeypatch, command, flags):
        assert self.renders(capsys, monkeypatch, command, "--out", "t.json", *flags) == 1


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_domain_error_payload(self, capsys):
        code, out = run(capsys, "div", "--m", "0")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "ZeroInput"

    def test_invalid_value_is_usage_error(self, capsys):
        code, out = run(capsys, "ave-z", "--terms", "-1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("primes", "--upto", "-5"), "bound must be at least 2, got -5"),
            (("order", "--group", "sl", "--n", "2", "--q", "5", "--mod-power", "0"),
             "k must be at least 1"),
            (("div", "--m", "12", "--mode", "p"), "--mode p requires --prime"),
            (("ave-z", "--terms", "5", "--csv"),
             "--csv applies only to commands that carry a tower table"),
            (("--digits", "0", "ave-z", "--terms", "5"), "--digits must be positive"),
            (("primes", "--upto", "5", "--digits", "0"), "--digits must be positive"),
            (("matdiv", "--matrix", "1,x"),
             "cannot parse matrix '1,x': invalid literal for int() with base 10: 'x'"),
            (("matdiv", "--matrix", "1,2;3"),
             "cannot parse matrix '1,2;3': matrix must be square and non-empty"),
            (("zeta", "--indices", "2,2", "--s", "1"), "indices must be distinct"),
            (("ave", "--tower", "TOWER", "--terms", "999"), "prefix length 999 out of range 0..5"),
            (("classify", "--tower", "TOWER", "--window", "0"), "window must be positive"),
            (("density", "--n", "1", "--upto", "10"), "level sets start at n = 2, got 1"),
            (("zeta", "--indices", "2", "--s", "1e400"), f"exponent {10**400} is past the float range"),
            (("zeta", "--indices", "2", "--s=-1e400"), f"exponent {-10**400} is past the float range"),
            (("ave-z", "--terms", "5", "--digits", "99999999999999999999"),
             "--digits must be at most 1000000, got 99999999999999999999"),
            (("--digits", "1000001", "primes", "--upto", "5"),
             "--digits must be at most 1000000, got 1000001"),
            (("bertrand", "--upto", "3317044064679887385961981"),
             "prime gap scans are exact only below psi_13 = 3317044064679887385961981, "
             "got 3317044064679887385961981"),
        ],
    )
    def test_library_value_error_is_argparse_usage_error(self, capsys, tmp_path, argv, message):
        path = tmp_path / "primes.json"
        write_tower(tower_to_json(tower_primes(5)), path)
        code = main([str(path) if arg == "TOWER" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: resavg ")
        assert captured.err.endswith(f"\nresavg: error: {message}\n")
        assert "Traceback" not in captured.err

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # ~770 kB of report against a 64 kB pipe: the write after the reader
        # has gone raises BrokenPipeError
        env = dict(os.environ, PYTHONPATH=str(Path(resavg.tower.__file__).parents[1]))
        argv = ["slzp", "--n", "2", "--p", "5", "--levels", "600"]
        proc = subprocess.Popen([sys.executable, "-m", "resavg.cli", *argv], cwd=tmp_path, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""

    def test_envelope_keys(self, capsys):
        code, report = run_json(capsys, "ave-z", "--terms", "5")
        assert code == 0
        assert set(report) == {"schema", "command", "parameters", "results", "warnings"}

    def test_quiet_prints_only_results(self, capsys):
        argv = ("sl-tower", "--n", "2", "--primes", "6", "--classify", "--window", "3")
        _, report = run_json(capsys, *argv)
        code, quiet = run_json(capsys, *argv, "--quiet")
        assert code == 0
        assert quiet == report["results"]

    def test_csv_takes_precedence_over_quiet(self, capsys):
        code, out = run(capsys, "--quiet", "sl-tower", "--n", "2", "--primes", "3", "--csv")
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(out.splitlines()) == 4

    def test_out_with_csv_writes_file_and_prints_csv(self, capsys, tmp_path):
        path = tmp_path / "sl.json"
        argv = ("sl-tower", "--n", "2", "--primes", "3", "--out", str(path), "--csv")
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert read_tower(path).d == (6, 24, 120)

    def test_unwritable_out_is_schema_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out = run(capsys, "grig", "--levels", "2", "--out", str(path))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].startswith(f"cannot write tower file {path}: ")
        assert not path.parent.exists()

    def test_malformed_table_json_reports_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"primes": [2, 3,]}', encoding="utf-8")
        code, report = run_json(capsys, "select-powers", "--table", str(path), *SELECT_ARGS)
        assert code == 1
        assert report["error"] == {
            "type": "SchemaError",
            "message": f"{path}:1:18: invalid JSON: Expecting value",
        }
        # tower files report the same form
        _, report = run_json(capsys, "classify", "--tower", str(path))
        assert report["error"]["message"] == f"{path}:1:18: invalid JSON: Expecting value"

    def test_non_utf8_file_is_schema_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        for argv, what in (
            (("classify", "--tower", str(path)), "tower"),
            (("select-powers", "--table", str(path), *SELECT_ARGS), "table"),
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"]["type"] == "SchemaError"
            assert report["error"]["message"].startswith(f"cannot read {what} file {path}: ")

    @pytest.mark.parametrize(
        "tower, message",
        [
            ([{"name": "t", "d": ["2"], "l": ["2"]}], "tower file must contain a JSON object"),
            ({"name": 5, "d": ["2"], "l": ["2"]}, "field 'name': expected a string"),
        ],
    )
    def test_malformed_tower_file_is_schema_error(self, capsys, tmp_path, tower, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tower), encoding="utf-8")
        code, report = run_json(capsys, "classify", "--tower", str(path))
        assert code == 1
        assert report["error"] == {"type": "SchemaError", "message": message}

    @pytest.mark.parametrize("command", ["ave", "tower-check", "classify"])
    def test_deeply_nested_tower_file_is_schema_error(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        deep = "[" * 200_000 + "]" * 200_000
        path.write_text(f'{{"name": "deep", "d": {deep}, "l": ["2"]}}', encoding="utf-8")
        code = main([command, "--tower", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        error = json.loads(captured.out)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].startswith(f"{path}: invalid JSON: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta", "--indices", "2", "--s", "1/0"),
            ("select-powers", "--table", "t.json", *SELECT_ARGS[:6], "--delta", "2/0"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "invalid as_fraction value" in captured.err

    def test_determinism(self, capsys):
        argv = ["sl-tower", "--n", "2", "--primes", "8", "--classify", "--window", "3"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)


def decimal_int(text):
    """Parse a decimal string of any length without lifting the int-str limit."""
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def exact_fraction(field):
    num, den = field["exact"].split("/")
    return Fraction(decimal_int(num), decimal_int(den))


class TestIntegersOfAnySize:
    """Reports print integers past CPython's 4300-digit int-str limit."""

    def test_sl_tower_past_the_limit(self, capsys):
        code, report = run_json(capsys, "sl-tower", "--n", "3", "--primes", "300", "--classify", "--quiet")
        assert code == 0
        t = sl_prime_tower(3, 300)
        assert t.l[-1].bit_length() == 22125
        assert [decimal_int(x) for x in report["tower"]["d"]] == list(t.d)
        assert [decimal_int(x) for x in report["tower"]["l"]] == list(t.l)
        assert report["classification"] == classify(t).value

    def test_density_past_the_limit(self, capsys):
        code, report = run_json(capsys, "density", "--n", "20000", "--upto", "10", "--quiet")
        assert code == 0
        assert exact_fraction(report["exact"]) == level_set_measure(20000)
        assert exact_fraction(report["error_bound"]) == Fraction(2 * lcm_upto(20000), 10)

    @pytest.mark.parametrize(
        "argv", [("density", "--n", "20000", "--upto", "10"), ("order", "--q", "x")]
    )
    def test_library_keeps_the_limit(self, capsys, argv):
        before = sys.get_int_max_str_digits()
        assert before > 0
        main(list(argv))
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == before
        assert _show(10**5000) == "<int of 16610 bits>"
