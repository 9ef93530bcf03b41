import json
import math
import random
from fractions import Fraction

import pytest

from conftest import random_moduli_tower
from resavg.cli import (
    decimal_str,
    main,
    read_tower,
    tower_from_json,
    tower_to_json,
    write_tower,
)
from resavg.errors import SchemaError
from resavg.integers import tower_primes
from resavg.tower import IndexTower


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
        write_tower(t, path)
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

    def test_matdiv(self, capsys):
        code, report = run_json(capsys, "matdiv", "--matrix", "1,2;0,1", "--quiet")
        assert code == 0
        assert (report["p"], report["index"]) == (3, "24")

    def test_wieferich(self, capsys):
        code, report = run_json(capsys, "wieferich", "--p", "1093", "--quiet")
        assert report["wieferich"] is True

    def test_zeta_indices(self, capsys):
        code, report = run_json(capsys, "zeta", "--indices", "2", "--s", "1", "--quiet")
        assert report["value"] == 0.5

    def test_zeta_rejects_duplicates(self, capsys):
        code, out = run(capsys, "zeta", "--indices", "2,2", "--s", "1")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "SchemaError"


class TestTowerFileCommands:
    @pytest.fixture
    def tower_file(self, tmp_path):
        path = tmp_path / "primes.json"
        write_tower(tower_primes(20), path)
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


class TestTowerCheckConsistency:
    """tower-check's consistent / first_inconsistent_level on lattice data."""

    def check(self, capsys, tmp_path, t):
        path = tmp_path / "tower.json"
        write_tower(t, path)
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


class TestSelectPowersCommand:
    def test_end_to_end(self, capsys, tmp_path):
        from resavg.primes import first_primes

        table = {
            "primes": list(first_primes(16)),
            "ell": [list(range(130)) for _ in range(16)],
            "O": [1] * 16,
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        code, report = run_json(
            capsys,
            "select-powers",
            "--table", str(path),
            "--n", "1",
            "--N0", "2",
            "--C", "5",
            "--delta", "2/5",
            "--epsilon", "1/5",
            "--emit-tower",
            "--quiet",
        )
        assert code == 0
        assert report["ks"][:2] == [9, 15]
        assert report["windows_verified"] is True
        assert report["gap_start_index"] == 12
        assert report["gap_check_power"] is True


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

    def test_determinism(self, capsys):
        argv = ["sl-tower", "--n", "2", "--primes", "8", "--classify", "--window", "3"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
