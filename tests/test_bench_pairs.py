"""scripts/bench_pairs.py: pair order, statistics and claim verdicts.

No benchmark runs here: the export and run steps are replaced by stubs
that record the order of the runs and return made-up results.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"wall_s": "lower", "ops": "higher"}


def result(wall: float, ops: float = 0.0, failed: int = 0, attempted: int = 10,
           correct: bool | None = None) -> dict:
    return {
        "correct": failed == 0 if correct is None else correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "ops": {"value": ops, "unit": "1"}},
    }


def test_parent_first_on_even_pairs():
    assert [bench_pairs.pair_order(i) for i in range(4)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


def test_quartiles_are_inclusive():
    got = bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert got == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    # inclusive: q1 sits a quarter of the way from the 2nd to the 3rd of six values
    # (the exclusive method would give 1.75 and 20)
    got = bench_pairs.quartiles([32.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    assert got == {"median": 6.0, "q1": 2.5, "q3": 14.0, "iqr": 11.5}


def test_summary_counts_wins_ties_and_failures():
    runs = [
        {"parent": result(2.0, ops=5), "change": result(1.0, ops=6)},  # both better
        {"parent": result(2.0, ops=5), "change": result(2.0, ops=4)},  # tie, worse
        {"parent": result(1.0, ops=5, failed=1), "change": result(3.0, ops=5, attempted=12)},
    ]
    block = bench_pairs.summarize(7, runs, METRICS)
    assert block["seed"] == 7 and block["pairs"] == 3
    assert block["wins"] == {"wall_s": 1, "ops": 1}
    assert block["ties"] == {"wall_s": 1, "ops": 1}
    assert block["parent"]["wall_s"]["median"] == 2.0
    assert block["change"]["wall_s"] == {"median": 2.0, "q1": 1.5, "q3": 2.5, "iqr": 1.0}
    assert (block["parent"]["failed"], block["parent"]["attempted"]) == (1, 30)
    assert (block["change"]["failed"], block["change"]["attempted"]) == (0, 32)
    assert block["parent"]["correct_runs"] == 2 and block["change"]["correct_runs"] == 3
    assert block["wall_s_pairs_parent_change"] == [[2.0, 1.0], [2.0, 2.0], [1.0, 3.0]]
    assert block["first_in_pair"] == ["parent", "change", "parent"]


def claim_block(parent: list[float], change: list[float], seed: int = 1,
                change_run: dict | None = None) -> dict:
    """Runs with the given wall times; change_run, if given, overrides the
    change's failed and correct fields in the last pair."""
    runs = [{"parent": result(p), "change": result(c)} for p, c in zip(parent, change)]
    runs[-1]["change"].update(change_run or {})
    return bench_pairs.summarize(seed, runs, METRICS)


def test_claim_needs_nine_of_ten_wins_on_every_seed_and_a_gap_above_the_iqr():
    parent = [0.060 + 0.001 * i for i in range(10)]
    met = claim_block(parent, [p - 0.02 for p in parent])
    assert bench_pairs.claim_result([met], "wall_s", "lower").startswith("met: 10/10 wins")
    nine = claim_block(parent, [p - 0.02 for p in parent[:9]] + [1.0])
    assert bench_pairs.claim_result([met, nine], "wall_s", "lower").startswith("met")
    eight = claim_block(parent, [p - 0.02 for p in parent[:8]] + [1.0, 1.0], seed=7)
    verdict = bench_pairs.claim_result([met, eight], "wall_s", "lower")
    assert verdict.startswith("not met") and "8/10 wins" in verdict and "seed 7" in verdict
    # every pair won, but by less than the parent's spread
    close = claim_block(parent, [p - 0.0005 for p in parent])
    assert bench_pairs.claim_result([close], "wall_s", "lower").startswith("not met")
    assert bench_pairs.claim_result([met], "wall_s", "higher").startswith("not met")


PARENT = [0.060 + 0.001 * i for i in range(10)]
FASTER = [p - 0.02 for p in PARENT]


def test_claim_needs_at_least_ten_pairs():
    short = claim_block(PARENT[:9], FASTER[:9])
    verdict = bench_pairs.claim_result([short], "wall_s", "lower")
    assert verdict.startswith("not met: 9/9 wins")
    assert bench_pairs.claim_result([claim_block(PARENT, FASTER)], "wall_s",
                                    "lower").startswith("met: 10/10 wins")


def test_claim_fails_when_the_change_fails_more_operations():
    # the correct flag is left True so that only the failed counts differ
    more = claim_block(PARENT, FASTER, change_run={"failed": 1, "correct": True})
    verdict = bench_pairs.claim_result([more], "wall_s", "lower")
    assert verdict.startswith("not met") and "failed 0 -> 1" in verdict


def test_claim_fails_when_a_change_run_is_not_correct():
    wrong = claim_block(PARENT, FASTER, change_run={"correct": False})
    verdict = bench_pairs.claim_result([wrong], "wall_s", "lower")
    assert verdict.startswith("not met") and "change correct in 9/10 runs" in verdict


def test_main_alternates_sides_and_writes_each_block(tmp_path, monkeypatch):
    spec_file = {"run_seconds": 2, "end_to_end": [{"name": "wall_s", "better": "lower"}],
                 "workloads": [{"name": "w1"}, {"name": "w2"}]}
    calls = []

    def export(rev, into, env):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(spec_file))

    def run_once(root, env, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        return result(0.05 if root.name == "change" else 0.07)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "tree-of-" + args[-1])
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"in_process": {"x": 1}}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "P", "--change", "C", "--out", str(out),
                             "--seed", "1", "--seed", "7",
                             "--claim", "w1:wall_s", "--extra", str(extra)]) == 0
    sides = [name for name, *_ in calls]
    assert sides == ["parent", "change", "change", "parent"] * 5 * 4
    assert [(w, s) for _, w, s, _ in calls[::20]] == [("w1", 1), ("w1", 7), ("w2", 1), ("w2", 7)]
    assert {seconds for *_, seconds in calls} == {2.0}
    report = json.loads(out.read_text())
    assert list(report)[-3:] == ["claim", "in_process", "workloads"]
    assert report["claim"]["result"].startswith("met: 10/10 wins")
    assert "10 alternating pairs of 2 s runs" in report["what"]
    assert "--seconds 2 " in report["command"]
    assert [b["seed"] for b in report["workloads"]["w2"]] == [1, 7]
    assert report["workloads"]["w1"][0]["change"]["wall_s"]["median"] == 0.05


@pytest.mark.parametrize("bad", ("w1", "w1:", ":wall_s"))
def test_claim_must_name_workload_and_metric(tmp_path, bad):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "P", "--change", "C", "--out", str(tmp_path / "o"),
                          "--claim", bad])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", ("--seconds", "--pairs"))
def test_run_length_and_pair_count_are_not_options(tmp_path, option):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "P", "--change", "C", "--out", str(tmp_path / "o"),
                          option, "2"])
    assert exc.value.code == 2
