"""Parent vs change on the benchmark, in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent REV --change REV --out BENCH.json \
        [--workload NAME ...] [--seed N ...] \
        [--claim WORKLOAD:METRIC] [--extra NOTES.json]

Run from the root of a git checkout; REV is any commit or tree (for
work not yet committed, stage it and pass the output of
`git write-tree`).  Each side is exported with `git archive` into a
clean temporary directory, its src/ and perfbench/ are byte-compiled
once with PYTHONDONTWRITEBYTECODE unset, and perfbench/run.py runs from
that export as it is.  For every workload and seed, pair i runs the
parent first when i is even and the change first when i is odd.  The
file is rewritten after every workload and seed, so a run cut short
keeps what it finished.  The run length, the metric names and their
better direction come from the change's BENCHMARK.json.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# Pairs per workload and seed: the fewest that can show 9 of 10 wins.
PAIRS = 10


def pair_order(i: int) -> tuple[str, str]:
    """The order of the two runs in pair i: the parent first when i is even."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def summarize(seed: int, runs: list[dict[str, dict]], metrics: dict[str, str]) -> dict:
    """One workload and seed: quartiles per side, wins, ties and every pair.

    runs[i] maps each side to run.py's result for pair i; metrics maps a
    metric name to "lower" or "higher", the better direction.  A win is a
    pair where the change is strictly better.
    """
    out: dict = {"seed": seed, "pairs": len(runs), "wins": {}, "ties": {}}
    values = {
        name: [(run["parent"]["metrics"][name]["value"], run["change"]["metrics"][name]["value"])
               for run in runs]
        for name in metrics
    }
    for name, better in metrics.items():
        sign = 1 if better == "lower" else -1
        out["wins"][name] = sum(sign * (p - c) > 0 for p, c in values[name])
        out["ties"][name] = sum(p == c for p, c in values[name])
    for k, side in enumerate(SIDES):
        out[side] = {name: quartiles([pair[k] for pair in values[name]]) for name in metrics}
        out[side]["failed"] = sum(run[side]["failed"] for run in runs)
        out[side]["attempted"] = sum(run[side]["attempted"] for run in runs)
        out[side]["correct_runs"] = sum(bool(run[side]["correct"]) for run in runs)
    for name in metrics:
        out[f"{name}_pairs_parent_change"] = [[round(p, 4), round(c, 4)] for p, c in values[name]]
    out["first_in_pair"] = [pair_order(i)[0] for i in range(len(runs))]
    return out


def claim_result(blocks: list[dict], metric: str, better: str) -> str:
    """Whether the change wins at least 9 of 10 pairs on every seed, with a
    median better than the parent's by more than the parent's IQR.

    A seed with fewer than 10 pairs, with more failed operations on the
    change than on the parent, or with a change run whose outputs did not
    match the references, does not meet the claim.
    """
    parts, met = [], True
    for block in blocks:
        parent, change = block["parent"][metric], block["change"][metric]
        wins, pairs = block["wins"][metric], block["pairs"]
        gap = (parent["median"] - change["median"]) * (1 if better == "lower" else -1)
        failed = {side: block[side]["failed"] for side in SIDES}
        met = (met and pairs >= PAIRS and wins * 10 >= pairs * 9 and gap > parent["iqr"]
               and failed["change"] <= failed["parent"]
               and block["change"]["correct_runs"] == pairs)
        parts.append(f"{wins}/{pairs} wins; median {parent['median']} -> {change['median']} "
                     f"(seed {block['seed']}, parent IQR {parent['iqr']}, failed "
                     f"{failed['parent']} -> {failed['change']}, change correct in "
                     f"{block['change']['correct_runs']}/{pairs} runs)")
    return ("met" if met else "not met") + ": " + " and ".join(parts)


def claim_arg(text: str) -> tuple[str, str]:
    workload, _, metric = text.partition(":")
    if not (workload and metric):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path, env: dict[str, str]) -> None:
    """A clean export of rev with its bytecode compiled once."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=into, env=env, check=True, stdout=subprocess.DEVNULL)


def run_once(root: Path, env: dict[str, str], workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{root.name} {workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            model = next(line.split(":", 1)[1].strip() for line in info
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPUs, {model}, {platform.system()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed", action="append", type=int, help="default: 1 and 7")
    parser.add_argument("--claim", type=claim_arg,
                        help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--extra", type=Path, help="JSON object merged into the output")
    args = parser.parse_args(argv)
    seeds = args.seed or [1, 7]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    revs = {side: git("rev-parse", getattr(args, side)) for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], roots[side], env)
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        result = {
            "what": f"Parent vs change on the benchmark: medians and quartiles of the "
                    f"end-to-end metrics over {PAIRS} alternating pairs of {seconds:g} s "
                    f"runs, seeds {', '.join(map(str, seeds))}",
            "parent_commit": revs["parent"],
            "change_commit": revs["change"],
            "measured_src_tree": git("rev-parse", f"{revs['change']}:src"),
            "python": platform.python_version(),
            "machine": machine(),
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                       f"--trace 0",
            "method": "scripts/bench_pairs.py: each side runs from its own clean git archive "
                      "export with unmodified perfbench/, PYTHONDONTWRITEBYTECODE unset, and "
                      "src/ and perfbench/ byte-compiled once before any timed run; the run "
                      "length is BENCHMARK.json's run_seconds; pair i runs the parent first "
                      "when i is even (first_in_pair); workloads run one after another, each "
                      "on every seed in turn; quartiles are statistics.quantiles(n=4, "
                      "method='inclusive'); a win is a pair where the change's value is "
                      "strictly better; per side, failed and attempted are summed over its "
                      "runs and correct_runs counts the runs whose outputs matched "
                      "perfbench/reference.py; a claim is met only with at least 10 pairs per "
                      "seed, no more failed operations on the change than on the parent and "
                      "every change run correct",
        }
        if args.claim:
            claimed, claimed_metric = args.claim
            result["claim"] = {"workload": claimed, "metric": claimed_metric,
                               "result": "not run"}
        if args.extra:
            result.update(json.loads(args.extra.read_text()))
        result["workloads"] = {}
        for workload in workloads:
            for seed in seeds:
                runs = []
                for i in range(PAIRS):
                    run = {side: run_once(roots[side], env, workload, seed, seconds)
                           for side in pair_order(i)}
                    runs.append(run)
                    print(f"{workload} seed {seed} pair {i}: " + ", ".join(
                        f"{side} {run[side]['metrics']['wall_s']['value']:.4f}" for side in SIDES
                    ), file=sys.stderr, flush=True)
                result["workloads"].setdefault(workload, []).append(summarize(seed, runs, metrics))
                if args.claim and workload == claimed:
                    result["claim"]["result"] = claim_result(
                        result["workloads"][workload], claimed_metric, metrics[claimed_metric])
                args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
