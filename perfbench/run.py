"""resavg benchmark: one workload, closed loop, results checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; resavg is imported from ./src.  One
client runs one operation at a time, each in a fresh interpreter, so no
cache of the program carries over between passes.  Passes over the
workload's fixed operation list repeat until the next one would end
more than S seconds after start-up, set-up and references included (at
least two untraced passes, or one untraced and one traced pair).

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s       wall time of one pass over the operation list, taken as
               the sum over operations of each one's median across
               passes; a CLI call is timed as its whole process, a
               library operation inside its session
  setup_s      fresh interpreter start plus import (plus the CLI parser
               build in the CLI workloads), median of samples taken
               before every pass, so they spread over the run
  peak_rss_mb  highest peak resident set of any process in the pass
--trace 1 reports per-layer self time, calls, errors and work counters
from a traced pass, and trace.overhead_s, the traced minus the untraced
pass time.  The last stdout line is the JSON result; lines before it
are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import LAYERS
from workloads import Mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES_PER_ROUND = 4
# Calls still running this long after start-up are killed (and fail), so
# a hung call cannot keep the run from ending.
HARD_LIMIT_S = 170
LAYER_COUNTERS = {
    "tower.decompose_calls": "count",
    "tower.max_l_bits": "bits",
    "linear.order_calls": "count",
    "primes.sieve_span": "count",
    "integers.scan_n": "count",
    "grigorchuk.closure_states": "count",
    "cli.out_bytes": "bytes",
}


@dataclass
class Call:
    wall_s: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: str


@dataclass
class Pass:
    op_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    probe_failures: list[str] = field(default_factory=list)
    trace: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path, kill_at: float) -> None:
        self.workload = workload
        self.kill_at = kill_at
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # The int-str digit limit is part of what the probes measure.
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        # Children cache bytecode in the checkout, as an installed package has it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.library = workload in workloads.LIBRARY
        if self.library:
            self.expected = workloads.library_expected(workload, seed)
        else:
            self.ops = workloads.cli_ops(workload, seed, workdir)
        self.stdout_seen: dict[str, bytes] = {}

    def spawn(self, cmd: list[str]) -> Call:
        """Run one child to completion; wall time and peak RSS are its own."""
        with open(self.workdir / "stdout", "w+b") as out, open(self.workdir / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            killer = threading.Timer(max(0.0, self.kill_at - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Call(wall, proc.returncode, usage.ru_maxrss / 1024, out.read(),
                        err.read().decode(errors="replace"))

    def setup_samples(self) -> list[float]:
        code = (
            "from resavg import grigorchuk, linear, tower"
            if self.library
            else "from resavg import cli; cli.build_parser()"
        )
        walls = []
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            call = self.spawn([sys.executable, "-c", code])
            if call.code:
                raise RuntimeError(f"set-up failed: {call.stderr.strip()[-300:]}")
            walls.append(call.wall_s)
        return walls

    def run_pass(self, traced: bool) -> Pass:
        return self._library_pass(traced) if self.library else self._cli_pass(traced)

    def _library_pass(self, traced: bool) -> Pass:
        trace_file = self.workdir / "trace.json"
        cmd = [sys.executable, str(HERE / "session.py"), "lib", self.workload, str(self.seed)]
        trace_file.unlink(missing_ok=True)
        call = self.spawn(cmd + ([str(trace_file)] if traced else []))
        result = Pass(peak_rss_mb=call.rss_mb, attempted=len(self.expected))
        try:
            report = json.loads(call.stdout)
        except ValueError:
            crash = f"session exited {call.code}: {call.stderr.strip()[-300:]}"
            result.failures = [f"{name}: {crash}" for name in self.expected]
            return result
        result.op_s = report["op_s"]
        result.failures = workloads.check_library(report["results"], self.expected)
        if traced and trace_file.exists():
            result.trace = json.loads(trace_file.read_text())
        return result

    def _cli_pass(self, traced: bool) -> Pass:
        result = Pass()
        trace_file = self.workdir / "trace.json"
        for op in self.ops:
            if traced:
                cmd = [sys.executable, str(HERE / "session.py"), "cli", str(trace_file), *op.argv]
            else:
                cmd = [sys.executable, "-m", "resavg.cli", *op.argv]
            trace_file.unlink(missing_ok=True)
            call = self.spawn(cmd)
            result.op_s[op.name] = call.wall_s
            result.peak_rss_mb = max(result.peak_rss_mb, call.rss_mb)
            result.attempted += 1
            crash, wrong = self._judge(op, call)
            if crash and op.probe and call.code > 0:  # killed or hung is not the known defect
                result.probe_failures.append(f"{op.name}: {crash}")
            elif crash or wrong:
                result.failures.append(f"{op.name}: {crash or wrong}")
            if traced and trace_file.exists():
                for key, value in json.loads(trace_file.read_text()).items():
                    merge = max if key == "tower.max_l_bits" else sum
                    result.trace[key] = merge((result.trace.get(key, 0), value))
                result.trace["cli.out_bytes"] = result.trace.get("cli.out_bytes", 0) + len(call.stdout)
        return result

    def _judge(self, op: workloads.Op, call: Call) -> tuple[str, str]:
        """(crash, wrong): why the call failed to report, or why its report is wrong."""
        first = self.stdout_seen.setdefault(op.name, call.stdout)
        last_line = call.stderr.strip().splitlines()[-1:] or [""]
        if "Traceback (most recent call last)" in call.stderr:
            return f"exit {call.code}, traceback: {last_line[0][:200]}", ""
        try:
            report = json.loads(call.stdout)
        except ValueError:
            return f"exit {call.code}, stdout is not JSON: {last_line[0][:200]}", ""
        if call.code != 0:
            message = report.get("error", {}).get("message", "") if isinstance(report, dict) else ""
            return f"exit {call.code}: {message[:200]}", ""
        if call.stdout != first:
            return "", "stdout differs from an earlier run of the same call"
        try:
            op.check(report["results"])
        except (Mismatch, KeyError, TypeError, ValueError, AttributeError) as exc:
            return "", f"{type(exc).__name__}: {exc}"
        return "", ""


def op_median_sum(passes: list[Pass]) -> float:
    """Sum over operations of each one's median time across the passes."""
    names = {name for p in passes for name in p.op_s}
    return sum(statistics.median(p.op_s[n] for p in passes if n in p.op_s) for n in names)


def measure(bench: Bench, deadline: float, trace: bool) -> tuple[dict, list[Pass]]:
    """Closed loop of passes until the next would end after `deadline`.

    Returns the metrics and every pass run.
    """
    metrics: dict[str, dict] = {}
    setup: list[float] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        if not trace:
            setup += bench.setup_samples()
        untraced.append(bench.run_pass(traced=False))
        if trace:
            traced.append(bench.run_pass(traced=True))
        rounds += 1
        now = time.perf_counter()
        if now >= bench.kill_at:
            break
        if rounds >= (1 if trace else 2) and now + (now - start) / rounds > deadline:
            break
    walls = op_median_sum(untraced)
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["wall_s"] = {"value": walls, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(p.peak_rss_mb for p in untraced),
                                  "unit": "MB"}
        return metrics, untraced
    last = traced[-1].trace
    for layer in LAYERS:
        self_s = statistics.median(p.trace.get(f"{layer}.self_s", 0.0) for p in traced)
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": last.get(f"{layer}.calls", 0), "unit": "count"}
        metrics[f"{layer}.errors"] = {"value": last.get(f"{layer}.errors", 0), "unit": "count"}
    for name, unit in LAYER_COUNTERS.items():
        metrics[name] = {"value": last.get(name, 0), "unit": unit}
    overhead = op_median_sum(traced) - walls
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, untraced + traced


def summary_lines(workload: str, seed: int, metrics: dict, passes: list[Pass]) -> list[str]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    probes = sum(len(p.probe_failures) for p in passes)
    lines = [f"# workload {workload}, seed {seed}: {len(passes)} passes, {attempted} operations"]
    lines.append("# pass seconds: " + " ".join(f"{sum(p.op_s.values()):.3f}" for p in passes))
    lines += [f"{name:28s} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"{'fail_ratio':28s} {failed}/{attempted} checked, {probes}/{attempted} known-defect probes"
    )
    traced = [p for p in passes if p.trace]
    if traced:
        wall = op_median_sum(traced)
        shares = ", ".join(
            f"{layer} {metrics[f'{layer}.self_s']['value'] / wall:.1%}" for layer in LAYERS
        )
        lines.append(f"# traced pass {wall:.3f} s; self-time shares: {shares}")
    messages = {f"  probe: {m}": None for p in passes for m in p.probe_failures}
    messages.update({f"  FAIL: {m}": None for p in passes for m in p.failures})
    lines += list(messages)[:20]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.LIBRARY + workloads.CLI)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "resavg" / "__init__.py").is_file():
        print(f"perfbench: no resavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, workdir, started + HARD_LIMIT_S)
        metrics, passes = measure(bench, started + args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for line in summary_lines(args.workload, args.seed, metrics, passes):
        print(line)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
