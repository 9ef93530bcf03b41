"""Byte-identity corpus of the CLI: one JSON line per argv.

    python3 scripts/golden.py [--rev REV]

Every argv in cases() runs through cli.main in process, in one
directory that holds the files of fixtures().  Its line holds the argv,
the exit code, the sha256 of stdout, the sha256 of the --out file when
the call writes one, and the sha256 of stderr unless stderr carries
argparse's usage line (that text differs across Python versions).
tests/test_golden.py runs the same argv through the same record() and
compares line by line.

With --rev the package comes from `git archive REV src` (run from the
root of a git checkout), so the corpus records what that commit prints;
without it, from this tree's src/.  Regenerate only where a change
means to alter an output, and list each changed line in CHANGES.md.
Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from itertools import accumulate
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
OUT = "out.json"


def _tower(name: str, d: list[int], l: list[int]) -> bytes:
    return json.dumps({"name": name, "d": [str(x) for x in d], "l": [str(x) for x in l]}).encode()


def fixtures() -> dict[str, bytes]:
    """Tower and table files by name, built without the package."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    moduli = list(range(2, 41))
    nested = [120 * 125**k for k in range(200)]
    table = {"primes": primes, "ell": [list(range(130))] * len(primes), "O": [1] * len(primes)}
    return {
        "prime.json": _tower("primes-16", primes, list(accumulate(primes, lambda a, b: a * b))),
        "lcm.json": _tower("lcm-40", moduli, list(accumulate(moduli, math.lcm))),
        "nested.json": _tower("nested-200", nested, nested),
        # the three InconsistentTower messages: l, d and d*l[j-1]
        "gap.json": _tower("gap", [2, 2, 4], [2, 3, 12]),
        "broken.json": _tower("broken", [2, 3], [2, 4]),
        "multiple.json": _tower("multiple", [2, 2], [2, 6]),
        "table.json": json.dumps(table).encode(),
        # one file per SchemaError branch of the tower and table readers
        "bad-utf8.json": b"\xff{}",
        "bad-json.json": b"not json",
        "deep.json": b'{"name": "deep", "d": ' + b"[" * 100000 + b"]" * 100000 + b', "l": ["2"]}',
        "not-object.json": b"[]",
        "missing.json": b'{"name": "x"}',
        "name.json": b'{"name": 1, "d": ["2"], "l": ["2"]}',
        "d-list.json": b'{"name": "x", "d": "2", "l": ["2"]}',
        "l-list.json": b'{"name": "x", "d": ["2"], "l": 2}',
        "entry.json": b'{"name": "x", "d": ["2x"], "l": ["2"]}',
        "float.json": b'{"name": "x", "d": [2.0], "l": [2]}',
        "length.json": b'{"name": "x", "d": ["2", "3"], "l": ["2"]}',
        "invariant.json": b'{"name": "x", "d": ["1"], "l": ["1"]}',
        "table-not-object.json": b"[]",
        "table-missing.json": b'{"primes": [2]}',
        "table-ell.json": b'{"primes": [2], "ell": 3, "O": [1]}',
        "table-entry.json": b'{"primes": [2], "ell": [[1, "x"]], "O": [1]}',
        "table-invariant.json": b'{"primes": [2, 3], "ell": [[1]], "O": [1]}',
    }


SELECT = ("select-powers", "--table", "table.json", "--n", "1", "--N0", "2", "--C", "5",
          "--delta", "2/5", "--epsilon", "1/5")

# Each subcommand with small arguments, and with the largest towers that
# keep the whole corpus near a second.
COMMANDS = {
    "primes": ("primes", "--upto", "100"),
    "bertrand": ("bertrand", "--upto", "100000"),
    "ave-z": ("ave-z", "--terms", "30"),
    "ave-prime": ("ave-prime", "--terms", "30"),
    "ave-p": ("ave-p", "--prime", "3", "--terms", "10"),
    "density": ("density", "--n", "6", "--upto", "10000"),
    "div": ("div", "--m", "360"),
    "sl-tower": ("sl-tower", "--n", "3", "--primes", "150"),
    "order": ("order", "--group", "sl", "--n", "3", "--q", "7"),
    "matdiv": ("matdiv", "--matrix", "2,1;1,1"),
    "select-powers": SELECT + ("--emit-tower",),
    "wieferich": ("wieferich", "--p", "1093"),
    "grig": ("grig", "--levels", "5"),
    "slzp": ("slzp", "--n", "2", "--p", "5", "--levels", "600"),
    "classify": ("classify", "--tower", "lcm.json"),
    "ave": ("ave", "--tower", "prime.json"),
    "zeta": ("zeta", "--indices", "2,3,5,7", "--s", "2"),
    "tower-check": ("tower-check", "--tower", "lcm.json"),
}

# A usage error per command: a missing flag, or a value the library rejects.
USAGE = {
    "primes": ("--quiet", "primes", "--upto", "-5"),
    "bertrand": ("bertrand", "--upto", "3317044064679887385961981"),
    "ave-z": ("ave-z", "--terms", "-1"),
    "ave-prime": ("ave-prime",),
    "ave-p": ("ave-p", "--prime", "4", "--terms", "3"),
    "density": ("density", "--n", "1", "--upto", "10"),
    "div": ("div", "--m", "12", "--mode", "p"),
    "sl-tower": ("sl-tower", "--n", "1", "--primes", "3"),
    "order": ("order", "--group", "sl", "--n", "2", "--q", "7", "--mod-power", "0"),
    "matdiv": ("matdiv", "--matrix", "1,2;3"),
    "select-powers": SELECT[:-2] + ("--epsilon", "1/0"),
    "wieferich": ("wieferich", "--a", "2"),
    "grig": ("grig", "--levels", "0"),
    "slzp": ("slzp", "--n", "1", "--p", "5", "--levels", "3"),
    "classify": ("classify", "--tower", "lcm.json", "--window", "0"),
    "ave": ("ave", "--tower", "prime.json", "--terms", "17"),
    "zeta": ("zeta", "--indices", "2,2", "--s", "2"),
    "tower-check": ("tower-check",),
}

TOWER_FILES = ("prime.json", "lcm.json", "nested.json", "gap.json", "broken.json", "multiple.json")
SCHEMA_FILES = ("absent.json", "bad-utf8.json", "bad-json.json", "deep.json", "not-object.json",
                "missing.json", "name.json", "d-list.json", "l-list.json", "entry.json",
                "float.json", "length.json", "invariant.json")
TABLE_FILES = ("absent.json", "bad-utf8.json", "bad-json.json", "table-not-object.json",
               "table-missing.json", "table-ell.json", "table-entry.json", "table-invariant.json")


def cases() -> list[list[str]]:
    """Every argv of the corpus once, in file order."""
    out: list[tuple[str, ...]] = []
    for base in COMMANDS.values():
        for flags in ((), ("--quiet",), ("--csv",), ("--out", OUT), ("--digits", "30")):
            out.append(base + flags)
    for name in ("sl-tower", "grig", "slzp", "select-powers"):
        base = COMMANDS[name]
        out += [base + ("--csv", "--out", OUT), base + ("--quiet", "--out", OUT),
                base + ("--quiet", "--csv")]
        out.append(("--csv", "--digits", "5") + base)
    out += [
        COMMANDS["sl-tower"] + ("--classify", "--window", "20"),
        ("sl-tower", "--n", "2", "--primes", "12", "--classify"),
        ("grig", "--levels", "6", "--d1-series"),
        ("grig", "--levels", "7"),
        ("slzp", "--n", "3", "--p", "2", "--levels", "40", "--out", OUT),
        ("slzp", "--n", "2", "--p", "6", "--levels", "3"),
        ("slzp", "--n", "2", "--p", "5", "--levels", "3", "--out", "no-such-dir/t.json"),
        ("slzp", "--n", "2", "--p", "5", "--levels", "3", "--out", "."),
        SELECT,
        SELECT + ("--terms", "3", "--emit-tower", "--quiet"),
        ("div", "--m", "360", "--mode", "prime"),
        ("div", "--m", "360", "--mode", "p", "--prime", "2"),
        ("div", "--m", "0"),
        ("order", "--group", "gl", "--n", "2", "--q", "9"),
        ("order", "--group", "sl", "--n", "2", "--q", "6"),
        ("order", "--group", "gl", "--n", "3", "--q", "5", "--mod-power", "3"),
        ("matdiv", "--matrix", "1,0;0,1"),
        ("wieferich", "--p", "7", "--a", "14"),
        ("ave-z", "--terms", "5", "--digits", "0"),
        ("ave-z", "--terms", "5", "--digits", "1000001"),
        ("zeta", "--tower", "nested.json", "--s", "3/2", "--terms", "50"),
        ("zeta", "--tower", "lcm.json", "--s", "1/2"),
        ("zeta", "--indices", "1,x", "--s", "2"),
        ("zeta", "--s", "2"),
    ]
    for path in TOWER_FILES:
        for command in ("tower-check", "ave", "classify"):
            for flags in ((), ("--csv",), ("--quiet",)):
                out.append((command, "--tower", path) + flags)
    out += [("ave", "--tower", "lcm.json", "--terms", "7", "--digits", "40"),
            ("classify", "--tower", "prime.json", "--window", "3")]
    for path in SCHEMA_FILES:
        out.append(("tower-check", "--tower", path))
    for path in TABLE_FILES:
        out.append(SELECT[:2] + (path,) + SELECT[3:])
    out += USAGE.values()
    out.append(("no-such-command",))
    return [list(argv) for argv in dict.fromkeys(out)]


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def record(main: Callable[[list[str]], int], argv: list[str]) -> dict:
    """Run main(argv) in the current directory; its line of the corpus."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None and out.is_file():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    line = {"argv": argv, "code": code, "stdout": _sha(stdout.getvalue())}
    if out is not None and out.is_file():
        line["out"] = _sha(out.read_bytes())
    if "usage:" not in stderr.getvalue():
        line["stderr"] = _sha(stderr.getvalue())
    return line


def write_fixtures(directory: Path) -> None:
    for name, data in fixtures().items():
        (directory / name).write_bytes(data)


def _package_from(rev: str, into: Path) -> Path:
    """Export REV's src/ into `into`; the directory to put on sys.path."""
    blob = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="take the package from this commit (default: ./src)")
    args = parser.parse_args(argv)
    out = ROOT / "tests" / "golden.jsonl"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = _package_from(args.rev, tmp / "export") if args.rev else ROOT / "src"
        sys.path.insert(0, str(src))
        cli = importlib.import_module("resavg.cli")
        if not Path(cli.__file__).is_relative_to(src):
            raise SystemExit(f"resavg.cli was imported from {cli.__file__}, not from {src}")
        work = tmp / "work"
        work.mkdir()
        write_fixtures(work)
        here = os.getcwd()
        os.chdir(work)
        try:
            lines = [record(cli.main, argv) for argv in cases()]
        finally:
            os.chdir(here)
    out.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines),
                   encoding="utf-8")
    print(f"{len(lines)} lines to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
