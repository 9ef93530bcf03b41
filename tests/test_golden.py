"""The CLI against its byte-identity corpus, tests/golden.jsonl.

Each argv of scripts/golden.py runs through cli.main in process, in one
directory of fixture files, and must give the recorded exit code and
the recorded sha256 of stdout, of the --out file and (where argparse
prints no usage line) of stderr.  The corpus is regenerated only where
a change means to alter an output; see scripts/golden.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from resavg.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

LINES = [json.loads(line) for line in Path(__file__).with_name("golden.jsonl").read_text().splitlines()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    golden.write_fixtures(path)
    return path


def test_corpus_holds_every_case_once():
    argvs = [line["argv"] for line in LINES]
    assert argvs == golden.cases()
    assert len({tuple(argv) for argv in argvs}) == len(argvs)


@pytest.mark.parametrize("line", LINES, ids=[" ".join(line["argv"])[:80] for line in LINES])
def test_output_is_byte_identical(line, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert golden.record(main, line["argv"]) == line
