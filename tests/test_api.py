"""The package surface: a stdlib-only runtime with a lean import graph, and an
__all__ that resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import resavg

SRC = Path(__file__).resolve().parents[1] / "src"

# Records the top-level modules that importing the package and its CLI
# adds; taking the difference skips whatever `site` preloads.
PROBE = """
import json, sys
before = set(sys.modules)
import resavg, resavg.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def added_modules() -> list[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_runtime_imports_only_the_standard_library():
    added = added_modules()
    assert "resavg" in added
    assert [name for name in added if name != "resavg" and name not in sys.stdlib_module_names] == []


def test_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: ~10 ms of every CLI start
    assert {"dataclasses", "inspect"} & set(added_modules()) == set()


def test_every_exported_name_resolves():
    missing = [name for name in resavg.__all__ if not hasattr(resavg, name)]
    assert missing == []
