"""The package surface: a stdlib-only runtime with a lean import graph, an
__all__ that resolves, and a CLI that reads only the tower module's public
names and whose handlers leave rendering to the report."""

import ast
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


def boundary_breaches(source: str) -> list[str]:
    """Every `tower._name` attribute and `from .tower import _name` in source,
    every `_cmd_*` handler that reads a `digits` attribute (rendering is the
    report's), and a defined rational_json."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "tower") or (
                isinstance(owner, ast.Attribute) and owner.attr == "tower"
            ):
                found.append(f"tower.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "tower":
            found += [f"from tower import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.FunctionDef) and node.name == "rational_json":
            found.append("def rational_json")
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            found += [
                f"{node.name} reads digits"
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "digits"
            ]
    return found


def test_private_tower_names_are_found():
    source = """
from .tower import _pass, IndexTower
from resavg.tower import _show
x = tower._pass(t)
y = resavg.tower._columns
z = tower.levels(t)._x
def rational_json(value, digits): ...
def _cmd_a(args): return f(args.digits)
def _cmd_b(args): return args.terms
def _run(args): return args.digits
"""
    assert sorted(boundary_breaches(source)) == [
        "_cmd_a reads digits", "def rational_json",
        "from tower import _pass", "from tower import _show", "tower._columns", "tower._pass",
    ]


def test_cli_reads_no_private_tower_name():
    assert boundary_breaches((SRC / "resavg" / "cli.py").read_text(encoding="utf-8")) == []
