"""The package's import graph: no import inside a function, and a layering
in which every module can be imported on its own, before any other."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import lossorder

PACKAGE = Path(lossorder.__file__).resolve().parent
#: each module may import only modules listed before it
LAYERS = (
    "errors",
    "_quad",
    "distributions",
    "simulate",
    "ordering",
    "kde",
    "ingest",
    "fixtures",
    "cli",
)
#: imports one module with the package's __init__ bypassed, so that nothing
#: is loaded before it, and prints the package modules it pulled in
PROBE = """
import importlib, sys, types
package = types.ModuleType("lossorder")
package.__path__ = [sys.argv[1]]
sys.modules["lossorder"] = package
importlib.import_module("lossorder." + sys.argv[2])
print(" ".join(m.split(".", 1)[1] for m in sys.modules if m.startswith("lossorder.")))
"""


def test_layers_name_every_module():
    on_disk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert on_disk == set(LAYERS)


def test_no_import_inside_a_function():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_first_and_only_lower_layers(module):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), module],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert module in loaded
    assert loaded <= set(LAYERS[: LAYERS.index(module) + 1])
