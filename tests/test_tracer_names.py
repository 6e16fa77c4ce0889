"""Every name the benchmark's tracer wraps exists in grassgeo.

`perfbench/tracer.py` looks each name of `TRACED` up with `getattr` and
wraps `Matrix.rref` and `Matrix.det`, so a renamed or deleted function
would break a traced benchmark run without failing any other test.
The tracer also finds each traced module in `sys.modules` right after
`import grassgeo.cli`, so that import loads every one of them, and it
loads none of the standard library's heavy introspection modules.  For
that import to load everything, no function in `grassgeo` imports.
Every function and class `grassgeo` defines is reached by name from its
own code outside its own body, a demo or the tracer; what only the
tests call lives in the tests (`tests/references.py`).
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from grassgeo.linalg import Matrix

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module", sorted(tracer.TRACED))
def test_traced_functions_exist(module):
    home = importlib.import_module("grassgeo." + module)
    for name in tracer.TRACED[module]:
        assert callable(getattr(home, name, None)), "grassgeo.%s.%s" % (module, name)


def test_traced_matrix_methods_exist():
    assert callable(Matrix.rref) and callable(Matrix.det)


def test_importing_the_cli_loads_every_traced_module_and_no_introspection_module():
    root = Path(__file__).resolve().parents[1]
    code = "import json, sys; import grassgeo.cli; print(json.dumps(sorted(sys.modules)))"
    env = {"PYTHONPATH": str(root / "src")}
    # -S: what the installed site packages import at start-up is not grassgeo's footprint
    argv = [sys.executable, "-S", "-c", code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert not loaded & {"dataclasses", "inspect", "ast"}
    assert {"grassgeo." + module for module in tracer.TRACED} <= loaded


def test_no_function_in_grassgeo_imports():
    # `grassgeo.cli` imports every module eagerly (README): an import inside a function hides work from that
    # import and from the tracer's module lookup
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "grassgeo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += ["%s:%d %s" % (path.name, inner.lineno, node.name) for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def _referenced_names(tree):
    """How often a syntax tree reads each name: bare names and attribute names (string constants are not
    references)."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_definition_in_grassgeo_is_reached_from_a_command_a_demo_or_the_tracer():
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "grassgeo").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sources + sorted((root / "demos").glob("*.py")) + [root / "perfbench" / "tracer.py"]}
    reads = Counter()
    for tree in trees.values():
        reads.update(_referenced_names(tree))
    traced = {name for names in tracer.TRACED.values() for name in names}
    # a read inside the definition's own body does not reach it: a method that calls its namesake on
    # another class, or a function that only calls itself, is reached by neither
    unreached = ["%s %s" % (path.name, node.name) for path in sources for node in ast.walk(trees[path])
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in traced
                 and reads[node.name] <= _referenced_names(node)[node.name]]
    assert unreached == [], unreached
