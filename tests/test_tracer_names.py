"""Every name the benchmark's tracer wraps exists in grassgeo.

`perfbench/tracer.py` looks each name of `TRACED` up with `getattr` and
wraps `Matrix.rref` and `Matrix.det`, so a renamed or deleted function
would break a traced benchmark run without failing any other test.
"""

import importlib
import importlib.util
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
