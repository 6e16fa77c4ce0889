"""Saved benchmark reports replay byte for byte.

Each report in perfbench/reports/ holds the argv of one CLI call and the
stdout it printed.  Reports whose argv names a generated input file (a
*.json argument) get their inputs rebuilt by perfbench/workloads.py from
the report's workload and seed.  The input paths enter each report's
inputs_digest, so they are rebuilt under the same relative directory the
benchmark's self-test uses, inside a temporary working directory.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from grassgeo import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REPORTS = sorted((PERFBENCH / "reports").glob("*.json"))
# perfbench/selftest.py writes the inputs here, relative to the checkout root
SELFTEST_WORK = Path("perfbench", ".work", "selftest")

_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_reports_found():
    assert len(REPORTS) >= 12


@pytest.mark.parametrize("path", REPORTS, ids=[p.stem for p in REPORTS])
def test_report_replays_byte_identical(path, tmp_path, monkeypatch):
    saved = json.loads(path.read_text())
    argv = saved["entry"]["argv"]
    if any(a.endswith(".json") for a in argv):
        monkeypatch.chdir(tmp_path)
        directory = str(SELFTEST_WORK / saved["workload"])
        workloads.build(saved["workload"], saved["seed"], directory)
        argv = workloads.resolve(argv, directory)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0
    assert out.getvalue() == saved["stdout"]
