"""Every `elimination` benchmark report succeeds, and the budget exits spend a fixed amount.

A change to Groebner bases that alters a budget charge, or returns a
wrong basis that a report's checks then reject, shows up as a report
that exits non-zero.  So the `elimination` plan of perfbench/workloads.py
runs here at eight seeds, each report through `grassgeo.cli.main` in
process, and the three commands that run out of budget are pinned to
their exact spend, which fixes the budget's unit.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from grassgeo import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(8))
def test_every_elimination_report_exits_zero(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    directory = str(Path("perfbench", ".work", "elimination-seed%d" % seed))
    plan = workloads.build("elimination", seed, directory)
    assert plan
    for report in plan:
        code, out, err = _run(workloads.resolve(report["argv"], directory))
        assert code == 0, (report["label"], err)
        assert json.loads(out)["ok"] is True, report["label"]


@pytest.mark.parametrize(
    "argv, spent",
    [
        ("chow --variety rational-normal-quartic", 200072),
        ("polar-degrees --variety rational-normal-quartic", 200072),
        ("chow --variety segre-2x4 --samples 2", 200017),
    ],
)
def test_budget_exits_spend_a_fixed_amount(argv, spent):
    code, out, err = _run(argv.split())
    assert code == 3
    assert out == ""
    assert "Groebner budget exceeded: spent %d of 200000 term operations" % spent in err
