"""Every benchmark report succeeds, and the budget exits spend a fixed amount.

A change to Groebner bases that alters a budget charge, or returns a
wrong basis that a report's checks then reject, shows up as a report
that exits non-zero.  So the `elimination` plan of perfbench/workloads.py
runs here at eight seeds, each report through `grassgeo.cli.main` in
process, and the two commands that run out of budget are pinned to
their exact spend, which fixes the budget's unit.  A change to the
linear algebra or the root finding behind the sampling reports shows up
the same way, so the `sampling-q` and `sampling-fp` plans run at four
seeds and the `contact-roots` plan at one.  The `segre-2x4` levels
above its dual dimension, which those plans leave out, run here too.
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


def _every_report_exits_zero(workload, seed):
    directory = str(Path("perfbench", ".work", "%s-seed%d" % (workload, seed)))
    plan = workloads.build(workload, seed, directory)
    assert plan
    for report in plan:
        code, out, err = _run(workloads.resolve(report["argv"], directory))
        assert code == 0, (report["label"], err)
        assert json.loads(out)["ok"] is True, report["label"]


@pytest.mark.parametrize("seed", range(8))
def test_every_elimination_report_exits_zero(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _every_report_exits_zero("elimination", seed)


@pytest.mark.parametrize(
    "workload, seed",
    [(w, s) for w in ("sampling-q", "sampling-fp") for s in range(4)] + [("contact-roots", 0)],
)
def test_every_sampling_and_contact_report_exits_zero(workload, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _every_report_exits_zero(workload, seed)


@pytest.mark.parametrize("field", ["fp:32003", "q"])
@pytest.mark.parametrize("ell, conormal_dim", [(5, 2), (6, 3)])
def test_segre_reports_above_the_dual_dimension(ell, conormal_dim, field):
    # segre-2x4 has dual dimension 4, so its levels 5 and 6 have conormal dimension ell + 1 - 4
    argv = ["sample-associated", "--variety", "segre-2x4", "--ell", str(ell), "--field", field, "--seed", "7"]
    code, out, err = _run(argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["ok"] is True
    assert [s["conormal_dim"] for s in report["results"]["samples"]] == [conormal_dim] * 5


@pytest.mark.parametrize(
    "argv, spent",
    [
        ("chow --variety rational-normal-quartic", 200072),
        ("chow --variety segre-2x4 --samples 2", 200017),
    ],
)
def test_budget_exits_spend_a_fixed_amount(argv, spent):
    code, out, err = _run(argv.split())
    assert code == 3
    assert out == ""
    assert "Groebner budget exceeded: spent %d of 200000 term operations" % spent in err
