"""Saved benchmark reports replay byte for byte.

Each report in perfbench/reports/ holds the argv of one CLI call and the
stdout it printed.  Reports whose argv names a generated input file
(a *.json argument) are skipped: those inputs exist only inside a
benchmark run.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from grassgeo import cli

REPORTS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "reports").glob("*.json"))
REPLAYABLE = [
    path
    for path in REPORTS
    if not any(a.endswith(".json") for a in json.loads(path.read_text())["entry"]["argv"])
]


def test_reports_found():
    assert len(REPLAYABLE) >= 9


@pytest.mark.parametrize("path", REPLAYABLE, ids=[p.stem for p in REPLAYABLE])
def test_report_replays_byte_identical(path):
    saved = json.loads(path.read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(saved["entry"]["argv"])
    assert code == 0
    assert out.getvalue() == saved["stdout"]
