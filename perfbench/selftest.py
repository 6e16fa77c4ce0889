"""Self-test of the benchmark's oracles and of its reproducibility claims.

    python3 perfbench/selftest.py               # run from the root of a checkout
    python3 perfbench/selftest.py --regenerate  # rewrite perfbench/reports/ from the current program

It shows that
  * every saved report in perfbench/reports/ passes its oracle check, and
    each check rejects a copy of the report with one coefficient or vector
    entry altered;
  * the same seed gives byte-identical generated inputs (and another seed
    other inputs);
  * running a saved report's command twice in one process gives
    byte-identical reports, equal to the saved one.
Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import re
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REPORTS = os.path.join(HERE, "reports")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

SAVED_SEED = 0
# (workload, plan label) of every saved report
SAVED = [
    ("elimination", "dualize q 0"),
    ("elimination", "chow twisted-cubic fp:32003 0"),
    ("elimination", "hurwitz twisted-cubic fp:32003 0"),
    ("elimination", "chow quadric-surface q 0"),
    ("elimination", "hurwitz quadric-surface q 0"),
    ("elimination", "polar-degrees twisted-cubic q"),
    ("sampling-fp", "classify rational-normal-quartic"),
    ("sampling-fp", "sample-associated segre-2x4 ell=2"),
    ("sampling-fp", "osc d=4 k=2"),
    ("sampling-q", "sample-associated segre-2x4 ell=0"),
    ("sampling-q", "osc d=3 k=1"),
    ("contact-roots", None),  # None: the plan's first report (contact labels carry a seeded coefficient)
]


def _slug(workload, label):
    return re.sub(r"[^A-Za-z0-9.-]+", "_", "%s-%s" % (workload, label)).strip("_") + ".json"


def _entries(work):
    """(workload, plan entry, input directory) of every saved report."""
    plans = {}
    out = []
    for workload, label in SAVED:
        if workload not in plans:
            directory = os.path.join(work, workload)
            plans[workload] = (workloads.build(workload, SAVED_SEED, directory), directory)
        plan, directory = plans[workload]
        entry = plan[0] if label is None else next(e for e in plan if e["label"] == label)
        out.append((workload, entry, directory))
    return out


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(argv), code, err.getvalue().strip()))
    return out.getvalue()


def _import_cli():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import grassgeo.cli as cli

    return cli


# -- corruptions: each alters one coefficient or one vector entry ---------------


def _bump(text):
    """A scalar string plus one."""
    return str(Fraction(text) + 1)


def _bump_term(poly, index):
    """The polynomial string with the coefficient of its index-th term raised by one."""
    sign = ""
    body = poly
    if body.startswith("-"):
        sign, body = "-", body[1:]
    parts = re.split(r"( [+-] )", body)
    term = parts[2 * index]
    head, star, rest = term.partition("*")
    if star and re.fullmatch(r"\d+(/\d+)?", head):
        parts[2 * index] = _bump(head) + "*" + rest
    else:
        parts[2 * index] = "2*" + term
    return sign + "".join(parts)


def _set_form(rep, index):
    form = _bump_term(rep["results"]["form"], index)
    rep["results"]["form"] = form
    rep["results"]["generators"][0] = form


def _repluecker(sub, field):
    """Recompute the Plücker vector of an altered basis, so only the geometric checks can object."""
    fld = oracles.Field(field)
    rows = [[fld.of(x) for x in row] for row in sub["basis"]]
    fmt = (lambda x: str(x)) if fld.p is None else (lambda x: "%d" % x)
    sub["pluecker"] = [fmt(v) for v in oracles.pluecker(rows, fld)]


def _alter_basis(sub, i, j, field):
    sub["basis"][i][j] = _bump(sub["basis"][i][j])
    _repluecker(sub, field)


def corruptions(command, field):
    """(description, function altering a parsed report in place) for one command."""
    if command == "dualize":
        return [
            ("dual coefficient of x1^2", lambda r: r["results"]["generators"].__setitem__(
                0, _bump_term(r["results"]["generators"][0], 1))),
            ("dual dimension", lambda r: r["results"].__setitem__("dimension", 3)),
        ]
    if command in ("chow", "hurwitz"):
        return [
            ("form coefficient of the first term", lambda r: _set_form(r, 0)),
            ("form coefficient of the last term", lambda r: _set_form(r, r["results"]["form"].count(" ") // 2)),
            ("reported degree", lambda r: r["results"].__setitem__("degree", r["results"]["degree"] + 1)),
        ]
    if command == "polar-degrees":
        return [("polar degree at level 1", lambda r: r["results"]["degrees"].__setitem__(
            "1", r["results"]["degrees"]["1"] + 1))]
    if command == "classify":
        return [
            ("type of sample 0", lambda r: r["results"]["reports"][0].__setitem__("type", "alpha")),
            ("space_dim of sample 1", lambda r: r["results"]["reports"][1].__setitem__("space_dim", 3)),
        ]
    if command == "sample-associated":
        def sample(r):
            return r["results"]["samples"][0]
        return [
            ("conormal_dim", lambda r: sample(r).__setitem__("conormal_dim", sample(r)["conormal_dim"] + 1)),
            ("witness point entry", lambda r: sample(r)["witness_point"].__setitem__(
                5, _bump(sample(r)["witness_point"][5]))),
            ("witness normal entry", lambda r: sample(r)["witness_normal"].__setitem__(
                2, _bump(sample(r)["witness_normal"][2]))),
            ("Plücker entry", lambda r: sample(r)["subspace"]["pluecker"].__setitem__(
                0, _bump(sample(r)["subspace"]["pluecker"][0]))),
            ("basis entry, Plücker recomputed", lambda r: _alter_basis(sample(r)["subspace"], 0, 7, field)),
        ]
    if command == "osc":
        def sample(r):
            return r["results"]["samples"][1]
        return [
            ("basis entry, Plücker recomputed", lambda r: _alter_basis(sample(r)["subspace"], 1, 2, field)),
            ("parameter t", lambda r: sample(r).__setitem__("t", _bump(sample(r)["t"]))),
            ("hom_rank", lambda r: sample(r).__setitem__("hom_rank", 2)),
            ("Plücker entry", lambda r: sample(r)["subspace"]["pluecker"].__setitem__(
                3, _bump(sample(r)["subspace"]["pluecker"][3]))),
        ]
    if command == "contact":
        def rep(r):
            return r["results"]["reports"][0]
        return [
            ("point entry", lambda r: rep(r)["point"].__setitem__(0, _bump(rep(r)["point"][0]))),
            ("line basis entry, Plücker recomputed", lambda r: _alter_basis(rep(r)["line"], 1, 3, field)),
            ("line basis entry", lambda r: rep(r)["line"]["basis"][0].__setitem__(
                1, _bump(rep(r)["line"]["basis"][0][1]))),
        ]
    raise KeyError(command)


# -- the self-test -------------------------------------------------------------


def check_oracles():
    failures = 0
    for name in sorted(os.listdir(REPORTS)):
        with open(os.path.join(REPORTS, name)) as fh:
            saved = json.load(fh)
        entry, report = saved["entry"], json.loads(saved["stdout"])
        problems = oracles.check(report, entry)
        print("%-60s %s" % (name, "passes" if not problems else "FAILS %s" % problems))
        failures += bool(problems)
        for desc, alter in corruptions(entry["argv"][0], entry["meta"]["field"]):
            bad = copy.deepcopy(report)
            alter(bad)
            problems = oracles.check(bad, entry)
            print("    altered %-40s %s" % (desc, "rejected: " + problems[0] if problems else "NOT REJECTED"))
            failures += not problems
    return failures


def check_inputs(work):
    failures = 0
    for workload in workloads.WORKLOADS:
        trees = []
        for seed, tag in ((3, "a"), (3, "b"), (4, "c")):
            directory = os.path.join(work, "inputs-%s-%s" % (workload, tag))
            workloads.build(workload, seed, directory)
            files = {}
            for name in sorted(os.listdir(directory)):
                with open(os.path.join(directory, name), "rb") as fh:
                    files[name] = fh.read()
            trees.append(files)
        same, other = trees[0] == trees[1], trees[0] != trees[2]
        print("%-14s same seed -> byte-identical inputs: %s; another seed -> other inputs: %s"
              % (workload, same, other))
        failures += (not same) + (not other)
    return failures


def check_reports(work):
    cli = _import_cli()
    failures = 0
    for workload, entry, directory in _entries(work):
        argv = workloads.resolve(entry["argv"], directory)
        first, second = _run(cli, argv), _run(cli, argv)
        with open(os.path.join(REPORTS, _slug(workload, entry["label"]))) as fh:
            saved = json.load(fh)["stdout"]
        print("%-60s byte-identical across passes: %s, to the saved report: %s"
              % (_slug(workload, entry["label"]), first == second, first == saved))
        failures += (first != second) + (first != saved)
    return failures


def regenerate(work):
    cli = _import_cli()
    shutil.rmtree(REPORTS, ignore_errors=True)
    os.makedirs(REPORTS)
    for workload, entry, directory in _entries(work):
        stdout = _run(cli, workloads.resolve(entry["argv"], directory))
        name = _slug(workload, entry["label"])
        with open(os.path.join(REPORTS, name), "w") as fh:
            json.dump({"workload": workload, "seed": SAVED_SEED, "entry": entry, "stdout": stdout}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--regenerate", action="store_true", help="rewrite the saved reports")
    args = ap.parse_args(argv)
    # a fixed path relative to the checkout root: the input file paths enter each report's inputs_digest
    work = os.path.relpath(os.path.join(HERE, ".work", "selftest"))
    try:
        if args.regenerate:
            regenerate(work)
            return 0
        failures = check_oracles() + check_inputs(work) + check_reports(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test %s" % ("passed" if not failures else "FAILED (%d)" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
