"""One workload in one fresh process: set up, run passes, check every report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --dir DIR --out FILE
    python3 perfbench/worker.py --setup-only --workload NAME --seed N --dir DIR

Set-up imports `grassgeo.cli` (found through PYTHONPATH) and writes the
workload's inputs into DIR.  Then the worker runs whole passes over the
workload's reports, in process through `grassgeo.cli.main` with stdout
captured, until S seconds have gone; it checks the first pass's reports
with the oracles and every later pass's reports for byte identity with
the first.  The result, a JSON object, goes to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import workloads  # noqa: E402


def run_report(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True, help="directory for the generated inputs")
    ap.add_argument("--out", help="result file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import grassgeo.cli as cli

    plan = workloads.build(args.workload, args.seed, args.dir)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = True  # spans of the first pass only

    argvs = [workloads.resolve(entry["argv"], args.dir) for entry in plan]
    first = []  # (code, stdout, stderr) of the first pass
    pass_s, report_s = [], []
    attempted = failed = mismatched = 0
    started = time.perf_counter()
    # whole passes only: start one more while it is expected to end within the run
    while not pass_s or time.perf_counter() - started + statistics.mean(pass_s) <= args.seconds:
        t0 = time.perf_counter()
        outputs = [run_report(cli, a) for a in argvs]
        pass_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.recording = False
        attempted += len(outputs)
        for i, (dt, code, stdout, stderr) in enumerate(outputs):
            report_s.append(dt)
            failed += code != 0
            if len(pass_s) == 1:
                first.append((code, stdout, stderr))
            elif stdout != first[i][1]:
                mismatched += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = []
    for entry, (code, stdout, stderr) in zip(plan, first):
        if code != 0:
            problems.append({"label": entry["label"], "failed": "exit %d: %s" % (code, stderr.strip()[-300:])})
            continue
        found = oracles.check(json.loads(stdout), entry)
        if found:
            problems.append({"label": entry["label"], "problems": found})
    if mismatched:
        problems.append({"label": "all", "problems": ["%d reports differ from the first pass" % mismatched]})

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "correct": not any("problems" in p for p in problems),
        "problems": problems,
        "labels": [entry["label"] for entry in plan],
        "passes": len(pass_s),
        "pass_s": pass_s,
        "report_s": report_s,
        # the mean, not the median: see "Why wall_s is a mean" in README.md
        "wall_s": statistics.mean(pass_s),
        "report_p50_s": statistics.median(report_s),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(pass_s))
        result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
