"""Benchmark of the grassgeo CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload elimination --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding
`src/grassgeo`).  The run times set-up in several fresh interpreters,
then runs the workload in one more fresh single-threaded process (see
worker.py) and prints, as the last line of stdout, a JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the worker wraps
grassgeo's public functions and the metrics are per-layer counts and
self times.  The full result (and, when traced, the spans of the first
pass) is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 150  # a run must end within 180 s
SETUP_TIMEOUT_S = 10

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # a fixed hash seed gives every run the same set and dict layouts, hence the same work
    env["PYTHONHASHSEED"] = "0"
    # imports read bytecode caches, as an installed grassgeo would, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(args, root, extra, timeout):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)] + extra
    return subprocess.run(cmd, cwd=root, env=_env(root), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def setup_seconds(args, root, work):
    """Median wall time of a fresh interpreter that imports grassgeo.cli and writes the inputs."""
    times = []
    for k in range(SETUP_RUNS + 1):
        directory = os.path.join(work, "setup%d" % k)
        t0 = time.perf_counter()
        proc = _worker(args, root, ["--setup-only", "--dir", directory], SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr)
        if k:  # the first one writes the bytecode caches and is not counted
            times.append(elapsed)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grassgeo", "cli.py")):
        print("error: no grassgeo source under %s; run from the root of a checkout" % root, file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results")
    work = os.path.join(HERE, ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(results, exist_ok=True)
    try:
        setup_s = setup_seconds(args, root, work) if not args.trace else None
        out_file = os.path.join(work, "result.json")
        proc = _worker(args, root, ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--dir", os.path.join(work, "run"), "--out", out_file], WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print("error: worker exited %d:\n%s" % (proc.returncode, proc.stderr), file=sys.stderr)
            return 1
        with open(out_file) as fh:
            result = json.load(fh)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = "%s-seed%d%s.json" % (args.workload, args.seed, "-trace" if args.trace else "")
    if args.trace:
        metrics = result["per_layer"]
    else:
        result["setup_s"] = setup_s
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "report_p50_s": {"value": result["report_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    with open(os.path.join(results, name), "w") as fh:
        json.dump(result, fh, indent=1)
    for p in result["problems"]:
        print("problem: %s" % json.dumps(p), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
