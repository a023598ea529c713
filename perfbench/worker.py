"""One benchmark process: set up a workload, then run jobs when told to.

Started by ``run.py``, never by hand.  It speaks one line at a time: after
set-up it prints ``READY`` and reads ``GO`` (run jobs, print ``RESULT
<json>``) or ``QUIT`` (print ``INPUTS <json>`` with the set-up digests and
exit).  Each CLI command's own output goes to a buffer, so stdout carries
only these lines.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tiltkit  # noqa: E402
from tiltkit import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Counts that change from job to job show only with two or more traced jobs.
MIN_TRACED_JOBS = 2


def run_job(w, tracer, inject_failure):
    """Run every op of one job; returns (wall_s, attempted, failed, problems).

    Only the CLI calls are timed; the output checks run afterwards.
    """
    codes = []
    buf = io.StringIO()
    job_span = tracer.span("job") if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    with job_span:
        for op in w.ops:
            cmd_span = tracer.span(f"cli.{op.argv[0]}") if tracer else contextlib.nullcontext()
            with cmd_span, contextlib.redirect_stdout(buf):
                try:
                    codes.append(cli.main(op.argv))
                except Exception as exc:  # one op failing must not stop the run
                    traceback.print_exc()
                    codes.append(f"{type(exc).__name__}: {exc}")
    wall = perf_counter() - t0
    problems = []
    failed = 0
    for op, code in zip(w.ops, codes):
        found = [f"{op.name}: exit {code}"] if code != 0 else w.check(op, inject_failure)
        failed += bool(found)
        problems += found
    return wall, len(w.ops), failed, problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src", "tiltkit")
    if os.path.dirname(os.path.abspath(tiltkit.__file__)) != src:
        sys.exit(f"tiltkit imported from {tiltkit.__file__}, not from {src}")

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        with tracer.span("setup"):
            w = workloads.setup(args.workload, args.seed, args.work, args.size)
        tracer.uninstall()
    else:
        w = workloads.setup(args.workload, args.seed, args.work, args.size)
    print("READY", flush=True)

    if sys.stdin.readline().strip() != "GO":
        print("INPUTS " + json.dumps(w.input_digests()), flush=True)
        return 0

    start = perf_counter()
    # A traced run spends its first half untraced, so that the difference
    # of the two halves' median wall times is the tracing overhead.
    untraced_until = start + (args.seconds / 2 if tracer else args.seconds)
    walls, traced_walls, problems = [], [], []
    attempted = failed = 0

    def one_job(traced):
        nonlocal attempted, failed
        wall, a, f, p = run_job(w, tracer if traced else None, args.inject_failure)
        (traced_walls if traced else walls).append(wall)
        attempted += a
        failed += f
        problems.extend(p)

    while not walls or perf_counter() < untraced_until:
        one_job(traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "walls": walls, "samples": w.samples, "peak_rss_mb": peak_rss_mb,
        "input_digests": w.input_digests(), "output_digests": w.first_digests,
        "findings": w.findings,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        tracer.install()
        job = 0
        while len(traced_walls) < MIN_TRACED_JOBS or perf_counter() < start + args.seconds:
            tracer.job = job
            one_job(traced=True)
            job += 1
        tracer.uninstall()
        table, flags = spans.summarize(tracer, traced_walls, walls,
                                       w.findings.get("variant_mse_deg2", {}))
        if flags:
            failed += 1
            problems.append(f"counts changed between traced jobs: {', '.join(flags)}")
        result.update(traced_walls=traced_walls, per_layer=table, count_flags=flags,
                      traced_wall_median=median(traced_walls))
    result.update(attempted=attempted, failed=failed, problems=problems[:50])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
