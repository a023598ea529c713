"""tiltkit benchmark: one seeded workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload {synth,replay,tune} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports tiltkit from
``src/`` and writes only under ``.perfbench_work/``, which it removes.

Every run sets the workload up in SETUPS fresh processes (interpreter
start, ``import tiltkit``, seeded inputs, config files) and reports the
median as ``setup_s``; the last of them then runs jobs back to back for
``--seconds``, one client in a closed loop, each job being the workload's
CLI commands through ``tiltkit.cli.main`` in-process.  With ``--trace 1``
a single set-up is traced and the run reports the per-layer table instead
(see README.md).  The last stdout line is the result; the lines before it
are the report: environment, wall-time quartiles, failures, output
digests and the deterministic findings.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUPS = 3
DEFAULT_SEED = 1
# Seed kept out of every run made while writing a change; a gain claimed
# against this benchmark must also hold on it.
HELD_OUT_SEED = 20230921
# BLAS/OpenMP pools stay at one thread, below the machine's core count.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run must end within 180 s; workers still running by then are killed.
TIME_LIMIT_S = 170.0

# Why each workload exists; README.md gives the layer-by-layer reasoning.
WHY = {
    "synth": "tiltkit simulate of a long run: model and the logio writers do the work, "
             "filters and tuning none",
    "replay": "one recorded log through run and eval for all 8 variants plus a spectrum: "
              "per-sample cost of logio reads, object-path correction, filters and cli",
    "tune": "lowpass, wb, wa_b and kalman_star tuning on a short log: per-call cost of "
            "hundreds of short correction, filter and stability calls",
}

E2E = {"wall_s": "s", "samples_per_s": "samples/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics reported on every workload.  The full table, including
# the workload-specific rates and times, is in the report line.
PER_LAYER = (
    "model.simulate_run.samples_per_s", "model.self_s",
    "model.shadow_steps_per_sample", "model.motion_terms_per_sample",
    "logio.write_log.rows_per_s", "logio.parse_log.calls",
    "logio.bytes_written", "logio.bytes_read",
    "correction.pipeline_step.us_per_call", "correction.run_correction_arrays.calls",
    "filters.run_filter_arrays.calls", "filters.check_stability.calls",
    *(f"filters.{v}.mse_deg2" for v in spans.VARIANTS),
    *(f"tuning.{t}.{k}" for t in spans.TARGETS
      for k in ("evals", "rejected", "iterations", "mse_deg2")),
    "analysis.mse.calls", "config.load_config.busy_s", "cli.self_s",
    "trace.overhead_s", "trace.top_level_coverage", "trace.uncovered_s",
    "trace.layer_coverage",
)


class BenchError(Exception):
    pass


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "tiltkit", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "git_commit": commit, "source_sha256": digest.hexdigest(),
            "thread_caps": THREAD_CAPS}


def start_worker(args, work, deadline):
    """Start one worker and wait for its set-up; returns (proc, setup_s)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
           "--size", args.size]
    if args.inject_failure:
        cmd.append("--inject-failure")
    env = dict(os.environ, **THREAD_CAPS)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    proc.watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    proc.watchdog.start()
    ready = proc.stdout.readline().strip()
    setup_s = perf_counter() - t0
    if ready != "READY":
        stop_worker(proc)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup_s


def finish_worker(proc, command, tag):
    """Send GO or QUIT and return the JSON on the worker's ``tag`` line."""
    try:
        proc.stdin.write(command + "\n")
        proc.stdin.close()
        payload = None
        for line in proc.stdout:
            if line.startswith(tag + " "):
                payload = json.loads(line[len(tag) + 1:])
        proc.wait()
    finally:
        stop_worker(proc)
    if payload is None or proc.returncode != 0:
        raise BenchError(f"worker ended with exit {proc.returncode} and no {tag} line")
    return payload


def stop_worker(proc):
    proc.watchdog.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()
    if not proc.stdin.closed:
        proc.stdin.close()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run(args):
    deadline = perf_counter() + TIME_LIMIT_S
    work_root = os.path.join(WORK_ROOT, str(os.getpid()))
    setups = SETUPS if not args.trace else 1
    setup_times, digests = [], []
    try:
        for i in range(setups):
            proc, setup_s = start_worker(args, os.path.join(work_root, f"setup{i}"), deadline)
            setup_times.append(setup_s)
            if i < setups - 1:
                digests.append(finish_worker(proc, "QUIT", "INPUTS"))
        result = finish_worker(proc, "GO", "RESULT")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    digests.append(result["input_digests"])

    problems = list(result["problems"])
    failed = result["failed"]
    if any(d != digests[0] for d in digests):
        problems.append("set-up inputs differ between set-ups with one seed")
        failed += 1
    attempted = result["attempted"]
    walls = result["walls"]
    q1, wall, q3 = quartiles(walls)

    if args.trace:
        table = result["per_layer"]
        metrics = {name: {"value": table[name], "unit": spans.unit(name)} for name in PER_LAYER}
    else:
        values = {"wall_s": wall, "samples_per_s": result["samples"] / wall,
                  "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": u} for name, u in E2E.items()}

    report = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace, "seconds": args.seconds,
        "size": args.size, "environment": dict(environment(), **result["versions"]),
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(walls)},
        "setup_s": setup_times, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "findings": result["findings"], "input_sha256": digests[-1],
        "output_sha256": result["output_digests"],
    }
    if args.trace:
        report.update(per_layer={k: {"value": v, "unit": spans.unit(k)}
                                 for k, v in result["per_layer"].items()},
                      count_flags=result["count_flags"],
                      traced_wall_s={"median": result["traced_wall_median"],
                                     "n": len(result["traced_walls"])})
    print(f"# tiltkit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"# wall_s median={wall:.6f} q1={q1:.6f} q3={q3:.6f} n={len(walls)}; "
          f"failed_frac={failed}/{attempted}={failed / attempted:.4f}")
    for p in problems[:10]:
        print(f"# problem: {p}")
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke check's small inputs")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make one output check fail on purpose (smoke check)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tiltkit", "__init__.py")):
        print(f"error: no tiltkit source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
