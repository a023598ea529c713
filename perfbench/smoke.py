"""Smoke check of the benchmark itself, at the tiny input size.

    python3 perfbench/smoke.py

Asserts that every metric named in BENCHMARK.json appears with its unit on
every workload in both modes, that a deliberately failed output check
counts in ``failed``, that two runs with one seed give identical counts and
digests, and that a directory holding only BENCHMARK.json and perfbench/
makes the benchmark fail without printing a result.  Exits non-zero on the
first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth", "replay", "tune")


def bench(*extra, cwd=ROOT):
    """Run run.py at the tiny size; returns (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "1",
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result_and_report(lines):
    report = next(json.loads(line[len("# report "):]) for line in lines
                  if line.startswith("# report "))
    return json.loads(lines[-1]), report


def check(condition, message):
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
            check(code == 0, f"{workload} trace={trace} exited {code}")
            result, report = result_and_report(lines)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace], f"{workload} trace={trace}: metrics/units differ "
                  f"from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: {report['problems']}")
            check(report["failed_frac"] == 0.0, f"{workload}: failed_frac")
            print(f"smoke: {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations ok")

    for workload in WORKLOADS:
        code, lines = bench("--workload", workload, "--trace", "0", "--inject-failure")
        result, report = result_and_report(lines)
        check(code == 0 and not result["correct"] and result["failed"] >= 1
              and report["failed_frac"] > 0, f"{workload}: injected failure not counted")
    print("smoke: injected output-check failures are counted")

    runs = [result_and_report(bench("--workload", "tune", "--seed", "5", "--trace", "1")[1])
            for _ in range(2)]
    for name in runs[0][1]["per_layer"]:
        if spans.repeats_exactly(name):
            a, b = (r[1]["per_layer"][name]["value"] for r in runs)
            check(a == b, f"count {name} differs between runs with one seed: {a} != {b}")
    check(runs[0][1]["output_sha256"] == runs[1][1]["output_sha256"],
          "output digests differ between runs with one seed")
    print("smoke: counts and digests repeat exactly with one seed")

    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = bench("--workload", "synth", "--trace", "0", cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              f"bare directory: exit {code}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    print("smoke: a directory without the sources fails without a result")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
