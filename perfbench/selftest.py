#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root.  Checks, for every workload declared in
BENCHMARK.json:
  * --trace 0 prints every end_to_end metric, and --trace 1 every
    per_layer metric, each with its declared unit, and the answers pass
    the correctness gate;
  * --tamper (one root shifted by one cell) makes the gate fail: the run
    exits non-zero and reports "correct": false.
Then it checks that a directory holding only BENCHMARK.json and the
benchmark's own files makes the benchmark exit non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def check(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    failures = []
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in ("0", "1"):
            code, result = run(["--workload", w, "--seed", "7", "--seconds",
                                "0.5", "--trace", trace, "--tiny"])
            label = f"{w} --trace {trace}"
            check(code == 0 and result is not None and result["correct"],
                  f"{label}: exits 0 with correct answers", failures)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"} and result["attempted"] >= 1,
                  f"{label}: result has exactly the four keys", failures)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v.get("unit") for k, v in metrics.items()}
            check(got == want, f"{label}: every declared metric, with its "
                  f"unit ({len(want)} metrics)", failures)
        code, result = run(["--workload", w, "--seed", "7", "--seconds",
                            "0.5", "--trace", "0", "--tiny", "--tamper"])
        check(code != 0 and result is not None and not result["correct"],
              f"{w}: a tampered root fails the correctness gate", failures)

    # A directory with only BENCHMARK.json and perfbench/ cannot build the
    # library, and must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", "jacobi-cold", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "a bare directory exits non-zero without a result", failures)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
