#!/usr/bin/env python3
"""End-to-end RootService benchmark.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library from ../src) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny] [--tamper]

Run it from the repository root.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the traced run
writes its Chrome trace next to it, under traces/.  The last line of stdout
is the result object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0, setup_s is the median over several processes, each of which sets
up from scratch.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("jacobi-cold", "paper-stream")
SETUP_SAMPLES = 5
# Everything after the build must finish within this many seconds.
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest(root):
    """SHA-256 over the library and benchmark sources, so that runs of a
    checkout without git history still say which code they measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the run finished", 1)
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time limit", 1)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None, []
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        return None, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one answer; the gate must fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)

    deadline = time.monotonic() + RUN_DEADLINE_S
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    if args.tiny:
        cmd.append("--tiny")

    setup_samples = []
    if args.trace == "0":
        for _ in range(SETUP_SAMPLES - 1):
            proc = run_binary(cmd + ["--setup-only"], deadline)
            result, _ = last_json(proc.stdout)
            if proc.returncode != 0 or not result or "setup_s" not in result:
                fail("set-up run failed", 1)
            setup_samples.append(float(result["setup_s"]))

    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(
        traces, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if args.tamper:
        cmd.append("--tamper")
    proc = run_binary(cmd + ["--trace-out", trace_out], deadline)
    result, lines = last_json(proc.stdout)
    for line in lines:
        print(line)
    if not result or set(result) != {"correct", "attempted", "failed",
                                     "metrics"}:
        fail(f"no result from the benchmark (exit {proc.returncode})", 1)
    if args.trace == "0":
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(
            setup_samples)
        print("setup_s samples (median reported): " +
              ", ".join(f"{s:.6f}" for s in setup_samples))
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
