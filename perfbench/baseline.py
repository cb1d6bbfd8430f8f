#!/usr/bin/env python3
"""Records the benchmark's baseline: repeated runs, quartiles per metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b]
                                  [--out perfbench/baseline.json]

Run from the repository root, on an otherwise idle machine.  For every
workload in BENCHMARK.json it runs `perfbench/run.py --trace 0` once per
seed, one run at a time, and records each end-to-end metric's median and
quartiles (statistics.quantiles, n=4).  It also prints each metric's spread,
(q3 - q1) / median, beside the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {"run_seconds": bench["run_seconds"], "seeds": seeds,
           "provenance": None, "workloads": {}}
    for w in workloads:
        values = {}
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: run failed ({proc.returncode})")
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith('{"provenance"'):
                    prov = json.loads(line)["provenance"]
                    out["provenance"] = {k: prov[k] for k in (
                        "calibration_profile", "simd_isa", "nproc",
                        "pool_threads", "build_type", "commit")}
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{w} seed {seed}: {time.monotonic() - start:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        table = {}
        for name, (unit, vals) in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else float("nan")
            table[name] = {"unit": unit, "q1": q1, "median": median,
                           "q3": q3, "spread": round(spread, 4),
                           "values": vals}
            print(f"  {name:18s} median {median:.6g} {unit:6s} spread "
                  f"{spread:.3f} (bound {bounds.get(name)})", flush=True)
        out["workloads"][w] = table

    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
