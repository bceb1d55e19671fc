#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, per
end-to-end metric, the interquartile range as a share of the median next to
the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [WORKLOAD ...]

With no workload named, every workload in BENCHMARK.json runs.  Exits 1
when any run fails or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    status = 0
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run(name, seed, bench["run_seconds"])
            if res is None:
                print(f"{name} seed {seed}: FAILED")
                status = 1
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {name} ({args.seeds} seeds)")
        for k, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and not spread <= bound:
                flag = "  OVER BOUND"
                status = 1
            elif bound is not None and not spread <= bound / 3:
                flag = "  above a third of the bound"
            print(f"  {k:36s} median {med:12.4f}  spread {spread:6.3f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
        sys.stdout.flush()
    sys.exit(status)


if __name__ == "__main__":
    main()
